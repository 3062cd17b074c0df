"""Bound the peak memory of a Python child process over a baseline one.

    python -S tools/peak_rss.py import      # import finkern, over python -c pass
    python -S tools/peak_rss.py gibbs-16    # a 16x16x16 Gibbs check, over import finkern

A case names a baseline snippet, a measured snippet and a limit in MB. Each
snippet runs three times in a fresh ``python -c`` child, with ``src`` on the
path and no bytecode cache, so the child compiles what it imports as a cold
CLI process does. The peak RSS of a child is its ``ru_maxrss`` from
``os.wait4``, and a case compares the least of each snippet's three. Every
reading is printed. The exit status is 1 if the difference exceeds the
case's limit or a child fails.

Run it without site (``-S``): a child's ``ru_maxrss`` also counts its
launcher's pages from before exec, and site's imports would add to them.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
RUNS = 3

# is_invariant pushes the joint through the three sites and never builds the
# sweep's 4096 rows of 4096 entries
GIBBS_16 = """
import random
from finkern import FinSpace, gibbs, is_invariant, product_many
from finkern.generators import rand_probability_measure
factors = [FinSpace(tuple(f"c{i}_{j}" for j in range(16))) for i in range(3)]
joint = rand_probability_measure(random.Random(1), product_many(factors),
                                 zero_weight=0.3)
assert is_invariant(joint, gibbs(joint, factors))
"""

#: case -> (baseline snippet, measured snippet, what is measured, limit in MB)
CASES = {
    "import": ("pass", "import finkern", "import finkern", 2.4),
    "gibbs-16": ("import finkern", GIBBS_16, "16x16x16 Gibbs check", 8.0),
}


def peak(code: str) -> float:
    """The peak RSS in MB of one ``python -c code`` child."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=SRC)
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code], env)
    _, status, usage = os.wait4(pid, 0)
    if status:
        sys.exit(f"python -c {code!r} failed")
    return usage.ru_maxrss / 1024


def least_peak(label: str, code: str) -> float:
    readings = [peak(code) for _ in range(RUNS)]
    print(f"{label}: " + ", ".join(f"{r:.2f}" for r in readings) + " MB")
    return min(readings)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in CASES:
        sys.exit(f"usage: python -S tools/peak_rss.py {{{','.join(CASES)}}}")
    base_code, code, what, limit = CASES[argv[0]]
    base_label = "python -c pass" if base_code == "pass" else base_code
    base = least_peak(base_label, base_code)
    measured = least_peak(what, code)
    print(f"{what}: {measured - base:.2f} MB over {base_label}"
          f" ({base:.2f} MB; limit {limit:g} MB)")
    return 0 if measured - base <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
