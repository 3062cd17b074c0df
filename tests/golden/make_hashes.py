"""Write the library's differential hashes: one per op family and seed.

Run from anywhere::

    python3 tests/golden/make_hashes.py           # write the hashes
    python3 tests/golden/make_hashes.py --check   # recompute them, write nothing

Each family draws seeded instances of one group of library operations and
hashes their exact outputs in order: a kernel as its spaces' labels and its
stored integer rows, an involution as its permutation, a sampler run as its
trace, and a witness, a flag, visit frequencies or an error as its repr.
``tests/golden/hashes.txt`` holds one line per family and seed: the
family, the seed, the number of outputs and their SHA-256. Each family
and seed draws from its own ``random.Random(f"{family}/{seed}")``, so
adding a family leaves the other lines as they are. ``--check``
recomputes every line and exits 1, naming each family whose line
differs; ``tests/test_golden.py`` runs the same check. Both modes use
only the standard library and the package under ``src``.

Instances draw ``oo`` entries at a fixed weight and force zero rows, so the
paths that absorb finite mass into ``oo`` and skip empty rows are covered.
A deliberate change of an operation's exact output regenerates the file
with this script; the families whose lines changed are then listed with
the change.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[2]
HASHES = Path(__file__).resolve().parent / "hashes.txt"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from finkern.generators import (
    rand_involution, rand_mh_problem, rand_normalized_kernel,
    rand_probability_measure, rand_reversible_kernel, rand_value,
)
from finkern.kernels import (
    Involution, Kernel, compose, deterministic, from_pair_rows, graph,
    lift_involution, measure, pushforward, resample_within, swap_asymmetry,
    tensor,
)
from finkern.mcmc import (
    METROPOLIS, MhProblem, balancing_alpha, build_mh, build_skew_mh,
    classical_mh, detailed_balance_violation, exchange_algorithm, gibbs,
    is_skew_reversible, skew_balance_violation, verify_mh_theorem,
    verify_skew_theorem,
)
from finkern.sampler import ChainRun, empirical, run_chain, to_float
from finkern.semiring import INF, ONE, ZERO, ExtNonneg
from finkern.spaces import UNIT, FinSpace, product_many

SEEDS = (2026, 7)
#: Instances per family and seed.
INSTANCES = 250
#: The weight of ``oo`` among drawn entries, and the share of forced zero rows.
INF_WEIGHT = 0.15
ZERO_ROW = 0.15
#: Steps of each sampler run.
STEPS = 400
#: Steps of the long sampler runs: two full chunks of ``run_chain``'s
#: ``2**14`` packed steps, and 3 steps more.
LONG_STEPS = 2 * 2**14 + 3


# ---------------------------------------------------------------------------
# drawing instances


def _space(rng: random.Random, prefix: str, lo: int = 1, hi: int = 5):
    return FinSpace(tuple(f"{prefix}{i}" for i in range(rng.randint(lo, hi))))


def _value(rng: random.Random, zero_weight: float = 0.4):
    return rand_value(rng, 12, zero_weight, INF_WEIGHT)


def _kernel(rng: random.Random, dom, cod, zero_weight: float = 0.4):
    """A kernel of drawn entries, with a share of its rows forced to zero."""
    return Kernel(dom, cod, [
        [ZERO] * len(cod) if rng.random() < ZERO_ROW
        else [_value(rng, zero_weight) for _ in cod.labels]
        for _ in dom.labels])


def _measure(rng: random.Random, space):
    return _kernel(rng, UNIT, space)


def _index_map(rng: random.Random, dom, cod, injective: bool = False):
    targets = (rng.sample(range(len(cod)), len(dom)) if injective
               else [rng.randrange(len(cod)) for _ in dom.labels])
    place = dict(zip(dom.labels, (cod.labels[t] for t in targets)))
    return deterministic(dom, cod, place.__getitem__)


def _preserved_twist(rng: random.Random, target):
    """An involution pairing points of equal target mass (zero and oo too)."""
    masses = target.measure_values()
    order = list(range(len(masses)))
    rng.shuffle(order)
    perm = list(range(len(masses)))
    for a in order:
        if perm[a] == a:
            b = next((b for b in order if b != a and perm[b] == b
                      and masses[b] == masses[a]), None)
            if b is not None and rng.random() < 0.8:
                perm[a], perm[b] = b, a
    return Involution(target.cod, tuple(perm))


def _orbit_target(rng: random.Random, space, twist=None):
    """A measure with zero, finite and oo masses, equal on the orbits of a
    random involution or of ``twist``; returns both."""
    twist = twist or rand_involution(rng, space)
    masses = [_value(rng, 0.2) for _ in space.labels]
    for i, j in enumerate(twist.perm):
        if i < j:
            masses[j] = masses[i]
    return measure(space, masses), twist


def _perturbed(rng: random.Random, chain):
    """The chain with one entry redrawn, half of the time."""
    if rng.random() < 0.5:
        return chain
    rows = [list(row) for row in chain.entries]
    rows[rng.randrange(len(rows))][rng.randrange(len(rows))] = _value(rng, 0.3)
    return Kernel(chain.dom, chain.cod, rows)


def _balanced(rng: random.Random, target, chain):
    """The chain made to hold detailed balance against the target, zero and
    oo masses included: the rows below the diagonal follow those above."""
    masses, rows = target.measure_values(), [list(row) for row in chain.entries]
    n = len(masses)
    for i in range(n):
        for j in range(i + 1, n):
            joint = masses[i] * rows[i][j]
            if not masses[j].num:
                if joint.num:
                    rows[i][j] = ZERO
            elif masses[j].is_finite:
                rows[j][i] = joint / masses[j]
            elif joint.num:
                rows[i][j], rows[j][i] = INF, ONE
            else:
                rows[j][i] = ZERO
    return Kernel(target.cod, target.cod, rows)


# ---------------------------------------------------------------------------
# the families: rng -> outputs


def compose_family(rng: random.Random) -> Iterator[object]:
    for _ in range(INSTANCES):
        a, b, c = _space(rng, "a"), _space(rng, "b"), _space(rng, "c")
        earlier, later = _kernel(rng, a, b), _kernel(rng, b, c)
        yield compose(later, earlier)
        yield compose(earlier, _measure(rng, a))
        yield compose(later, _kernel(rng, a, b, zero_weight=0.8))
        # later rows shared by middle points, for the shared-row merge
        order = list(range(len(b)))
        rng.shuffle(order)
        cut = rng.randint(1, len(b))
        shared = resample_within(rand_probability_measure(rng, b, 0.3),
                                 [order[:cut], order[cut:]] if cut < len(b) else [order])
        yield compose(shared, earlier)
        yield compose(shared, _measure(rng, b))


def relabel_family(rng: random.Random) -> Iterator[object]:
    for _ in range(INSTANCES):
        a, b, c = _space(rng, "a"), _space(rng, "b"), _space(rng, "c")
        k = _kernel(rng, a, b)
        perm = _index_map(rng, b, b, injective=True)
        merge = _index_map(rng, b, c)
        yield compose(perm, k)
        yield compose(merge, k)
        yield compose(merge, _measure(rng, b))
        yield compose(k, _index_map(rng, c, a))
        yield compose(merge, _index_map(rng, a, b))
        yield tensor(perm, _index_map(rng, a, c))
        yield pushforward(rand_involution(rng, b), _measure(rng, b))


def sum_family(rng: random.Random) -> Iterator[object]:
    for _ in range(INSTANCES):
        a, b = _space(rng, "a"), _space(rng, "b")
        yield _kernel(rng, a, b) + _kernel(rng, a, b)
        yield _kernel(rng, a, b, 0.8) + _kernel(rng, a, b, 0.8)
        left = [rng.random() < 0.5 for _ in b.labels]
        p, q = _kernel(rng, a, b), _kernel(rng, a, b)
        p = Kernel(a, b, [[v if keep else ZERO for v, keep in zip(row, left)]
                          for row in p.entries])
        q = Kernel(a, b, [[ZERO if keep else v for v, keep in zip(row, left)]
                          for row in q.entries])
        yield p + q
        yield _measure(rng, b) + _measure(rng, b)


def graph_family(rng: random.Random) -> Iterator[object]:
    for _ in range(INSTANCES):
        a, b = _space(rng, "a"), _space(rng, "b")
        k = _kernel(rng, a, b)
        yield graph(k)
        yield compose(graph(k), _measure(rng, a))
        yield graph(_index_map(rng, a, b))


def classical_mh_family(rng: random.Random) -> Iterator[object]:
    for _ in range(INSTANCES // 2):
        space = _space(rng, "x", 2, 6)
        target = rand_probability_measure(rng, space, zero_weight=0.2)
        proposal = rand_normalized_kernel(rng, space, space, zero_weight=0.3)
        yield from classical_mh(target, proposal)


def gibbs_family(rng: random.Random) -> Iterator[object]:
    for _ in range(INSTANCES // 2):
        factors = [_space(rng, f"c{i}_", 1, 3) for i in range(rng.randint(2, 3))]
        joint = rand_probability_measure(rng, product_many(factors), zero_weight=0.3)
        chain = gibbs(joint, factors)
        yield chain
        yield compose(chain, joint)


def exchange_family(rng: random.Random) -> Iterator[object]:
    for _ in range(INSTANCES // 2):
        base, data = _space(rng, "t", 2, 4), _space(rng, "z", 2, 3)
        prior = measure(base, [rand_value(rng, 8, zero_weight=0.2) for _ in base.labels])
        likelihood = Kernel(base, data, [
            [rand_value(rng, 8, zero_weight=0.3) + ExtNonneg(1, 8)
             if rng.random() < 0.8 else rand_value(rng, 8) for _ in data.labels]
            for _ in base.labels])
        proposal = rand_normalized_kernel(rng, base, base, zero_weight=0.3)
        observed = data.labels[rng.randrange(len(data))]
        try:
            yield from exchange_algorithm(prior, likelihood, observed, proposal)
        except ValueError as exc:
            yield exc


def detailed_balance_family(rng: random.Random) -> Iterator[object]:
    def witnesses(target, chain):
        yield swap_asymmetry(target, chain)
        yield detailed_balance_violation(target, chain)

    for _ in range(INSTANCES):
        space = _space(rng, "x", 2, 6)
        target = _measure(rng, space)
        chain = _kernel(rng, space, space, zero_weight=0.5)
        yield from witnesses(target, chain)
        yield from witnesses(target, _perturbed(rng, _balanced(rng, target, chain)))
        positive = rand_probability_measure(rng, space)
        yield from witnesses(positive, _perturbed(rng, rand_reversible_kernel(rng, positive)))
        problem = rand_mh_problem(rng)
        yield from witnesses(problem.target, build_mh(problem))
        yield verify_mh_theorem(problem)


def skew_family(rng: random.Random) -> Iterator[object]:
    for _ in range(INSTANCES):
        space = _space(rng, "x", 2, 6)
        target, twist = _orbit_target(rng, space)
        chain = _kernel(rng, space, space, zero_weight=0.5)
        yield skew_balance_violation(target, twist, chain)
        positive, twist = _orbit_target(rng, space, twist)
        if all(m.num and m.is_finite for m in positive.measure_values()):
            skewed = compose(lift_involution(twist),
                             rand_reversible_kernel(rng, positive))
            yield skew_balance_violation(positive, twist, _perturbed(rng, skewed))
        yield is_skew_reversible(target, twist, _perturbed(rng, chain))
        problem = rand_mh_problem(rng)
        twist = _preserved_twist(rng, problem.target)
        built = build_skew_mh(problem, twist)
        yield built
        yield skew_balance_violation(problem.target, twist, _perturbed(rng, built))
        yield verify_skew_theorem(problem, twist)
        positive = rand_probability_measure(rng, space)
        yield skew_balance_violation(positive, _preserved_twist(rng, positive), chain)


def _simulate_chains(rng: random.Random) -> list[Kernel]:
    """The four chains of the ``simulate`` workload: two states, a 5 x 5 x 5
    Gibbs grid, a 256-point involutive chain and a 16-point classical one."""
    two = measure(FinSpace.atoms("a b"), [ExtNonneg(1, 3), ExtNonneg(2, 3)])
    flip = Involution.from_mapping(two.cod, {"a": "b", "b": "a"})
    chains = [build_mh(MhProblem(two, flip, balancing_alpha(METROPOLIS, two, flip)))]
    factors = [_space(rng, f"c{i}_", 5, 5) for i in range(3)]
    chains.append(gibbs(rand_probability_measure(rng, product_many(factors)), factors))
    chains.append(build_mh(rand_mh_problem(rng, 256, 256, mode="balanced")))
    space = _space(rng, "x", 16, 16)
    chains.append(classical_mh(rand_probability_measure(rng, space),
                               rand_normalized_kernel(rng, space, space))[1])
    return chains


def run_chain_family(rng: random.Random) -> Iterator[object]:
    """Traces of the four chains of the ``simulate`` workload, then two
    runs that cross chunks of packed steps: one of the 256-point chain, a
    byte trace, and one of a 300-state chain, a list trace."""
    matrices = [to_float(chain) for chain in _simulate_chains(rng)]
    for matrix in matrices:
        for _ in range(3):
            yield run_chain(matrix, rng.randrange(len(matrix)),
                            rng.randrange(2 ** 32), STEPS)
    for matrix in (matrices[2], _closed_class(rng, 300, 300)):
        yield run_chain(matrix, rng.randrange(len(matrix)),
                        rng.randrange(2 ** 32), LONG_STEPS)


def _closed_class(rng: random.Random, n: int, reach: int):
    """A float chain on ``n`` states whose first ``reach`` form a closed
    class that state 0 reaches in full: state ``i`` of the class moves to
    ``i + 1`` (mod ``reach``) and to up to two more states of the class,
    and every other state to up to three states anywhere."""
    space = _space(rng, "s", n, n)
    rows = []
    for i in range(n):
        succ = ({(i + 1) % reach} | {rng.randrange(reach) for _ in range(2)}
                if i < reach else {rng.randrange(n) for _ in range(3)})
        rows.append({j: (rng.randint(1, 9), 1) for j in succ})
    for row in rows:
        total = sum(num for num, _ in row.values())
        for j, (num, _) in row.items():
            row[j] = (num, total)
    return to_float(from_pair_rows(space, space, rows))


def _frequencies(run: ChainRun, burn_ins) -> Iterator[object]:
    for burn_in in burn_ins:
        try:
            yield empirical(run, burn_in)
        except (IndexError, ValueError) as exc:
            yield exc


def empirical_family(rng: random.Random) -> Iterator[object]:
    """Visit frequencies of the ``simulate`` workload's four chains, of
    chains on more than 256 states, of chains reaching more than a few of
    at most 256 states, and of hand-built runs whose traces leave the
    reachable set, each at several burn-ins."""
    steps = 4 * STEPS
    ends = (0, 1, steps // 3, steps - 1, steps)
    for chain in _simulate_chains(rng):
        matrix = to_float(chain)
        for _ in range(3):
            run = run_chain(matrix, rng.randrange(len(matrix)),
                            rng.randrange(2 ** 32), steps)
            yield from _frequencies(run, ends + (rng.randrange(steps),))
    for n, reach in ((300, 300), (300, 12), (257, 20), (256, 256), (256, 200),
                     (256, 48), (256, 32), (255, 25), (256, 24), (40, 23),
                     (24, 24), (2, 1)):
        matrix = _closed_class(rng, n, reach)
        run = run_chain(matrix, 0, rng.randrange(2 ** 32), steps)
        yield from _frequencies(run, ends)
        # hand-built runs: a state outside the class (in range or not, or
        # negative) after the burn-in or only before it, and traces over
        # every state from state 0 and from a state outside the class
        outside = (n, n + 7, -1) if reach == n else (reach, n, n + 7, -1)
        for bad in outside:
            trace = list(run.trace)
            at = rng.randrange(steps // 3, steps + 1)
            trace[at] = bad
            hand = ChainRun(matrix, run.initial, run.seed, steps, trace)
            yield from _frequencies(hand, (0, at, at + 1 if at < steps else 1))
        if reach < n:
            trace = [rng.randrange(n) for _ in range(steps + 1)]
            yield from _frequencies(ChainRun(matrix, 0, 0, steps, trace),
                                    (0, steps // 2))
            yield from _frequencies(ChainRun(matrix, reach, 0, steps, trace), (0,))


FAMILIES: dict[str, Callable[[random.Random], Iterator[object]]] = {
    "compose": compose_family,
    "relabel": relabel_family,
    "sum": sum_family,
    "graph": graph_family,
    "classical_mh": classical_mh_family,
    "gibbs": gibbs_family,
    "exchange": exchange_family,
    "detailed_balance": detailed_balance_family,
    "skew_balance": skew_family,
    "run_chain": run_chain_family,
    "empirical": empirical_family,
}


# ---------------------------------------------------------------------------
# hashing, writing and checking


def canonical(out: object) -> str:
    """The text an output is hashed as."""
    if isinstance(out, Kernel):
        return repr((out.dom.labels, out.cod.labels,
                     [(tuple(c), tuple(n), d, tuple(f)) for c, n, d, f in out.int_rows]))
    if isinstance(out, Involution):
        return repr((out.space.labels, tuple(out.perm)))
    if isinstance(out, ChainRun):
        return repr(tuple(out.trace))
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    return repr(tuple(out) if isinstance(out, tuple) else out)  # flags as a plain tuple


def family_line(name: str, seed: int) -> str:
    digest = hashlib.sha256()
    count = 0
    for out in FAMILIES[name](random.Random(f"{name}/{seed}")):
        digest.update(canonical(out).encode() + b"\n")
        count += 1
    return f"{name} {seed} {count} {digest.hexdigest()}"


def lines() -> list[str]:
    return [family_line(name, seed) for name in FAMILIES for seed in SEEDS]


def differences() -> list[str]:
    """Each line of the hash file that the library no longer reproduces,
    with the line it gives now; empty when all replay."""
    on_disk = HASHES.read_text().splitlines()
    now = lines()
    if [line.split()[:2] for line in on_disk] != [line.split()[:2] for line in now]:
        return ["the file's families and seeds are not those the script lists"]
    return [f"{old}\n  now {new}" for old, new in zip(on_disk, now) if old != new]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the library's differential "
                                     "hashes, or recompute them with --check.")
    parser.add_argument("--check", action="store_true",
                        help="recompute the hashes and exit 1 if any differs")
    check = parser.parse_args(argv).check
    if check:
        problems = differences()
        print("\n".join(problems) or f"{HASHES.relative_to(ROOT)} replays unchanged")
        return 1 if problems else 0
    text = "\n".join(lines()) + "\n"
    HASHES.write_text(text)
    print(f"{len(FAMILIES) * len(SEEDS)} lines -> {HASHES.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
