"""Count how often each line of ``src/finkern`` runs in one cycle of a
benchmark workload's timed ops.

    python3 tools/line_traffic.py --workload theorem-batch [--seed 1]

The ops are the benchmark's own: one cycle built by ``bench/run.py``'s
``_build_ops`` for the workload and seed. As in a timed run, the first op
of an in-process workload runs once untraced as a warm-up. Each op then
runs once under ``sys.settrace``, which counts the line events of frames in
``src/finkern`` only, and its check runs untraced. For ``cli`` each op's
child process is replaced by a call of ``finkern.cli.main`` in this
process, whose output goes to the files the op's check reads.

Prints ``file:line hits`` for every line executed, by file and line, with
the file relative to ``src``; a comprehension's line counts once per item.
The kinds of failed ops go to stderr, and the exit status is 1 if any op
failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "bench")]

import run  # noqa: E402  (bench/run.py, found through the path above)
from tracing import UNTRACED  # noqa: E402

PACKAGE = str(SRC / "finkern") + os.sep


def _in_process(children) -> None:
    """Make ``children.spawn`` run ``finkern.cli.main`` in this process."""
    from finkern.cli import main

    def spawn(args, profile):
        with (open(children.work / "stdout.txt", "w") as out,
              open(children.work / "stderr.txt", "w") as err,
              redirect_stdout(out), redirect_stderr(err)):
            try:
                return main(args)
            except SystemExit as exc:  # argparse's usage errors
                return exc.code
    children.spawn = spawn


def line_traffic(ops) -> tuple[Counter, list[str]]:
    """Run each op traced and check it untraced: (hits per (file, line),
    kinds of the failed ops)."""
    hits = Counter()

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename, frame.f_lineno] += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    failed = []
    for op in ops:
        sys.settrace(enter)
        try:
            result = op.run(UNTRACED)
        finally:
            sys.settrace(None)
        if not op.check(result, UNTRACED):
            failed.append(op.kind)
    return hits, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ops, children = run._build_ops(args.workload, args.seed, 1)
    if children is None:
        ops[0].run(UNTRACED)
    else:
        _in_process(children)
    hits, failed = line_traffic(ops)
    for (path, line), count in sorted(hits.items()):
        print(f"{os.path.relpath(path, SRC)}:{line} {count}")
    if failed:
        print("failed ops: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
