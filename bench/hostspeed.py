"""Fixed stdlib reference tasks that gauge the host's current speed.

The reference machine shares its host with other tenants, and its speed
moves by up to 2x between states that last seconds to minutes (see
README.md). A timed run brackets every op, and every set-up sample, with
runs of a reference task, and scales the op's wall time by
``QUIET_S[task] / (reference time around it)``. The result is the op's time
at the reference machine's quiet speed: a change in the host scales the op
and the reference alike and cancels, while a change in finkern moves the op
alone.

Hosts do not slow every kind of work alike, so there are three tasks, each
doing the kind of work of what it brackets:

- ``exact``: products and sums of small rationals, with many small objects
  kept in lists and dicts, as finkern's exact layers do;
- ``sampling``: a seeded random walk over cumulative float rows with
  ``bisect``, as the float sampler does;
- ``process``: starting a bare interpreter, ``python -c pass``, as every
  CLI op and set-up sample does before its own work.

All use only the standard library and fixed inputs, so no change to
finkern or to a seed can move them.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from fractions import Fraction

# Wall seconds of one run of each task on the reference machine in its quiet
# state (see README.md). They only set the scale of the scaled times.
QUIET_S = {"exact": 0.009, "sampling": 0.0085, "process": 0.055}

_SIZE = 14
_STEPS = 30_000

_rng = random.Random(20260117)
_MATRIX = [[Fraction(_rng.randint(0, 3), _rng.randint(1, 8))
            for _ in range(_SIZE)] for _ in range(_SIZE)]


def _cumulative(weights: list[float]) -> list[float]:
    total = sum(weights)
    acc, cum = 0.0, []
    for w in weights:
        acc += w / total
        cum.append(acc)
    cum[-1] = 1.0
    return cum


_ROWS = [_cumulative([_rng.random() for _ in range(64)]) for _ in range(64)]


def _exact() -> None:
    cells = {}
    for i, row in enumerate(_MATRIX):
        for j in range(_SIZE):
            cells[i, j] = sum((row[k] * _MATRIX[k][j] for k in range(_SIZE)),
                              Fraction(0))


def _sampling() -> None:
    rand = random.Random(11).random
    state = 0
    trace = [state]
    append = trace.append
    for _ in range(_STEPS):
        state = bisect_left(_ROWS[state], rand())
        append(state)


def _process() -> None:
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   check=True, timeout=60)


_TASKS = {"exact": _exact, "sampling": _sampling, "process": _process}


def reference(task: str) -> float:
    """Run one reference task once; return its wall seconds."""
    start = time.perf_counter()
    _TASKS[task]()
    return time.perf_counter() - start


def scale(seconds: float, references, task: str) -> float:
    """``seconds`` at the quiet speed, from the reference times around it."""
    return seconds * QUIET_S[task] / statistics.median(references)


def scale_all(latencies, brackets, task: str) -> list[float]:
    """Scale op after op; ``brackets`` holds each op's (before, after) times.

    Consecutive ops share a reference run: one op's ``after`` is the next
    op's ``before``.

    An op's local speed is the median of its own two reference runs and
    those of the ops next to it, so that one disturbed reference run does
    not rescale an op.
    """
    return [scale(seconds, [t for pair in brackets[max(0, i - 1):i + 2]
                            for t in pair], task)
            for i, seconds in enumerate(latencies)]
