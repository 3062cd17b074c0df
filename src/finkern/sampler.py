"""Float-mode chain simulation and empirical diagnostics.

Exact kernels are converted to double-precision stochastic matrices once,
then chains run with a seeded Mersenne Twister. Runs are deterministic given
(kernel, initial, seed, length) and record the generator identity.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .kernels import Kernel, is_normalized
from .enrichment import is_cancellative

RNG_NAME = "python-mersenne-twister"

FloatMatrix = tuple[tuple[float, ...], ...]


def to_float(kernel: Kernel) -> FloatMatrix:
    """Nearest-double conversion of a normalized, all-finite kernel.

    After rounding, each row's largest entry absorbs the residual so row
    sums are exactly 1.0.
    """
    if not is_cancellative(kernel):
        raise ValueError("kernel has infinite entries")
    if not is_normalized(kernel):
        raise ValueError("kernel is not normalized")
    width = len(kernel.cod)
    rows = []
    for cols, vals in kernel.rows:
        floats = [0.0] * width
        for j, v in zip(cols, vals):
            floats[j] = v.to_float()
        top = max(range(len(floats)), key=floats.__getitem__)
        for _ in range(10):
            gap = 1.0 - math.fsum(floats)
            if gap == 0.0:
                break
            floats[top] += gap
        else:
            raise ValueError("row failed to renormalize to 1.0")
        if floats[top] < 0.0:
            raise ValueError("residual absorption produced a negative entry")
        rows.append(tuple(floats))
    return tuple(rows)


@dataclass
class ChainRun:
    """A finished simulation: the matrix, the configuration, and the trace."""

    kernel: FloatMatrix
    initial: int
    seed: int
    length: int
    trace: list[int] = field(repr=False)
    rng_name: str = RNG_NAME


def run_chain(kernel: FloatMatrix, initial: int, seed: int, length: int) -> ChainRun:
    """Simulate ``length`` steps from ``initial`` with a seeded generator."""
    n = len(kernel)
    if not 0 <= initial < n:
        raise IndexError(f"initial state {initial} out of range")
    if length < 0:
        raise ValueError("length must be nonnegative")
    cumulative = [_cumulative(row) for row in kernel]
    rng = random.Random(seed)
    state = initial
    trace = [state]
    append = trace.append
    rand = rng.random
    for _ in range(length):
        state = bisect_right(cumulative[state], rand())
        append(state)
    return ChainRun(kernel=kernel, initial=initial, seed=seed,
                    length=length, trace=trace)


def _cumulative(row: tuple[float, ...]) -> list[float]:
    """The running sums of a row, set to 1.0 from its last positive entry on.

    ``bisect_right(cum, u)`` for ``u`` in [0, 1) then lands only on
    positive entries: a zero entry repeats the sum before it, so no ``u``
    selects it, and the 1.0 tail closes the gap that rounding leaves below
    1.0 at the last positive entry instead of handing it to a trailing
    zero.
    """
    cum = list(accumulate(row))
    last = len(row) - 1
    while last > 0 and row[last] <= 0.0:
        last -= 1
    cum[last:] = [1.0] * (len(row) - last)
    return cum


def empirical(run: ChainRun, burn_in: int) -> tuple[float, ...]:
    """Visit frequencies over the trace after discarding ``burn_in`` steps."""
    if not 0 <= burn_in < run.length:
        raise ValueError("burn_in must satisfy 0 <= burn_in < length")
    counts = [0] * len(run.kernel)
    kept = run.trace[burn_in:]
    for state in kept:
        counts[state] += 1
    total = len(kept)
    return tuple(c / total for c in counts)


def tv_distance(p, q) -> float:
    """Total variation distance: half the L1 distance."""
    if len(p) != len(q):
        raise ValueError("distributions have different lengths")
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(p, q))
