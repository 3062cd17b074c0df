"""Float-mode chain simulation and empirical diagnostics.

Exact kernels are converted to double-precision stochastic matrices once,
then chains run with a seeded Mersenne Twister. Runs are deterministic given
(kernel, initial, seed, length) and record the generator identity. Each
run allocates its own trace; nothing is kept from one run to the next.

Each step is inverse-CDF sampling on the row's float running sums
(``_cumulative``) with a (g+53)-bit uniform ``u = (c + v) / 2**g``: the
successor is the number of running sums ``<= u``. A zero entry repeats the
sum before it, and the sums are 1.0 from the row's last positive entry on,
so no step ever takes a zero entry. A step draws ``c = getrandbits(g)`` and
reads cell ``c`` of the row's guide table (Chen & Asau 1974), which splits
[0, 1) into ``2**g`` equal cells, ``2**g`` being the least power of two at
least 16 times the row's support size. A cell that no running sum falls
strictly inside holds its successor, and that is the whole step (at least
15 steps in 16); otherwise the step draws ``v = random()`` and compares it
with the sums inside the cell. Tables are built only for the rows the
chain can reach from its initial state; a row's table does not depend on
which others are built, so neither do the draws.

Equal rows share one float row and one guide table: ``to_float`` converts
each distinct row once, and ``run_chain`` builds one table per distinct
reachable row, keyed on the row's value. A systematic-scan Gibbs chain
on a 5 x 5 x 5 grid, whose row ignores the first coordinate it resamples,
then converts 25 rows and builds 25 tables, not 125. A table depends on
its row alone, so sharing it changes no seeded trace.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate, compress, islice

from .spaces import format_label
from .kernels import Kernel, normalized_violation, pair_rows
from ._record import Record

RNG_NAME = "python-mersenne-twister"

FloatMatrix = tuple[tuple[float, ...], ...]

#: Guide-table cells per positive entry of a row, before rounding up to a
#: power of two: at most one step in 16 then needs a second draw.
_CELLS_PER_ENTRY = 16


def to_float(kernel: Kernel) -> FloatMatrix:
    """Nearest-double conversion of a normalized (hence all-finite) kernel.

    After rounding, each row's largest entry absorbs the residual so row
    sums are exactly 1.0. Equal rows share one pair map (see
    ``pair_rows``), which is converted once: they share one float tuple.
    """
    bad = normalized_violation(kernel)
    if bad is not None:
        raise ValueError(f"kernel is not normalized at row {format_label(bad)}")
    maps = pair_rows(kernel)
    distinct = {id(pairs): pairs for pairs in maps}
    width = len(kernel.cod)
    floats = {key: _float_row(pairs, width) for key, pairs in distinct.items()}
    return tuple([floats[id(pairs)] for pairs in maps])


def _float_row(pairs: dict[int, tuple[int, int]], width: int) -> tuple[float, ...]:
    """One normalized row's floats, from its pair map, summing to 1.0."""
    # the work is per nonzero: zeros add nothing to an exact fsum, and a
    # normalized row's largest float is positive, so its first maximal
    # index is a stored column's. Python's int / int is correctly
    # rounded, so num / den is the nearest double to the entry.
    nonzero = [n / d for n, d in pairs.values()]
    top = max(range(len(nonzero)), key=nonzero.__getitem__)
    for _ in range(10):
        gap = 1.0 - math.fsum(nonzero)
        if gap == 0.0:
            break
        nonzero[top] += gap
    else:
        raise ValueError("row failed to renormalize to 1.0")
    if nonzero[top] < 0.0:
        raise ValueError("residual absorption produced a negative entry")
    floats = [0.0] * width
    for j, x in zip(pairs, nonzero):
        floats[j] = x
    return tuple(floats)


class ChainRun(Record):
    """A finished simulation: the matrix, the configuration, and the trace.

    The trace, ``length + 1`` states, is left out of the repr.
    """

    __slots__ = ("kernel", "initial", "seed", "length", "trace", "rng_name")
    _hidden = ("trace",)

    def __init__(self, kernel: FloatMatrix, initial: int, seed: int,
                 length: int, trace: list[int], rng_name: str = RNG_NAME):
        self.kernel = kernel
        self.initial = initial
        self.seed = seed
        self.length = length
        self.trace = trace
        self.rng_name = rng_name


def run_chain(kernel: FloatMatrix, initial: int, seed: int, length: int) -> ChainRun:
    """Simulate ``length`` steps from ``initial`` with a seeded generator."""
    n = len(kernel)
    if not 0 <= initial < n:
        raise IndexError(f"initial state {initial} out of range")
    if length < 0:
        raise ValueError("length must be nonnegative")
    trace = [initial] * (length + 1)
    offsets: list[float] = []  # the split cells, one after another
    picks: list[int] = []
    # guide tables for the rows reachable from ``initial`` only, found by a
    # walk over the positive support of each row it reaches; equal rows
    # share one table, and only the first of them pushes its successors
    tables: list = [None] * n
    built: dict[tuple[float, ...], tuple[int, list[int]]] = {}  # row -> table
    todo = [initial]
    while todo:
        i = todo.pop()
        if tables[i] is None:
            row = kernel[i]
            table = built.get(row)
            if table is None:
                table = built[row] = _guide_table(row, offsets, picks)
                todo.extend(compress(range(n), row))
            tables[i] = table
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    rand = rng.random
    state = initial
    bits, cells = tables[state]
    for t in range(1, length + 1):
        state = cells[getrandbits(bits)]
        if state < 0:
            i = ~state
            v = rand()
            while offsets[i] <= v:
                i += 1
            state = picks[i]
        trace[t] = state
        bits, cells = tables[state]
    return ChainRun(kernel=kernel, initial=initial, seed=seed,
                    length=length, trace=trace)


def _cumulative(row: tuple[float, ...]) -> list[float]:
    """The running sums of a row, set to 1.0 from its last positive entry on.

    The number of sums ``<= u`` for ``u`` in [0, 1) is then always the
    index of a positive entry: a zero entry repeats the sum before it, so
    no ``u`` selects it, and the 1.0 tail closes the gap that rounding
    leaves below 1.0 at the last positive entry instead of handing it to a
    trailing zero.
    """
    cum = list(accumulate(row))
    last = len(row) - 1
    while last > 0 and row[last] <= 0.0:
        last -= 1
    cum[last:] = [1.0] * (len(row) - last)
    return cum


def _guide_table(row: tuple[float, ...], offsets: list[float],
                 picks: list[int]) -> tuple[int, list[int]]:
    """A row's guide table ``(g, cells)``: ``2**g`` cells over [0, 1).

    Cell ``c`` covers ``[c/m, (c+1)/m)``, ``m = 2**g``. If no running sum
    ``b`` of the row lies strictly inside it, ``cells[c]`` is the successor
    of every ``u`` in it. Otherwise ``cells[c]`` is ``~i``: the cell's
    sums are ``offsets[i:k]``, each stored as ``b*m - c``, followed by a
    1.0 that ends the cell, and ``picks[i:k+1]`` are the successors below,
    between and above them. The successor at ``u = (c + v)/m`` is then
    ``picks[j]`` for the first ``j >= i`` with ``v < offsets[j]``, since
    ``b <= u`` iff ``b*m - c <= v``. Each ``b*m - c`` is exact: ``b*m``
    only shifts the exponent, and it lies in ``(c, c+1)``, so Sterbenz's
    lemma applies. Forming ``c + v`` in floating point instead could round
    up to ``m`` in the last cell.

    The loop runs once per positive entry; the cells between two sums are
    filled by one list extension.
    """
    cum = _cumulative(row)
    support = list(compress(range(len(row)), row))
    if not support:
        raise ValueError("a row has no positive entry")
    bits = (_CELLS_PER_ENTRY * len(support) - 1).bit_length()
    m = 1 << bits
    cells: list[int] = []
    inside = False  # whether the last sum fell strictly inside a cell
    for j in support:
        # an entry lost to rounding repeats the sum before it: it adds no
        # cell, or an offset equal to the one before, so no v selects it
        x = cum[j] * m
        c = int(x)
        if inside:
            picks.append(j)
            if c < len(cells):  # this sum lies in the same split cell
                offsets.append(x - c)
                continue
            offsets.append(1.0)  # every v is below it
            inside = False
        cells += [j] * (c - len(cells))
        if x != c:
            cells.append(~len(picks))
            picks.append(j)
            offsets.append(x - c)
            inside = True
    return bits, cells


def empirical(run: ChainRun, burn_in: int) -> tuple[float, ...]:
    """Visit frequencies over the trace after discarding ``burn_in`` steps."""
    if not 0 <= burn_in < run.length:
        raise ValueError("burn_in must satisfy 0 <= burn_in < length")
    counts = [0] * len(run.kernel)
    for state in islice(run.trace, burn_in, None):
        counts[state] += 1
    total = len(run.trace) - burn_in
    return tuple(c / total for c in counts)


def tv_distance(p, q) -> float:
    """Total variation distance: half the L1 distance."""
    if len(p) != len(q):
        raise ValueError("distributions have different lengths")
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(p, q))
