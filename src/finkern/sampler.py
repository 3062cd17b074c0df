"""Float-mode chain simulation and empirical diagnostics.

Exact kernels are converted to double-precision stochastic matrices once,
then chains run with a seeded Mersenne Twister. Runs are deterministic given
(kernel, initial, seed, length) and record the generator identity. Every
run steps in chunks of ``_PACK_STEPS`` steps and appends each state to a
list, so it keeps no step counter (an int past 256 is a new object each
time); nothing is kept from one run to the next. A chain on at most 256
states, each then one byte, packs each chunk's list into a ``bytearray``
trace, one byte per step, and reuses the list; a larger chain's trace is
the list, grown from ``[initial]``, at 8 bytes per step. Every row the
chain can reach is checked once, before the first draw: a row of the
wrong length, with a negative, NaN or infinite entry, or not summing to
1.0 is a ``ValueError`` that names its state.

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

A run then reads every table at one width ``W``, the widest table's
``g``, each cell repeated ``2**(W - g)`` times, so that a step is one
``getrandbits(W)`` and one lookup in the current state's table. For ``g
<= W <= 32`` Python's ``getrandbits(g)`` is the top ``g`` bits of the one
32-bit word whose top ``W`` bits ``getrandbits(W)`` returns, so the wide
cell holds what the narrow one held and the seeded trace is unchanged.
Widening never more than doubles the cells of the run's tables: a run
for which it would (one row over many states among many rows of few
entries, as in a hub chain) reads each table at its own width, with the
same draws and the same trace.

``empirical`` counts the visits after the burn-in by one of two paths,
chosen from the run. For a byte trace of a chain of which at most
``_BYTE_COUNT_STATES`` states are reachable from the initial state, it
counts each reachable state with one ``bytearray.count`` pass over the
trace itself: C-speed passes that copy nothing. Every other chain is
counted by a loop over the trace, which is faster once a chain reaches
more states than the threshold. The loop
counts in floats: they are exact below 2**53, far past any trace that
fits in memory, so each frequency is the same correctly rounded double
as with int counts, and adding 1.0 makes no new int per visit as an int
count past 256 does. A hand-built run whose trace leaves the reachable
set, or whose trace is a list, is counted by the loop too, so both paths
give the same frequencies and raise the same errors.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from itertools import accumulate, compress, islice, repeat

from .spaces import format_label
from .kernels import Kernel, normalized_violation, pair_rows
from ._record import Record

RNG_NAME = "python-mersenne-twister"

FloatMatrix = tuple[tuple[float, ...], ...]

#: Guide-table cells per positive entry of a row, before rounding up to a
#: power of two: at most one step in 16 then needs a second draw.
_CELLS_PER_ENTRY = 16

#: Most reachable states for which ``empirical`` counts with one
#: ``bytearray.count`` pass each: below the break-even with the float
#: counting loop, which is about 32 to 44 states on 10**6-step byte traces
#: of uniform visits, and about 48 to 64 when visits are skewed.
_BYTE_COUNT_STATES = 24

#: Steps in each chunk of a run: the most a run on at most 256 states
#: appends to its list before packing them into its ``bytearray`` trace.
_PACK_STEPS = 1 << 14


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

    The trace, ``length + 1`` states, is left out of the repr. ``run_chain``
    fills it by chunks of steps: a ``bytearray``, one byte per state, for a
    chain on at most 256 states, and a list of ints for a larger one.
    """

    __slots__ = ("kernel", "initial", "seed", "length", "trace", "rng_name")
    _hidden = ("trace",)

    def __init__(self, kernel: FloatMatrix, initial: int, seed: int,
                 length: int, trace: bytearray | list[int],
                 rng_name: str = RNG_NAME):
        self.kernel = kernel
        self.initial = initial
        self.seed = seed
        self.length = length
        self.trace = trace
        self.rng_name = rng_name


def run_chain(kernel: FloatMatrix, initial: int, seed: int, length: int) -> ChainRun:
    """Simulate ``length`` steps from ``initial`` with a seeded generator.

    Every row the chain can reach must be a probability row over the
    matrix's states (see ``_row_fault``); the first that is not raises a
    ``ValueError`` naming its state before any draw. Rows the chain cannot
    reach are never read.

    Steps read the reachable rows' guide tables at one width (see
    ``_widened``) unless that would more than double their cells; the
    per-row loop then reads each table at its own width. Both loops make
    the same draws and give the same trace, in one loop over chunks of
    ``_PACK_STEPS`` steps. Each step appends its state to a list: for a
    chain on at most 256 states, one packed into the ``bytearray`` trace
    and cleared after each chunk, and otherwise the trace itself.
    """
    n = len(kernel)
    if not 0 <= initial < n:
        raise IndexError(f"initial state {initial} out of range")
    if length < 0:
        raise ValueError("length must be nonnegative")
    offsets: list[float] = []  # the split cells, one after another
    picks: list[int] = []
    # guide tables for the rows reachable from ``initial`` only; equal rows
    # share one table. The walk pushes a row's successors only after the
    # row is checked here, so it never reads past a row that is too long.
    tables: list = [None] * n
    built: dict[tuple[float, ...], tuple[int, list[int]]] = {}  # row -> table
    for i, row in _reachable(kernel, initial):
        table = built.get(row)
        if table is None:
            fault = _row_fault(row, n)
            if fault is not None:
                raise ValueError(f"row of state {i} {fault}")
            table = built[row] = _guide_table(row, offsets, picks)
        tables[i] = table
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    rand = rng.random
    state = initial
    trace = [initial]
    steps = trace  # where the loops append
    if n <= 256:  # one byte per state: pack each chunk of steps
        trace = bytearray(trace)
        steps = []
    widened = _widened(tables, built)
    for chunk in [_PACK_STEPS] * (length // _PACK_STEPS) + [length % _PACK_STEPS]:
        if widened is not None:
            bits, cells_of = widened
            for _ in repeat(None, chunk):
                state = cells_of[state][getrandbits(bits)]
                if state < 0:
                    i = ~state
                    v = rand()
                    while offsets[i] <= v:
                        i += 1
                    state = picks[i]
                steps.append(state)
        else:
            # the per-row loop: the same draws, one table width per row
            bits, cells = tables[state]
            for _ in repeat(None, chunk):
                state = cells[getrandbits(bits)]
                if state < 0:
                    i = ~state
                    v = rand()
                    while offsets[i] <= v:
                        i += 1
                    state = picks[i]
                steps.append(state)
                bits, cells = tables[state]
        if steps is not trace:
            trace += bytearray(steps)
            steps.clear()
    return ChainRun(kernel=kernel, initial=initial, seed=seed,
                    length=length, trace=trace)


def _row_fault(row: tuple[float, ...], n: int) -> str | None:
    """Why ``run_chain`` cannot sample ``row`` of an ``n``-state matrix, or
    None: it must have ``n`` entries, none negative, NaN or infinite, whose
    ``math.fsum`` is 1.0 to within ``n * 2**-53``. ``to_float``'s rows sum
    to exactly 1.0.
    """
    if len(row) != n:
        return f"has {len(row)} entries, not {n}"
    if not all(map(math.isfinite, row)) or min(row) < 0.0:
        j = next(j for j, x in enumerate(row) if not 0.0 <= x < math.inf)
        return f"has entry {row[j]!r} at column {j}"
    total = math.fsum(row)
    if abs(total - 1.0) > n * 2**-53:
        return f"sums to {total!r}, not 1.0"
    return None


def _reachable(kernel: FloatMatrix,
               initial: int) -> Iterator[tuple[int, tuple[float, ...]]]:
    """The states a chain can reach from ``initial``, each with its row, in
    the order of a walk over the positive support of each row it reaches.

    Equal rows have equal successors, so only the first state of a row
    pushes them. The walk goes only as far as its caller reads.
    """
    n = len(kernel)
    seen = [False] * n
    rows = set()
    todo = [initial]
    while todo:
        i = todo.pop()
        if not seen[i]:
            seen[i] = True
            row = kernel[i]
            yield i, row
            if row not in rows:
                rows.add(row)
                todo.extend(compress(range(n), row))


def _cumulative(row: tuple[float, ...], last: int) -> list[float]:
    """The running sums of a row, set to 1.0 from ``last``, the index of its
    last positive entry, on.

    The number of sums ``<= u`` for ``u`` in [0, 1) is then always the
    index of a positive entry: a zero entry repeats the sum before it, so
    no ``u`` selects it, and the 1.0 tail closes the gap that rounding
    leaves below 1.0 at the last positive entry instead of handing it to a
    trailing zero.
    """
    cum = list(accumulate(row))
    cum[last:] = [1.0] * (len(row) - last)
    return cum


def _widened(tables: list, built: dict) -> tuple[int, list] | None:
    """The run's guide tables at one width ``(W, cells_of)``, or None.

    ``W`` is the widest table's ``g``, and ``cells_of[i]`` is state ``i``'s
    table with each cell repeated ``2**(W - g)`` times. By the
    ``getrandbits`` identity of the module docstring, wide cell
    ``getrandbits(W)`` holds what narrow cell ``getrandbits(g)`` holds: the
    same successor or the same split-cell marker. ``cells_of[i]`` is None
    for a state the chain cannot reach, and equal rows share one list.
    None when ``W > 32``, where the identity fails, or when the wide tables
    would hold more than twice the cells of the narrow ones, which is
    checked before any wide table is built.
    """
    width = max(bits for bits, _ in built.values())
    narrow = sum(len(cells) for _, cells in built.values())
    if width > 32 or len(built) << width > 2 * narrow:
        return None
    wide = {}
    for table in built.values():
        bits, cells = table
        copies = 1 << (width - bits)
        if copies > 1:
            # narrow cell c fills wide cells c*copies .. c*copies+copies-1
            narrow_cells, cells = cells, [0] * (len(cells) * copies)
            for k in range(copies):
                cells[k::copies] = narrow_cells
        wide[id(table)] = cells
    return width, [wide[id(table)] if table else None for table in tables]


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
    filled by one list extension. The row is one ``_row_fault`` passes, so
    it has a positive entry.
    """
    support = list(compress(range(len(row)), row))
    cum = _cumulative(row, support[-1])
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
    """Visit frequencies over the trace after discarding ``burn_in`` steps.

    The counts are those of a loop over the trace, found by
    ``_byte_counts`` instead for a byte trace of a chain that reaches few
    states.
    """
    if not 0 <= burn_in < run.length:
        raise ValueError("burn_in must satisfy 0 <= burn_in < length")
    if len(run.trace) != run.length + 1:
        raise ValueError(f"trace holds {len(run.trace)} states, "
                         f"not length + 1 = {run.length + 1}")
    total = len(run.trace) - burn_in
    counts = _byte_counts(run, burn_in, total)
    if counts is None:
        # float counts are exact below 2**53 steps and, unlike ints past
        # 256, need no new object per visit
        counts = [0.0] * len(run.kernel)
        for state in islice(run.trace, burn_in, None):
            counts[state] += 1.0
    return tuple(c / total for c in counts)


def _byte_counts(run: ChainRun, burn_in: int, total: int) -> list[int] | None:
    """The visits to each state after ``burn_in``, counted with one
    ``bytearray.count`` pass over the trace per reachable state, or None.

    None unless the trace is a ``bytearray``, as ``run_chain`` makes for a
    chain on at most 256 states, the chain has at most 256 states, and at
    most ``_BYTE_COUNT_STATES`` of them are reachable from the run's
    initial state. None too when the counts miss some of the ``total``
    counted steps: a hand-built run whose trace leaves the reachable set,
    which the loop then counts or refuses.
    """
    trace = run.trace
    n = len(run.kernel)
    if not isinstance(trace, bytearray) or n > 256 or not 0 <= run.initial < n:
        return None
    walk = islice(_reachable(run.kernel, run.initial), _BYTE_COUNT_STATES + 1)
    states = [i for i, _ in walk]
    if len(states) > _BYTE_COUNT_STATES:
        return None
    counts = [0] * n
    for i in states:
        counts[i] = trace.count(i, burn_in)
    return counts if sum(counts) == total else None


def tv_distance(p, q) -> float:
    """Total variation distance: half the L1 distance."""
    if len(p) != len(q):
        raise ValueError("distributions have different lengths")
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(p, q))
