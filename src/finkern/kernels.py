"""Kernels between finite spaces, valued in the exact semiring [0, oo].

A kernel from X to Y is a |X| x |Y| matrix of masses; measures are kernels
out of the unit space (one row) and effects are kernels into it (one
column). Composition is the Chapman-Kolmogorov sum, the monoidal product is
the Kronecker product, and each space carries copy/delete/swap structure.

Every kernel has one canonical sparse form over the integers.
``kernel.int_rows[i]`` is the row ``(cols, nums, den, infs)``: the
ascending columns of row i's finite nonzero entries, their positive integer
numerators over the one row denominator ``den``, and the ascending columns
of its infinite entries, disjoint from ``cols``. Each row is reduced
(``gcd(den, *nums) == 1``, and an empty finite part has ``den == 1``), so
equal kernels have equal rows and hashes. Zeros are never stored, and
``0 * oo = 0`` keeps them out of every product. The kernel operations work
on these integers alone: ``compose`` scales each middle row to the lcm of
the middle denominators and takes integer dot products, so a row costs one
gcd, not one per scalar product and sum, a row with one middle point is a
scaled copy of that middle row, middle rows that share no column are
concatenated without sums, each distinct earlier row is worked out once,
and a later row that a measure's middle points share as one stored object
is multiplied once. One helper turns loose columns into a stored row for
``compose``, the relabels of index maps and ``+`` alike: it adds up the
numerators only where columns meet, and an oo entry absorbs any finite
mass that lands on its column. ``graph(k)``, the graph ``(identity (x) k)
∘ copy`` of ``k``, moves ``k``'s rows into place instead of building the
|X|*|X| rows of the tensor that copy reads |X| of, and ``resample_within``
stores one row per block of a partition, which every point of the block
shares (a Gibbs site is one). A deterministic kernel is a function, and
is stored as its index map: identity, copy, swap, the unitors and
associator, relabelings and involutions keep only their targets, so that
running one after a kernel moves that kernel's columns instead of
multiplying, and two index maps compose or tensor to an index map. Their
rows, one entry ``((j,), (1,), 1, ())`` each, are built on the first read
of ``int_rows``.

``ExtNonneg`` stays the scalar at the API boundary. ``rows`` (per row the
pair ``(cols, vals)`` of every nonzero entry's column and value),
``entries`` (the dense matrix), ``at``, ``entry``, ``measure_values`` and
``effect_values`` read views that are built from the integer rows on first
access and kept. ``pair_rows`` and these views are worked out once per
distinct stored row, and equal rows share one map, one view and one dense
row, so all of them are read-only. A chain whose rows repeat, as a Gibbs
sweep's do, then builds each of them once. Only this module reads or
writes stored rows: other code builds kernels with ``Kernel(dom, cod,
dense)``, ``measure``, ``effect``, ``from_maps``, ``lazy_involution``,
``resample_within``, ``split_by_support`` and the structural
constructors, and from integer pairs (see ``semiring``) with
``from_pair_rows``. Below the API it reads entries as pairs through
``pair_rows`` and ``effect_pairs``, and supports and infinite entries
through ``row_support`` and ``infinite_entry``, building no ``ExtNonneg``:
the views serve the CLI, the random generators and library users.

``P >> Q`` runs P then Q (i.e. ``compose(Q, P)``); ``P @ Q`` is the
monoidal product; ``P + Q`` is the entrywise sum.

The row predicates (normalized, substochastic, copyable) are each decided
by one ``*_violation`` function returning the first failing domain point or
None; the boolean form is ``*_violation(...) is None``. ``swap_asymmetry``
decides detailed and skew balance, in one pass over the stored entries.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .semiring import ExtNonneg, INF, INF_PAIR, ZERO, ZERO_PAIR, fraction
from .spaces import FinSpace, Label, UNIT, product
from ._record import FrozenRecord

Entry = Union[ExtNonneg, int]
_T = TypeVar("_T")

#: A stored row: the ascending columns of the finite nonzero entries, their
#: positive numerators over one denominator, and the ascending columns of
#: the infinite entries.
_Row = tuple[tuple[int, ...], tuple[int, ...], int, tuple[int, ...]]

_EMPTY_ROW: _Row = ((), (), 1, ())
_INF_POINT: _Row = ((), (), 1, (0,))  # an effect's row with value oo
_UNIT_NUM = (1,)
_COLS = itemgetter(0)


class SpaceMismatchError(ValueError):
    """Raised when an operation is applied to incompatible spaces."""


def _coerce(value: Entry) -> ExtNonneg:
    if isinstance(value, ExtNonneg):
        return value
    if isinstance(value, int):
        return ExtNonneg(value)
    raise TypeError(f"kernel entries must be ExtNonneg or int, got {value!r}")


def _point_row(j: int) -> _Row:
    """The row with unit mass at column ``j``: one step of an index map."""
    return ((j,), _UNIT_NUM, 1, ())


def _reduced(cols: tuple[int, ...], nums: Sequence[int], den: int,
             infs: tuple[int, ...] = ()) -> _Row:
    """The row with the common factor of ``den`` and ``nums`` divided out."""
    g = gcd(den, *nums)
    if g == 1:
        return cols, tuple(nums), den, infs
    return cols, tuple([n // g for n in nums]), den // g, infs


def _joined_row(cols: list[int], nums: Sequence[int], den: int,
                infs: tuple[int, ...] = ()) -> _Row:
    """The reduced row over ``den`` with ``nums[k]`` at column ``cols[k]``
    and oo at the ascending columns ``infs``: how ``compose``, relabels and
    ``+`` turn loose columns into a stored row. With no oo and no repeated
    column, as when concatenated middle rows share no column, the entries
    are put in column order without sums; otherwise numerators add where a
    column repeats, and each oo absorbs any finite mass on its column."""
    if not infs:
        ordered = sorted(cols)
        if ordered == cols:
            if len(set(cols)) == len(cols):
                return _reduced(tuple(cols), nums, den)
        else:
            at = dict(zip(cols, nums))
            if len(at) == len(cols):
                return _reduced(tuple(ordered), list(map(at.__getitem__, ordered)), den)
    acc: dict[int, int] = {}
    get = acc.get
    for j, n in zip(cols, nums):
        acc[j] = get(j, 0) + n
    for j in infs:
        acc.pop(j, None)
    ordered = sorted(acc)
    return _reduced(tuple(ordered), list(map(acc.__getitem__, ordered)), den, infs)


def _dense_sum(weights: Sequence[int], rows: Sequence[_Row], width: int,
               den: int) -> _Row:
    """The sum over ``den`` of finite rows, each times its weight, added up
    in a list of all ``width`` columns: for rows holding more entries in
    all than there are columns, which a dict would cost more to hold."""
    acc = [0] * width
    for w, (cols, nums, _, _) in zip(weights, rows):
        for j, n in zip(cols, nums):
            acc[j] += w * n
    return _reduced(tuple(compress(range(width), acc)), list(filter(None, acc)), den)


def _value_row(cols: Sequence[int], vals: Sequence[ExtNonneg]) -> _Row:
    """The row of parallel ascending columns and values, zeros dropped.

    The finite values go over the lcm of their denominators. Each value is
    a reduced fraction, so that row is reduced already: a prime dividing
    the lcm divides the numerator of no value whose denominator holds its
    highest power.
    """
    fcols, nums, dens, infs = [], [], [], []
    for j, v in zip(cols, vals):
        if v.num:
            if v.den:
                fcols.append(j)
                nums.append(v.num)
                dens.append(v.den)
            else:
                infs.append(j)
    den = lcm(*dens)
    return (tuple(fcols), tuple([n * (den // d) for n, d in zip(nums, dens)]),
            den, tuple(infs))


def _view_row(row: _Row) -> tuple[tuple[int, ...], tuple[ExtNonneg, ...]]:
    """The ``(cols, vals)`` pair of a row's nonzero entries, oo included."""
    cols, nums, den, infs = row
    vals = [fraction(n, den) for n in nums]
    if not infs:
        return cols, tuple(vals)
    merged = sorted(list(zip(cols, vals)) + [(j, INF) for j in infs])
    return tuple([j for j, _ in merged]), tuple([v for _, v in merged])


def _dense_row(row, width: int) -> tuple[ExtNonneg, ...]:
    out = [ZERO] * width
    for j, v in zip(*row):
        out[j] = v
    return tuple(out)


def _scale(n: int, d: int, row: _Row) -> _Row:
    """The finite positive weight ``n / d`` times every entry of a row."""
    if n == d:  # reduced, so the weight is 1
        return row
    cols, nums, den, infs = row
    return _reduced(cols, [n * x for x in nums], d * den, infs)


def _support(row: _Row) -> tuple[int, ...]:
    cols, _, _, infs = row
    return tuple(sorted(cols + infs)) if infs else cols


def _add_rows(r1: _Row, r2: _Row) -> _Row:
    c1, n1, d1, i1 = r1
    c2, n2, d2, i2 = r2
    # tools/line_traffic.py, seed 1: 363 and 326 of theorem-batch's 1000 sums
    # have an empty left or right row, and all 64 of dense-algebra's share a support
    if not c1 and not i1:
        return r2
    if not c2 and not i2:
        return r1
    den = d1 if d1 == d2 else lcm(d1, d2)
    s1, s2 = den // d1, den // d2
    if c1 == c2 and not i1 and not i2:  # same support: add entry by entry
        return _reduced(c1, [a * s1 + b * s2 for a, b in zip(n1, n2)], den)
    return _joined_row([*c1, *c2], [a * s1 for a in n1] + [b * s2 for b in n2], den,
                       i1 + i2 and tuple(sorted(set(i1 + i2))))


def _has_inf(kernel: "Kernel") -> bool:
    return any(map(itemgetter(3), kernel.int_rows))


def _relabel(row: _Row, targets: tuple[int, ...]) -> _Row:
    """A row with each column ``k`` moved to ``targets[k]``, sums where
    columns meet, and oo where an infinite entry lands."""
    cols, nums, den, infs = row
    return _joined_row(list(map(targets.__getitem__, cols)), nums, den,
                       infs and tuple(sorted({targets[k] for k in infs})))


class Kernel:
    """An ExtNonneg-valued matrix with named domain and codomain spaces.

    ``Kernel(dom, cod, entries)`` takes the dense matrix, one row per
    domain point; the kernel keeps only its nonzero entries, in
    ``int_rows``.
    """

    # ``_map`` is the tuple of target columns of an index map (one unit
    # entry per row), kept so that running it after a kernel moves columns
    # instead of multiplying, or None. An index map stores only ``_map``:
    # its ``int_rows`` slot is filled on first read, by ``__getattr__``.
    __slots__ = ("dom", "cod", "int_rows", "_map", "_view", "_dense")

    def __init__(self, dom: FinSpace, cod: FinSpace, entries: Iterable[Iterable[Entry]]):
        dense = list(entries)
        _check_rows(dom, dense)
        width = len(cod)
        rows = []
        for row in dense:  # one row at a time: no second dense copy
            # (the type test skips a call per entry that is already a value)
            row = [v if type(v) is ExtNonneg else _coerce(v) for v in row]
            if len(row) != width:
                raise SpaceMismatchError(
                    f"expected {width} columns for {cod!r}, got {len(row)}")
            rows.append(_value_row(range(width), row))
        self.dom = dom
        self.cod = cod
        self.int_rows = tuple(rows)
        self._map = None
        self._view = None
        self._dense = None

    @classmethod
    def _new(cls, dom: FinSpace, cod: FinSpace, rows: tuple[_Row, ...] | None,
             targets: tuple[int, ...] | None = None) -> "Kernel":
        # Internal constructor: rows are already canonical stored rows, or
        # None for the index map ``targets``, whose rows wait for a reader.
        k = object.__new__(cls)
        k.dom = dom
        k.cod = cod
        if rows is not None:
            k.int_rows = rows
        k._map = targets
        k._view = None
        k._dense = None
        return k

    def __getattr__(self, name):
        # only an unfilled slot gets here: an index map's rows, not yet read
        if name == "int_rows" and self._map is not None:
            self.int_rows = rows = tuple(map(_point_row, self._map))
            return rows
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def rows(self) -> tuple[tuple[tuple[int, ...], tuple[ExtNonneg, ...]], ...]:
        """Per row, the ascending columns of its nonzero entries and their
        values; built on first access and kept. Equal rows share one
        read-only pair of tuples."""
        if self._view is None:
            self._view = tuple(_per_row(self, _view_row))
        return self._view

    @property
    def entries(self) -> tuple[tuple[ExtNonneg, ...], ...]:
        """The dense matrix, built on first access and kept. Equal rows
        share one tuple."""
        if self._dense is None:
            width = len(self.cod)
            self._dense = tuple(_per_row(
                self, lambda row: _dense_row(_view_row(row), width)))
        return self._dense

    def at(self, i: int, j: int) -> ExtNonneg:
        """The entry at row index ``i`` and column index ``j``."""
        cols, vals = self.rows[i]
        k = bisect_left(cols, j)
        return vals[k] if k < len(cols) and cols[k] == j else ZERO

    def entry(self, x: Label, y: Label) -> ExtNonneg:
        return self.at(self.dom.index(x), self.cod.index(y))

    def row(self, x: Label) -> tuple[ExtNonneg, ...]:
        return _dense_row(self.rows[self.dom.index(x)], len(self.cod))

    @property
    def is_measure(self) -> bool:
        return self.dom == UNIT

    @property
    def is_effect(self) -> bool:
        return self.cod == UNIT

    def measure_values(self) -> tuple[ExtNonneg, ...]:
        if not self.is_measure:
            raise SpaceMismatchError("not a measure (domain is not the unit space)")
        return _dense_row(self.rows[0], len(self.cod))

    def effect_values(self) -> tuple[ExtNonneg, ...]:
        if not self.is_effect:
            raise SpaceMismatchError("not an effect (codomain is not the unit space)")
        return tuple([vals[0] if vals else ZERO for _, vals in self.rows])

    def is_zero(self) -> bool:
        return not any(cols or infs for cols, _, _, infs in self.int_rows)

    def __add__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            raise SpaceMismatchError("kernel sum needs equal dom and cod")
        rows = tuple([_add_rows(r1, r2) for r1, r2 in zip(self.int_rows, other.int_rows)])
        return Kernel._new(self.dom, self.cod, rows)

    def __rshift__(self, other):
        """``P >> Q``: run P, then Q."""
        return compose(other, self)

    def __matmul__(self, other):
        return tensor(self, other)

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod
                and self.int_rows == other.int_rows)

    def __hash__(self):
        return hash((self.dom, self.cod, self.int_rows))

    def __repr__(self):
        width = len(self.cod)
        body = "; ".join(
            " ".join(str(v) for v in _dense_row(row, width))
            for row in self.rows[:4])
        if len(self.int_rows) > 4:
            body += "; ..."
        return f"Kernel({self.dom!r} -> {self.cod!r}: {body})"


def _per_row(kernel: Kernel, fn: Callable[[_Row], _T]) -> list[_T]:
    """``fn`` of each distinct stored row, worked out once, as one result
    per row in row order: equal rows get the same object."""
    rows = kernel.int_rows
    done = dict.fromkeys(rows)
    if len(done) == len(rows):  # no two rows equal: no lookups needed
        return list(map(fn, rows))
    for row in done:
        done[row] = fn(row)
    return list(map(done.__getitem__, rows))


def _pair_map(row: _Row) -> dict[int, tuple[int, int]]:
    cols, nums, den, infs = row
    pairs = dict(zip(cols, zip(nums, repeat(den))))
    if infs:
        pairs.update(dict.fromkeys(infs, INF_PAIR))
        pairs = dict(sorted(pairs.items()))
    return pairs


def pair_rows(kernel: Kernel) -> list[dict[int, tuple[int, int]]]:
    """Per row, its nonzero entries as column -> ``(num, den)`` pair, in
    column order: a finite entry is its numerator over the row's
    denominator, and oo is ``(1, 0)``. Rows are canonical, so two rows
    are equal exactly when their maps are. Equal rows share one map, so
    the maps are read-only: a caller that changes one changes every row
    equal to it."""
    return _per_row(kernel, _pair_map)


def effect_pairs(kernel: Kernel) -> list[tuple[int, int]]:
    """An effect's values as pairs, in point order, 0 as ``(0, 1)``."""
    if not kernel.is_effect:
        raise SpaceMismatchError("not an effect (codomain is not the unit space)")
    return [(nums[0], den) if nums else INF_PAIR if infs else ZERO_PAIR
            for _, nums, den, infs in kernel.int_rows]


def row_support(kernel: Kernel, i: int) -> tuple[int, ...]:
    """The ascending columns of row ``i``'s nonzero entries, oo included."""
    return _support(kernel.int_rows[i])


def infinite_entry(kernel: Kernel) -> tuple[int, int] | None:
    """The row and column index of the first infinite entry, in row-major
    order, or None."""
    for i, (_, _, _, infs) in enumerate(kernel.int_rows):
        if infs:
            return i, infs[0]
    return None


def _point_values(space: FinSpace,
                  values: Union[Sequence[Entry], Mapping[Label, Entry]]) -> list:
    """``values``, as ``measure`` and ``effect`` take them, in point order."""
    if isinstance(values, Mapping):
        return [values.get(x, ZERO) for x in space.labels]
    return list(values)


def measure(space: FinSpace, values: Union[Sequence[Entry], Mapping[Label, Entry]]) -> Kernel:
    """A measure on ``space``: a kernel out of the unit space.

    ``values`` is either a full sequence in point order or a mapping from
    labels to masses (absent labels get 0).
    """
    return Kernel(UNIT, space, (_point_values(space, values),))


def effect(space: FinSpace, values: Union[Sequence[Entry], Mapping[Label, Entry]]) -> Kernel:
    """An effect on ``space``: a kernel into the unit space, with values
    given as ``measure`` takes them."""
    col = _point_values(space, values)
    _check_rows(space, col)
    col = [v if v.__class__ is ExtNonneg else _coerce(v) for v in col]
    return Kernel._new(space, UNIT, tuple([
        _EMPTY_ROW if not v.num else ((0,), (v.num,), v.den, ()) if v.den
        else _INF_POINT for v in col]))


def _check_rows(dom: FinSpace, rows: Sequence) -> None:
    if len(rows) != len(dom):
        raise SpaceMismatchError(
            f"expected {len(dom)} rows for {dom!r}, got {len(rows)}")


def _columns(acc: Mapping[int, object], cod: FinSpace) -> tuple[int, ...]:
    """The ascending columns of a nonempty row map, all inside ``cod``."""
    cols = tuple(sorted(acc))
    if cols[0] < 0 or cols[-1] >= len(cod):
        raise SpaceMismatchError(
            f"column index out of range 0..{len(cod) - 1} for {cod!r}")
    return cols


def from_maps(dom: FinSpace, cod: FinSpace,
              maps: Sequence[Mapping[int, ExtNonneg]]) -> Kernel:
    """The kernel whose row ``i`` is ``maps[i]``, a column index -> value map.

    Absent columns and zero values are zero entries. A wrong number of maps
    or a column outside ``cod`` raises ``SpaceMismatchError``.
    """
    _check_rows(dom, maps)
    rows = []
    for acc in maps:
        if not acc:
            rows.append(_EMPTY_ROW)
            continue
        cols = _columns(acc, cod)
        rows.append(_value_row(cols, [acc[j] for j in cols]))
    return Kernel._new(dom, cod, tuple(rows))


def from_pair_rows(dom: FinSpace, cod: FinSpace,
                   rows: Sequence[Mapping[int, tuple[int, int]]]) -> Kernel:
    """The kernel whose row ``i`` is ``rows[i]``, a column -> ``(num,
    den)`` pair map as ``pair_rows`` gives: the writing twin of
    ``pair_rows``, and otherwise as ``from_maps``. A pair with ``num ==
    0`` is a zero entry and one with ``den == 0`` is oo. The finite pairs
    of a row need not be reduced nor share a denominator: they go over the
    lcm of theirs (a row whose pairs share one keeps its numerators), and
    one gcd reduces the row."""
    _check_rows(dom, rows)
    width = len(cod)
    out = []
    for acc in rows:
        if len(acc) == 1:  # an effect's row, say: no lcm
            ((j, (n, d)),) = acc.items()
            if 0 <= j < width:
                g = gcd(n, d)
                out.append(((j,), (n // g,), d // g, ()) if n and d
                           else ((), (), 1, (j,)) if n else _EMPTY_ROW)
                continue
        if not acc:
            out.append(_EMPTY_ROW)
            continue
        cols = _columns(acc, cod)
        nums, dens = zip(*map(acc.__getitem__, cols))
        infs = ()
        if 0 in nums or 0 in dens:  # zeros dropped, oo apart
            infs = tuple([j for j in cols if acc[j][0] and not acc[j][1]])
            cols = tuple([j for j in cols if acc[j][0] and acc[j][1]])
            nums, dens = [acc[j][0] for j in cols], [acc[j][1] for j in cols]
        den = lcm(*dens)
        if dens.count(den) < len(dens):  # not over one denominator yet
            nums = [n * (den // d) for n, d in zip(nums, dens)]
        out.append(_reduced(cols, nums, den, infs))
    return Kernel._new(dom, cod, tuple(out))


def uniform(space: FinSpace) -> Kernel:
    """The uniform probability measure on a nonempty space."""
    n = len(space)
    if n == 0:
        raise SpaceMismatchError("no uniform measure on the empty space")
    return measure(space, [ExtNonneg(1, n)] * n)


def resample_within(mu: Kernel, blocks: Iterable[Iterable[int]]) -> Kernel:
    """The kernel X -> X that redraws a point of the finite measure ``mu``
    on X from ``mu`` within the point's block.

    ``blocks`` partitions X's point indices. Every point of a block gets
    the same row, stored once: ``mu`` on the block over the block's mass,
    or uniform over the block where that mass is 0. The row is ``mu``'s
    numerators on the block over their sum, so it costs one gcd.
    """
    if not mu.is_measure:
        raise SpaceMismatchError("resample_within needs a measure")
    ((cols, nums, _, infs),) = mu.int_rows
    if infs:
        raise ValueError("resample_within needs a finite measure")
    mass = dict(zip(cols, nums))
    rows: list = [None] * len(mu.cod)
    placed = 0
    for block in blocks:
        block = sorted(block)
        charged = [j for j in block if j in mass]
        if charged:
            weights = [mass[j] for j in charged]
            row = _reduced(tuple(charged), weights, sum(weights))
        else:
            row = (tuple(block), (1,) * len(block), len(block), ())
        for j in block:
            rows[j] = row
        placed += len(block)
    if placed != len(rows) or None in rows:
        raise ValueError("blocks must partition the measure's points")
    return Kernel._new(mu.cod, mu.cod, tuple(rows))


# ---------------------------------------------------------------------------
# composition and monoidal product


def compose(later: Kernel, earlier: Kernel) -> Kernel:
    """Sequential composition ``later ∘ earlier`` (Chapman-Kolmogorov).

    An output row is an integer dot product: each middle row is scaled to
    the lcm ``L`` of the middle rows' denominators, weighted by the earlier
    row's numerator, and summed over ``den * L``; one gcd then reduces it.
    Equal earlier rows give equal output rows, so each distinct earlier row
    is worked out once. Where ``earlier`` is a measure (an invariance
    check's ``chain ∘ target``), its numerators on middle points that share
    one stored later row (a Gibbs site's fibers do) are added up first, so
    each shared later row is multiplied once. In a Gibbs sweep's own
    composes no two middle points of a row share a later row, so a kernel
    of many rows takes no merge.

    Where the finite middle rows of an earlier row share no column, as in
    each step of a Gibbs sweep and in classical MH's ``inner ∘ embed`` and
    ``embed ∘ target``, every output column gets one product: the output
    row is the concatenation of the scaled middle rows, sorted once into
    column order where it is not ascending already, with no sums. Middle
    rows holding more entries in all than ``later`` has columns must meet:
    such a dense row skips the test and is added up in a list of all the
    columns. Otherwise the concatenation goes to the one row builder that
    relabels and ``+`` use, for finite rows and rows that meet oo alike: a
    hash of its columns decides whether they meet, and where they do, or a
    row meets oo, it adds up the numerators, each oo absorbing any finite
    mass on its column.
    """
    if earlier.cod != later.dom:
        raise SpaceMismatchError(
            f"cannot compose: middle spaces differ ({earlier.cod!r} vs {later.dom!r})")
    done: dict[_Row, _Row] = {}  # earlier row -> its output row
    # a later index map moves earlier's columns (classical MH, exchange, twists)
    if later._map is not None:
        targets = later._map
        if earlier._map is not None:  # keeps composites of structure morphisms structural
            return _index_map(earlier.dom, later.cod,
                              [targets[k] for k in earlier._map])
        out = []
        for row in earlier.int_rows:
            new = done.get(row)
            if new is None:
                new = done[row] = _relabel(row, targets)
            out.append(new)
        return Kernel._new(earlier.dom, later.cod, tuple(out))
    later_rows = later.int_rows
    width = len(later.cod)
    infinite = _has_inf(later) or _has_inf(earlier)
    first = None  # per middle point, the first one sharing its later row
    if not infinite and len(earlier.int_rows) == 1:
        seen: dict[int, int] = {}
        first = [seen.setdefault(id(r), k) for k, r in enumerate(later_rows)]
        if len(seen) == len(later_rows):  # no later row shared
            first = None
    out = []
    for row in earlier.int_rows:
        cols, nums, den, infs = row
        if len(cols) == 1 and not infs:
            # one middle point: a scaled copy of that row of ``later``
            # (Gibbs rows with a single charged point)
            out.append(_scale(nums[0], den, later_rows[cols[0]]))
            continue
        new = done.get(row)
        if new is not None:  # a repeated row: gibbs' sites ignore one coordinate
            out.append(new)
            continue
        if first is not None:  # over den 1, so the merged numerators stay
            cols, nums, _, _ = _joined_row([first[k] for k in cols], nums, 1)
        mids = [later_rows[k] for k in cols]
        scale = lcm(*[ld for _, _, ld, _ in mids])
        weights = [a * (scale // ld) for a, (_, _, ld, _) in zip(nums, mids)]
        # More entries than columns must meet somewhere; fewer may not.
        if not infinite and sum(map(len, map(_COLS, mids))) > width:
            new = _dense_sum(weights, mids, width, den * scale)
        else:
            inf = ()
            if infinite:  # oo where a positive mass meets an infinite one on the way
                hit = set(chain.from_iterable([mid[3] for mid in mids]))
                inf = tuple(sorted(hit.union(*[_support(later_rows[k]) for k in infs])))
            new = _joined_row(list(chain.from_iterable(map(_COLS, mids))),
                              [w * n for w, (_, lnums, _, _) in zip(weights, mids)
                               for n in lnums], den * scale, inf)
        out.append(new)
        done[row] = new
    return Kernel._new(earlier.dom, later.cod, tuple(out))


def tensor(left: Kernel, right: Kernel) -> Kernel:
    """Parallel composition: the Kronecker product of the two matrices."""
    dom = product(left.dom, right.dom)
    cod = product(left.cod, right.cod)
    width = len(right.cod)
    # two index maps: keeps products of structure morphisms structural
    if left._map is not None and right._map is not None:
        return _index_map(dom, cod, [i * width + j for i in left._map
                                     for j in right._map])
    size = len(cod)
    full = None  # the columns of a product of two full rows, built once
    rows = []
    for lcols, lnums, lden, linfs in left.int_rows:
        for rcols, rnums, rden, rinfs in right.int_rows:
            if len(lcols) * len(rcols) == size:  # both full: dense-algebra's tensor_8x8
                if full is None:
                    full = tuple(range(size))
                cols = full
            else:
                cols = tuple([i * width + j for i in lcols for j in rcols])
            infs = ()
            if linfs or rinfs:
                # oo times a nonzero entry of the other factor
                infs = tuple(sorted(
                    [i * width + j for i in linfs for j in rcols + rinfs]
                    + [i * width + j for i in lcols for j in rinfs]))
            rows.append(_reduced(cols, [a * b for a in lnums for b in rnums],
                                 lden * rden, infs))
    return Kernel._new(dom, cod, tuple(rows))


def graph(kernel: Kernel) -> Kernel:
    """The graph of ``kernel: X -> Y``: X -> X (x) Y, which keeps the input
    beside the output; equal to ``compose(tensor(identity(X), kernel),
    copy(X))``. Row ``i`` is the kernel's row ``i`` moved to the columns
    ``(i, j)``, so only the rows that copy reads are built."""
    dom = kernel.dom
    width = len(kernel.cod)
    cod = product(dom, kernel.cod)
    if kernel._map is not None:  # the graph of a function is a function
        return _index_map(dom, cod, [i * width + j for i, j in enumerate(kernel._map)])
    return Kernel._new(dom, cod, tuple([
        (tuple([i * width + j for j in cols]), nums, den,
         tuple([i * width + j for j in infs]))
        for i, (cols, nums, den, infs) in enumerate(kernel.int_rows)]))


# ---------------------------------------------------------------------------
# structure morphisms: index maps, which store only their targets


def _index_map(dom: FinSpace, cod: FinSpace, targets: Iterable[int]) -> Kernel:
    return Kernel._new(dom, cod, None, tuple(targets))


def identity(space: FinSpace) -> Kernel:
    return _index_map(space, space, range(len(space)))


def deterministic(dom: FinSpace, cod: FinSpace, fn: Callable[[Label], Label]) -> Kernel:
    """The kernel of a function: unit mass at ``fn(x)`` in each row."""
    return _index_map(dom, cod, (cod.index(fn(x)) for x in dom.labels))


def copy(space: FinSpace) -> Kernel:
    """Copy: X -> X (x) X, unit mass at (x, x)."""
    n = len(space)
    return _index_map(space, product(space, space), (i * n + i for i in range(n)))


def delete(space: FinSpace) -> Kernel:
    """Delete: X -> I, the all-ones effect."""
    return _index_map(space, UNIT, (0,) * len(space))


def swap(left: FinSpace, right: FinSpace) -> Kernel:
    """Swap: X (x) Y -> Y (x) X."""
    nl, nr = len(left), len(right)
    return _index_map(product(left, right), product(right, left),
                      (j * nl + i for i in range(nl) for j in range(nr)))


def dirac(space: FinSpace, point: Label) -> Kernel:
    """The Dirac measure at ``point``: I -> X with unit mass at the point."""
    return _index_map(UNIT, space, (space.index(point),))


# Product points are numbered in lexicographic order of their factors'
# indices, so the unitors and the associator keep every index in place.

def left_unitor(space: FinSpace) -> Kernel:
    """Relabeling I (x) X -> X."""
    return _index_map(product(UNIT, space), space, range(len(space)))


def right_unitor(space: FinSpace) -> Kernel:
    """Relabeling X (x) I -> X."""
    return _index_map(product(space, UNIT), space, range(len(space)))


def associator(a: FinSpace, b: FinSpace, c: FinSpace) -> Kernel:
    """Relabeling (A (x) B) (x) C -> A (x) (B (x) C)."""
    return _index_map(product(product(a, b), c), product(a, product(b, c)),
                      range(len(a) * len(b) * len(c)))


# ---------------------------------------------------------------------------
# involutions


class Involution(FrozenRecord):
    """A self-inverse permutation of a space's points."""

    __slots__ = ("space", "perm")

    def __init__(self, space: FinSpace, perm: Sequence[int]):
        perm = tuple(perm)
        points = tuple(range(len(space)))
        if tuple(sorted(perm)) != points:
            raise ValueError("not a permutation of the space's points")
        # perm ∘ perm, built in C (a permutation of at most one point is
        # the identity); the loop runs only to name the first bad index
        if len(perm) > 1 and itemgetter(*perm)(perm) != points:
            for i, j in enumerate(perm):
                if perm[j] != i:
                    raise ValueError(
                        f"permutation is not self-inverse at index {i}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "perm", perm)

    @classmethod
    def identity(cls, space: FinSpace) -> "Involution":
        return cls(space, tuple(range(len(space))))

    @classmethod
    def from_mapping(cls, space: FinSpace, mapping: Mapping[Label, Label]) -> "Involution":
        """Build from moved points; labels absent from the mapping stay fixed."""
        perm = list(range(len(space)))
        for src, dst in mapping.items():
            perm[space.index(src)] = space.index(dst)
        return cls(space, tuple(perm))

    def __call__(self, label: Label) -> Label:
        return self.space.labels[self.perm[self.space.index(label)]]

    def moved_pairs(self) -> tuple[tuple[Label, Label], ...]:
        """All (source, image) pairs with source != image."""
        return tuple(
            (self.space.labels[i], self.space.labels[j])
            for i, j in enumerate(self.perm) if i != j)


def lift_involution(phi: Involution) -> Kernel:
    """The deterministic kernel of an involution (a permutation matrix)."""
    return _index_map(phi.space, phi.space, phi.perm)


def lazy_involution(phi: Involution, accept: Kernel) -> Kernel:
    """``accept * lift_involution(phi) + (1 - accept) * identity``.

    ``accept`` is an effect on phi's space with values at most 1; row ``i``
    is ``{phi(i): a_i, i: 1 - a_i}``, built directly.
    """
    if not accept.is_effect or accept.dom != phi.space:
        raise SpaceMismatchError(
            "lazy_involution needs an effect on the involution's space")
    rows = []
    for i, (j, (_, nums, den, infs)) in enumerate(zip(phi.perm, accept.int_rows)):
        a = nums[0] if nums else 0
        if infs or a > den:
            value = INF if infs else ExtNonneg(a, den)
            raise ValueError(f"acceptance value {value} exceeds 1")
        if j == i or not a:
            rows.append(_point_row(i))
        elif a == den:
            rows.append(_point_row(j))
        else:  # a / den and the reject mass (den - a) / den share den
            rows.append(((i, j), (den - a, a), den, ()) if i < j
                        else ((j, i), (a, den - a), den, ()))
    return Kernel._new(phi.space, phi.space, tuple(rows))


def split_by_support(p: Kernel, q: Kernel) -> tuple[Kernel, Kernel]:
    """``p``'s entries where ``q`` is nonzero, and its other entries.

    ``p`` and ``q`` must have equal dom and cod; the two parts sum to ``p``.
    """
    if p.dom != q.dom or p.cod != q.cod:
        raise SpaceMismatchError("split_by_support needs kernels with equal dom and cod")
    inside, outside = [], []
    for row, (qcols, _, _, qinfs) in zip(p.int_rows, q.int_rows):
        charged = set(qcols + qinfs)
        keep = [j in charged for j in row[0]]
        keep_inf = [j in charged for j in row[3]]
        inside.append(_restrict(row, keep, keep_inf))
        outside.append(_restrict(row, [not k for k in keep], [not k for k in keep_inf]))
    return (Kernel._new(p.dom, p.cod, tuple(inside)),
            Kernel._new(p.dom, p.cod, tuple(outside)))


def _restrict(row: _Row, keep: list[bool], keep_inf: list[bool]) -> _Row:
    """The entries of a row where the masks over its finite and its
    infinite columns hold."""
    if all(keep) and all(keep_inf):
        return row
    cols, nums, den, infs = row
    return _reduced(tuple(compress(cols, keep)), list(compress(nums, keep)), den,
                    tuple(compress(infs, keep_inf)))


def pushforward(phi: Involution, mu: Kernel) -> Kernel:
    """The pushforward of a measure under an involution."""
    return compose(lift_involution(phi), mu)


# ---------------------------------------------------------------------------
# structural predicates and the effect algebra


def row_masses(kernel: Kernel) -> tuple[ExtNonneg, ...]:
    return tuple([INF if infs else fraction(sum(nums), den)
                  for _, nums, den, infs in kernel.int_rows])


def row_mass(kernel: Kernel) -> Kernel:
    """The effect sending each input point to its total output mass."""
    return effect(kernel.dom, row_masses(kernel))


def normalized_violation(kernel: Kernel) -> Label | None:
    """The first domain point whose row mass is not exactly 1."""
    return next(compress(kernel.dom.labels, [
        infs or sum(nums) != den for _, nums, den, infs in kernel.int_rows]), None)


def is_normalized(kernel: Kernel) -> bool:
    """Every row carries total mass exactly 1."""
    return normalized_violation(kernel) is None


def substochastic_violation(kernel: Kernel) -> Label | None:
    """The first domain point whose row mass exceeds 1."""
    return next(compress(kernel.dom.labels, [
        infs or sum(nums) > den for _, nums, den, infs in kernel.int_rows]), None)


def is_substochastic(kernel: Kernel) -> bool:
    """Every row carries total mass at most 1."""
    return substochastic_violation(kernel) is None


def copyable_violation(kernel: Kernel) -> Label | None:
    """The first domain point whose row does not commute with copy.

    On finite spaces a kernel commutes with copy exactly when each row has
    at most one nonzero entry and that entry is idempotent under
    multiplication (1 or oo); see the copy-equation oracle in the test
    suite.
    """
    return next(compress(kernel.dom.labels, [
        len(cols) + len(infs) > 1 or (cols and (den != 1 or nums != _UNIT_NUM))
        for cols, nums, den, infs in kernel.int_rows]), None)


def is_copyable(kernel: Kernel) -> bool:
    """Whether the kernel commutes with copy."""
    return copyable_violation(kernel) is None


def swap_asymmetry(mu: Kernel, kernel: Kernel,
                   twist: Involution | None = None) -> tuple[int, int] | None:
    """The least index pair ``(i, j)``, ``i < j``, where the joint of the
    measure ``mu`` and the endo-kernel ``kernel`` on its space differs from
    its swap: ``mu[i] * kernel[i][j] != mu[j] * kernel[j][i]``, with ``0 *
    oo = 0``; or None when the joint is symmetric. Under a ``twist`` s that
    preserves ``mu`` the swap reads ``kernel[s(j)][s(i)]`` (skew balance),
    and the witness is the least failing stored entry ``(i, j)``.

    The scan first checks its inputs: it raises ``SpaceMismatchError`` if
    ``mu`` is not a measure, ``kernel`` not an endo-kernel on its space or
    the twist on another space, and ``ValueError`` if the twist moves ``mu``.

    Each stored entry is read once, and its partner ``(s(j), s(i))`` found
    by bisection; an entry that is its own partner holds, and so does an
    unstored one, which fails only with its stored partner. Values are
    pairs, oo as ``(1, 0)``, and ``mu``'s one denominator cancels, so a pair
    costs one cross-multiplication, and equal pairs are equal masses.
    """
    if not mu.is_measure:
        raise SpaceMismatchError("target must be a measure")
    if kernel.dom != mu.cod or kernel.cod != mu.cod:
        raise SpaceMismatchError("chain must be an endomorphism on the target space")
    if twist is not None and twist.space != mu.cod:
        raise SpaceMismatchError("twist involution lives on a different space")
    ((mcols, mnums, _, minfs),) = mu.int_rows
    rows = kernel.int_rows
    masses = dict(zip(mcols, zip(mnums, repeat(1)))) | dict.fromkeys(minfs, INF_PAIR)
    masses = [masses.get(j, ZERO_PAIR) for j in range(len(rows))]
    s = tuple(range(len(rows))) if twist is None else twist.perm
    if twist is not None and [masses[t] for t in s] != masses:
        raise ValueError("twist involution does not preserve the target")
    least = None
    for i, (cols, nums, den, infs) in enumerate(rows):
        m, md = masses[i]
        si = s[i]
        if infs:  # an infinite entry is 1/0
            cols, nums = cols + infs, nums + (1,) * len(infs)
        for j, n in zip(cols, nums):
            sj = s[j]
            if sj == i:
                continue
            pcols, pnums, pden, pinfs = rows[sj]
            k = bisect_left(pcols, si)
            if k < len(pcols) and pcols[k] == si:
                tn, td = pnums[k], pden
            elif pinfs and si in pinfs:
                tn, td = INF_PAIR
            else:
                tn = 0
            if tn and sj < i:  # the partner was read, and held or counted
                continue
            mj, mjd = masses[j]
            if (m * n * mjd * td != mj * tn * md * (0 if infs and j in infs else den)
                    if m and mj and tn else m or (mj and tn)):
                pair = (j, i) if twist is None and j < i else (i, j)
                if least is None or pair < least:
                    least = pair
    return least


def effect_mul(left: Kernel, right: Kernel) -> Kernel:
    """Pointwise product of two effects on the same space; unit is delete."""
    if not left.is_effect or not right.is_effect:
        raise SpaceMismatchError("effect_mul needs two effects")
    if left.dom != right.dom:
        raise SpaceMismatchError("effect_mul needs effects on the same space")
    return reweight(left, right)


def reweight(weight: Kernel, kernel: Kernel) -> Kernel:
    """Scale each row of ``kernel`` by the effect ``weight`` at that point."""
    if not weight.is_effect:
        raise SpaceMismatchError("reweight needs an effect")
    if weight.dom != kernel.dom:
        raise SpaceMismatchError("reweight needs an effect on the kernel's domain")
    rows = []
    for (_, w, d, inf), row in zip(weight.int_rows, kernel.int_rows):
        if inf:  # oo times every nonzero entry
            rows.append(((), (), 1, _support(row)))
        elif w:
            rows.append(_scale(w[0], d, row))
        else:
            rows.append(_EMPTY_ROW)
    return Kernel._new(kernel.dom, kernel.cod, tuple(rows))
