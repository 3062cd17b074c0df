"""Kernels between finite spaces, valued in the exact semiring [0, oo].

A kernel from X to Y is a |X| x |Y| matrix of masses; measures are kernels
out of the unit space (one row) and effects are kernels into it (one
column). Composition is the Chapman-Kolmogorov sum, the monoidal product is
the Kronecker product, and each space carries copy/delete/swap structure.

Every kernel has one canonical sparse form over the integers, its stored
rows ``kernel.int_rows`` (see ``_kernel_rows``), and the kernel operations
work on these integers alone. ``compose``'s docstring says how it sums
them, and the ``Kernel`` slot comment which kernels, index maps and
composites, build their rows only when they are read.

``ExtNonneg`` stays the scalar at the API boundary. ``rows`` (per row the
pair ``(cols, vals)`` of every nonzero entry's column and value),
``entries`` (the dense matrix), ``at``, ``entry``, ``measure_values`` and
``effect_values`` read views that are built from the integer rows on first
access and kept. ``_per_row`` works the views, the pair maps and
``compose``'s output rows out once per distinct stored row, and equal rows
share one result, so all of them are read-only. A chain whose rows repeat,
as a Gibbs sweep's do, then builds each of them once. Only the kernel
layer reads or writes stored rows: this module, ``_kernel_rows`` (the row
format) and ``_kernel_functions`` (the other constructors, the pair
readers and the predicates), whose public names this module exports.

``P >> Q`` runs P then Q (i.e. ``compose(Q, P)``); ``P @ Q`` is the
monoidal product; ``P + Q`` is the entrywise sum.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import chain
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .semiring import ExtNonneg, ZERO
from .spaces import FinSpace, Label, UNIT, product
from ._record import FrozenRecord
from ._kernel_rows import (
    Entry, _EMPTY_ROW, _Row, _add_rows, _coerce, _dense_row, _dense_sum, _joined_row,
    _point_row, _reduced, _relabel, _scale, _support, _value_row, _view_row,
)

_T = TypeVar("_T")
_COLS = itemgetter(0)


class SpaceMismatchError(ValueError):
    """Raised when an operation is applied to incompatible spaces."""


def _check_rows(dom: FinSpace, rows: Sequence) -> None:
    if len(rows) != len(dom):
        raise SpaceMismatchError(
            f"expected {len(dom)} rows for {dom!r}, got {len(rows)}")


def _check_middle(earlier: FinSpace, later: FinSpace) -> None:
    if earlier != later:
        raise SpaceMismatchError(
            f"cannot compose: middle spaces differ ({earlier!r} vs {later!r})")


def _has_inf(kernel: "Kernel") -> bool:
    return any(map(itemgetter(3), kernel.int_rows))


class Kernel:
    """An ExtNonneg-valued matrix with named domain and codomain spaces.

    ``Kernel(dom, cod, entries)`` takes the dense matrix, one row per
    domain point; the kernel keeps only its nonzero entries, in
    ``int_rows``.
    """

    # ``_map`` is the tuple of target columns of an index map (one unit
    # entry per row), kept so that running it after a kernel moves columns
    # instead of multiplying, or None. ``_factors`` is the tuple of kernels
    # a ``composite`` runs in order, or None. An index map stores only
    # ``_map`` and a composite only ``_factors``: the ``int_rows`` slot is
    # filled on first read, by ``__getattr__``, which then drops the factors.
    __slots__ = ("dom", "cod", "int_rows", "_map", "_factors", "_view", "_dense")

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
        self._factors = None
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
        k._factors = None
        k._view = None
        k._dense = None
        return k

    def __getattr__(self, name):
        # only an unfilled slot gets here: the rows of an index map or of a
        # composite, not yet read
        if name == "int_rows" and self._map is not None:
            self.int_rows = rows = tuple(map(_point_row, self._map))
            return rows
        if name == "int_rows" and self._factors is not None:
            self.int_rows = rows = _fold(self._factors).int_rows
            self._factors = None
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
    per row in row order: equal rows get the same object. The views, the
    pair maps and ``compose`` build their rows with it."""
    rows = kernel.int_rows
    if len(rows) < 2 or len(done := dict.fromkeys(rows)) == len(rows):
        return list(map(fn, rows))  # a measure, or no two rows equal: no lookups
    for row in done:
        done[row] = fn(row)
    return list(map(done.__getitem__, rows))


# ---------------------------------------------------------------------------
# composition and monoidal product


def compose(later: Kernel, earlier: Kernel) -> Kernel:
    """Sequential composition ``later ∘ earlier`` (Chapman-Kolmogorov).

    An output row is an integer dot product: each middle row is scaled to
    the lcm ``L`` of the middle rows' denominators, weighted by the earlier
    row's numerator, and summed over ``den * L``; one gcd then reduces it.
    Equal earlier rows give equal output rows: ``_per_row`` works each
    distinct one out once, whatever its shape, and they share the result.
    Where ``earlier`` is a measure (an invariance check's ``chain ∘
    target``), its numerators on middle points that share one stored later
    row (a Gibbs site's fibers do) are added up first, so each shared later
    row is multiplied once.

    Where the finite middle rows of an earlier row share no column, as in
    each step of a Gibbs sweep and in classical MH's ``embed ∘ target``,
    the output row is their concatenation, sorted once into column order
    where it is not ascending already, with no sums. Middle rows holding
    more entries in all than there are output columns must meet: such a
    row skips the test and is added up in a list of all the columns.
    Otherwise the concatenation goes to the row builder that relabels and
    ``+`` use, for finite rows and rows that meet oo alike: a hash of its
    columns decides whether they meet, and where they do, or a row meets
    oo, it adds up the numerators, each oo absorbing any finite mass.

    A later index map moves earlier's columns, with no products. After an
    unbuilt ``composite`` it folds all of its factors but the last, and
    the last compose writes each output column straight through the map's
    targets, by associativity the same kernel: the list of sums runs over
    the targets, and every other row goes to that row builder.
    """
    _check_middle(earlier.cod, later.dom)
    # a composite not yet built takes earlier through its factors in turn
    # (by associativity the same kernel): a measure costs one compose per site
    if later._factors is not None:
        for factor in later._factors:
            earlier = compose(factor, earlier)
        return earlier
    cod = later.cod
    targets = later._map
    # a later index map moves earlier's columns (classical MH, exchange, twists)
    if targets is not None:
        if earlier._map is not None:  # keeps composites of structure morphisms structural
            return _index_map(earlier.dom, cod, [targets[k] for k in earlier._map])
        factors = earlier._factors
        if factors is None or len(factors) < 2:
            return Kernel._new(earlier.dom, cod, tuple(
                _per_row(earlier, lambda row: _relabel(row, targets))))
        # an unbuilt composite: its last compose writes through the targets
        earlier, later = _fold(factors[:-1]), factors[-1]
    later_rows = later.int_rows
    width = len(cod)
    infinite = _has_inf(later) or _has_inf(earlier)
    first = None  # per middle point, the first one sharing its later row
    if not infinite and len(earlier.int_rows) == 1:
        seen: dict[int, int] = {}
        first = [seen.setdefault(id(r), k) for k, r in enumerate(later_rows)]
        if len(seen) == len(later_rows):  # no later row shared
            first = None

    def output_row(row: _Row) -> _Row:
        cols, nums, den, infs = row
        if first is not None:  # over den 1, so the merged numerators stay
            cols, nums, _, _ = _joined_row([first[k] for k in cols], nums, 1)
        mids = [later_rows[k] for k in cols]
        scale = lcm(*[ld for _, _, ld, _ in mids])
        weights = [a * (scale // ld) for a, (_, _, ld, _) in zip(nums, mids)]
        # More entries than columns must meet somewhere; fewer may not.
        if not infinite and sum(map(len, map(_COLS, mids))) > width:
            return _dense_sum(weights, mids, width, den * scale, targets)
        out = list(chain.from_iterable(map(_COLS, mids)))
        inf = ()
        if infinite:  # oo where a positive mass meets an infinite one on the way
            hit = set(chain.from_iterable([mid[3] for mid in mids])).union(
                *[_support(later_rows[k]) for k in infs])
            inf = tuple(sorted(hit if targets is None else {targets[j] for j in hit}))
        if targets is not None:
            out = list(map(targets.__getitem__, out))
        return _joined_row(out, [w * n for w, (_, lnums, _, _) in zip(weights, mids)
                                 for n in lnums], den * scale, inf)

    return Kernel._new(earlier.dom, cod, tuple(_per_row(earlier, output_row)))


def _fold(kernels: Sequence[Kernel]) -> Kernel:
    return reduce(lambda built, factor: compose(factor, built), kernels)


def composite(kernels: Sequence[Kernel]) -> Kernel:
    """The kernel that runs ``kernels`` in order, first to last: the left
    fold ``compose(k_n, ... compose(k_2, k_1))``, kept as its factors.

    Its rows are built by that fold on their first read, and the factors
    are then dropped. Until then ``compose(composite, earlier)`` runs
    ``earlier`` through each factor in turn, which by associativity gives
    the same kernel: pushing a measure through a Gibbs sweep costs one
    compose per site and never builds the sweep.
    """
    kernels = tuple(kernels)
    if not kernels:
        raise ValueError("composite needs at least one kernel")
    for earlier, later in zip(kernels, kernels[1:]):
        _check_middle(earlier.cod, later.dom)
    k = Kernel._new(kernels[0].dom, kernels[-1].cod, None)
    k._factors = kernels
    return k


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


# ---------------------------------------------------------------------------
# structure morphisms: index maps, which store only their targets


def _index_map(dom: FinSpace, cod: FinSpace, targets: Iterable[int]) -> Kernel:
    return Kernel._new(dom, cod, None, tuple(targets))


def identity(space: FinSpace) -> Kernel:
    return _index_map(space, space, range(len(space)))


def deterministic(dom: FinSpace, cod: FinSpace, fn: Callable[[Label], Label]) -> Kernel:
    """The kernel of a function: unit mass at ``fn(x)`` in each row."""
    try:  # the labels' indices, found at C speed
        return _index_map(dom, cod, map(cod._index.__getitem__, map(fn, dom.labels)))
    except KeyError:  # the slow way names the label that is not a point
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


# imported last: ``_kernel_functions`` imports ``Kernel`` and the operations from here
from ._kernel_functions import (
    copyable_violation, effect, effect_mul, effect_pairs, from_effect_pairs, from_maps,
    from_pair_rows, infinite_entry, is_copyable, is_normalized, is_substochastic,
    lazy_involution, lazy_proposal, measure, normalized_violation, pair_rows, pushforward,
    resample_within, row_mass, row_masses, row_support, split_by_support,
    substochastic_violation, swap_asymmetry, uniform,
)
