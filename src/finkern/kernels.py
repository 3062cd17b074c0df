"""Kernels between finite spaces, valued in the exact semiring [0, oo].

A kernel from X to Y is a |X| x |Y| matrix of masses; measures are kernels
out of the unit space (one row) and effects are kernels into it (one
column). Composition is the Chapman-Kolmogorov sum, the monoidal product is
the Kronecker product, and each space carries copy/delete/swap structure.

Every kernel has one canonical sparse form. ``kernel.rows[i]`` is the pair
``(cols, vals)`` of parallel tuples: the ascending column indices of row
i's nonzero entries and their values. Zeros are never stored (and
``0 * oo = 0`` keeps them out of every product), so equal kernels have
equal rows and each operation loops over nonzeros only. A deterministic
kernel is a function, and is stored as its index map: identity, copy,
swap, the unitors and associator, relabelings and involutions hold one
entry ``((j,), (ONE,))`` per row. The ``entries`` property is a read-only
dense view, built on first access for callers that index the full matrix;
the library itself never reads it. ``rows`` is the public read view, and
only this module writes it: other code builds kernels with ``Kernel(dom,
cod, dense)``, ``measure``, ``effect``, ``from_maps`` and the structural
constructors.

``P >> Q`` runs P then Q (i.e. ``compose(Q, P)``); ``P @ Q`` is the
monoidal product; ``P + Q`` is the entrywise sum.

The row predicates (normalized, substochastic, copyable) are each decided
by one ``*_violation`` function returning the first failing domain point or
None; the boolean form is ``*_violation(...) is None``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import Callable, Iterable, Mapping, Sequence, Union

from .semiring import ExtNonneg, INF, ONE, ZERO, ext_sum, residual
from .spaces import FinSpace, Label, UNIT, product
from ._record import FrozenRecord

Entry = Union[ExtNonneg, int]

#: A sparse row: ascending column indices and their nonzero values.
_Row = tuple[tuple[int, ...], tuple[ExtNonneg, ...]]

_EMPTY_ROW: _Row = ((), ())
_UNIT_MASS = (ONE,)


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
    return ((j,), _UNIT_MASS)


def _dict_row(acc: Mapping[int, ExtNonneg]) -> _Row:
    """The sparse row of a column -> nonzero value mapping."""
    cols = tuple(sorted(acc))
    return cols, tuple([acc[j] for j in cols])


def _nonzero_row(cols: tuple[int, ...], vals: list[ExtNonneg]) -> _Row:
    """The row of parallel columns and values, with the zero values dropped."""
    nonzero = [v.num for v in vals]
    if all(nonzero):
        return cols, tuple(vals)
    return tuple(compress(cols, nonzero)), tuple(compress(vals, nonzero))


def _dense_row(row: _Row, width: int) -> tuple[ExtNonneg, ...]:
    out = [ZERO] * width
    for j, v in zip(*row):
        out[j] = v
    return tuple(out)


def _scale(weight: ExtNonneg, row: _Row) -> _Row:
    """``weight`` times every entry of a row."""
    if weight.num == 0:
        return _EMPTY_ROW
    if weight == ONE:
        return row
    cols, vals = row
    return cols, tuple([weight * v for v in vals])


def _add_rows(r1: _Row, r2: _Row) -> _Row:
    if not r1[0]:
        return r2
    if not r2[0]:
        return r1
    if r1[0] == r2[0]:  # same support: add entry by entry
        return r1[0], tuple([a + b for a, b in zip(r1[1], r2[1])])
    acc = dict(zip(*r1))
    for j, v in zip(*r2):
        prev = acc.get(j)
        acc[j] = v if prev is None else prev + v
    return _dict_row(acc)


class Kernel:
    """An ExtNonneg-valued matrix with named domain and codomain spaces.

    ``Kernel(dom, cod, entries)`` takes the dense matrix, one row per
    domain point; the kernel keeps only its nonzero entries, in ``rows``.
    """

    __slots__ = ("dom", "cod", "rows", "_dense")

    def __init__(self, dom: FinSpace, cod: FinSpace, entries: Iterable[Iterable[Entry]]):
        dense = list(entries)
        if len(dense) != len(dom):
            raise SpaceMismatchError(
                f"expected {len(dom)} rows for {dom!r}, got {len(dense)}")
        width = len(cod)
        full = tuple(range(width))  # shared by the rows with no zero
        rows = []
        for row in dense:  # one row at a time: no second dense copy
            # (the type test skips a call per entry that is already a value)
            row = [v if type(v) is ExtNonneg else _coerce(v) for v in row]
            if len(row) != width:
                raise SpaceMismatchError(
                    f"expected {width} columns for {cod!r}, got {len(row)}")
            rows.append(_nonzero_row(full, row))
        self.dom = dom
        self.cod = cod
        self.rows = tuple(rows)
        self._dense = None

    @classmethod
    def _new(cls, dom: FinSpace, cod: FinSpace, rows: tuple[_Row, ...]) -> "Kernel":
        # Internal constructor: rows are already canonical sparse rows.
        k = object.__new__(cls)
        k.dom = dom
        k.cod = cod
        k.rows = rows
        k._dense = None
        return k

    @property
    def entries(self) -> tuple[tuple[ExtNonneg, ...], ...]:
        """The dense matrix, built on first access and kept."""
        if self._dense is None:
            width = len(self.cod)
            self._dense = tuple(_dense_row(row, width) for row in self.rows)
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
        return not any(cols for cols, _ in self.rows)

    def __add__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            raise SpaceMismatchError("kernel sum needs equal dom and cod")
        rows = tuple(_add_rows(r1, r2) for r1, r2 in zip(self.rows, other.rows))
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
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.dom, self.cod, self.rows))

    def __repr__(self):
        width = len(self.cod)
        body = "; ".join(
            " ".join(str(v) for v in _dense_row(row, width))
            for row in self.rows[:4])
        if len(self.rows) > 4:
            body += "; ..."
        return f"Kernel({self.dom!r} -> {self.cod!r}: {body})"


def measure(space: FinSpace, values: Union[Sequence[Entry], Mapping[Label, Entry]]) -> Kernel:
    """A measure on ``space``: a kernel out of the unit space.

    ``values`` is either a full sequence in point order or a mapping from
    labels to masses (absent labels get 0).
    """
    if isinstance(values, Mapping):
        row = [values.get(x, ZERO) for x in space.labels]
    else:
        row = list(values)
    return Kernel(UNIT, space, (row,))


def effect(space: FinSpace, values: Union[Sequence[Entry], Mapping[Label, Entry]]) -> Kernel:
    """An effect on ``space``: a kernel into the unit space."""
    if isinstance(values, Mapping):
        col = [values.get(x, ZERO) for x in space.labels]
    else:
        col = list(values)
    if len(col) != len(space):
        raise SpaceMismatchError(
            f"expected {len(space)} rows for {space!r}, got {len(col)}")
    col = [v if v.__class__ is ExtNonneg else _coerce(v) for v in col]
    return Kernel._new(space, UNIT, tuple([
        ((0,), (v,)) if v.num else _EMPTY_ROW for v in col]))


def from_maps(dom: FinSpace, cod: FinSpace,
              maps: Sequence[Mapping[int, ExtNonneg]]) -> Kernel:
    """The kernel whose row ``i`` is ``maps[i]``, a column index -> value map.

    Absent columns and zero values are zero entries. A wrong number of maps
    or a column outside ``cod`` raises ``SpaceMismatchError``.
    """
    if len(maps) != len(dom):
        raise SpaceMismatchError(
            f"expected {len(dom)} rows for {dom!r}, got {len(maps)}")
    width = len(cod)
    rows = []
    for acc in maps:
        if not acc:
            rows.append(_EMPTY_ROW)
            continue
        cols = tuple(sorted(acc))
        if cols[0] < 0 or cols[-1] >= width:
            raise SpaceMismatchError(
                f"column index out of range 0..{width - 1} for {cod!r}")
        rows.append(_nonzero_row(cols, [acc[j] for j in cols]))
    return Kernel._new(dom, cod, tuple(rows))


def uniform(space: FinSpace) -> Kernel:
    """The uniform probability measure on a nonempty space."""
    n = len(space)
    if n == 0:
        raise SpaceMismatchError("no uniform measure on the empty space")
    return measure(space, [ExtNonneg(1, n)] * n)


# ---------------------------------------------------------------------------
# composition and monoidal product


def compose(later: Kernel, earlier: Kernel) -> Kernel:
    """Sequential composition ``later ∘ earlier`` (Chapman-Kolmogorov)."""
    if earlier.cod != later.dom:
        raise SpaceMismatchError(
            f"cannot compose: middle spaces differ ({earlier.cod!r} vs {later.dom!r})")
    later_rows = later.rows
    out = []
    for cols, vals in earlier.rows:
        if len(cols) == 1:
            # one middle point: a scaled copy of that row of ``later``
            out.append(_scale(vals[0], later_rows[cols[0]]))
            continue
        acc: dict[int, ExtNonneg] = {}
        for mid, mass in zip(cols, vals):
            for j, w in zip(*later_rows[mid]):
                prev = acc.get(j)
                acc[j] = mass * w if prev is None else prev + mass * w
        out.append(_dict_row(acc))
    return Kernel._new(earlier.dom, later.cod, tuple(out))


def tensor(left: Kernel, right: Kernel) -> Kernel:
    """Parallel composition: the Kronecker product of the two matrices."""
    dom = product(left.dom, right.dom)
    cod = product(left.cod, right.cod)
    width = len(right.cod)
    full = None  # the columns of a product of two full rows, built once
    rows = []
    for lcols, lvals in left.rows:
        unit_left = lvals == _UNIT_MASS
        for rcols, rvals in right.rows:
            if len(lcols) * len(rcols) == len(cod):  # both rows are full
                if full is None:
                    full = tuple(range(len(cod)))
                cols = full
            else:
                cols = tuple([i * width + j for i in lcols for j in rcols])
            if unit_left:
                vals = rvals
            elif rvals == _UNIT_MASS:
                vals = lvals
            else:
                vals = tuple([a * b for a in lvals for b in rvals])
            rows.append((cols, vals))
    return Kernel._new(dom, cod, tuple(rows))


# ---------------------------------------------------------------------------
# structure morphisms: index maps, one unit entry per row


def _index_map(dom: FinSpace, cod: FinSpace, targets: Iterable[int]) -> Kernel:
    return Kernel._new(dom, cod, tuple(_point_row(j) for j in targets))


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
    return Kernel._new(space, UNIT, (_point_row(0),) * len(space))


def swap(left: FinSpace, right: FinSpace) -> Kernel:
    """Swap: X (x) Y -> Y (x) X."""
    nl, nr = len(left), len(right)
    return _index_map(product(left, right), product(right, left),
                      (j * nl + i for i in range(nl) for j in range(nr)))


def dirac(space: FinSpace, point: Label) -> Kernel:
    """The Dirac measure at ``point``: I -> X with unit mass at the point."""
    return Kernel._new(UNIT, space, (_point_row(space.index(point)),))


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
        if sorted(perm) != list(range(len(space))):
            raise ValueError("not a permutation of the space's points")
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

    @classmethod
    def from_function(cls, space: FinSpace, fn: Callable[[Label], Label]) -> "Involution":
        return cls(space, tuple(space.index(fn(x)) for x in space.labels))

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
    for i, (j, (_, vals)) in enumerate(zip(phi.perm, accept.rows)):
        a = vals[0] if vals else ZERO
        reject = residual(a, ONE)
        if reject is None:
            raise ValueError(f"acceptance value {a} exceeds 1")
        if j == i or not a.num:
            rows.append(_point_row(i))
        elif not reject.num:
            rows.append(_point_row(j))
        else:
            rows.append(((i, j), (reject, a)) if i < j else ((j, i), (a, reject)))
    return Kernel._new(phi.space, phi.space, tuple(rows))


def pushforward(phi: Involution, mu: Kernel) -> Kernel:
    """The pushforward of a measure under an involution."""
    return compose(lift_involution(phi), mu)


# ---------------------------------------------------------------------------
# structural predicates and the effect algebra


def row_masses(kernel: Kernel) -> tuple[ExtNonneg, ...]:
    return tuple(ext_sum(vals) for _, vals in kernel.rows)


def row_mass(kernel: Kernel) -> Kernel:
    """The effect sending each input point to its total output mass."""
    return effect(kernel.dom, row_masses(kernel))


def normalized_violation(kernel: Kernel) -> Label | None:
    """The first domain point whose row mass is not exactly 1."""
    return next(compress(kernel.dom.labels,
                         (ext_sum(vals) != ONE for _, vals in kernel.rows)), None)


def is_normalized(kernel: Kernel) -> bool:
    """Every row carries total mass exactly 1."""
    return normalized_violation(kernel) is None


def substochastic_violation(kernel: Kernel) -> Label | None:
    """The first domain point whose row mass exceeds 1."""
    return next(compress(kernel.dom.labels,
                         (not ext_sum(vals) <= ONE for _, vals in kernel.rows)), None)


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
    return next(compress(kernel.dom.labels, (
        len(vals) > 1 or (vals and vals[0] != ONE and vals[0] != INF)
        for _, vals in kernel.rows)), None)


def is_copyable(kernel: Kernel) -> bool:
    """Whether the kernel commutes with copy."""
    return copyable_violation(kernel) is None


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
    rows = tuple(
        _scale(w[0] if w else ZERO, row)
        for (_, w), row in zip(weight.rows, kernel.rows))
    return Kernel._new(kernel.dom, kernel.cod, rows)
