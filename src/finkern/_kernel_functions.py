"""Constructors, pair readers and predicates of kernels.

Other code builds kernels with ``Kernel(dom, cod, dense)``, ``measure``,
``effect``, ``from_maps``, ``lazy_involution``, ``lazy_proposal``,
``resample_within``, ``split_by_support`` and the structural constructors,
and from integer pairs (see ``semiring``) with ``from_pair_rows`` and, one
pair per point, ``from_effect_pairs``. Below the API it reads
entries as pairs through ``pair_rows`` and ``effect_pairs``, and supports
and infinite entries through ``row_support`` and ``infinite_entry``,
building no ``ExtNonneg``: the views serve the CLI, the random generators
and library users. ``resample_within`` stores one row per block of a
partition, which every point of the block shares (a Gibbs site is one).

The row predicates (normalized, substochastic, copyable) are each decided
by one ``*_violation`` function returning the first failing domain point or
None; the boolean form is ``*_violation(...) is None``. ``swap_asymmetry``
decides detailed and skew balance, in one pass over the stored entries.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, count, repeat
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .semiring import ExtNonneg, INF, INF_PAIR, ZERO, ZERO_PAIR, fraction
from .spaces import FinSpace, Label, UNIT
from ._kernel_rows import (Entry, _COL0, _EMPTY_ROW, _INF_POINT, _Row, _UNIT_NUM, _coerce,
                           _reduced, _support, _value_row)
from .kernels import (Involution, Kernel, SpaceMismatchError, _check_rows, _per_row,
                      compose, lift_involution, reweight)


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


def from_effect_pairs(space: FinSpace, pairs: Sequence[tuple[int, int]]) -> Kernel:
    """The effect on ``space`` with the pair ``pairs[i]`` at point ``i``:
    the writing twin of ``effect_pairs``. A pair with ``num == 0`` is 0,
    one with ``den == 0`` is oo, and a finite one need not be reduced: one
    gcd reduces it. Every finite row shares one column tuple."""
    _check_rows(space, pairs)
    return Kernel._new(space, UNIT, tuple([
        _EMPTY_ROW if not n else _INF_POINT if not d
        else (_COL0, (n // (g := gcd(n, d)),), d // g, ()) for n, d in pairs]))


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
    out = []
    for acc in rows:
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


def lazy_involution(phi: Involution, accept: Kernel) -> Kernel:
    """``accept * lift_involution(phi) + (1 - accept) * identity``.

    ``accept`` is an effect on phi's space with values at most 1; row ``i``
    is ``{phi(i): a_i, i: 1 - a_i}``, built directly.
    """
    if not accept.is_effect or accept.dom != phi.space:
        raise SpaceMismatchError(
            "lazy_involution needs an effect on the involution's space")
    rows = []
    append = rows.append
    for i, j, (_, nums, den, infs) in zip(count(), phi.perm, accept.int_rows):
        a = nums[0] if nums else 0
        if infs or a > den:
            value = INF if infs else ExtNonneg(a, den)
            raise ValueError(f"acceptance value {value} exceeds 1")
        if j == i or not a:
            append(((i,), _UNIT_NUM, 1, ()))
        elif a == den:
            append(((j,), _UNIT_NUM, 1, ()))
        else:  # a / den and the reject mass (den - a) / den share den
            append(((i, j), (den - a, a), den, ()) if i < j
                   else ((j, i), (a, den - a), den, ()))
    return Kernel._new(phi.space, phi.space, tuple(rows))


def lazy_proposal(proposal: Kernel, accept: Kernel) -> Kernel:
    """The chain that draws a move from ``proposal`` and takes it with the
    probability ``accept`` gives it, and otherwise stays: ``q(x, y) * a(x,
    y)`` off the diagonal, and the rest of the row's mass on it. The
    sibling of ``lazy_involution``, and classical MH's direct route.

    ``proposal`` is a normalized endo-kernel on X and ``accept`` an effect
    on a space of |X|^2 points, such as X (x) X, with ``a(x, y)`` at point
    ``x * |X| + y`` and at most 1 where the proposal moves. A row goes over
    its proposal denominator times the lcm of its accepted moves', and
    costs one gcd.
    """
    n = len(proposal.dom)
    if proposal.cod != proposal.dom or not accept.is_effect or len(accept.dom) != n * n:
        raise SpaceMismatchError("lazy_proposal needs an endo-kernel on X and an "
                                 "effect on X (x) X")
    alpha = accept.int_rows
    rows = []
    for i, (cols, nums, den, infs) in enumerate(proposal.int_rows):
        if infs or sum(nums) != den:
            raise ValueError("proposal rows must be normalized")
        at = i * n
        out, weights, dens = [], [], []  # the accepted moves, as q numerator times a
        for j, w in zip(cols, nums):
            if j != i:
                _, anums, aden, ainfs = alpha[at + j]
                if ainfs or anums and anums[0] > aden:
                    raise ValueError("acceptance value exceeds 1")
                if anums:
                    out.append(j)
                    weights.append(w * anums[0])
                    dens.append(aden)
        scale = lcm(*dens)
        if scale != 1:
            weights = [m * (scale // d) for m, d in zip(weights, dens)]
        stay = den * scale - sum(weights)
        if stay:  # the rejected mass, with q(x, x), stays at x
            k = bisect_left(out, i)
            out.insert(k, i)
            weights.insert(k, stay)
        rows.append(_reduced(tuple(out), weights, den * scale))
    return Kernel._new(proposal.dom, proposal.dom, tuple(rows))


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
