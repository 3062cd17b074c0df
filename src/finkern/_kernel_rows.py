"""The stored rows of kernels: how they are built, reduced and read.

``kernel.int_rows[i]`` is the row ``(cols, nums, den, infs)``: the
ascending columns of row i's finite nonzero entries, their positive integer
numerators over the one row denominator ``den``, and the ascending columns
of its infinite entries, disjoint from ``cols``. Each row is reduced
(``gcd(den, *nums) == 1``, and an empty finite part has ``den == 1``), so
equal kernels have equal rows and hashes. Zeros are never stored, and
``0 * oo = 0`` keeps them out of every product. One helper turns loose
columns into a stored row for ``compose``, ``+`` and the relabels of index
maps that may meet alike: it adds up the numerators only where columns
meet, and an oo entry absorbs any finite mass that lands on its column. A
finite row whose relabelled columns are distinct is only put in order.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm
from typing import Sequence, Union

from .semiring import ExtNonneg, INF, ZERO, fraction

Entry = Union[ExtNonneg, int]

#: A stored row: the ascending columns of the finite nonzero entries, their
#: positive numerators over one denominator, and the ascending columns of
#: the infinite entries.
_Row = tuple[tuple[int, ...], tuple[int, ...], int, tuple[int, ...]]

_EMPTY_ROW: _Row = ((), (), 1, ())
_INF_POINT: _Row = ((), (), 1, (0,))  # an effect's row with value oo
_COL0 = (0,)  # the column of an effect's finite row
_UNIT_NUM = (1,)


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
               den: int, targets: tuple[int, ...] | None = None) -> _Row:
    """The sum over ``den`` of finite rows, each times its weight, added up
    in a list of all ``width`` columns, each column ``k`` at ``targets[k]``
    where targets are given: for rows holding more entries in all than
    there are columns, which a dict would cost more to hold."""
    acc = [0] * width
    if targets is None:
        for w, (cols, nums, _, _) in zip(weights, rows):
            for j, n in zip(cols, nums):
                acc[j] += w * n
    else:  # indexed in the loop: a map per row costs more over rows of few entries
        for w, (cols, nums, _, _) in zip(weights, rows):
            for j, n in zip(cols, nums):
                acc[targets[j]] += w * n
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


def _relabel(row: _Row, targets: tuple[int, ...]) -> _Row:
    """A row with each column ``k`` moved to ``targets[k]``, sums where
    columns meet, and oo where an infinite entry lands. A finite row whose
    moved columns are distinct keeps its numerators and denominator, so it
    stays reduced and costs no gcd: one entry is only moved, more are put
    in column order."""
    cols, nums, den, infs = row
    moved = list(map(targets.__getitem__, cols))
    if not infs:
        if len(moved) < 2:
            return (tuple(moved), nums, den, ()) if moved else row
        ordered = sorted(moved)
        if ordered == moved:
            if len(set(moved)) == len(moved):
                return tuple(moved), nums, den, ()
        elif len(at := dict(zip(moved, nums))) == len(moved):
            return tuple(ordered), tuple(map(at.__getitem__, ordered)), den, ()
    return _joined_row(moved, nums, den, infs and tuple(sorted({targets[k] for k in infs})))
