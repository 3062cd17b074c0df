"""Exact arithmetic in the extended nonnegative rationals [0, oo].

Addition and multiplication make [0, oo] a commutative semiring under the
measure-theoretic convention 0 * oo = 0 (a zero weight annihilates infinite
mass, as integration of the zero function requires). Values are canonical
rationals or the single infinity, so equality is decidable and structural.
"""

from __future__ import annotations

from math import gcd


class SemiringDivisionError(ArithmeticError):
    """A quotient the semiring leaves undefined: x/0 or oo/oo."""


#: Allocates an instance without running ``__init__``; callers store a
#: canonical ``num``/``den`` themselves.
_new = object.__new__


class ExtNonneg:
    """A nonnegative rational or infinity.

    Finite values are stored as coprime ``num/den`` with ``den >= 1``;
    infinity is encoded as ``den == 0`` (normalized to ``num == 1``).
    Instances are immutable by convention and safe to share freely.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError(f"ExtNonneg needs ints, got {num!r}/{den!r}")
        if num < 0 or den < 0:
            raise ValueError(f"negative value {num}/{den} is not in [0, oo]")
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a value")
            num = 1
        elif num == 0:
            den = 1
        else:
            g = gcd(num, den)
            num //= g
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def parse(cls, text: str) -> "ExtNonneg":
        """Parse ``"p/q"``, an integer string, or ``"inf"``.

        Rejects negative values and zero denominators.
        """
        text = text.strip()
        if text == "inf":
            return INF
        # digits, optionally "/" and digits; isdecimal() accepts exactly
        # the characters int() reads as digits
        num, slash, den = text.partition("/")
        if not num.isdecimal() or not (den.isdecimal() or not slash):
            raise ValueError(f"not a value in [0, oo]: {text!r}")
        den = int(den) if slash else 1
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        num = int(num)
        if num == 0:
            return ZERO
        g = gcd(num, den)
        value = _new(cls)
        value.num = num // g
        value.den = den // g
        return value

    @property
    def is_finite(self) -> bool:
        return self.den != 0

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    @staticmethod
    def _lift(other):
        # None for anything outside [0, oo], so comparisons with a negative
        # int are unequal instead of raising.
        if isinstance(other, ExtNonneg):
            return other
        if isinstance(other, int) and other >= 0:
            return ExtNonneg(other)
        return None

    # The operators below test ``other.__class__ is ExtNonneg`` inline and
    # lift only other operands, and build results with ``_new`` and two
    # slot stores: a Python call per operation costs more than the integer
    # arithmetic on small values.

    def __add__(self, other):
        if other.__class__ is not ExtNonneg:
            other = ExtNonneg._lift(other)
            if other is None:
                return NotImplemented
        b = self.den
        d = other.den
        if b == 0 or d == 0:
            return INF
        a = self.num
        c = other.num
        if c == 0:
            return self
        if a == 0:
            return other
        if b == d:
            n = a + c
        else:
            n = a * d + c * b
            b *= d
        g = gcd(n, b)
        value = _new(ExtNonneg)
        value.num = n // g
        value.den = b // g
        return value

    __radd__ = __add__

    def __mul__(self, other):
        if other.__class__ is not ExtNonneg:
            other = ExtNonneg._lift(other)
            if other is None:
                return NotImplemented
        a = self.num
        c = other.num
        if a == 0 or c == 0:
            return ZERO  # includes 0 * oo = 0
        b = self.den
        d = other.den
        if b == 0 or d == 0:
            return INF
        if c == 1 and d == 1:
            return self
        if a == 1 and b == 1:
            return other
        # cross-cancel: a/b * c/d with gcd(a, d) and gcd(c, b) divided out
        # is already coprime, since a/b and c/d are
        g = gcd(a, d)
        if g != 1:
            a //= g
            d //= g
        g = gcd(c, b)
        if g != 1:
            c //= g
            b //= g
        value = _new(ExtNonneg)
        value.num = a * c
        value.den = b * d
        return value

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not ExtNonneg:
            other = ExtNonneg._lift(other)
            if other is None:
                return NotImplemented
        c = other.num
        d = other.den
        if c == 0:
            raise SemiringDivisionError("division by zero")
        b = self.den
        if d == 0:
            if b == 0:
                raise SemiringDivisionError("oo/oo is undefined")
            return ZERO
        if b == 0:
            return INF
        a = self.num
        if a == 0:
            return ZERO
        # a/b / c/d = (a*d) / (b*c), cross-cancelled as in __mul__
        g = gcd(a, c)
        if g != 1:
            a //= g
            c //= g
        g = gcd(d, b)
        if g != 1:
            d //= g
            b //= g
        value = _new(ExtNonneg)
        value.num = a * d
        value.den = b * c
        return value

    def __rtruediv__(self, other):
        other = ExtNonneg._lift(other)
        return NotImplemented if other is None else other.__truediv__(self)

    def __eq__(self, other):
        if other.__class__ is not ExtNonneg:
            other = ExtNonneg._lift(other)
            if other is None:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __le__(self, other):
        # The canonical semiring order (exists c with a + c = b); on [0, oo]
        # this is the usual extended order.
        if other.__class__ is not ExtNonneg:
            other = ExtNonneg._lift(other)
            if other is None:
                return NotImplemented
        if other.den == 0:
            return True
        if self.den == 0:
            return False
        return self.num * other.den <= other.num * self.den

    # The order is total, so the strict and reversed forms are negations
    # and swaps of ``__le__`` on two values.

    def __lt__(self, other):
        if other.__class__ is not ExtNonneg:
            other = ExtNonneg._lift(other)
            if other is None:
                return NotImplemented
        return not other.__le__(self)

    def __ge__(self, other):
        if other.__class__ is not ExtNonneg:
            other = ExtNonneg._lift(other)
            if other is None:
                return NotImplemented
        return other.__le__(self)

    def __gt__(self, other):
        if other.__class__ is not ExtNonneg:
            other = ExtNonneg._lift(other)
            if other is None:
                return NotImplemented
        return not self.__le__(other)

    def __hash__(self):
        # Integers hash like the ints they equal, so mixed lookups behave.
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == 0:
            return "ExtNonneg.INF"
        return f"ExtNonneg({self.num}, {self.den})"

    def __str__(self):
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def to_float(self) -> float:
        if self.den == 0:
            return float("inf")
        return self.num / self.den


ZERO = ExtNonneg(0)
ONE = ExtNonneg(1)
INF = _new(ExtNonneg)
INF.num = 1
INF.den = 0
ExtNonneg.INF = INF


def fraction(num: int, den: int) -> ExtNonneg:
    """The reduced value ``num / den`` of ints ``num >= 0`` and ``den > 0``:
    one gcd, and none of the constructor's checks."""
    g = gcd(num, den)
    value = _new(ExtNonneg)
    value.num = num // g
    value.den = den // g
    return value


# ---------------------------------------------------------------------------
# values as integer pairs
#
# A pair ``(num, den)`` holds a value's two fields without the object: a
# finite value is ``num / den`` with ``den > 0``, not necessarily reduced;
# oo is ``(1, 0)`` and 0 is ``(0, 1)``. Code that reads many stored entries
# (``kernels.pair_rows``) compares products of them as pairs, by
# cross-multiplication, and builds no ``ExtNonneg``.

ZERO_PAIR = (0, 1)
INF_PAIR = (1, 0)


def pair_products_equal(a, b, c, d) -> bool:
    """Whether ``a * b == c * d`` for pairs, with ``0 * oo = 0``."""
    left, right = a[0] and b[0], c[0] and d[0]
    if not left or not right:
        return not left and not right
    return a[0] * b[0] * c[1] * d[1] == c[0] * d[0] * a[1] * b[1]


def residual(lower: ExtNonneg, upper: ExtNonneg) -> ExtNonneg | None:
    """A witness ``c`` with ``lower + c == upper``, or None when none exists.

    Returns the minimal witness for finite pairs; for ``upper == oo`` the
    witness oo (or 0 when lower is already oo) is used.
    """
    if upper.den == 0:
        return ZERO if lower.den == 0 else INF
    if lower.den == 0:
        return None
    n = lower.num * upper.den
    d = upper.num * lower.den
    if n > d:
        return None
    return fraction(d - n, lower.den * upper.den)


def ext_sum(values) -> ExtNonneg:
    """Sum an iterable of values in [0, oo].

    The finite terms are added into one integer numerator over a running
    common denominator (grown by the lcm, so a row over one denominator
    never grows it), with one gcd at the end; the first infinite term
    returns oo.
    """
    num, den = 0, 1
    for v in values:
        if v.__class__ is not ExtNonneg:
            lifted = ExtNonneg._lift(v)
            if lifted is None:
                raise TypeError(f"cannot add {v!r} in [0, oo]")
            v = lifted
        d = v.den
        if d == den:
            num += v.num
        elif d == 0:
            return INF
        elif den % d == 0:
            num += v.num * (den // d)
        else:
            g = gcd(den, d)
            scale = d // g
            num = num * scale + v.num * (den // g)
            den *= scale
    return fraction(num, den)
