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
        den = _text_int(den) if slash else 1
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return fraction(_text_int(num), den)

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

    def __add__(self, other):
        other = ExtNonneg._lift(other)
        if other is None:
            return NotImplemented
        if self.den == 0 or other.den == 0:
            return INF
        return fraction(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = ExtNonneg._lift(other)
        if other is None:
            return NotImplemented
        if self.num == 0 or other.num == 0:
            return ZERO  # includes 0 * oo = 0
        if self.den == 0 or other.den == 0:
            return INF
        return fraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExtNonneg._lift(other)
        if other is None:
            return NotImplemented
        if other.num == 0:
            raise SemiringDivisionError("division by zero")
        if other.den == 0:
            if self.den == 0:
                raise SemiringDivisionError("oo/oo is undefined")
            return ZERO
        if self.den == 0:
            return INF
        return fraction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = ExtNonneg._lift(other)
        return NotImplemented if other is None else other.__truediv__(self)

    def __eq__(self, other):
        other = ExtNonneg._lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __le__(self, other):
        # The canonical semiring order (exists c with a + c = b); on [0, oo]
        # this is the usual extended order.
        other = ExtNonneg._lift(other)
        if other is None:
            return NotImplemented
        if other.den == 0:
            return True
        if self.den == 0:
            return False
        return self.num * other.den <= other.num * self.den

    # The order is total, so the strict and reversed forms are swaps and
    # negations of ``__le__`` on the lifted operand.

    def __lt__(self, other):
        other = ExtNonneg._lift(other)
        return NotImplemented if other is None else not other.__le__(self)

    def __ge__(self, other):
        other = ExtNonneg._lift(other)
        return NotImplemented if other is None else other.__le__(self)

    def __gt__(self, other):
        other = ExtNonneg._lift(other)
        return NotImplemented if other is None else not self.__le__(other)

    def __hash__(self):
        # Integers hash like the ints they equal, so mixed lookups behave.
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == 0:
            return "ExtNonneg.INF"
        return f"ExtNonneg({_int_text(self.num)}, {_int_text(self.den)})"

    def __str__(self):
        return pair_text(self.num, self.den)

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
    one gcd, and none of the constructor's checks. Every finite result of
    the operators and of ``parse`` is built here."""
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
# oo is ``(1, 0)``, 0 is ``(0, 1)`` and 1 is ``(1, 1)``. Code that reads
# many stored entries (``kernels.pair_rows``) compares products of them as
# pairs, by cross-multiplication, and builds no ``ExtNonneg``; code that
# builds many (``kernels.from_pair_rows``) writes them as pairs, and
# ``pair_text`` prints a pair as the text that ``ExtNonneg.parse`` reads.
# Both convert ints of any length under any limit of the interpreter on
# integer digits, and never change it: an int of more than 640 digits, the
# least limit Python accepts, goes through ``decimal``, which no limit covers.

ZERO_PAIR = (0, 1)
ONE_PAIR = (1, 1)
INF_PAIR = (1, 0)


def pair_products_equal(a, b, c, d) -> bool:
    """Whether ``a * b == c * d`` for pairs, with ``0 * oo = 0``."""
    left, right = a[0] and b[0], c[0] and d[0]
    if not left or not right:
        return not left and not right
    return a[0] * b[0] * c[1] * d[1] == c[0] * d[0] * a[1] * b[1]


def pair_text(num: int, den: int) -> str:
    """The text of the pair's value, as model files and reports print it:
    ``inf``, an integer, or ``p/q`` in lowest terms."""
    if not den:
        return "inf"
    g = gcd(num, den)
    text = _int_text(num // g)
    return text if g == den else f"{text}/{_int_text(den // g)}"


_SHORT_DIGITS = 640
_SHORT = 10 ** _SHORT_DIGITS


def _int_text(n: int) -> str:
    """The decimal text of an int ``n >= 0`` of any length."""
    if n < _SHORT:
        return str(n)
    from decimal import Decimal
    return str(Decimal(n))


def _text_int(digits: str) -> int:
    """The int that a string of decimal digits of any length spells."""
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    from decimal import Decimal
    return int(Decimal(digits))
