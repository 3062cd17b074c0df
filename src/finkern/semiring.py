"""Exact arithmetic in the extended nonnegative rationals [0, oo].

Addition and multiplication make [0, oo] a commutative semiring under the
measure-theoretic convention 0 * oo = 0 (a zero weight annihilates infinite
mass, as integration of the zero function requires). Values are canonical
rationals or the single infinity, so equality is decidable and structural.
"""

from __future__ import annotations

import re
from math import gcd


class SemiringDivisionError(ArithmeticError):
    """A quotient the semiring leaves undefined: x/0 or oo/oo."""


_FINITE_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


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
    def _raw(cls, num: int, den: int) -> "ExtNonneg":
        # Internal fast path: caller guarantees canonical form.
        value = object.__new__(cls)
        value.num = num
        value.den = den
        return value

    @classmethod
    def parse(cls, text: str) -> "ExtNonneg":
        """Parse ``"p/q"``, an integer string, or ``"inf"``.

        Rejects negative values and zero denominators.
        """
        text = text.strip()
        if text == "inf":
            return INF
        m = _FINITE_RE.match(text)
        if m is None:
            raise ValueError(f"not a value in [0, oo]: {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return cls(num, den)

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
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.den == 0 or other.den == 0:
            return INF
        n = self.num * other.den + other.num * self.den
        d = self.den * other.den
        g = gcd(n, d)
        return ExtNonneg._raw(n // g, d // g)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.num == 0 or other.num == 0:
            return ZERO  # includes 0 * oo = 0
        if self.den == 0 or other.den == 0:
            return INF
        n = self.num * other.num
        d = self.den * other.den
        g = gcd(n, d)
        return ExtNonneg._raw(n // g, d // g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
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
        n = self.num * other.den
        d = self.den * other.num
        g = gcd(n, d)
        return ExtNonneg._raw(n // g, d // g)

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __le__(self, other):
        # The canonical semiring order (exists c with a + c = b); on [0, oo]
        # this is the usual extended order.
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if other.den == 0:
            return True
        if self.den == 0:
            return False
        return self.num * other.den <= other.num * self.den

    def __lt__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self <= other and self != other

    def __ge__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other <= self

    def __gt__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other < self

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
INF = ExtNonneg._raw(1, 0)
ExtNonneg.INF = INF


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
    diff_n = d - n
    diff_d = lower.den * upper.den
    g = gcd(diff_n, diff_d) if diff_n else diff_d
    return ExtNonneg._raw(diff_n // g, diff_d // g)


def ext_sum(values) -> ExtNonneg:
    """Sum an iterable of values in [0, oo]."""
    total = ZERO
    for v in values:
        total = total + v
    return total
