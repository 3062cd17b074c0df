import re
import sys
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

from finkern.semiring import (
    ExtNonneg, INF, ONE, ZERO, SemiringDivisionError, pair_products_equal,
    pair_text,
)
from strategies import ext_sum, finite_values, mh_acceptance_ratio, residual, values


def q(num, den=1):
    return ExtNonneg(num, den)


# -- constructor and canonical form -----------------------------------------

def test_canonical_form():
    assert q(2, 4) == q(1, 2)
    assert q(0, 7) == ZERO
    assert q(6, 3).num == 2 and q(6, 3).den == 1


def test_rejects_negatives_and_zero_over_zero():
    with pytest.raises(ValueError):
        ExtNonneg(-1)
    with pytest.raises(ValueError):
        ExtNonneg(1, -2)
    with pytest.raises(ValueError):
        ExtNonneg(0, 0)


def test_out_of_domain_ints_compare_unequal():
    assert not ZERO == -1 and ZERO != -1
    assert not INF == -5 and q(1, 2) != -1
    with pytest.raises(TypeError):
        ZERO <= -1
    with pytest.raises(TypeError):
        ONE + -1


# -- addition ----------------------------------------------------------------

def test_add_halves_and_thirds():
    assert q(1, 2) + q(1, 3) == q(5, 6)


def test_add_infinity_absorbs():
    assert q(2) + INF == INF
    assert INF + INF == INF


@given(values)
def test_add_zero_is_identity(a):
    assert a + ZERO == a


@given(values, values)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(values, values, values)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


# -- multiplication ----------------------------------------------------------

def test_mul_rationals():
    assert q(2, 3) * q(3, 4) == q(1, 2)


def test_zero_times_infinity_is_zero():
    assert ZERO * INF == ZERO
    assert INF * ZERO == ZERO


def test_positive_times_infinity_is_infinity():
    assert q(1, 7) * INF == INF


@given(values)
def test_mul_one_is_identity(a):
    assert ONE * a == a


@given(values, values)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(values, values, values)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(values, values, values)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


# -- the canonical order -----------------------------------------------------

def test_leq_examples():
    assert q(1, 2) <= ONE
    assert not INF <= q(3)
    assert q(3) <= INF and INF <= INF


@given(values, values)
def test_leq_iff_residual_witness(a, b):
    c = residual(a, b)
    if a <= b:
        assert c is not None and a + c == b
    else:
        assert c is None


@given(values, values)
def test_leq_matches_existential_definition(a, b):
    # a <= b exactly when some c has a + c = b; the witness search over a
    # small grid plus the two absorbing cases covers [0, oo] completely.
    assert (a <= b) == (residual(a, b) is not None)


# -- algebraic pathologies ---------------------------------------------------

@given(values, values)
def test_zero_sum_free(a, b):
    if a + b == ZERO:
        assert a == ZERO and b == ZERO


@given(values, values)
def test_no_zero_divisors(a, b):
    if a * b == ZERO:
        assert a == ZERO or b == ZERO


@given(finite_values, values, values)
def test_finite_cancellation(a, b, c):
    if a + b == a + c:
        assert b == c


def test_infinite_cancellation_fails():
    assert INF + ZERO == INF + ONE
    assert ZERO != ONE


# -- division (partial) ------------------------------------------------------

def test_division_cases():
    assert q(2, 3) / q(1, 3) == q(2)
    assert INF / q(2) == INF
    assert q(5) / INF == ZERO


def test_division_errors():
    with pytest.raises(SemiringDivisionError):
        ONE / ZERO
    with pytest.raises(SemiringDivisionError):
        INF / INF


@given(finite_values, finite_values)
def test_division_inverts_multiplication(a, b):
    if b != ZERO:
        assert (a * b) / b == a


# -- parse and print ---------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("1/2", q(1, 2)),
    ("3", q(3)),
    ("0", ZERO),
    ("inf", INF),
    ("10/4", q(5, 2)),
])
def test_parse(text, value):
    assert ExtNonneg.parse(text) == value


@pytest.mark.parametrize("text", ["-1", "1/0", "1/-2", "a", "1.5", "", "oo"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        ExtNonneg.parse(text)


def _regex_parse(text):
    """The regex-based reading of a value's text: the oracle for parse."""
    text = text.strip()
    if text == "inf":
        return INF
    m = re.match(r"^(\d+)(?:/(\d+))?$", text)
    if m is None:
        raise ValueError(f"not a value in [0, oo]: {text!r}")
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return ExtNonneg(int(m.group(1)), den)


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return value.num, value.den


@given(st.text(alphabet="0123456789/ inf\u0663\u00b2-+_.\n", max_size=8))
def test_parse_agrees_with_the_regex_reading(text):
    assert _outcome(ExtNonneg.parse, text) == _outcome(_regex_parse, text)


@given(values)
def test_str_round_trips(a):
    assert ExtNonneg.parse(str(a)) == a


def test_str_formats():
    assert str(q(5, 6)) == "5/6"
    assert str(q(3)) == "3"
    assert str(INF) == "inf"


@given(st.integers(0, 48), st.integers(0, 12), st.integers(1, 6))
def test_pair_text_prints_what_str_prints(num, den, scale):
    """Zero, unreduced and oo pairs print as their reduced values do."""
    if num == den == 0:
        return
    assert pair_text(num * scale, den * scale) == str(ExtNonneg(num, den))


@pytest.mark.parametrize("digits", [640, 641, 1000, 4300])
def test_long_values_read_print_and_repr_under_the_least_digit_limit(
        least_digit_limit, digits):
    """Parts at and past a limit of 640 integer digits read, print and repr
    as any others, and the limit is left as it was."""
    num_text, den_text = "7" * digits, "1" + "0" * (digits - 1)
    value = ExtNonneg.parse(f"{num_text}/{den_text}")
    assert (value.num, value.den) == (7 * (10**digits - 1) // 9, 10**(digits - 1))
    assert str(value) == pair_text(value.num, value.den) == f"{num_text}/{den_text}"
    assert repr(value) == f"ExtNonneg({num_text}, {den_text})"
    assert ExtNonneg.parse(num_text) == value * ExtNonneg.parse(den_text)
    assert str(ExtNonneg.parse(num_text)) == num_text
    assert sys.get_int_max_str_digits() == least_digit_limit


def test_hash_consistent_with_int_equality():
    assert q(2) == 2
    assert hash(q(2)) == hash(2)


def test_ext_sum():
    assert ext_sum([q(1, 2), q(1, 3), q(1, 6)]) == ONE
    assert ext_sum([]) == ZERO
    assert ext_sum([ONE, INF]) == INF


# -- the operators against a Fraction oracle -----------------------------------

# finite operands: values, the shared zero, and plain nonnegative ints
finite_operands = st.one_of(finite_values, st.just(ZERO), st.integers(0, 60))
operands = st.one_of(finite_operands, st.just(INF))


def frac(x):
    return Fraction(x) if isinstance(x, int) else Fraction(x.num, x.den)


def assert_canonical(r):
    assert type(r) is ExtNonneg
    if r.den == 0:
        assert r.num == 1
    else:
        assert r.den >= 1 and r.num >= 0 and gcd(r.num, r.den) == 1
        assert r.num or r.den == 1


def lift(x):
    return ExtNonneg(x) if isinstance(x, int) else x


@given(finite_values | st.just(ZERO), finite_operands)
def test_ops_match_fraction_oracle_both_orders(a, b):
    for r, expected in [(a + b, frac(a) + frac(b)), (b + a, frac(a) + frac(b)),
                        (a * b, frac(a) * frac(b)), (b * a, frac(a) * frac(b))]:
        assert_canonical(r)
        assert frac(r) == expected
    if frac(b):
        assert_canonical(a / b)
        assert frac(a / b) == frac(a) / frac(b)
    if frac(a):  # b may be an int, so lift it: an int over a value is tested below
        assert_canonical(lift(b) / a)
        assert frac(lift(b) / a) == frac(b) / frac(a)


@given(st.integers(0, 60), finite_values)
def test_int_over_value_matches_fraction_oracle(n, b):
    if b.num:
        assert_canonical(n / b)
        assert frac(n / b) == Fraction(n) / frac(b)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_int_over_zero_raises_and_over_infinity_is_zero(n):
    with pytest.raises(SemiringDivisionError):
        n / ZERO
    assert n / INF == ZERO


@pytest.mark.parametrize("bad", [-1, 0.5])
def test_negative_int_or_float_over_value_is_a_type_error(bad):
    assert q(1, 2).__rtruediv__(bad) is NotImplemented
    with pytest.raises(TypeError):
        bad / q(1, 2)


@given(st.lists(finite_operands, max_size=8))
def test_ext_sum_matches_fraction_oracle(terms):
    total = ext_sum(terms)
    assert_canonical(total)
    assert frac(total) == sum(map(frac, terms), Fraction(0))


@given(st.lists(operands, max_size=8))
def test_ext_sum_is_the_fold_of_add(terms):
    total = ext_sum(terms)
    assert_canonical(total)
    folded = ZERO
    for t in terms:
        folded = folded + t
    assert total == folded
    assert (total == INF) == any(lift(t) == INF for t in terms)


@given(finite_values, finite_values)
def test_residual_matches_fraction_oracle(a, b):
    c = residual(a, b)
    if frac(a) <= frac(b):
        assert_canonical(c)
        assert frac(c) == frac(b) - frac(a)
    else:
        assert c is None


@given(operands, operands)
def test_every_result_is_canonical(a, b):
    a = lift(a)  # b may stay an int
    results = [a + b, a * b, b + a, b * a]
    for x, y in [(a, b), (lift(b), a)]:
        try:
            results.append(x / y)
        except SemiringDivisionError:
            assert lift(y) == ZERO or x == lift(y) == INF
    c = residual(a, lift(b))
    if c is not None:
        results.append(c)
    for r in results:
        assert_canonical(r)


@given(operands)
def test_zero_annihilates_and_division_by_zero_raises(a):
    assert a * ZERO == ZERO and ZERO * a == ZERO and a * 0 == ZERO
    a = lift(a)
    with pytest.raises(SemiringDivisionError):
        a / ZERO
    with pytest.raises(SemiringDivisionError):
        a / 0


def test_zero_times_infinity_with_int_operands():
    assert 0 * INF == ZERO and INF * 0 == ZERO
    with pytest.raises(SemiringDivisionError):
        INF / INF


@pytest.mark.parametrize("bad", [-1, -7, 1.5, 0.0, float("inf")])
@pytest.mark.parametrize("a", [ZERO, ONE, q(3, 4), INF], ids=str)
def test_outside_operands_are_not_implemented(a, bad):
    for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__",
               "__eq__", "__le__", "__lt__", "__ge__", "__gt__"):
        assert getattr(a, op)(bad) is NotImplemented
    for binary in (lambda: a + bad, lambda: bad + a, lambda: a * bad,
                   lambda: bad * a, lambda: a / bad, lambda: a <= bad,
                   lambda: a > bad):
        with pytest.raises(TypeError):
            binary()
    assert not a == bad and a != bad


@given(operands, operands)
def test_order_is_total_and_consistent(a, b):
    a, b = lift(a), lift(b)
    assert (a <= b) or (b <= a)
    assert (a < b) == (a <= b and a != b)
    assert (a >= b) == (b <= a) and (a > b) == (b < a)
    if a != INF and b != INF:
        assert (a <= b) == (frac(a) <= frac(b))


def test_ext_sum_rejects_values_outside_the_semiring():
    with pytest.raises(TypeError):
        ext_sum([ONE, -1])
    with pytest.raises(TypeError):
        ext_sum([0.5])


# -- values as integer pairs -------------------------------------------------

def _pair(v, scale):
    """A value's pair, a finite one with both fields scaled (unreduced)."""
    return (v.num * scale, v.den * scale) if v.den else (1, 0)


scales = st.integers(1, 6)


@given(values, values, values, values, scales, scales)
def test_pair_products_equal_matches_value_equality(a, b, c, d, s, t):
    pairs = [_pair(a, s), _pair(b, t), _pair(c, t), _pair(d, s)]
    assert pair_products_equal(*pairs) == (a * b == c * d)


# -- the Metropolis-Hastings acceptance ratio over ExtNonneg ------------------

@given(values, values)
def test_mh_acceptance_ratio_is_min_one_and_zero_over_a_zero_denominator(a, b):
    if a == INF and b == INF:
        with pytest.raises(SemiringDivisionError):
            mh_acceptance_ratio(a, b)
        return
    expected = ZERO if b == ZERO else min(ONE, a / b)
    assert mh_acceptance_ratio(a, b) == expected
