"""Order and arithmetic in the exponent group a + b*sqrt(2)."""

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from berkline import (
    EXP_ONE,
    EXP_ZERO,
    INF,
    MAG_ONE,
    MAG_ZERO,
    Exponent,
    Magnitude,
    Ordering,
    ParseError,
    add_lengths,
    exp_compare,
    format_exponent,
    format_length,
    format_magnitude,
    is_rational_over_value_group,
    mag_max,
    parse_exponent,
)

getcontext().prec = 50
_SQRT2 = Decimal(2).sqrt()

_fracs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
_exps = st.builds(Exponent, _fracs, _fracs)


def _decimal_sign(e: Exponent) -> int:
    v = Decimal(e.a.numerator) / Decimal(e.a.denominator)
    v += Decimal(e.b.numerator) / Decimal(e.b.denominator) * _SQRT2
    if v == 0:
        return 0
    return 1 if v > 0 else -1


def fin(a, b=0) -> Magnitude:
    return Magnitude.finite(Exponent(Fraction(a), Fraction(b)))


def test_compare_frozen_examples():
    assert exp_compare(EXP_ZERO, EXP_ZERO) is Ordering.EQ
    # 3 - 2*sqrt(2) is positive: squaring the two halves gives 9 > 8
    assert exp_compare(Exponent(3, -2), EXP_ZERO) is Ordering.GT
    assert exp_compare(Exponent(1, 1), Exponent(2, 0)) is Ordering.GT


def test_sign_matches_decimal_oracle():
    rng = random.Random(20260819)
    for _ in range(400):
        e = Exponent(
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
        )
        assert e.sign() == _decimal_sign(e)


@given(_exps, _exps)
def test_compare_is_translation_invariant(e1, e2):
    assert exp_compare(e1, e2) is exp_compare(e1 - e2, EXP_ZERO)
    assert (e1 < e2) == ((e1 - e2).sign() < 0)
    assert (e1 > e2) == ((e1 - e2).sign() > 0)


@given(_exps, _exps, _exps)
def test_order_respects_addition(e1, e2, e3):
    if e1 < e2:
        assert e1 + e3 < e2 + e3
    assert (e1 + e2) - e2 == e1


@given(_exps)
def test_abs_neg_scale(e):
    assert abs(e).sign() >= 0
    assert (e + (-e)).sign() == 0
    assert e.scale(2) == e + e
    assert e.scale(Fraction(1, 2)) + e.scale(Fraction(1, 2)) == e
    assert exp_compare(e, e) is Ordering.EQ


def test_rationality_flag():
    assert Exponent(Fraction(1, 2)).is_rational()
    assert not Exponent(0, 1).is_rational()


def test_magnitude_order_is_inverted():
    # the base rho lies in (0,1): larger exponents mean smaller magnitudes
    assert Magnitude.finite(EXP_ONE) < MAG_ONE
    assert fin(-1) > MAG_ONE
    assert MAG_ZERO < fin(100)
    assert not MAG_ZERO < MAG_ZERO
    assert MAG_ZERO <= MAG_ZERO
    assert fin(0, 1) < MAG_ONE  # sqrt(2) > 0


def test_magnitude_arithmetic_frozen():
    assert fin(1) * fin(Fraction(1, 2)) == fin(Fraction(3, 2))
    assert fin(0, 1) * fin(0, -1) == MAG_ONE
    assert fin(1).root(2) == fin(Fraction(1, 2))
    assert fin(1, 1).root(2) == fin(Fraction(1, 2), Fraction(1, 2))
    assert fin(2) ** 3 == fin(6)
    assert MAG_ZERO * fin(5) == MAG_ZERO
    assert mag_max(MAG_ZERO, fin(2), fin(1)) == fin(1)


@given(_exps, _exps)
def test_magnitude_group_laws(e1, e2):
    m1, m2 = Magnitude.finite(e1), Magnitude.finite(e2)
    assert m1 * m2 == m2 * m1
    assert m1 * MAG_ONE == m1
    assert (m1 * m2).exponent == e1 + e2
    assert (m1 ** 2).root(2) == m1


def test_value_group_rationality():
    assert is_rational_over_value_group(fin(Fraction(1, 2)), EXP_ONE)
    assert not is_rational_over_value_group(fin(0, 1), EXP_ONE)
    assert is_rational_over_value_group(fin(0), EXP_ZERO)
    assert not is_rational_over_value_group(fin(1), EXP_ZERO)


def test_infinite_length():
    assert INF == INF
    assert INF > EXP_ZERO
    assert not INF < INF
    assert INF >= INF
    assert add_lengths(EXP_ONE, INF) is INF
    assert add_lengths(EXP_ONE, EXP_ONE) == Exponent(2)
    assert add_lengths() == EXP_ZERO
    assert format_length(INF) == "inf"
    assert format_length(EXP_ONE) == "1"


def test_text_forms():
    assert format_exponent(Exponent(Fraction(1, 2))) == "1/2"
    assert format_exponent(Exponent(1, 1)) == "1+1*s2"
    assert format_exponent(Exponent(1, -Fraction(2, 3))) == "1-2/3*s2"
    assert format_magnitude(MAG_ZERO) == "0"
    assert format_magnitude(fin(Fraction(3, 2))) == "rho^(3/2)"
    with pytest.raises(ParseError):
        parse_exponent("s2+1")
    with pytest.raises(ParseError):
        parse_exponent("1/0")


@given(_exps)
def test_parse_format_roundtrip(e):
    assert parse_exponent(format_exponent(e)) == e


def test_to_float_agrees_with_exact_order_when_separated():
    # floats are display-only; still, they must not contradict the exact
    # order whenever the gap is far above double precision noise
    rng = random.Random(59)
    for _ in range(300):
        e1 = Exponent(
            Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
        )
        e2 = Exponent(
            Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
        )
        if abs(e1.to_float() - e2.to_float()) > 1e-9:
            assert (e1.to_float() < e2.to_float()) == (e1 < e2)


def test_constructor_accepts_rationals_only():
    assert Exponent(True) == Exponent(1)
    assert Exponent(Fraction(2, 4), 3) == Exponent(Fraction(1, 2), Fraction(6, 2))
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            Exponent(bad)
        with pytest.raises(TypeError):
            Exponent(1, bad)


def test_exponent_is_read_only():
    e = Exponent(Fraction(1, 2), 1)
    for attr in ("a", "b", "c"):
        with pytest.raises(AttributeError):
            setattr(e, attr, Fraction(0))
    assert (e.a, e.b) == (Fraction(1, 2), Fraction(1))


def test_integer_magnitudes_are_interned_in_a_bounded_table():
    from berkline.exponents import _INT_MAGS, _INTERNED, int_magnitude

    for v in (-_INTERNED, -3, 0, 7, _INTERNED):
        assert int_magnitude(v) is int_magnitude(v)
        assert int_magnitude(v) == fin(v)
    big = int_magnitude(_INTERNED + 1)
    assert big == fin(_INTERNED + 1) and big is not int_magnitude(_INTERNED + 1)
    assert len(_INT_MAGS) <= 2 * _INTERNED + 1
