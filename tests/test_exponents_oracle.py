"""The integer-triple Exponent against the Fraction-pair reference.

Values are drawn with mixed denominators and, on purpose, as near-ties
of ``a^2`` against ``2*b^2`` with opposite signs, built from the Pell
pairs ``p^2 - 2*q^2 = +-1`` (``577 - 408*sqrt(2)``, ``-1393 + 985*sqrt(2)``,
...), where the sign rule is closest to failing.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from berkline import (
    MAG_ZERO,
    Exponent,
    Magnitude,
    exp_compare,
    format_exponent,
    parse_exponent,
)
from oracles import ReferenceExponent, ReferenceMagnitude, reference_format_exponent

PELL = ((1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (239, 169),
        (577, 408), (1393, 985), (3363, 2378), (8119, 5741), (19601, 13860))

_rats = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_scales = st.fractions(min_value=-9, max_value=9, max_denominator=40).filter(bool)


@st.composite
def _near_ties(draw):
    """``r*(p - q*sqrt(2))`` or ``r*(p/q - sqrt(2))``, either sign."""
    p, q = draw(st.sampled_from(PELL))
    r = draw(_scales)
    if draw(st.booleans()):
        return (r * p, -r * q)
    return (r * Fraction(p, q), -r)


_pairs = st.one_of(
    st.tuples(_rats, _rats),
    st.tuples(_rats, st.just(Fraction(0))),
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    _near_ties(),
)


@st.composite
def _two(draw):
    """Two values, the second often a near-tie away from the first."""
    x = draw(_pairs)
    if draw(st.booleans()):
        y = draw(_pairs)
    else:
        dx, dy = draw(_near_ties())
        y = (x[0] + dx, x[1] + dy)
    return x, y


def _both(pair):
    return Exponent(*pair), ReferenceExponent(*pair)


def _same(e: Exponent, ref: ReferenceExponent) -> bool:
    return isinstance(e, Exponent) and (e.a, e.b) == (ref.a, ref.b)


@settings(max_examples=400)
@given(_two(), st.one_of(st.integers(-12, 12), _scales))
def test_exponent_matches_reference(xy, q):
    (e1, r1), (e2, r2) = _both(xy[0]), _both(xy[1])
    assert _same(e1, r1)
    assert _same(e1 + e2, r1 + r2)
    assert _same(e1 - e2, r1 - r2)
    assert _same(-e1, -r1)
    assert _same(e1.scale(q), r1.scale(q))
    assert _same(abs(e1), abs(r1))
    assert e1.sign() == r1.sign()
    assert (e1 - e2).sign() == (r1 - r2).sign()
    assert (e1 < e2, e1 <= e2, e1 > e2, e1 >= e2) == (r1 < r2, r1 <= r2, r1 > r2, r1 >= r2)
    assert (e1 == e2, e1 != e2) == (r1 == r2, r1 != r2)
    assert int(exp_compare(e1, e2)) == (r1 - r2).sign()
    assert e1.is_rational() == r1.is_rational()
    assert e1.to_float() == r1.to_float()


@settings(max_examples=200)
@given(_two())
def test_equality_hash_and_text_match_reference(xy):
    (e1, r1), (e2, r2) = _both(xy[0]), _both(xy[1])
    assert hash(e1) == hash(r1)
    if e1 == e2:
        assert hash(e1) == hash(e2)
    # equal values built along different routes are equal and hash alike
    routed = (e1 + e2) - e2
    assert routed == e1 and hash(routed) == hash(e1)
    text = format_exponent(e1)
    assert text == reference_format_exponent(r1)
    assert parse_exponent(text) == e1
    assert repr(e1) == repr(r1).replace("ReferenceExponent", "Exponent")


_mag_pairs = st.one_of(st.none(), _pairs)


def _mags(pair):
    if pair is None:
        return MAG_ZERO, ReferenceMagnitude(None)
    return Magnitude.finite(Exponent(*pair)), ReferenceMagnitude(ReferenceExponent(*pair))


@st.composite
def _two_mags(draw):
    if draw(st.booleans()):
        return draw(_mag_pairs), draw(_mag_pairs)
    return draw(_two())


@settings(max_examples=300)
@given(_two_mags())
def test_magnitude_order_matches_reference(xy):
    (m1, s1), (m2, s2) = _mags(xy[0]), _mags(xy[1])
    for a, b, ra, rb in ((m1, m2, s1, s2), (m2, m1, s2, s1), (m1, m1, s1, s1)):
        assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb)
        assert (a == b, a != b) == (ra == rb, ra != rb)
    prod, ref = m1 * m2, s1 * s2
    if ref.exponent is None:
        assert prod == MAG_ZERO
    else:
        assert _same(prod.exponent, ref.exponent)
