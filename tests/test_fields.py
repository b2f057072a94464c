"""Valued-field backends: valuations, residues, parsing, field axioms."""

import random
from fractions import Fraction

import pytest

from berkline import (
    DomainError,
    Exponent,
    Magnitude,
    PAdicField,
    ParseError,
    PrimeField,
    PuiseuxField,
    QQ,
    Rationals,
    TrivialField,
    parse_field,
    ultrametric_check,
)
from berkline.fields import PRIME_LIMIT, _is_prime
from helpers import LSER, Q5, rand_element


def _vp_oracle(x: Fraction, p: int) -> int:
    """Repeated division, no clever shortcuts."""
    assert x != 0
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def test_padic_valuation_frozen():
    assert Q5.valuation(Fraction(50, 3)) == Magnitude.finite(Exponent(2))
    assert Q5.valuation(Fraction(3, 25)) == Magnitude.finite(Exponent(-2))
    assert Q5.valuation(Q5.zero).is_zero


def test_padic_valuation_matches_division_oracle():
    rng = random.Random(5)
    for _ in range(200):
        x = rand_element(rng, Q5, nonzero=True)
        assert Q5.valuation(x) == Magnitude.finite(Exponent(_vp_oracle(x, 5)))


def test_padic_residue_frozen():
    # 7/3 = 7 * inv(3) and inv(3) = 2 in F_5, so the residue is 14 mod 5
    assert Q5.residue(Fraction(7, 3)) == 4
    assert Q5.residue(Fraction(10)) == 0
    with pytest.raises(DomainError):
        Q5.residue(Fraction(1, 5))


def test_padic_residue_is_a_homomorphism():
    rng = random.Random(7)
    rf = Q5.residue_field
    for _ in range(150):
        x, y = rand_element(rng, Q5), rand_element(rng, Q5)
        if Q5.valuation(x) > Magnitude.unit() or Q5.valuation(y) > Magnitude.unit():
            continue
        assert Q5.residue(Q5.add(x, y)) == rf.add(Q5.residue(x), Q5.residue(y))
        assert Q5.residue(Q5.mul(x, y)) == rf.mul(Q5.residue(x), Q5.residue(y))


def test_padic_basic_arithmetic():
    assert Q5.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q5.div(Q5.one, Fraction(4)) == Fraction(1, 4)
    with pytest.raises(DomainError):
        Q5.inv(Q5.zero)


def test_padic_element_with_valuation():
    assert Q5.element_with_valuation(Exponent(2)) == Fraction(25)
    assert Q5.element_with_valuation(Exponent(-1)) == Fraction(1, 5)
    assert Q5.element_with_valuation(Exponent(Fraction(1, 2))) is None
    assert Q5.element_with_valuation(Exponent(0, 1)) is None


def test_puiseux_valuation_and_parse_frozen():
    x = LSER.parse_element("t^(1/2)+t^(2)")
    assert LSER.valuation(x) == Magnitude.finite(Exponent(Fraction(1, 2)))
    assert LSER.format_element(x) == "t^(1/2)+t^(2)"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("t", ((Fraction(1), Fraction(1)),)),
        ("-t", ((Fraction(1), Fraction(-1)),)),
        ("2*t^(1)", ((Fraction(1), Fraction(2)),)),
        ("t^(-1)", ((Fraction(-1), Fraction(1)),)),
        ("1+t", ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))),
        ("1/2*t^(1/3)", ((Fraction(1, 3), Fraction(1, 2)),)),
        ("3", ((Fraction(0), Fraction(3)),)),
        ("0", ()),
    ],
)
def test_puiseux_parse_cases(text, expected):
    assert LSER.parse_element(text) == expected


def test_puiseux_parse_rejects_junk():
    # exponents must be parenthesized, as in the emitted form
    for bad in ("t^2", "t^(1/2", "t*t", "t^(a)", ""):
        with pytest.raises(ParseError):
            LSER.parse_element(bad)


def test_puiseux_arithmetic_frozen():
    one_plus = LSER.parse_element("1+t")
    one_minus = LSER.parse_element("1-t")
    assert LSER.mul(one_plus, one_minus) == LSER.parse_element("1-t^(2)")
    assert LSER.inv(LSER.parse_element("t^(1/2)")) == LSER.parse_element("t^(-1/2)")
    # only monomials have inverses in this truncated model
    with pytest.raises(DomainError):
        LSER.inv(one_plus)


def test_puiseux_residue():
    assert LSER.residue(LSER.parse_element("3+t")) == Fraction(3)
    assert LSER.residue(LSER.t) == Fraction(0)
    with pytest.raises(DomainError):
        LSER.residue(LSER.parse_element("t^(-1)"))


def test_residue_of_quotient():
    assert Q5.residue_of_quotient(Fraction(50), Fraction(25)) == 2
    assert Q5.residue_of_quotient(Fraction(7), Fraction(1)) == 2
    x = LSER.parse_element("3*t+t^(2)")
    assert LSER.residue_of_quotient(x, LSER.t) == Fraction(3)


def test_element_with_valuation_puiseux():
    e = Exponent(Fraction(-3, 7))
    m = LSER.element_with_valuation(e)
    assert LSER.valuation(m) == Magnitude.finite(e)
    assert LSER.element_with_valuation(Exponent(0, 1)) is None


def test_ultrametric_property():
    rng = random.Random(11)
    for field in (Q5, LSER):
        for _ in range(150):
            x, y = rand_element(rng, field), rand_element(rng, field)
            assert ultrametric_check(field, x, y)


def test_valuation_is_multiplicative():
    rng = random.Random(13)
    for field in (Q5, LSER):
        for _ in range(150):
            x = rand_element(rng, field, nonzero=True)
            y = rand_element(rng, field, nonzero=True)
            assert field.valuation(field.mul(x, y)) == field.valuation(x) * field.valuation(y)
            if not (isinstance(field, PuiseuxField) and len(x) > 1):
                assert field.valuation(field.inv(x)) * field.valuation(x) == Magnitude.unit()


def test_format_parse_roundtrip():
    rng = random.Random(17)
    for field in (Q5, LSER):
        for _ in range(80):
            x = rand_element(rng, field)
            assert field.parse_element(field.format_element(x)) == x


def test_prime_field_inverse_brute_force():
    for p in (3, 5, 13):
        f = PrimeField(p)
        for a in range(1, p):
            inv = f.inv(a)
            assert (a * inv) % p == 1
            assert inv == next(b for b in range(1, p) if (a * b) % p == 1)
    with pytest.raises(DomainError):
        PrimeField(6)


def test_squares_in_residue_fields():
    f5 = PrimeField(5)
    assert {a for a in range(5) if f5.is_square(a)} == {0, 1, 4}
    assert QQ.is_square(Fraction(4, 9))
    assert not QQ.is_square(Fraction(2))
    assert not QQ.is_square(Fraction(-4))


def test_trivial_field():
    k = TrivialField(QQ)
    assert k.valuation(k.zero).is_zero
    assert k.valuation(Fraction(7, 3)) == Magnitude.unit()
    assert k.value_group_gen == Exponent(0)
    assert k.residue(Fraction(7, 3)) == Fraction(7, 3)


def test_valued_fields_use_their_base_arithmetic():
    # padic and trivial fields add a valuation to their base field; the
    # arithmetic and kernels are the base's own methods, not wrappers
    names = (
        "char", "zero", "one", "from_int", "add", "sub", "mul", "neg", "inv", "div",
        "is_zero", "format_element", "taylor_shift_coeffs", "mul_coeffs",
    )
    for selector in ("padic:5", "trivial:Q", "trivial:F7"):
        k = parse_field(selector)
        for name in names:
            assert getattr(k, name) == getattr(k.base, name), (selector, name)
        assert k.add(k.one, k.one) == k.from_int(2)


def test_field_selectors():
    assert parse_field("padic:5") == Q5
    assert parse_field("puiseux:Q") == PuiseuxField(Rationals())
    assert isinstance(parse_field("trivial:F7"), TrivialField)
    assert parse_field("puiseux:F3").residue_char == 3
    for bad in ("padic:4", "padic:x", "real:2", "puiseux:Z"):
        with pytest.raises(ParseError):
            parse_field(bad)


def test_residue_char_and_value_group():
    assert Q5.residue_char == 5
    assert Q5.char == 0
    assert Q5.value_group_gen == Exponent(1)
    assert LSER.residue_char == 0
    assert LSER.value_group_gen == Exponent(1)
    assert PuiseuxField(PrimeField(3)).char == 3


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**4) if _is_prime(n)] == [
        n for n in range(10**4) if _trial_division(n)
    ]


def test_is_prime_rejects_pseudoprimes():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
    strong = (
        2047,  # strong pseudoprime to base 2
        3215031751,  # to bases 2, 3, 5, 7
        3825123056546413051,  # to every prime base up to 23
        318665857834031151167461,  # to every prime base up to 37
    )
    for n in carmichael + strong:
        assert not _is_prime(n), n


def test_is_prime_large_inputs():
    assert _is_prime(2305843009213693951)  # 2^61 - 1
    assert _is_prime(10**24 + 7)
    assert _is_prime(3317044064679887385961813)  # the largest prime below the limit
    assert not _is_prime(10**24 + 9)
    assert not _is_prime(2305843009213693951 * 3)
    # the limit itself fools all thirteen bases, so it is refused
    for n in (PRIME_LIMIT, PRIME_LIMIT * 7, 2**127 - 1):
        with pytest.raises(DomainError):
            _is_prime(n)
    with pytest.raises(DomainError):
        PAdicField(2**127 - 1)
    with pytest.raises(DomainError):
        parse_field("padic:3317044064679887385961981")
    assert parse_field("padic:2305843009213693951") == PAdicField(2305843009213693951)
