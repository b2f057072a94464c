"""Polynomial layer: shifts, Hasse derivatives, Newton slopes, gcd."""

import random
from fractions import Fraction
from math import comb, lcm

import pytest

from berkline import (
    DomainError,
    Exponent,
    Magnitude,
    Poly,
    PrimeField,
    PuiseuxField,
    QQ,
    TrivialField,
    count_roots_in_disc,
    format_poly,
    hasse_derivative,
    newton_slopes,
    parse_poly,
    poly_divmod,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
    taylor_shift,
)
from helpers import LSER, Q5, rand_element, rand_poly
from oracles import schoolbook_product, synthetic_shift


def fin(a, b=0) -> Magnitude:
    return Magnitude.finite(Exponent(Fraction(a), Fraction(b)))


def T(field):
    return Poly.variable(field)


def test_taylor_shift_frozen():
    sq = T(Q5) * T(Q5)
    assert taylor_shift(sq, Fraction(1)) == parse_poly(Q5, "T^2 + 2*T + 1")
    cube = T(LSER) * T(LSER) * T(LSER)
    assert taylor_shift(cube, LSER.t) == parse_poly(
        LSER, "T^3 + 3*t*T^2 + 3*t^(2)*T + t^(3)"
    )


# Exponents with denominators 1..5, so a random element's common
# denominator with the rest of a shift is usually above 1.
_MIXED_GAMMAS = sorted({Fraction(k, d) for d in (1, 2, 3, 4, 5) for k in range(-6, 12)})
SHIFT_FIELDS = (Q5, LSER, PuiseuxField(PrimeField(2)), PuiseuxField(PrimeField(3)))


def _mixed_element(rng, field, nonzero=False):
    if not isinstance(field, PuiseuxField):
        return rand_element(rng, field, nonzero)
    acc = field.zero
    for g in rng.sample(_MIXED_GAMMAS, rng.randint(1 if nonzero else 0, 3)):
        acc = field.add(acc, field.monomial(g, field.base.from_int(rng.choice([1, 2, -3, 5]))))
    return field.one if nonzero and field.is_zero(acc) else acc


def _mixed_poly(rng, field, deg):
    coeffs = [_mixed_element(rng, field) for _ in range(deg)]
    return Poly.make(field, coeffs + [_mixed_element(rng, field, nonzero=True)])


def _common_denominator(f, a):
    d = 1
    for x in (a, *f.coeffs):
        for g, _ in x:
            d = lcm(d, g.denominator)
    return d


def _shift_cases(rng, field, count, max_deg):
    """Random (f, a) pairs whose degrees run up to ``max_deg``."""
    for n in range(count):
        deg = max_deg if n == 0 else rng.randint(0, max_deg)
        yield _mixed_poly(rng, field, deg), _mixed_element(rng, field)


def test_taylor_shift_matches_binomial_oracle():
    rng = random.Random(23)
    wide = 0
    for field in SHIFT_FIELDS:
        for f, a in _shift_cases(rng, field, 14, 16):
            shifted = taylor_shift(f, a)
            if isinstance(field, PuiseuxField):
                wide += _common_denominator(f, a) > 1
            # g_j = sum_i C(i, j) f_i a^(i-j), straight from expanding (T+a)^i
            powers = [field.one]
            for _ in range(f.degree):
                powers.append(field.mul(powers[-1], a))
            for j in range(f.degree + 1):
                acc = field.zero
                for i in range(j, f.degree + 1):
                    term = field.mul(f.coefficient(i), field.from_int(comb(i, j)))
                    acc = field.add(acc, field.mul(term, powers[i - j]))
                assert shifted.coefficient(j) == acc
            # the integer-key kernel and the generic sweep agree term for term
            assert list(shifted.coeffs) == synthetic_shift(field, f.coeffs, a)
    assert wide >= 30


def test_taylor_shift_roundtrip():
    rng = random.Random(29)
    for field in SHIFT_FIELDS:
        for f, a in _shift_cases(rng, field, 30, 16):
            assert taylor_shift(taylor_shift(f, a), field.neg(a)) == f


PRODUCT_FIELDS = (LSER, PuiseuxField(PrimeField(2)), PuiseuxField(PrimeField(3)))


def _cancelling_pairs(rng, field):
    """Products whose coefficients cancel: ``(T + a)**p = T**p + a**p``
    in characteristic ``p``, and ``(T - a)(T + a) = T**2 - a**2``."""
    a = _mixed_element(rng, field, nonzero=True)
    lin = Poly.make(field, (a, field.one))
    yield lin, Poly.make(field, (field.neg(a), field.one))
    p = field.char
    if p:
        power = lin
        for _ in range(p - 2):
            power = schoolbook_product(power, lin)
        yield power, lin


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=["Q", "F2", "F3"])
def test_product_matches_schoolbook_oracle(field):
    rng = random.Random(61)
    wide = cancelled = zero_inner = 0
    cases = []
    for n in range(40):
        deg = 16 if n == 0 else rng.randint(0, 8)
        f = _mixed_poly(rng, field, deg)
        g = _mixed_poly(rng, field, 16 - deg if n == 0 else rng.randint(0, 8))
        cases.append((f, g))
        cases += list(_cancelling_pairs(rng, field))
    for f, g in cases:
        product = f * g
        assert product == schoolbook_product(f, g)
        assert product == g * f
        wide += len({e.denominator for c in f.coeffs + g.coeffs for e, _ in c}) > 1
        zero_inner += any(field.is_zero(c) for c in f.coeffs)
        # a coefficient of the product that is zero although term pairs land on it
        cancelled += any(
            field.is_zero(product.coefficient(i + j)) and a and b
            for i, a in enumerate(f.coeffs)
            for j, b in enumerate(g.coeffs)
        )
    assert max(len(f.coeffs) + len(g.coeffs) - 2 for f, g in cases) == 16
    assert wide >= 20 and zero_inner >= 10 and cancelled >= 10


@pytest.mark.parametrize(
    "field, modulus",
    [(Q5, None), (QQ, None), (TrivialField(PrimeField(7)), 7), (PrimeField(7), 7)],
    ids=["padic5", "Q", "trivial-F7", "F7"],
)
def test_taylor_shift_matches_sympy(field, modulus):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)
    for _ in range(25):
        nums = [rng.randint(-30, 30) for _ in range(rng.randint(0, 16))] + [1]
        if modulus is None:
            coeffs = [Fraction(n, rng.choice([1, 2, 3, 5])) for n in nums]
            a = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7]))
            ref = sympy.Poly(coeffs[::-1], sympy.Symbol("x"), domain=sympy.QQ)
            expected = [Fraction(int(c.p), int(c.q)) for c in ref.shift(a).all_coeffs()]
        else:
            coeffs = [n % modulus for n in nums]
            a = rng.randrange(modulus)
            ref = sympy.Poly(coeffs[::-1], sympy.Symbol("x"), modulus=modulus)
            expected = [int(c) % modulus for c in ref.shift(a).all_coeffs()]
        assert list(taylor_shift(Poly.make(field, coeffs), a).coeffs) == expected[::-1]


def _to_sympy(sympy, f, modulus):
    x = sympy.Symbol("x")
    if modulus is None:
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in f.coeffs[::-1]]
        return sympy.Poly(coeffs or [0], x, domain=sympy.QQ)
    return sympy.Poly([int(c) for c in f.coeffs[::-1]] or [0], x, modulus=modulus)


def _from_sympy(field, g, modulus):
    if modulus is None:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in g.all_coeffs()]
    else:
        coeffs = [int(c) % modulus for c in g.all_coeffs()]
    return Poly.make(field, coeffs[::-1])


def _division_cases(rng, field, modulus):
    """Random pairs, plus pairs with a common factor and powers of one."""
    def rand(deg):
        if modulus is None:
            cs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(deg)]
            return Poly.make(field, cs + [Fraction(rng.choice([-3, 1, 2, 5]), rng.choice([1, 4]))])
        return Poly.make(field, [rng.randrange(modulus) for _ in range(deg)] + [rng.randrange(1, modulus)])

    for _ in range(12):
        f, g = rand(rng.randint(0, 7)), rand(rng.randint(0, 4))
        yield f, g
        h = rand(rng.randint(1, 3))
        yield f * h * h, g * h
        yield h * h * h * g, h * h


@pytest.mark.parametrize("modulus", [None, 3, 7], ids=["Q", "F3", "F7"])
def test_division_matches_sympy(modulus):
    """``poly_divmod``, ``poly_gcd`` and ``squarefree_decomposition``
    against sympy over Q and GF(p), on random inputs and on inputs with
    repeated and common factors."""
    sympy = pytest.importorskip("sympy")
    field = QQ if modulus is None else PrimeField(modulus)
    rng = random.Random(83 if modulus is None else 89 + modulus)
    for f, g in _division_cases(rng, field, modulus):
        sf, sg = _to_sympy(sympy, f, modulus), _to_sympy(sympy, g, modulus)
        q, r = poly_divmod(f, g)
        sq, sr = sympy.div(sf, sg)
        assert (q, r) == (_from_sympy(field, sq, modulus), _from_sympy(field, sr, modulus))
        # both gcds are monic
        assert poly_gcd(f, g) == _from_sympy(field, sympy.gcd(sf, sg).monic(), modulus)
        if f.degree < 1:
            continue
        # the same squarefree parts per multiplicity, as monic products
        ours, theirs = {}, {}
        for part, e in squarefree_decomposition(f):
            ours[e] = ours.get(e, Poly.constant(field, field.one)) * part
        for part, e in sf.sqf_list()[1]:
            theirs[e] = _from_sympy(field, part.monic(), modulus)
        assert ours == theirs


def test_hasse_derivative_frozen():
    sq = T(Q5) * T(Q5)
    assert hasse_derivative(sq, 1) == parse_poly(Q5, "2*T")
    assert hasse_derivative(sq, 2) == Poly.constant(Q5, Q5.one)
    k2 = PuiseuxField(PrimeField(2))
    sq2 = T(k2) * T(k2)
    assert hasse_derivative(sq2, 1).is_zero
    assert hasse_derivative(sq2, 2) == Poly.constant(k2, k2.one)


def test_hasse_composition_law():
    rng = random.Random(31)
    for field in (Q5, PuiseuxField(PrimeField(3))):
        for _ in range(20):
            f = rand_poly(rng, Q5, max_deg=6) if field is Q5 else _small_poly(rng, field)
            for i in range(3):
                for j in range(3):
                    lhs = hasse_derivative(hasse_derivative(f, j), i)
                    rhs = hasse_derivative(f, i + j).scale(field.from_int(comb(i + j, i)))
                    assert lhs == rhs


def _small_poly(rng, field):
    coeffs = [field.from_int(rng.randint(0, 8)) for _ in range(rng.randint(1, 6))]
    coeffs.append(field.one)
    return Poly.make(field, coeffs)


def test_newton_slopes_frozen():
    t2m5 = parse_poly(Q5, "T^2 - 5")
    assert newton_slopes(t2m5) == (fin(Fraction(1, 2)), fin(Fraction(1, 2)))
    assert newton_slopes(parse_poly(Q5, "T^2 - 1")) == (fin(0), fin(0))
    assert newton_slopes(parse_poly(Q5, "T^2 - 5*T")) == (Magnitude.zero(), fin(1))
    with pytest.raises(DomainError):
        newton_slopes(Poly.make(Q5, []))


def _oracle_valuation(field, x):
    """The valuation exponent of ``x`` as a Fraction (None for zero),
    read off the element itself rather than from ``field.valuation``."""
    if field.is_zero(x):
        return None
    if field is LSER:
        return min(g for g, _ in x)
    v = 0
    for part, sign in ((x.numerator, 1), (x.denominator, -1)):
        while part % field.p == 0:
            part //= field.p
            v += sign
    return Fraction(v)


def _clustered_roots(rng, field):
    """Roots with repeats, zeros and tight clusters around earlier roots."""
    roots = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        if kind < 0.15:
            roots.append(field.zero)
        elif kind < 0.55 and roots:
            bump = field.mul(rand_element(rng, field, nonzero=True),
                             field.element_with_valuation(Exponent(rng.randint(1, 4))))
            roots.append(field.add(rng.choice(roots), bump))
        elif kind < 0.65 and roots:
            roots.append(rng.choice(roots))
        else:
            roots.append(rand_element(rng, field))
    return roots


def test_newton_slopes_and_root_counts_match_known_roots():
    # f = prod (T - r_i) with the r_i known: the slopes are the sorted
    # valuations of the roots, and the roots in E(a, r) are counted by
    # the valuations of r_i - a; both sides decided on Fractions alone
    rng = random.Random(4111)
    for field in (Q5, LSER):
        for _ in range(60):
            roots = _clustered_roots(rng, field)
            f = Poly.constant(field, field.one)
            for r in roots:
                f = f * Poly.make(field, (field.neg(r), field.one))
            vals = [_oracle_valuation(field, r) for r in roots]
            expected = sorted(vals, key=lambda v: (0, 0) if v is None else (1, -v))
            got = newton_slopes(f)
            assert len(got) == len(expected)
            for m, v in zip(got, expected):
                assert m.is_zero if v is None else (m.exponent.b, m.exponent.a) == (0, v)
            centers = [field.zero, rng.choice(roots), rand_element(rng, field)]
            for a in centers:
                for e_r in (Fraction(rng.randint(-3, 5), rng.randint(1, 3)), Fraction(1)):
                    count = 0
                    for r in roots:
                        d = _oracle_valuation(field, field.sub(r, a))
                        count += d is None or d >= e_r
                    assert count_roots_in_disc(f, a, fin(e_r)) == count


def test_newton_slopes_count_matches_degree():
    rng = random.Random(37)
    for field in (Q5, LSER):
        for _ in range(40):
            f = rand_poly(rng, field, max_deg=8)
            assert len(newton_slopes(f)) == f.degree


def test_newton_slopes_of_product_are_the_union():
    rng = random.Random(41)
    for field in (Q5, LSER):
        for _ in range(30):
            f = rand_poly(rng, field, max_deg=5)
            g = rand_poly(rng, field, max_deg=5)
            combined = sorted(
                newton_slopes(f) + newton_slopes(g), key=_slope_key
            )
            assert list(newton_slopes(f * g)) == combined


def _slope_key(m: Magnitude):
    if m.is_zero:
        return (0, Fraction(0))
    return (1, -m.exponent.a)


def test_count_roots_in_disc_frozen():
    t2m5 = parse_poly(Q5, "T^2 - 5")
    assert count_roots_in_disc(t2m5, Fraction(0), fin(Fraction(1, 2))) == 2
    assert count_roots_in_disc(t2m5, Fraction(0), fin(Fraction(3, 5))) == 0
    assert count_roots_in_disc(T(Q5), Fraction(0), fin(7)) == 1
    # recentring: roots of (T-1)(T-6) sit in E(1, rho)
    f = parse_poly(Q5, "T^2 - 7*T + 6")
    assert count_roots_in_disc(f, Fraction(1), fin(1)) == 2
    assert count_roots_in_disc(f, Fraction(1), fin(2)) == 1


def test_divmod_and_gcd():
    rng = random.Random(43)
    for _ in range(40):
        f = rand_poly(rng, Q5, max_deg=7)
        g = rand_poly(rng, Q5, max_deg=4)
        q, r = poly_divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
    a = parse_poly(Q5, "T - 1")
    assert poly_gcd(a * parse_poly(Q5, "T - 2"), a * parse_poly(Q5, "T - 3")) == a


def test_squarefree_structure_frozen():
    f = parse_poly(Q5, "T^2 - 2*T + 1")  # (T-1)^2
    assert squarefree_decomposition(f) == [(parse_poly(Q5, "T - 1"), 2)]
    assert squarefree_part(f) == parse_poly(Q5, "T - 1")
    g = parse_poly(Q5, "T^3 + T^2")
    assert squarefree_part(g) == parse_poly(Q5, "T^2 + T")


def test_squarefree_in_small_characteristic():
    f3 = PrimeField(3)
    # T^3 + 2 = (T + 2)^3 in characteristic 3
    f = parse_poly(f3, "T^3 + 2")
    assert squarefree_part(f) == parse_poly(f3, "T + 2")
    assert squarefree_decomposition(f) == [(parse_poly(f3, "T + 2"), 3)]


def test_evaluate_matches_expansion():
    rng = random.Random(47)
    for field in (Q5, LSER):
        for _ in range(30):
            f = rand_poly(rng, field, max_deg=6)
            a = rand_element(rng, field)
            acc = field.zero
            power = field.one
            for c in f.coeffs:
                acc = field.add(acc, field.mul(c, power))
                power = field.mul(power, a)
            assert f.evaluate(a) == acc


def test_format_parse_roundtrip():
    rng = random.Random(53)
    for field in (Q5, LSER):
        for _ in range(40):
            f = rand_poly(rng, field, max_deg=6)
            assert parse_poly(field, format_poly(f)) == f
    assert format_poly(Poly.make(Q5, [])) == "0"
    assert parse_poly(Q5, "0").is_zero
