"""Affinoid domains: membership, Shilov boundaries, reduction, grammar."""

import random
from fractions import Fraction

import pytest

from berkline import (
    GENERIC,
    MAG_ONE,
    Annulus,
    ChainPoint,
    ClosedDisc,
    DiscMinusHoles,
    DiscPoint,
    Domain,
    DomainClass,
    DomainError,
    Exponent,
    Inequality,
    Magnitude,
    ParseError,
    Poly,
    Rel,
    Type1Point,
    domain_intersect,
    format_domain,
    format_standard_domain,
    in_interior,
    join,
    max_modulus_check,
    member,
    parse_domain,
    parse_poly,
    parse_standard_domain,
    point_eq,
    point_leq,
    reduce_point,
    seminorm_is_exact,
    shilov_boundary,
    to_domain,
)
from helpers import LSER, Q5, rand_poly, rand_unit_disc_point


def fin(a, b=0) -> Magnitude:
    return Magnitude.finite(Exponent(Fraction(a), Fraction(b)))


GAUSS = DiscPoint(Q5, Fraction(0), MAG_ONE)
UNIT_DISC = ClosedDisc(Q5, Fraction(0), MAG_ONE)


def test_member_frozen():
    d = to_domain(UNIT_DISC)
    assert member(GAUSS, d)
    assert not member(Type1Point(Q5, Fraction(1, 5)), d)
    ann = Annulus(Q5, Fraction(0), fin(1), fin(0))
    assert member(Type1Point(Q5, Fraction(5)), to_domain(ann))  # |5| = inner radius
    assert not member(Type1Point(Q5, Fraction(25)), to_domain(ann))
    assert member(Type1Point(Q5, Fraction(3)), to_domain(ann))


def test_member_everything_and_exactness():
    assert member(GAUSS, Domain.everything())
    assert seminorm_is_exact(GAUSS)
    chain = ChainPoint(Q5, ((Fraction(0), fin(1)),))
    assert not seminorm_is_exact(chain)
    assert member(chain, to_domain(UNIT_DISC))


def test_domain_classification():
    one = Poly.constant(Q5, Q5.one)
    var = parse_poly(Q5, "T")
    g = parse_poly(Q5, "T - 1")
    assert Domain.everything().classify() is DomainClass.EVERYTHING
    w = Domain((Inequality(var, one, fin(0), Rel.LEQ),))
    assert w.classify() is DomainClass.WEIERSTRASS
    l = Domain(
        (
            Inequality(var, one, fin(0), Rel.LEQ),
            Inequality(var, one, fin(1), Rel.GEQ),
        )
    )
    assert l.classify() is DomainClass.LAURENT
    r = Domain((Inequality(var, g, fin(0), Rel.LEQ), Inequality(one, g, fin(0), Rel.LEQ)))
    assert r.classify() is DomainClass.RATIONAL
    mixed = Domain((Inequality(var, g, fin(0), Rel.GEQ), Inequality(var, g, fin(0), Rel.LEQ)))
    assert mixed.classify() is DomainClass.GENERAL


def test_intersection():
    d = to_domain(UNIT_DISC)
    assert domain_intersect(d, Domain.everything()) == d
    ann = domain_intersect(
        d,
        Domain(
            (
                Inequality(
                    parse_poly(Q5, "T"), Poly.constant(Q5, Q5.one), fin(1), Rel.GEQ
                ),
            )
        ),
    )
    # same membership as the annulus with those radii, checked by sampling
    reference = to_domain(Annulus(Q5, Fraction(0), fin(1), fin(0)))
    rng = random.Random(127)
    for _ in range(60):
        x = rand_unit_disc_point(rng)
        assert member(x, ann) == member(x, reference)


def test_two_discs_with_close_centers_agree():
    rng = random.Random(131)
    d1 = to_domain(ClosedDisc(Q5, Fraction(0), fin(1)))
    d2 = to_domain(ClosedDisc(Q5, Fraction(5), fin(1)))  # |5 - 0| <= rho
    for _ in range(60):
        x = rand_unit_disc_point(rng)
        assert member(x, d1) == member(x, d2)


def test_shilov_boundary_frozen():
    assert [str(p) for p in shilov_boundary(UNIT_DISC)] == ["disc(0; 0)"]
    thick = Annulus(Q5, Fraction(0), fin(1), fin(0))
    assert [str(p) for p in shilov_boundary(thick)] == ["disc(0; 0)", "disc(0; 1)"]
    thin = Annulus(Q5, Fraction(0), fin(1), fin(1))
    assert [str(p) for p in shilov_boundary(thin)] == ["disc(0; 1)"]
    holed = DiscMinusHoles(
        Q5, Fraction(0), fin(0), ((Fraction(0), fin(1)), (Fraction(1), fin(2)))
    )
    assert [str(p) for p in shilov_boundary(holed)] == [
        "disc(0; 0)",
        "disc(0; 1)",
        "disc(1; 2)",
    ]


def test_shilov_hole_of_full_radius_frozen():
    """A hole with the disc's own radius adds no Shilov point, as an
    annulus with equal radii has one: its maximal point is the disc's."""
    for hole in (Fraction(0), Fraction(1)):
        sd = DiscMinusHoles(Q5, Fraction(0), fin(0), ((hole, fin(0)),))
        assert [str(p) for p in shilov_boundary(sd)] == ["disc(0; 0)"]
        assert not in_interior(GAUSS, sd)
    sd = DiscMinusHoles(Q5, Fraction(0), fin(0), ((Fraction(1), fin(0)), (Fraction(0), fin(1))))
    assert [str(p) for p in shilov_boundary(sd)] == ["disc(0; 0)", "disc(0; 1)"]


def test_shilov_points_are_members():
    shapes = [
        UNIT_DISC,
        Annulus(Q5, Fraction(2), fin(3), fin(1)),
        DiscMinusHoles(Q5, Fraction(0), fin(0), ((Fraction(1), fin(1)),)),
    ]
    for sd in shapes:
        for b in shilov_boundary(sd):
            assert member(b, to_domain(sd))


def test_standard_shape_validation():
    with pytest.raises(DomainError):
        Annulus(Q5, Fraction(0), fin(0), fin(1))  # inner smaller than outer
    with pytest.raises(DomainError):
        DiscMinusHoles(Q5, Fraction(0), fin(1), ((Fraction(1), fin(0)),))  # hole pokes out
    with pytest.raises(DomainError):
        DiscMinusHoles(
            Q5,
            Fraction(0),
            fin(0),
            ((Fraction(0), fin(2)), (Fraction(125), fin(3))),  # second hole inside first
        )
    # open discs touching at distance max(r_i, r_j) stay disjoint
    DiscMinusHoles(Q5, Fraction(0), fin(0), ((Fraction(0), fin(2)), (Fraction(25), fin(3))))


def test_max_modulus_frozen():
    var = parse_poly(Q5, "T")
    samples = [Type1Point(Q5, Fraction(a)) for a in (0, 1, 5, 7, 25)]
    assert max_modulus_check(var, UNIT_DISC, samples)
    assert max_modulus_check(Poly.constant(Q5, Fraction(9)), UNIT_DISC, samples)
    ann = Annulus(Q5, Fraction(0), fin(2), fin(0))
    inner = [Type1Point(Q5, Fraction(5)), Type1Point(Q5, Fraction(25))]
    assert max_modulus_check(var, ann, inner)
    with pytest.raises(DomainError):
        max_modulus_check(var, ann, [Type1Point(Q5, Fraction(125))])


def test_max_modulus_attained_on_outer_point():
    var = parse_poly(Q5, "T")
    ann = Annulus(Q5, Fraction(0), fin(2), fin(0))
    outer, inner = shilov_boundary(ann)
    from berkline import eval_seminorm

    assert eval_seminorm(var, outer) == fin(0)
    assert eval_seminorm(var, inner) == fin(2)


def test_interior_frozen():
    assert not in_interior(GAUSS, UNIT_DISC)
    assert in_interior(Type1Point(Q5, Fraction(0)), UNIT_DISC)
    big = ClosedDisc(Q5, Fraction(0), fin(-1))
    assert in_interior(GAUSS, big)
    ann = Annulus(Q5, Fraction(0), fin(1), fin(0))
    for b in shilov_boundary(ann):
        assert not in_interior(b, ann)
    expected = [DiscPoint(Q5, Fraction(0), MAG_ONE), DiscPoint(Q5, Fraction(0), fin(1))]
    got = shilov_boundary(ann)
    assert len(got) == 2
    assert all(any(point_eq(a, b) for b in got) for a in expected)


def test_reduce_frozen():
    assert reduce_point(GAUSS) is GENERIC
    assert reduce_point(Type1Point(Q5, Fraction(7))) == 2
    assert reduce_point(DiscPoint(Q5, Fraction(7), fin(Fraction(1, 3)))) == 2
    assert reduce_point(DiscPoint(Q5, Fraction(25), fin(2))) == 0
    with pytest.raises(DomainError):
        reduce_point(Type1Point(Q5, Fraction(1, 5)))
    with pytest.raises(DomainError):
        reduce_point(DiscPoint(Q5, Fraction(0), fin(-1)))


def test_reduce_chains():
    fine = ChainPoint(Q5, ((Fraction(2), fin(1)), (Fraction(7), fin(2))))
    assert reduce_point(fine) == 2
    coarse = ChainPoint(Q5, ((Fraction(0), fin(0)),))
    with pytest.raises(DomainError):
        reduce_point(coarse)


def test_reduce_is_locally_constant_below_gauss():
    rng = random.Random(137)
    rf = Q5.residue_field
    for _ in range(80):
        x = rand_unit_disc_point(rng)
        y = rand_unit_disc_point(rng)
        if point_eq(join(x, y), GAUSS) or point_leq(GAUSS, join(x, y)):
            continue
        assert reduce_point(x) == reduce_point(y)
        assert reduce_point(x) is not GENERIC
    # and among unit-disc points only the Gauss point is generic
    for _ in range(40):
        x = rand_unit_disc_point(rng)
        assert (reduce_point(x) is GENERIC) == point_eq(x, GAUSS)


def test_domain_grammar_roundtrip():
    texts = [
        "|T| <= rho^(0) * |1|",
        "|T| <= rho^(1/2) * |T - 1| && |T| >= rho^(2) * |1|",
        "|T^2 + 1| <= rho^(1-1*s2) * |1|",
    ]
    for text in texts:
        d = parse_domain(Q5, text)
        assert format_domain(d) == text
        assert parse_domain(Q5, format_domain(d)) == d
    assert format_domain(Domain.everything()) == "everything"
    for bad in ("|T| < rho^(1) * |1|", "|T| <= 1/2 * |1|", "T <= rho^(1)"):
        with pytest.raises(ParseError):
            parse_domain(Q5, bad)


def test_standard_grammar_roundtrip():
    texts = [
        "closed_disc(0; 1)",
        "annulus(0; 1, 0)",
        "disc_holes(0; 0; (0; 1), (1; 2))",
        "closed_disc(t; 1/2)",
    ]
    for text in texts:
        field = LSER if "t" in text.split(";")[0] else Q5
        sd = parse_standard_domain(field, text)
        assert format_standard_domain(sd) == text
    # (text, rule, reason, reported text); None reports the whole text
    element = ("p-adic element", "expected an integer or a fraction n/d")
    for text, rule, reason, reported in (
        ("closed_disc(0)", "standard-domain", "expected (a; e)", None),
        ("annulus(0)", "standard-domain", "expected (a; e_inner, e_outer)", None),
        ("annulus(0; 1)", "standard-domain", "expected two radius exponents", None),
        ("annulus(x; 1, 0, 2)", "standard-domain", "expected two radius exponents", None),
        ("annulus(0; 0, 1)", "standard-domain", "annulus needs inner radius <= outer radius", None),
        ("disc_holes(0; 0)", "standard-domain", "expected (a; e; (a1; e1), ...)", None),
        ("disc_holes(0; 0; 1)", "standard-domain", "bad hole '1'", None),
        ("disc_holes(x; 0; 1)", "standard-domain", "bad hole '1'", None),
        ("disc_holes(x; 0; (y; 1))", *element, "y"),
        ("disc_holes(0; 0; (0;1)x)", "standard-domain", "bad hole '(0;1)x'", None),
        ("disc_holes(0; 0; ((0;1)))", *element, "(0"),
        ("disc_holes(0; 1; (0; 0))", "standard-domain", "holes must sit inside the disc", None),
        ("disc_holes(0; 0; (0; 1), (0; 1))", "standard-domain",
         "holes must be pairwise disjoint", None),
        ("closed_disc(x; 1)", *element, "x"),
        ("closed_disc()", "standard-domain", "empty part", None),
        ("closed_disc(0;1))", "standard-domain", "unbalanced parentheses", None),
        ("closed_disc(0;1)x", "standard-domain", "", None),
        ("closed_disc(", "standard-domain", "", None),
        ("square(0; 1)", "standard-domain", "", None),
    ):
        with pytest.raises(ParseError) as info:
            parse_standard_domain(Q5, text)
        got = (info.value.rule, info.value.reason, info.value.text)
        assert got == (rule, reason, text if reported is None else reported), text


def test_membership_over_puiseux():
    disc = ClosedDisc(LSER, LSER.t, fin(Fraction(3, 2)))
    d = to_domain(disc)
    inside = Type1Point(LSER, LSER.parse_element("t+t^(2)"))
    outside = Type1Point(LSER, LSER.parse_element("t+t^(1)"))
    assert member(inside, d)
    assert not member(outside, d)
