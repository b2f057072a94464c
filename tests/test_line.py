"""Points of the line: classification, seminorms, tree geometry, hulls."""

import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import berkline.line as line_module
from berkline import (
    INF,
    BranchData,
    INFINITY_DIR,
    MAG_ONE,
    ChainPoint,
    Components,
    DiscPoint,
    DomainError,
    Exponent,
    Magnitude,
    PAdicField,
    ParseError,
    PointClass,
    Poly,
    TrivialField,
    Type1Point,
    classify,
    components_count,
    convex_hull,
    cover_skeleton,
    direction,
    eval_seminorm,
    format_point,
    join,
    mag_max,
    parse_field,
    parse_point,
    parse_poly,
    path,
    point_eq,
    point_leq,
    point_radius,
    retract_to_hull,
    seminorm_is_exact,
    taylor_shift,
    top_vertex,
    torus_retract,
)
from helpers import LSER, Q5, distinct_roots, rand_element, rand_point, rand_poly, rand_radius
from oracles import (
    reference_convex_hull,
    reference_path,
    reference_retract_to_hull,
    reference_top_vertex,
    reference_torus_retract,
)


def fin(a, b=0) -> Magnitude:
    return Magnitude.finite(Exponent(Fraction(a), Fraction(b)))


def pt1(field, x):
    return Type1Point(field, field.parse_element(x) if isinstance(x, str) else x)


GAUSS = DiscPoint(Q5, Fraction(0), MAG_ONE)


def _chain3():
    return ChainPoint(
        Q5,
        ((Fraction(0), fin(1)), (Fraction(5), fin(2)), (Fraction(30), fin(3))),
    )


# -- classification ---------------------------------------------------


def test_classify_frozen():
    assert classify(pt1(Q5, "0")) == PointClass(1, 0, 0)
    assert classify(DiscPoint(Q5, Fraction(0), fin(Fraction(1, 2)))) == PointClass(2, 0, 1)
    assert classify(DiscPoint(Q5, Fraction(0), fin(0, 1))) == PointClass(3, 1, 0)
    assert classify(_chain3()) == PointClass(4, 0, 0)


def test_components_frozen():
    assert components_count(DiscPoint(Q5, Fraction(0), fin(0, 1))) is Components.TWO
    assert components_count(pt1(Q5, "0")) is Components.ONE
    assert components_count(GAUSS) is Components.P1_OF_RESIDUE
    assert components_count(_chain3()) is Components.ONE


def test_point_radius_and_exactness():
    assert point_radius(pt1(Q5, "3")).value.is_zero
    assert point_radius(GAUSS) == point_radius(GAUSS)
    c = _chain3()
    info = point_radius(c)
    assert info.value == fin(3) and not info.exact
    limited = ChainPoint(Q5, c.discs, limit_exponent=Exponent(4))
    assert point_radius(limited).value == fin(4)
    assert point_radius(limited).exact
    assert not seminorm_is_exact(c)
    assert seminorm_is_exact(GAUSS)


def test_chain_validation():
    with pytest.raises(DomainError):
        ChainPoint(Q5, ((Fraction(0), fin(1)), (Fraction(0), fin(1))))
    with pytest.raises(DomainError):  # second disc escapes the first
        ChainPoint(Q5, ((Fraction(0), fin(1)), (Fraction(1), fin(2))))
    with pytest.raises(DomainError):  # limit above a listed radius
        ChainPoint(Q5, ((Fraction(0), fin(2)),), limit_exponent=Exponent(1))
    with pytest.raises(DomainError):
        ChainPoint(Q5, ())


# -- seminorm evaluation ----------------------------------------------


def test_eval_frozen():
    var = parse_poly(Q5, "T")
    assert eval_seminorm(var, DiscPoint(Q5, Fraction(0), fin(1))) == fin(1)
    f = parse_poly(Q5, "T^2 + 5*T + 125")
    assert eval_seminorm(f, DiscPoint(Q5, Fraction(0), fin(Fraction(1, 2)))) == fin(1)
    assert eval_seminorm(var, pt1(Q5, "1/5")) == fin(-1)
    assert eval_seminorm(parse_poly(Q5, "25"), GAUSS) == fin(2)
    assert eval_seminorm(parse_poly(Q5, "0"), GAUSS).is_zero


def test_eval_matches_term_enumeration():
    rng = random.Random(61)
    for field in (Q5, LSER):
        for _ in range(40):
            f = rand_poly(rng, field, max_deg=6)
            a = rand_element(rng, field)
            r = rand_radius(rng)
            x = DiscPoint(field, a, r)
            shifted = taylor_shift(f, a)
            expected = Magnitude.zero()
            for i in range(shifted.degree + 1):
                term = field.valuation(shifted.coefficient(i)) * r ** i
                expected = max(expected, term)
            assert eval_seminorm(f, x) == expected


def test_eval_multiplicative_and_ultrametric():
    rng = random.Random(67)
    for field in (Q5, LSER):
        for _ in range(40):
            f, g = rand_poly(rng, field, 5), rand_poly(rng, field, 5)
            x = rand_point(rng, field)
            assert eval_seminorm(f * g, x) == eval_seminorm(f, x) * eval_seminorm(g, x)
            s = eval_seminorm(f + g, x)
            assert s <= max(eval_seminorm(f, x), eval_seminorm(g, x))


def test_disc_point_dominates_its_disc():
    rng = random.Random(71)
    for _ in range(60):
        f = rand_poly(rng, Q5, 5)
        a = rand_element(rng, Q5)
        x = DiscPoint(Q5, a, fin(Fraction(rng.randint(-3, 3))))
        # points of E(a, r): centers a + delta with |delta| <= r
        delta = Q5.mul(
            Q5.element_with_valuation(x.radius.exponent), Fraction(rng.randint(0, 9))
        )
        y = Type1Point(Q5, Q5.add(a, delta))
        assert point_leq(y, x)
        assert eval_seminorm(f, y) <= eval_seminorm(f, x)


def test_chain_eval_is_innermost_and_monotone():
    c = _chain3()
    f = parse_poly(Q5, "T")
    vals = [
        eval_seminorm(f, DiscPoint(Q5, ctr, r)) for ctr, r in c.discs
    ]
    assert eval_seminorm(f, c) == vals[-1]
    assert all(not vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_torus_retract():
    rng = random.Random(73)
    for _ in range(40):
        f = rand_poly(rng, Q5, 5)
        a = rand_element(rng, Q5)
        t = rand_radius(rng)
        assert torus_retract(f, pt1(Q5, a), t) == eval_seminorm(f, DiscPoint(Q5, a, t))
        r = rand_radius(rng)
        x = DiscPoint(Q5, a, r)
        assert torus_retract(f, x, t) == eval_seminorm(f, DiscPoint(Q5, a, max(r, t)))
    assert torus_retract(parse_poly(Q5, "25"), GAUSS, fin(3)) == fin(2)
    with pytest.raises(DomainError):
        torus_retract(parse_poly(Q5, "T"), _chain3(), fin(1))
    with pytest.raises(DomainError):
        torus_retract(parse_poly(Q5, "T"), GAUSS, Magnitude.zero())
    # a zero polynomial is zero before any field check; others are checked
    assert torus_retract(parse_poly(LSER, "0"), GAUSS, fin(1)) == Magnitude.zero()
    with pytest.raises(DomainError):
        torus_retract(parse_poly(LSER, "T"), GAUSS, fin(1))


@st.composite
def _torus_case(draw, field):
    """``(f, a, r, gap)``: a nonzero ``f`` of degree below 7, a center
    ``a``, a rational or irrational radius ``r`` and a positive exponent
    ``gap`` to put ``t`` below and above ``r``."""
    element = _element_of(field)
    lead = draw(element.filter(lambda c: not field.is_zero(c)))
    f = Poly.make(field, draw(st.lists(element, max_size=6)) + [lead])
    gap = Exponent(draw(st.sampled_from((Fraction(1, 3), 1, 2))), draw(st.sampled_from((0, 1))))
    return f, draw(element), draw(_radius_of()), gap


@pytest.mark.parametrize("selector", ["padic:5", "puiseux:Q", "puiseux:F5", "trivial:F7"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_torus_retract_matches_the_hasse_reference(selector, data):
    """One Gauss norm on ``E(a, max(r, t))`` against the largest
    ``|D_i f|_x * t**i`` over the Hasse derivatives, at the type-1 point
    ``a`` and at ``E(a, r)`` with ``t`` above, at and below ``r``, for
    the drawn ``f``, zero and one."""
    field = parse_field(selector)
    f, a, r, gap = data.draw(_torus_case(field))
    cases = [(Type1Point(field, a), r)] + [
        (DiscPoint(field, a, r), Magnitude.finite(r.exponent + gap.scale(s))) for s in (-1, 0, 1)
    ]
    for x, t in cases:
        for g in (f, Poly.make(field, []), Poly.make(field, [field.one])):
            assert torus_retract(g, x, t) == reference_torus_retract(g, x, t)


def test_torus_retract_reads_one_disc():
    """One ``dominant_terms`` call at a type-1 point and at a disc point:
    no Hasse derivative is evaluated."""
    calls = []
    real = line_module.dominant_terms

    def counting(*args):
        calls.append(args)
        return real(*args)

    f = parse_poly(Q5, "T^4 + 5*T + 1")
    with patch.object(line_module, "dominant_terms", counting):
        for x in (pt1(Q5, "2"), DiscPoint(Q5, Fraction(2), fin(1))):
            calls.clear()
            torus_retract(f, x, fin(-1))
            assert len(calls) == 1, x


# -- tree order, joins, paths -----------------------------------------


def test_point_leq_frozen():
    assert point_leq(pt1(Q5, "0"), DiscPoint(Q5, Fraction(0), fin(1)))
    a = DiscPoint(Q5, Fraction(0), fin(1))
    b = DiscPoint(Q5, Fraction(5), fin(1))
    assert point_leq(a, b) and point_leq(b, a) and point_eq(a, b)
    # smaller exponent = larger disc, so containment runs the other way
    assert not point_leq(DiscPoint(Q5, Fraction(0), fin(Fraction(1, 2))), a)
    assert point_leq(a, DiscPoint(Q5, Fraction(0), fin(Fraction(1, 2))))


def test_join_frozen():
    g = join(pt1(Q5, "0"), pt1(Q5, "1"))
    assert point_eq(g, GAUSS)
    assert point_eq(join(pt1(Q5, "0"), pt1(Q5, "5")), DiscPoint(Q5, Fraction(0), fin(1)))
    x = DiscPoint(Q5, Fraction(2), fin(Fraction(1, 3)))
    assert point_eq(join(x, x), x)


def test_chains_stand_in_by_their_outermost_disc():
    """Tree operations read a chain as its outermost listed disc, which
    is exact once the other point leaves that disc."""
    chain = ChainPoint(Q5, ((Fraction(0), fin(1)), (Fraction(0), fin(2))))
    outer = DiscPoint(Q5, Fraction(0), fin(1))
    assert point_eq(chain, outer) and point_eq(outer, chain)
    assert point_leq(chain, outer) and point_leq(outer, chain)
    assert not point_leq(chain, DiscPoint(Q5, Fraction(0), fin(2)))
    assert format_point(join(chain, pt1(Q5, "1"))) == "disc(0; 0)"
    assert point_eq(join(pt1(Q5, "1"), chain), GAUSS)


def test_join_laws():
    rng = random.Random(79)
    for field in (Q5, LSER):
        for _ in range(60):
            x, y, z = (rand_point(rng, field) for _ in range(3))
            assert point_eq(join(x, y), join(y, x))
            assert point_eq(join(x, join(y, z)), join(join(x, y), z))
            assert point_leq(x, join(x, y))
            assert point_leq(y, join(x, y))
            if point_leq(x, y):
                assert point_eq(join(x, y), y)


def test_path_frozen():
    p = path(pt1(Q5, "0"), pt1(Q5, "1"))
    assert len(p.segments) == 2
    assert p.length is INF
    first, second = p.segments
    assert first.center == Fraction(0) and first.e_from is INF
    assert first.e_to == Exponent(0)
    assert second.center == Fraction(1) and second.e_to is INF
    x = DiscPoint(Q5, Fraction(3), fin(2))
    assert path(x, x).segments == ()
    assert path(x, x).length == Exponent(0)
    q = path(DiscPoint(Q5, Fraction(0), fin(2)), DiscPoint(Q5, Fraction(0), fin(1)))
    assert len(q.segments) == 1
    assert q.length == Exponent(1)


def test_path_additivity_through_join():
    rng = random.Random(83)
    for _ in range(60):
        x, y = rand_point(rng, Q5), rand_point(rng, Q5)
        z = join(x, y)
        total = path(x, y).length
        split = path(x, z).length + path(z, y).length
        if total is INF:
            assert split is INF
        else:
            assert split == total


def test_path_rejects_chains():
    with pytest.raises(DomainError):
        path(_chain3(), pt1(Q5, "0"))


def test_direction_frozen():
    assert direction(GAUSS, pt1(Q5, "7")) == 2
    assert direction(GAUSS, pt1(Q5, "1/5")) is INFINITY_DIR
    assert direction(GAUSS, DiscPoint(Q5, Fraction(5), fin(1))) == 0
    # two sub-points of one open sub-disc get the same label
    assert direction(GAUSS, pt1(Q5, "12")) == direction(GAUSS, pt1(Q5, "7"))
    assert direction(GAUSS, pt1(Q5, "3")) != direction(GAUSS, pt1(Q5, "7"))


def test_direction_needs_a_scaling_element():
    x = DiscPoint(Q5, Fraction(0), fin(Fraction(1, 2)))
    with pytest.raises(DomainError):
        direction(x, pt1(Q5, "0"))
    with pytest.raises(DomainError):  # type 3 has no residue directions
        direction(DiscPoint(Q5, Fraction(0), fin(0, 1)), pt1(Q5, "0"))


# -- hulls and retraction ----------------------------------------------


def test_hull_frozen_five_points():
    g = convex_hull([pt1(Q5, "0"), pt1(Q5, "1"), pt1(Q5, "5")])
    labels = [format_point(v.point) for v in g.vertices]
    assert labels == ["disc(0; 0)", "disc(0; 1)", "pt1(0)", "pt1(1)", "pt1(5)"]
    assert {(e.u, e.v) for e in g.edges} == {(1, 0), (2, 1), (3, 0), (4, 1)}
    by_pair = {(e.u, e.v): e.length for e in g.edges}
    assert by_pair[(1, 0)] == Exponent(1)
    assert by_pair[(2, 1)] is INF and by_pair[(3, 0)] is INF and by_pair[(4, 1)] is INF
    assert g.marked == frozenset({2, 3, 4})
    assert point_eq(top_vertex(g).point, GAUSS)


def test_hull_small_cases():
    single = convex_hull([GAUSS])
    assert len(single.vertices) == 1 and not single.edges
    two = convex_hull([pt1(Q5, "0"), pt1(Q5, "1")])
    assert len(two.vertices) == 3 and len(two.edges) == 2
    nested = convex_hull(
        [DiscPoint(Q5, Fraction(0), fin(2)), DiscPoint(Q5, Fraction(0), fin(1))]
    )
    assert len(nested.vertices) == 2 and len(nested.edges) == 1


def test_hull_is_order_independent():
    rng = random.Random(89)
    for _ in range(25):
        pts = [rand_point(rng, Q5) for _ in range(rng.randint(2, 5))]
        g = convex_hull(pts)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert convex_hull(shuffled).canonical_key() == g.canonical_key()


def test_hull_dedupes_equal_points():
    a = DiscPoint(Q5, Fraction(0), fin(1))
    b = DiscPoint(Q5, Fraction(5), fin(1))  # same point, other center
    g = convex_hull([a, b])
    assert len(g.vertices) == 1


def _rand_hull_points(rng, field):
    """A mixed point set with the shapes a hull must get right: nested
    and disjoint discs with rational and irrational radii, repeated
    inputs, equal discs written with other centers, and clusters."""
    pts = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if not pts or roll < 0.4:
            pts.append(rand_point(rng, field))
            continue
        x = rng.choice(pts)
        if roll < 0.5:
            pts.append(x)  # the same input twice
        elif roll < 0.65 and isinstance(x, DiscPoint):
            # the same disc around another of its centers
            m = max(math.ceil(x.radius.exponent.to_float()), rng.randint(-2, 3))
            step = field.mul(field.from_int(rng.choice([1, 2, 3])),
                             field.element_with_valuation(Exponent(m)))
            pts.append(DiscPoint(field, field.add(x.center, step), x.radius))
        elif roll < 0.8:
            # a disc or a point around the center of an earlier input
            c = x.center
            if rng.random() < 0.5:
                pts.append(Type1Point(field, c))
            else:
                pts.append(DiscPoint(field, c, rand_radius(rng)))
        else:
            # a nearby point, making a cluster
            bump = field.mul(rand_element(rng, field, nonzero=True),
                             field.element_with_valuation(Exponent(rng.randint(1, 3))))
            pts.append(Type1Point(field, field.add(x.center, bump)))
    return pts


@pytest.mark.parametrize("field", [Q5, LSER], ids=["padic5", "puiseuxQ"])
def test_hull_matches_pairwise_join_reference(field):
    rng = random.Random(211 if field is Q5 else 223)
    for _ in range(150):
        pts = _rand_hull_points(rng, field)
        g = convex_hull(pts)
        ref = reference_convex_hull(pts)
        assert [format_point(v.point) for v in g.vertices] == [
            format_point(v.point) for v in ref.vertices
        ]
        assert [v.ptype for v in g.vertices] == [v.ptype for v in ref.vertices]
        assert [(e.u, e.v, e.length) for e in g.edges] == [
            (e.u, e.v, e.length) for e in ref.edges
        ]
        assert g.marked == ref.marked
        assert g.canonical_key() == ref.canonical_key()
        assert g.to_dot() == ref.to_dot()


def test_retract_frozen():
    g = convex_hull([pt1(Q5, "0"), GAUSS])
    assert point_eq(retract_to_hull(pt1(Q5, "5"), g), DiscPoint(Q5, Fraction(0), fin(1)))
    assert point_eq(retract_to_hull(pt1(Q5, "0"), g), pt1(Q5, "0"))
    lone = convex_hull([GAUSS])
    assert point_eq(retract_to_hull(pt1(Q5, "3"), lone), GAUSS)
    assert point_eq(retract_to_hull(pt1(Q5, "1/5"), lone), GAUSS)


def test_retract_is_idempotent_and_lands_on_hull():
    rng = random.Random(97)
    for _ in range(30):
        pts = [rand_point(rng, Q5) for _ in range(rng.randint(1, 4))]
        g = convex_hull(pts)
        x = rand_point(rng, Q5)
        r = retract_to_hull(x, g)
        assert point_eq(retract_to_hull(r, g), r)
        for p in pts:
            if point_eq(x, p):
                assert point_eq(r, x)


def _between(lo: Exponent, hi: Exponent) -> Exponent:
    return Exponent((lo.a + hi.a) / 2, (lo.b + hi.b) / 2)


def _points_of(g):
    """The vertices of ``g``, a point inside every finite edge, and two
    points on the ray of an edge to infinity."""
    out = [v.point for v in g.vertices if v.point is not None]
    for e in g.edges:
        lower, upper = g.vertex(e.u).point, g.vertex(e.v).point
        center = lower.center
        low = None if isinstance(lower, Type1Point) else lower.radius.exponent
        if upper is None:
            exps = [low - Exponent(1), low - Exponent(Fraction(7, 2), 1)]
        elif low is None:
            exps = [upper.radius.exponent + Exponent(1, 1)]
        else:
            exps = [_between(upper.radius.exponent, low)]
        out.extend(DiscPoint(lower.field, center, Magnitude.finite(x)) for x in exps)
    return out


def test_points_of_a_hull_retract_to_themselves():
    """Every vertex, edge point and ray point of a hull and of a cover
    skeleton is its own retraction, text and all."""
    rng = random.Random(113)
    graphs = []
    for field in (Q5, LSER):
        for _ in range(6):
            pts = [rand_point(rng, field) for _ in range(rng.randint(1, 5))]
            graphs.append(convex_hull(pts))
        for d in (3, 4, 5):
            roots = distinct_roots(rng, field, d)
            graphs.append(cover_skeleton(BranchData.from_roots(field, roots)).base)
    assert any(v.point is None for g in graphs for v in g.vertices)  # rays are reached
    for g in graphs:
        for x in _points_of(g):
            r = retract_to_hull(x, g)
            assert point_eq(r, x) and format_point(r) == format_point(x)


@st.composite
def _element_of(draw, field):
    if isinstance(field, PAdicField):
        unit = Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from((1, 2, 3, 7))))
        return unit * Fraction(field.p) ** draw(st.integers(-2, 3))
    if isinstance(field, TrivialField):
        return field.base.from_int(draw(st.integers(-3, 5)))
    x = field.zero
    exponents = st.builds(Fraction, st.integers(-6, 9), st.sampled_from((1, 2, 3)))
    for g in draw(st.lists(exponents, max_size=3)):
        c = field.base.from_int(draw(st.sampled_from((-3, -1, 1, 2, 5))))
        x = field.add(x, field.monomial(g, c))
    return x


def _radius_of():
    """Rational (integer or not) and irrational radius exponents."""
    a = st.builds(Fraction, st.integers(-4, 6), st.sampled_from((1, 2, 3)))
    b = st.sampled_from((0, 0, 0, 1, -1, Fraction(1, 2)))
    return st.builds(lambda a, b: Magnitude.finite(Exponent(a, b)), a, b)


@st.composite
def _related_points(draw, field):
    """Points each drawn afresh or next to an earlier one: the type-1
    point at its center, a disc around that center (nested with it), the
    same disc around another of its centers, or a point or disc around a
    center nearby, in the same disc or just outside it.  Joins of such
    points share centers and radii, so ties between them are common."""
    pts = []
    for _ in range(draw(st.integers(2, 7))):
        if not pts or draw(st.integers(0, 3)) == 0:
            c = draw(_element_of(field))
            pts.append(Type1Point(field, c) if draw(st.booleans())
                       else DiscPoint(field, c, draw(_radius_of())))
            continue
        x = draw(st.sampled_from(pts))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            pts.append(Type1Point(field, x.center))
        elif kind == 1:
            pts.append(DiscPoint(field, x.center, draw(_radius_of())))
        else:
            e = x.radius.exponent if isinstance(x, DiscPoint) else Exponent(draw(st.integers(-2, 4)))
            m = math.ceil(e.to_float()) + draw(st.integers(-1, 2))
            step = field.mul(field.from_int(draw(st.integers(1, 4))),
                             field.element_with_valuation(Exponent(m)))
            c = field.add(x.center, step)
            if kind == 2 and isinstance(x, DiscPoint):
                pts.append(DiscPoint(field, c, x.radius))
            else:
                pts.append(Type1Point(field, c) if draw(st.booleans())
                           else DiscPoint(field, c, draw(_radius_of())))
    return pts


def _segments(p):
    return [(s.center, s.e_from, s.e_to) for s in p.segments]


@pytest.mark.parametrize("field", [Q5, LSER], ids=["padic5", "puiseuxQ"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_tree_functions_match_the_join_references(field, data):
    """``path``, ``top_vertex`` and ``retract_to_hull`` decide from radii;
    the references build join points and compare them with ``point_eq``
    and ``point_leq``.  Every pair of the drawn points gives the same
    segments (center, from, to) and length, and retracting each point
    onto the hull of the others (and of all of them) gives the same text
    and the same top vertex id, ties between equal joins included."""
    pts = data.draw(_related_points(field))
    for x in pts:
        for y in pts:
            got, want = path(x, y), reference_path(x, y)
            assert _segments(got) == _segments(want)
            assert got.length == want.length
    for i, x in enumerate(pts):
        for g in (convex_hull(pts[:i] + pts[i + 1:] or [x]), convex_hull(pts)):
            assert top_vertex(g).id == reference_top_vertex(g).id
            got, want = retract_to_hull(x, g), reference_retract_to_hull(x, g)
            assert format_point(got) == format_point(want)


def test_retraction_ties_keep_the_last_join():
    """The hull of ``disc(5; 1)`` and ``pt1(10)`` is ``disc(10; 1)`` over
    ``pt1(10)``.  The joins of ``pt1(0)`` with them are one disc, the
    first vertex itself and ``disc(0; 1)`` from the second; the later
    vertex in the hull's order names the answer."""
    g = convex_hull([DiscPoint(Q5, Fraction(5), fin(1)), pt1(Q5, "10")])
    assert [format_point(v.point) for v in g.vertices] == ["disc(10; 1)", "pt1(10)"]
    x = pt1(Q5, "0")
    assert format_point(retract_to_hull(x, g)) == "disc(0; 1)"
    assert format_point(reference_retract_to_hull(x, g)) == "disc(0; 1)"


@pytest.mark.parametrize("field", [Q5, LSER], ids=["padic5", "puiseuxQ"])
def test_tree_functions_take_one_valuation_per_question(field):
    """``path`` takes one valuation, whatever the ends: disjoint, nested,
    equal, two centers of one disc, type 1, and ``point_leq``,
    ``point_eq`` and ``join`` at most one.  ``top_vertex`` takes none,
    and ``retract_to_hull`` of a point inside the top disc one per
    honest vertex (its joins) plus one (the top disc test)."""
    calls = []
    valuation = type(field).valuation

    def counting(self, x):
        calls.append(x)
        return valuation(self, x)

    def p(text):
        return parse_point(field, text)

    u = "5" if isinstance(field, PAdicField) else "t"
    pairs = [
        ("pt1(0)", "pt1(1)"),
        ("pt1(0)", f"disc({u}; 1)"),
        ("disc(0; 2)", "disc(0; 1)"),
        ("disc(0; 1)", f"disc({u}; 1)"),
        ("disc(0; 1)", "disc(0; 1)"),
        ("pt1(3)", "pt1(3)"),
        ("disc(1; 1/2)", "disc(2; 1+1*s2)"),
    ]
    roots = ("0", "1", "5", "7", "25", "3") if u == "5" else ("0", "1", "t", "2+t", "t^(2)", "3")
    g = convex_hull([p(f"pt1({r})") for r in roots])
    honest = [v for v in g.vertices if v.point is not None]
    x = p("pt1(10)" if u == "5" else "pt1(2*t)")
    with patch.object(type(field), "valuation", counting):
        for a, b in pairs:
            calls.clear()
            path(p(a), p(b))
            assert len(calls) == 1, (a, b)
            for relation in (point_leq, point_eq, join):
                for u, v in ((a, b), (b, a)):
                    calls.clear()
                    relation(p(u), p(v))
                    assert len(calls) <= 1, (relation.__name__, u, v)
        calls.clear()
        top_vertex(g)
        assert not calls
        retract_to_hull(x, g)
        assert len(calls) == len(honest) + 1
    assert len(honest) == 9


@st.composite
def _point_pair(draw, field):
    """Two points that are not chains, at one center or a drawn element
    apart.  Each is of type 1 or a disc of a drawn radius, of the
    distance of the centers or (the second) of the first's radius, so
    that equal, nested and disjoint pairs and ties all come up."""
    ax = draw(_element_of(field))
    ay = field.add(ax, draw(_element_of(field))) if draw(st.booleans()) else ax
    apart = field.valuation(field.sub(ax, ay))
    pts = []
    for a in (ax, ay):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            pts.append(Type1Point(field, a))
            continue
        r = draw(_radius_of())
        if kind == 2 and not apart.is_zero:
            r = apart
        elif kind == 3 and pts and isinstance(pts[0], DiscPoint):
            r = pts[0].radius
        pts.append(DiscPoint(field, a, r))
    return pts


@pytest.mark.parametrize("selector", ["padic:5", "puiseux:Q", "puiseux:F5", "trivial:F7"])
@settings(max_examples=100)
@given(data=st.data())
def test_tree_relations_match_the_seminorms(selector, data):
    """The tree relations read off the seminorms, which come from
    ``dominant_terms`` and not from the join radius: ``x <= y`` exactly
    when ``|T - a_y|_x <= |T - a_y|_y``, ``x = y`` when that holds both
    ways, and ``|T - b|_join(x, y) = max(|T - b|_x, |T - b|_y)`` at the
    two centers and at a drawn ``b``."""
    field = parse_field(selector)
    x, y = data.draw(_point_pair(field))

    def norm(p, b):
        return eval_seminorm(Poly.make(field, (field.neg(b), field.one)), p)

    below = norm(x, y.center) <= norm(y, y.center)
    above = norm(y, x.center) <= norm(x, x.center)
    assert point_leq(x, y) == below and point_leq(y, x) == above
    assert point_eq(x, y) == point_eq(y, x) == (below and above)
    z = join(x, y)
    for b in (x.center, y.center, data.draw(_element_of(field))):
        assert norm(z, b) == mag_max(norm(x, b), norm(y, b))


# -- text forms --------------------------------------------------------


def test_point_text_roundtrip():
    cases = [
        "pt1(0)",
        "pt1(1/5)",
        "disc(7; 1/3)",
        "disc(0; 1+1*s2)",
        "chain[(1;0),(2;5); limit=4]",
    ]
    for text in cases:
        x = parse_point(Q5, text)
        assert format_point(x) == text
    y = parse_point(LSER, "disc(t^(1/2); 3/2)")
    assert format_point(y) == "disc(t^(1/2); 3/2)"


# (text, rule, reason, reported text); None reports the whole text
_POINT_ERRORS = [
    ("disc(0 1/2)", "point", "disc needs a center and an exponent", None),
    ("pt1()", "p-adic element", "expected an integer or a fraction n/d", ""),
    ("blob(3)", "point", "", None),
    ("disc(0;1)x", "point", "", None),
    ("disc(0; )", "exponent", "", ""),
    ("chain[]", "point", "empty part", None),
    ("chain[(0;0);limit=0]", "point", "limit radius must sit below every listed disc", None),
    ("chain[(1;0),(2;5);limit=1]", "point", "limit radius must sit below every listed disc", None),
    ("chain[(0;0);limit=1;limit=2]", "point", "bad chain entry '(0;0);limit=1'", None),
    ("chain[(0;0)x]", "point", "bad chain entry '(0;0)x'", None),
    ("chain[0;0]", "point", "bad chain entry '0;0'", None),
    ("chain[(0)]", "point", "bad chain entry '(0)'", None),
    ("chain[(0;x)]", "p-adic element", "expected an integer or a fraction n/d", "x"),
    ("chain[((0;0))]", "p-adic element", "expected an integer or a fraction n/d", "0)"),
    ("chain[(0;0),(0;1)]", "point", "chain radii must strictly decrease", None),
    ("chain[(0;0),(1;1/5)]", "point", "chain discs must be nested", None),
    ("chain[(0;0));limit=1]", "point", "unbalanced parentheses", None),
]


def test_point_parse_errors():
    for text, rule, reason, reported in _POINT_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_point(Q5, text)
        got = (info.value.rule, info.value.reason, info.value.text)
        assert got == (rule, reason, text if reported is None else reported), text
