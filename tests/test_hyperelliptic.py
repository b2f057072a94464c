"""Double covers S^2 = f(T): fibers, skeletons, genus, reduction type."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from berkline import (
    BranchData,
    ChainPoint,
    DiscPoint,
    DomainError,
    Exponent,
    GoodReduction,
    Magnitude,
    Multiplicative,
    PAdicField,
    Poly,
    PrimeField,
    PuiseuxField,
    Rationals,
    TrivialField,
    Type1Point,
    convex_hull,
    cover_skeleton,
    elliptic_reduction,
    eval_seminorm,
    fiber_count,
    format_point,
    genus,
    mobius_orbit,
    parse_field,
    parse_poly,
    point_leq,
    tate_cycle_exponent,
)
from berkline.hyperelliptic import _roots_below
from helpers import LSER, Q5, distinct_roots, rand_element, rand_fraction
from oracles import (
    legendre_reduction,
    pairwise_distinct,
    reference_cover_skeleton,
    schoolbook_product,
)
from test_dominant_terms import SELECTORS, _field_element

_QT = TrivialField(Rationals())
_F3T = PuiseuxField(PrimeField(3))
_F5T = PuiseuxField(PrimeField(5))


def fin(a, b=0) -> Magnitude:
    return Magnitude.finite(Exponent(Fraction(a), Fraction(b)))


def el(text: str):
    return LSER.parse_element(text)


def _tate_branch(k_exp: int = 1) -> BranchData:
    lam = el(f"t^(-{k_exp})") if k_exp != 1 else el("t^(-1)")
    return BranchData.from_roots(LSER, [LSER.zero, LSER.one, lam])


# -- branch data -------------------------------------------------------


def test_branch_data_construction():
    bd = BranchData.from_roots(Q5, [Fraction(0), Fraction(1)], lead=Fraction(3))
    assert bd.f == parse_poly(Q5, "3*T^2 - 3*T")
    assert bd.degree == 2
    assert not bd.infinity_branch
    odd = BranchData.from_roots(Q5, [Fraction(0), Fraction(1), Fraction(2)])
    assert odd.infinity_branch
    assert odd.total_branch_points == 4
    with pytest.raises(DomainError):
        BranchData.from_roots(Q5, [Fraction(0), Fraction(0)])
    with pytest.raises(DomainError):
        BranchData.from_roots(Q5, [Fraction(0)], lead=Fraction(0))
    # 5 * t^0 over F_5 is zero, though not written in canonical form
    with pytest.raises(DomainError, match="leading coefficient"):
        BranchData.from_roots(_F5T, [_F5T.zero], lead=((Fraction(0), 5),))


def test_residue_characteristic_two_is_rejected():
    with pytest.raises(DomainError):
        BranchData.from_roots(PAdicField(2), [Fraction(0), Fraction(1)])
    k2 = PuiseuxField(PrimeField(2))
    with pytest.raises(DomainError):
        BranchData.from_roots(k2, [k2.zero, k2.one])


# -- fiber counts -------------------------------------------------------


def test_fiber_count_dominant_constant_gives_two():
    bd = BranchData.from_roots(LSER, [el("t"), el("-t")])  # f = T^2 - t^2
    x = DiscPoint(LSER, LSER.zero, fin(2))  # no branch point in E(0, rho^2)
    assert fiber_count(bd, x) == 2
    assert eval_seminorm(bd.f, x) == fin(2)  # the constant term carries the max


def test_fiber_count_on_the_tate_interval_is_one():
    bd = _tate_branch()
    gauss = DiscPoint(LSER, LSER.zero, fin(0))
    assert fiber_count(bd, gauss) == 1  # residue ~ S(S - 1), odd multiplicities
    top = DiscPoint(LSER, LSER.zero, fin(-1))
    assert fiber_count(bd, top) == 1


def test_fiber_count_type3_dominant_index():
    bd = _tate_branch()
    # radius strictly between 1 and |lambda|, pushed off the rational line
    x = DiscPoint(LSER, LSER.zero, fin(Fraction(-1, 2), Fraction(1, 8)))
    assert fiber_count(bd, x) == 2  # quadratic term dominates alone
    y = DiscPoint(LSER, LSER.zero, fin(Fraction(1, 2), Fraction(1, 8)))
    assert fiber_count(bd, y) == 1  # inside E(0,1): the linear term wins


def test_fiber_count_rejects_wrong_points():
    bd = _tate_branch()
    with pytest.raises(DomainError):
        fiber_count(bd, Type1Point(LSER, LSER.zero))
    with pytest.raises(DomainError):
        fiber_count(bd, ChainPoint(LSER, ((LSER.zero, fin(1)),)))
    q5bd = BranchData.from_roots(Q5, [Fraction(0), Fraction(1)])
    with pytest.raises(DomainError):  # rho^(1/2) is not the magnitude of any 5-adic
        fiber_count(q5bd, DiscPoint(Q5, Fraction(0), fin(Fraction(1, 2))))


def test_fiber_count_strict_mode():
    gauss5 = DiscPoint(Q5, Fraction(0), fin(0))
    plain = BranchData.from_roots(Q5, [Fraction(0), Fraction(5)])
    assert fiber_count(plain, gauss5) == 2
    assert fiber_count(plain, gauss5, strict_squares=True) == 2
    # leading unit 2 is not a square in F_5: undetermined here, two after
    # an unramified extension
    twisted = BranchData.from_roots(Q5, [Fraction(0), Fraction(5)], lead=Fraction(2))
    assert fiber_count(twisted, gauss5) == 2
    assert fiber_count(twisted, gauss5, strict_squares=True) is None
    # odd valuation of the dominant coefficient: needs a ramified extension
    scaled = BranchData.from_roots(Q5, [Fraction(0), Fraction(5)], lead=Fraction(5))
    assert fiber_count(scaled, gauss5) == 2
    assert fiber_count(scaled, gauss5, strict_squares=True) is None
    # over Puiseux every exponent halves, so only the square class matters
    disc2 = DiscPoint(LSER, LSER.zero, fin(2))
    plus = BranchData.from_roots(LSER, [el("t"), el("-t")], lead=el("-1"))
    assert fiber_count(plus, disc2, strict_squares=True) == 2
    minus = BranchData.from_roots(LSER, [el("t"), el("-t")])
    assert fiber_count(minus, disc2, strict_squares=True) is None  # -1 not a square in Q


# -- cover skeletons ----------------------------------------------------


def test_tate_skeleton_frozen():
    cs = cover_skeleton(_tate_branch())
    labels = [v.label for v in cs.base.vertices]
    assert labels == [
        "disc(0; -1)",
        "disc(0; 0)",
        "pt1(0)",
        "pt1(1)",
        "pt1(t^(-1))",
        "inf",
    ]
    assert cs.betti == 1
    assert cs.total_genus == 1
    assert set(cs.vertex_genus) == {0}
    assert cs.vertex_fibers == (1, 1, 1, 1, 1, 1)
    interior = [
        i for i, e in enumerate(cs.base.edges) if isinstance(e.length, Exponent)
    ]
    assert len(interior) == 1
    assert cs.base.edges[interior[0]].length == Exponent(1)
    assert cs.edge_split[interior[0]]
    assert sum(cs.edge_split) == 1  # every other edge is inert
    assert tate_cycle_exponent(cs) == Exponent(2)


def test_degree5_two_cluster_frozen():
    roots = [LSER.zero, el("t"), LSER.one, el("1+t"), el("2")]
    cs = cover_skeleton(BranchData.from_roots(LSER, roots))
    assert cs.betti == 2
    assert set(cs.vertex_genus) == {0}
    assert cs.total_genus == 2
    assert genus(BranchData.from_roots(LSER, roots)) == 2


def test_legendre_good_reduction_skeleton_frozen():
    cs = cover_skeleton(BranchData.from_roots(Q5, [Fraction(0), Fraction(1), Fraction(2)]))
    type2 = [v for v in cs.base.vertices if v.point is not None and v.ptype == 2]
    assert [format_point(v.point) for v in type2] == ["disc(0; 0)"]
    assert cs.vertex_genus[type2[0].id] == 1
    assert cs.betti == 0
    assert cs.total_genus == 1
    assert set(cs.vertex_fibers) == {1}


def test_genus_frozen_small_degrees():
    assert genus(BranchData.from_roots(Q5, [Fraction(0), Fraction(1)])) == 0
    assert genus(BranchData.from_roots(Q5, [Fraction(i) for i in range(3)])) == 1
    assert genus(BranchData.from_roots(Q5, [Fraction(i) for i in range(4)])) == 1
    assert genus(BranchData.from_roots(LSER, [LSER.from_int(i) for i in range(5)])) == 2


def test_genus_is_conserved_across_configurations():
    rng = random.Random(139)
    for _ in range(15):
        d = rng.randint(3, 7)
        field = LSER if rng.random() < 0.5 else Q5
        roots = distinct_roots(rng, field, d)
        assert genus(BranchData.from_roots(field, roots)) == (d - 1) // 2


def _roots_and_lead(rng, field, count):
    """Distinct roots and a leading coefficient, with denominators
    wherever the field has them."""
    if field is _QT:
        pool = sorted({rand_fraction(rng, -60, 60, 7) for _ in range(4 * count)})
        roots = rng.sample(pool, min(count, len(pool)))
    else:
        roots = distinct_roots(rng, field, count)
    if isinstance(field.residue_field, PrimeField):
        return roots, field.from_int(rng.choice([1, 2, 4]))
    c = Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2, 7]))
    if field is LSER:
        return roots, LSER.add(LSER.monomial(0, c), LSER.monomial(Fraction(1, 2), c / 3))
    return roots, c


def test_from_roots_is_the_product_of_linear_factors():
    rng = random.Random(149)
    for field, most in ((LSER, 9), (_F3T, 9), (_F5T, 9), (_QT, 12), (Q5, 24)):
        for _ in range(6):
            roots, lead = _roots_and_lead(rng, field, rng.randint(1, most))
            expected = Poly.constant(field, lead)
            for r in roots:
                expected = schoolbook_product(expected, Poly.make(field, (field.neg(r), field.one)))
            assert BranchData.from_roots(field, roots, lead).f == expected


def _respelled(rng, field, x):
    """``x`` written out of canonical form: an int for an integral
    Fraction, coefficients off ``[0, p)`` (7 for 2 over F_5), one term
    split over a repeated exponent, and a zero-coefficient term."""
    if not isinstance(field, PuiseuxField):
        return int(x) if x.denominator == 1 and rng.random() < 0.5 else x
    p = field.base.char
    terms = []
    for g, c in x:
        if g.denominator == 1 and rng.random() < 0.5:
            g = int(g)
        if p:
            c += p * rng.choice([-1, 1, 2])
        elif c.denominator == 1 and rng.random() < 0.5:
            c = int(c)
        if rng.random() < 0.4:
            part = rng.choice([1, 2, 3])
            terms += [(g, part), (g, c - part)]
        else:
            terms.append((g, c))
    if rng.random() < 0.4:
        terms.append((Fraction(rng.randint(-4, 4), rng.randint(1, 3)), 0))
    return tuple(sorted(terms, key=lambda term: term[0]))


def _canonical(field, x) -> bool:
    """Sorted distinct exponents and nonzero, reduced coefficients."""
    if not isinstance(field, PuiseuxField):
        return isinstance(x, Fraction)
    exps, p = [g for g, _ in x], field.base.char
    return exps == sorted(set(exps)) and all(c != 0 and (not p or 0 < c < p) for _, c in x)


@pytest.mark.parametrize("field", [Q5, _QT, LSER, _F3T, _F5T], ids=lambda k: k.selector)
def test_distinct_roots_match_the_pairwise_check(field):
    """``from_roots`` accepts and refuses exactly the root lists that one
    subtraction per pair does, with the same message, whatever the
    spelling of the roots; what it accepts is the product of the
    linear factors, and it keeps the roots in canonical form."""
    rng = random.Random(151)
    if field in (Q5, _QT):
        pool = [Fraction(k, rng.choice([1, 1, 2, 5])) for k in range(-4, 5)]
    else:
        pool = [rand_element(rng, field) for _ in range(7)]
    seen = set()
    for _ in range(120):
        roots = [_respelled(rng, field, rng.choice(pool)) for _ in range(rng.randint(1, 6))]
        try:
            pairwise_distinct(field, roots)
            expected = None
        except DomainError as exc:
            expected = str(exc)
        try:
            bd = BranchData.from_roots(field, roots)
            got = None
        except DomainError as exc:
            got = str(exc)
        assert got == expected, roots
        if got is None:
            product = Poly.constant(field, field.one)
            for r in roots:
                product = schoolbook_product(product, Poly.make(field, (field.neg(r), field.one)))
            assert bd.f == product, roots
            for r, kept in zip(roots, bd.roots):
                assert field.is_zero(field.sub(kept, r)) and _canonical(field, kept), r
        seen.add(got)
    assert seen == {None, "roots must be pairwise distinct"}


def _cluster_genus(field, roots) -> int:
    """Genus from the cluster picture of the roots alone (Dokchitser,
    Dokchitser, Maistret and Morgan, arXiv:1808.02936), with no hull.

    A cluster is the set of roots in a disc; a proper cluster ``s`` has
    ``m(s)`` = its odd children, plus one when ``s`` is odd (the
    direction out of it holds an odd count, infinity included).  It
    adds genus ``max(m/2 - 1, 0)``, and it is uebereven (two points
    above it) when ``m = 0``.  Each even cluster below the top adds an
    edge that splits, so the doubled graph gains one cycle per such
    cluster and loses one per uebereven cluster."""
    d = len(roots)
    if d < 2:
        return 0
    dist = [[field.valuation(field.sub(a, b)) for b in roots] for a in roots]
    clusters = {
        frozenset(k for k in range(d) if dist[i][k] <= dist[i][j])
        for i in range(d) for j in range(d) if i != j
    }
    top = frozenset(range(d))
    genus = 0
    for s in clusters:
        inner = [c for c in clusters if c < s]
        kids = [c for c in inner if not any(c < o for o in inner)]
        kids += [frozenset([i]) for i in s if not any(i in c for c in kids)]
        m = sum(len(c) % 2 for c in kids) + len(s) % 2
        genus += max(m // 2 - 1, 0) - (m == 0) + (s != top and len(s) % 2 == 0)
    return genus


def test_genus_is_the_even_odd_cluster_count():
    rng = random.Random(151)
    for _ in range(40):
        d = rng.randint(1, 9)
        field = LSER if rng.random() < 0.5 else Q5
        roots = distinct_roots(rng, field, d)
        cs = cover_skeleton(BranchData.from_roots(field, roots))
        assert cs.total_genus == _cluster_genus(field, roots) == (d - 1) // 2


def test_root_counts_match_containment():
    rng = random.Random(157)
    for _ in range(25):
        field = LSER if rng.random() < 0.5 else Q5
        pts = [Type1Point(field, r) for r in distinct_roots(rng, field, rng.randint(1, 24))]
        hull = convex_hull(pts)
        below = _roots_below(hull)
        for v in hull.vertices:
            assert below[v.id] == sum(point_leq(p, v.point) for p in pts)


def test_fiber_counts_on_edge_interiors_match_split_flags():
    for bd in (
        _tate_branch(),
        BranchData.from_roots(LSER, [LSER.zero, el("t"), LSER.one, el("1+t"), el("2")]),
    ):
        cs = cover_skeleton(bd)
        checked = 0
        for idx, e in enumerate(cs.base.edges):
            u = cs.base.vertex(e.u)
            v = cs.base.vertex(e.v)
            if not isinstance(e.length, Exponent):
                continue
            if not (isinstance(u.point, DiscPoint) and isinstance(v.point, DiscPoint)):
                continue
            eu = u.point.radius.exponent
            ev = v.point.radius.exponent
            for k in (1, 2, 3):
                mid = ev + (eu - ev).scale(Fraction(k, 4))
                x = DiscPoint(LSER, u.point.center, Magnitude.finite(mid))
                expected = 2 if cs.edge_split[idx] else 1
                assert fiber_count(bd, x) == expected
                checked += 1
        assert checked > 0


def test_tate_cycle_scales_with_the_modulus():
    for k in (1, 2, 3):
        lam = el(f"t^(-{k})")
        bd = BranchData.from_roots(LSER, [LSER.zero, LSER.one, lam])
        cs = cover_skeleton(bd)
        assert cs.betti == 1
        assert tate_cycle_exponent(cs) == Exponent(2 * k)
    flat = cover_skeleton(BranchData.from_roots(Q5, [Fraction(i) for i in range(3)]))
    with pytest.raises(DomainError):
        tate_cycle_exponent(flat)


def test_cover_skeleton_matches_the_doubled_graph():
    """Fibers, splits, genera, Betti number and Tate cycle read off the
    root parities equal those of the doubled graph built copy by copy;
    and every edge at a two-preimage vertex splits, so no edge of the
    doubled graph needs two copies at one end and one at the other."""
    rng = random.Random(163)
    cycles = 0
    for i in range(1000):
        field = LSER if i % 2 else Q5
        bd = BranchData.from_roots(field, distinct_roots(rng, field, rng.randint(1, 12)))
        cs = cover_skeleton(bd)
        fibers, split, genera, betti, cycle = reference_cover_skeleton(bd)
        assert cs.vertex_fibers == tuple(fibers), bd.roots
        assert cs.edge_split == tuple(split), bd.roots
        assert cs.vertex_genus == tuple(genera), bd.roots
        assert cs.betti == betti, bd.roots
        for e, is_split in zip(cs.base.edges, split):
            assert is_split or fibers[e.u] == fibers[e.v] == 1, bd.roots
        if betti == 1:
            assert tate_cycle_exponent(cs) == cycle, bd.roots
            cycles += 1
    assert cycles >= 100


# -- elliptic reduction -------------------------------------------------


def test_elliptic_reduction_frozen():
    r = elliptic_reduction(LSER, el("t^(-1)"))
    assert r == Multiplicative(Exponent(2), via="lambda")
    r = elliptic_reduction(LSER, el("t"))
    assert r == Multiplicative(Exponent(2), via="1/lambda")
    r = elliptic_reduction(LSER, el("1+t"))
    assert isinstance(r, Multiplicative) and r.cycle_exponent == Exponent(2)
    good = elliptic_reduction(Q5, Fraction(2))
    assert good == GoodReduction(lambda_residue=2, j_residue=3)
    assert elliptic_reduction(Q5, Fraction(1, 5)).cycle_exponent == Exponent(2)
    assert elliptic_reduction(Q5, Fraction(50)).cycle_exponent == Exponent(4)
    with pytest.raises(DomainError):
        elliptic_reduction(Q5, Fraction(0))
    with pytest.raises(DomainError):
        elliptic_reduction(Q5, Fraction(1))


def test_good_reduction_j_is_residue_stable():
    # 7 = 2 in F_5, so both parameters name the same residue curve
    assert elliptic_reduction(Q5, Fraction(7)) == elliptic_reduction(Q5, Fraction(2))


def test_mobius_orbit_frozen():
    orbit = mobius_orbit(Q5, Fraction(2))
    assert orbit == (
        Fraction(2),
        Fraction(1, 2),
        Fraction(-1),
        Fraction(-1),
        Fraction(2),
        Fraction(1, 2),
    )


def test_mobius_orbit_reduction_agreement():
    rng = random.Random(149)
    count = 0
    while count < 12:
        lam = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if lam in (0, 1):
            continue
        count += 1
        results = [elliptic_reduction(Q5, m) for m in mobius_orbit(Q5, lam)]
        first = results[0]
        for r in results[1:]:
            assert type(r) is type(first)
            if isinstance(first, Multiplicative):
                assert r.cycle_exponent == first.cycle_exponent
            else:
                assert r.j_residue == first.j_residue


def test_cycle_exponent_agrees_with_skeleton():
    for lam_text in ("t^(-1)", "t^(-2)", "t"):
        lam = el(lam_text)
        red = elliptic_reduction(LSER, lam)
        assert isinstance(red, Multiplicative)
        cs = cover_skeleton(BranchData.from_roots(LSER, [LSER.zero, LSER.one, lam]))
        assert tate_cycle_exponent(cs) == red.cycle_exponent


@pytest.mark.parametrize("selector", SELECTORS + ("trivial:F7",))
@settings(max_examples=40)
@given(data=st.data())
def test_reduction_type_is_read_off_the_j_invariant(selector, data):
    """The reduction matches ``oracles.legendre_reduction``, read off
    ``v(j)`` alone: the type, and the cycle exponent or the residue of
    ``j``.  Parameters are drawn afresh, or as ``n + x`` with ``|x| < 1``
    for ``n`` of 1 (near 1), 2 and 3."""
    field = parse_field(selector)
    lam = data.draw(_field_element(field))
    n = data.draw(st.integers(0, 3))
    if n:
        small = field.valuation(lam) < Magnitude.unit()
        lam = field.add(lam if small else field.zero, field.from_int(n))
    assume(not field.is_zero(lam) and not field.is_zero(field.sub(lam, field.one)))
    got = elliptic_reduction(field, lam)
    multiplicative, value = legendre_reduction(field, lam)
    assert isinstance(got, Multiplicative) == multiplicative
    assert (got.cycle_exponent if multiplicative else got.j_residue) == value


# -- convergence sanity --------------------------------------------------


def _binomial_half(j: int) -> Fraction:
    acc = Fraction(1)
    for i in range(j):
        acc *= Fraction(1, 2) - i
        acc /= i + 1
    return acc


def test_square_root_series_error_shrinks_like_z_power():
    # with a dominant constant term, f/f0 = 1 + z with |z|(x) < 1, and the
    # truncated square-root series squares back to 1 + z up to |z|^(N+1)
    f = parse_poly(Q5, "T^2 + 5*T + 25")
    x = DiscPoint(Q5, Fraction(0), fin(Fraction(3, 2)))
    assert eval_seminorm(f, x) == fin(2)  # constant term alone carries the max
    z = Poly.make(Q5, [Fraction(0), Fraction(1, 5), Fraction(1, 25)])
    z_mag = eval_seminorm(z, x)
    assert z_mag == fin(Fraction(1, 2))
    one = Poly.constant(Q5, Q5.one)
    for n in (2, 4, 6):
        series = Poly.constant(Q5, Q5.zero)
        zpow = one
        for j in range(n + 1):
            series = series + zpow.scale(_binomial_half(j))
            zpow = zpow * z
        err = series * series - (one + z)
        assert eval_seminorm(err, x) <= z_mag ** (n + 1)
