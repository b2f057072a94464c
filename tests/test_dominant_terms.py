"""The dominant terms of a disc expansion against the readings they replaced.

:func:`berkline.polynomials.dominant_terms` is the one reader of an
expansion on a disc.  It is checked against the whole expansion
(``oracles.reference_dominant_terms``), the root count against the
Newton polygon of the full shift, and the fiber count against the
term-list reading with its residue loop, kept in
``oracles.reference_fiber_count``; refusals must agree by message.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berkline import (
    BranchData,
    PAdicField,
    PuiseuxField,
    DiscPoint,
    DomainError,
    Exponent,
    Magnitude,
    Poly,
    TrivialField,
    Type1Point,
    count_roots_in_disc,
    eval_seminorm,
    fiber_count,
    newton_slopes,
    parse_field,
    parse_poly,
    taylor_shift,
    torus_retract,
)
from berkline.fields import _keyed
from berkline.polynomials import dominant_terms
from helpers import rand_element, rand_fraction
from oracles import (
    reference_dominant_terms,
    reference_fiber_count,
    split_gauss_norm,
    split_torus_retract,
)

SELECTORS = ("padic:5", "padic:3", "puiseux:Q", "puiseux:F3", "puiseux:F5", "trivial:Q")


def _element(rng, field, nonzero=False):
    if isinstance(field, TrivialField):
        x = rand_fraction(rng)
        return field.one if nonzero and not x else x
    return rand_element(rng, field, nonzero)


def _roots(rng, field, count):
    roots = []
    while len(roots) < count:
        x = _element(rng, field)
        if all(not field.is_zero(field.sub(x, r)) for r in roots):
            roots.append(x)
    return roots


def _radius(rng, kind):
    """An integer, half-integer or irrational radius exponent."""
    if kind == 0:
        return Magnitude.finite(Exponent(rng.randint(-2, 3)))
    if kind == 1:
        return Magnitude.finite(Exponent(Fraction(2 * rng.randint(-2, 2) + 1, 2)))
    b = rand_fraction(rng, -3, 3, 2) or Fraction(1, 2)
    return Magnitude.finite(Exponent(rand_fraction(rng, -4, 4, 3), b))


def _center(rng, field, roots):
    """On a root half of the time, elsewhere otherwise."""
    return rng.choice(roots) if rng.random() < 0.5 else _element(rng, field)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return ("refused", str(exc))


@st.composite
def _exponent(draw):
    """Negative, zero and positive, with denominators up to 11."""
    return Fraction(draw(st.integers(-12, 15)), draw(st.sampled_from((1, 1, 2, 3, 7, 11))))


@st.composite
def _base_element(draw, base):
    """Small values, and over Q about one in ten of 200 to 240 bits."""
    if base.char:
        return base.from_int(draw(st.integers(0, base.char - 1)))
    if draw(st.integers(0, 9)) == 9:
        numerators = st.integers(2**200, 2**240) | st.integers(-(2**240), -(2**200))
    else:
        numerators = st.integers(-9, 9)
    return Fraction(draw(numerators), draw(st.sampled_from((1, 2, 3, 4, 25))))


@st.composite
def _field_element(draw, field):
    if isinstance(field, PAdicField):
        unit = Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from((1, 2, 3, 7))))
        return unit * Fraction(field.p) ** draw(st.integers(-3, 3))
    if isinstance(field, TrivialField):
        return draw(_base_element(field.base))
    x = field.zero
    for g in draw(st.lists(_exponent(), max_size=3)):
        x = field.add(x, field.monomial(g, draw(_base_element(field.base))))
    return x


@st.composite
def _radius_of(draw):
    """Zero, rational (integer or not) or irrational."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Magnitude.zero()
    a = draw(_exponent())
    if kind == 1:
        return Magnitude.finite(Exponent(a))
    b = Fraction(draw(st.sampled_from((-3, -1, 1, 2))), draw(st.sampled_from((1, 2, 3))))
    return Magnitude.finite(Exponent(a, b))


@st.composite
def _disc_case(draw, field):
    """``(f, a, r)``: ``f`` zero, of degree 0 to 7, or with roots at the
    center (of multiplicity up to 3) times a random factor."""
    a = draw(_field_element(field))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Poly.make(field, []), a, draw(_radius_of())
    coeffs = [draw(_field_element(field)) for _ in range(draw(st.integers(0, 7)))]
    f = Poly.make(field, coeffs + [field.one])
    if kind == 1:
        at_center = Poly.make(field, (field.neg(a), field.one))
        for _ in range(draw(st.integers(1, 3))):
            f = f * at_center
    return f, a, draw(_radius_of())


def _check_against_the_whole_expansion(f, a, r):
    k = f.field
    g, e_min, dominant = reference_dominant_terms(f, a, r)
    got_e, got_dominant, lowest = dominant_terms(f, a, r)
    assert (got_e, got_dominant) == (e_min, dominant)
    assert len(lowest) == len(dominant)
    for i, low in zip(dominant, lowest):
        c = g.coeffs[i]
        v = k.valuation(c)
        assert k.valuation(low) == v
        unit = k.element_with_valuation(v.exponent)
        assert k.residue_of_quotient(low, unit) == k.residue_of_quotient(c, unit)


@pytest.mark.parametrize("selector", SELECTORS + ("trivial:F7",))
@settings(max_examples=60)
@given(data=st.data())
def test_dominant_terms_match_the_whole_expansion(selector, data):
    field = parse_field(selector)
    _check_against_the_whole_expansion(*data.draw(_disc_case(field)))


@pytest.mark.parametrize("selector", SELECTORS + ("trivial:F7",))
def test_dominant_terms_edge_cases(selector):
    """``f = 0``, degree at most one (the dense direct fold, two keyed
    rows), ``r = 0``, roots at the center of multiplicity 1 to 3,
    negative and non-integral center exponents, irrational radii.  Over
    puiseux:Q also rows whose lowest term is negative under positive
    higher terms (in a packed row that slot borrows from the ones above
    it), coefficients of over 200 bits, negative exponents with mixed
    denominators in ``f`` as well as in the center, and ``T^24 + T`` at
    the sparse wide-span center ``t^(1/1000) + t^(999/1000)``, which the
    disc reader takes from the dict rows rather than packed ones."""
    field = parse_field(selector)
    extra = []
    if isinstance(field, PuiseuxField):
        centers = [field.parse_element(s) for s in ("t^(-3/7)+2*t^(1/11)", "t^(-2)", "3*t^(5/2)-t^(4)")]
        if selector == "puiseux:Q":
            big = 2**211 + 1
            wide = "t^(1/1000)+t^(999/1000)"
            centers += [field.parse_element(s) for s in ("t^(1/2)+t", f"{big}/3+t^(-5/3)", wide)]
            extra = [
                ("-3+5*t^(1/2)+7*t", "-1+t^(2/7)", "1"),
                (f"-{big}*t^(-1/2)+{big}*t^(1/3)", f"t^(-5/3)+{big}/7*t^(3/7)", f"-{big}+t", "1"),
            ]
            extra = [Poly.make(field, [field.parse_element(s) for s in cs]) for cs in extra]
            # packed, T^24 + T at the wide center would be a row of about
            # 1.56M bits, so the reader takes the dict rows there
            sparse = parse_poly(field, "T^24+T")
            center = field.parse_element(wide)
            _, ([shift], D), (rows, L) = _keyed(field.base, (center,), sparse.coeffs)
            assert field.base._packed_sweep(list(shift.items()), D, rows, L) is None
            extra.append(sparse)
    elif isinstance(field, PAdicField):
        centers = [Fraction(7, field.p ** 2), Fraction(-3, 4), Fraction(field.p ** 3, 2)]
    else:
        centers = [field.from_int(3), field.from_int(-1), field.one]
    radii = [
        Magnitude.zero(),
        Magnitude.finite(Exponent(-1)),
        Magnitude.finite(Exponent(Fraction(1, 3))),
        Magnitude.finite(Exponent(Fraction(-1, 2), Fraction(1, 3))),
        Magnitude.finite(Exponent(0, 1)),
    ]
    for a in centers:
        at_a = Poly.make(field, (field.neg(a), field.one))
        shapes = [
            Poly.make(field, []),
            Poly.constant(field, a),
            at_a,
            Poly.make(field, (field.one, a)),
            at_a * at_a * Poly.make(field, (field.one, field.zero, a)),
            at_a * at_a * at_a,
            at_a * Poly.make(field, [a, field.one, a, a, field.one]),
            *extra,
        ]
        for f in shapes:
            for r in radii:
                _check_against_the_whole_expansion(f, a, r)


def test_dominant_terms_frozen():
    q5 = parse_field("padic:5")
    f = parse_poly(q5, "T^2 - 5")
    half = Magnitude.finite(Exponent(Fraction(1, 2)))
    assert dominant_terms(f, Fraction(0), half) == (Exponent(1), (0, 2), (Fraction(-5), Fraction(1)))
    assert dominant_terms(f, Fraction(0), Magnitude.unit()) == (Exponent(0), (2,), (Fraction(1),))
    assert dominant_terms(f, Fraction(0), Magnitude.finite(Exponent(1)))[:2] == (Exponent(1), (0,))
    # radius zero: the order of f at the center, and |f(a)| when it is zero
    g = parse_poly(q5, "T^3 - 2*T^2")
    assert dominant_terms(g, Fraction(0), Magnitude.zero())[:2] == (None, (2,))
    assert dominant_terms(g, Fraction(1), Magnitude.zero())[:2] == (Exponent(0), (0,))
    assert dominant_terms(Poly.make(q5, []), Fraction(0), half)[:2] == (None, ())


@pytest.mark.parametrize("selector", SELECTORS)
def test_fiber_count_matches_the_term_list_reading(selector):
    field = parse_field(selector)
    rng = random.Random(sum(map(ord, selector)))
    got, want = [], []
    for n in range(90):
        roots = _roots(rng, field, rng.randint(1, 6))
        lead = _element(rng, field, nonzero=True) if rng.random() < 0.5 else None
        bd = BranchData.from_roots(field, roots, lead)
        x = DiscPoint(field, _center(rng, field, roots), _radius(rng, n % 3))
        for strict in (False, True):
            got.append(_outcome(fiber_count, bd, x, strict_squares=strict))
            want.append(_outcome(reference_fiber_count, bd, x, strict_squares=strict))
    assert got == want
    assert {1, 2} <= set(got)


@pytest.mark.parametrize("selector", SELECTORS)
def test_root_count_matches_the_newton_polygon(selector):
    field = parse_field(selector)
    rng = random.Random(7 * sum(map(ord, selector)))
    counts = []
    for n in range(90):
        roots = _roots(rng, field, rng.randint(1, 4))
        f = Poly.constant(field, _element(rng, field, nonzero=True))
        for root in roots:
            for _ in range(rng.randint(1, 2)):
                f = f * Poly.make(field, (field.neg(root), field.one))
        # and a factor whose roots are not listed
        f = f * Poly.make(field, [_element(rng, field) for _ in range(rng.randint(0, 2))] + [field.one])
        a = _center(rng, field, roots)
        r = Magnitude.zero() if n % 4 == 3 else _radius(rng, n % 4)
        count = count_roots_in_disc(f, a, r)
        assert count == sum(1 for m in newton_slopes(taylor_shift(f, a)) if m <= r)
        counts.append(count)
    assert max(counts) >= 2 and min(counts) == 0


# -- closed forms from root data -----------------------------------------


@st.composite
def _split_case(draw, field):
    """``(c, roots, a, r, t)``: 1 to 5 roots, repeats allowed, a center
    on a root, next to one or drawn afresh, ``r`` zero, rational or
    irrational, and ``t`` positive."""
    c = draw(_field_element(field).filter(bool))
    roots = draw(st.lists(_field_element(field), min_size=1, max_size=5))
    kind = draw(st.integers(0, 2))
    a = draw(_field_element(field))
    if kind < 2:
        a = field.add(draw(st.sampled_from(roots)), a if kind else field.zero)
    t = draw(_radius_of().filter(lambda m: not m.is_zero))
    return c, roots, a, draw(_radius_of()), t


@pytest.mark.parametrize("selector", SELECTORS + ("trivial:F7",))
@settings(max_examples=30)
@given(data=st.data())
def test_seminorms_of_split_polynomials_are_products(selector, data):
    """The seminorm and the torus retraction of ``c * prod (T - alpha_j)``
    at ``E(a, r)`` are the closed forms of ``oracles.split_gauss_norm``
    and ``oracles.split_torus_retract``, which need no Taylor shift."""
    field = parse_field(selector)
    c, roots, a, r, t = data.draw(_split_case(field))
    f = Poly.constant(field, c)
    for alpha in roots:
        f = f * Poly.make(field, (field.neg(alpha), field.one))
    x = Type1Point(field, a) if r.is_zero else DiscPoint(field, a, r)
    assert eval_seminorm(f, x) == split_gauss_norm(field, c, roots, a, r)
    assert torus_retract(f, x, t) == split_torus_retract(field, c, roots, a, r, t)
