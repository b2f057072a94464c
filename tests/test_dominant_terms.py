"""The dominant terms of a disc expansion against the readings they replaced.

:func:`berkline.polynomials.dominant_terms` is the one reader of an
expansion on a disc.  The root count is checked against the Newton
polygon of the full shift, and the fiber count against the term-list
reading with its residue loop, kept in ``oracles.reference_fiber_count``;
refusals must agree by message.
"""

import random
from fractions import Fraction

import pytest

from berkline import (
    BranchData,
    DiscPoint,
    DomainError,
    Exponent,
    Magnitude,
    Poly,
    TrivialField,
    count_roots_in_disc,
    fiber_count,
    newton_slopes,
    parse_field,
    parse_poly,
    taylor_shift,
)
from berkline.polynomials import dominant_terms
from helpers import rand_element, rand_fraction
from oracles import reference_fiber_count

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


def test_dominant_terms_frozen():
    q5 = parse_field("padic:5")
    f = parse_poly(q5, "T^2 - 5")
    half = Magnitude.finite(Exponent(Fraction(1, 2)))
    assert dominant_terms(f, Fraction(0), half) == (f, Exponent(1), (0, 2))
    assert dominant_terms(f, Fraction(0), Magnitude.unit()) == (f, Exponent(0), (2,))
    assert dominant_terms(f, Fraction(0), Magnitude.finite(Exponent(1)))[1:] == (Exponent(1), (0,))
    # radius zero: the order of f at the center, and |f(a)| when it is zero
    g = parse_poly(q5, "T^3 - 2*T^2")
    assert dominant_terms(g, Fraction(0), Magnitude.zero())[1:] == (None, (2,))
    assert dominant_terms(g, Fraction(1), Magnitude.zero())[1:] == (Exponent(0), (0,))
    assert dominant_terms(Poly.make(q5, []), Fraction(0), half)[1:] == (None, ())


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
