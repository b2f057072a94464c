"""Center trimming: every disc answer depends on the disc, not its center.

``E(a, r) = E(a + d, r)`` whenever ``|d| <= r``.  The seminorm, the
root count and the fiber count must therefore agree at both centers,
and agree with the untrimmed computation that shifts by the full
center.
"""

import math
import random
from fractions import Fraction

import pytest

from berkline import (
    BranchData,
    DiscPoint,
    DomainError,
    Exponent,
    Magnitude,
    PAdicField,
    TrivialField,
    count_roots_in_disc,
    eval_seminorm,
    fiber_count,
    newton_slopes,
    parse_field,
    taylor_shift,
)
from berkline.fields import PuiseuxField, _OverBase
from helpers import LSER, Q5, distinct_roots, rand_element, rand_poly, rand_radius
from test_dominant_terms import SELECTORS

# the selectors of test_dominant_terms and trivial:F7, with ids such as "padic5"
FIELDS = pytest.mark.parametrize(
    "field", [parse_field(s) for s in SELECTORS + ("trivial:F7",)],
    ids=lambda field: field.selector.replace(":", ""),
)


def _ceil(e: Exponent) -> int:
    """Smallest integer k with k >= e, decided exactly."""
    k = math.floor(e.to_float()) - 1
    while Exponent(k) < e:
        k += 1
    return k


def _small(rng, field, r: Magnitude):
    """A random element ``d`` with ``|d| <= r`` (zero included)."""
    if isinstance(field, TrivialField):
        # every nonzero element has magnitude one
        return rand_element(rng, field) if Magnitude.unit() <= r else field.zero
    e = r.exponent
    low = _ceil(e)
    if isinstance(field, PAdicField):
        if rng.random() < 0.15:
            return field.zero
        unit = Fraction(rng.randint(-30, 30), rng.choice([q for q in (1, 2, 3, 7) if q % field.p]))
        return unit * Fraction(field.p) ** (low + rng.randint(0, 2))
    gammas = {low + Fraction(rng.randint(0, 6), rng.choice([1, 2, 3])) for _ in range(3)}
    if e.is_rational():
        gammas.add(e.a)  # a term of size exactly r
    d = field.zero
    for g in rng.sample(sorted(gammas), rng.randint(0, len(gammas))):
        d = field.add(d, field.monomial(g, field.base.from_int(rng.choice([1, -2, 3]))))
    return d


def _untrimmed(monkeypatch, field):
    """From here on, expand by the whole center instead of the trimmed
    one.  Every disc query (and ``polynomials.disc_expansion``) takes
    its center from the field's ``trim_center``, so making that the
    identity reaches all of them; the returned list records one entry
    per expansion."""
    calls = []

    def whole_center(self, a, r):
        calls.append(a)
        return a

    monkeypatch.setattr(type(field), "trim_center", whole_center)
    return calls


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return ("refused", str(exc))


def _cases(rng, field, count, integer_every=0):
    """(a, a + d, r) with ``|d| <= r``; radii alternate between rational
    and irrational, and every ``integer_every``-th one is an integer."""
    for n in range(count):
        if integer_every and n % integer_every == 0:
            r = Magnitude.finite(Exponent(rng.randint(-2, 3)))
        else:
            r = rand_radius(rng, irrational=n % 2 == 1)
        a = rand_element(rng, field)
        yield a, field.add(a, _small(rng, field, r)), r


@FIELDS
def test_seminorm_and_root_count_depend_on_the_disc_alone(field, monkeypatch):
    rng = random.Random(61)
    rows = []
    for a, b, r in _cases(rng, field, 60):
        f = rand_poly(rng, field, max_deg=7)
        rows.append((f, a, b, r))
    trimmed = [
        (eval_seminorm(f, DiscPoint(field, c, r)), count_roots_in_disc(f, c, r))
        for f, a, b, r in rows
        for c in (a, b)
    ]
    calls = _untrimmed(monkeypatch, field)
    full = [
        (eval_seminorm(f, DiscPoint(field, c, r)), count_roots_in_disc(f, c, r))
        for f, a, b, r in rows
        for c in (a, b)
    ]
    assert len(calls) == 2 * len(full)
    assert trimmed == full
    assert trimmed[0::2] == trimmed[1::2]
    # the root count against a Newton polygon read straight off the shift
    for (f, a, _, r), (_, count) in zip(rows, trimmed[0::2]):
        assert count == sum(1 for m in newton_slopes(taylor_shift(f, a)) if m <= r)


@FIELDS
def test_fiber_count_depends_on_the_disc_alone(field, monkeypatch):
    rng = random.Random(67)
    rows = []
    # integer radii are where p-adic type-2 fibers are defined
    for a, b, r in _cases(rng, field, 40, integer_every=4):
        bd = BranchData.from_roots(field, distinct_roots(rng, field, rng.randint(1, 5)))
        rows.append((bd, a, b, r))

    def answers():
        return [
            _outcome(fiber_count, bd, DiscPoint(field, c, r), strict_squares=strict)
            for bd, a, b, r in rows
            for c in (a, b)
            for strict in (False, True)
        ]

    trimmed = answers()
    assert sum(1 for v in trimmed if v in (1, 2)) >= 40
    calls = _untrimmed(monkeypatch, field)
    assert answers() == trimmed
    assert len(calls) == len(trimmed)
    assert trimmed[0::4] == trimmed[2::4] and trimmed[1::4] == trimmed[3::4]


def _count_shifts(monkeypatch):
    """Record the center of every shift a disc query runs.  Each one
    reads its expansion through the field's ``lowest_terms``, which
    shifts exactly when the center it is given is nonzero."""
    calls = []
    for cls in (_OverBase, PuiseuxField):
        def counted(self, coeffs, a, real=cls.lowest_terms):
            if not self.is_zero(a):
                calls.append(a)
            return real(self, coeffs, a)

        monkeypatch.setattr(cls, "lowest_terms", counted)
    return calls


def _run_disc_queries(field, center, r):
    bd = BranchData.from_roots(field, [field.zero, field.one, field.from_int(3)])
    x = DiscPoint(field, center, r)
    eval_seminorm(bd.f, x)
    count_roots_in_disc(bd.f, center, r)
    fiber_count(bd, x)


def test_center_inside_the_disc_runs_no_shift(monkeypatch):
    calls = _count_shifts(monkeypatch)
    rho = Magnitude.finite(Exponent(1))
    _run_disc_queries(LSER, LSER.parse_element("t^(2)+3*t^(5/2)"), rho)
    _run_disc_queries(LSER, LSER.parse_element("t-t^(3)"), rho)  # |center| = r
    _run_disc_queries(Q5, Fraction(25, 3), rho)
    # |center| = r, where trimming by |a| < r would still shift
    _run_disc_queries(Q5, Fraction(5, 3), rho)
    for selector in ("trivial:Q", "trivial:F7"):
        field = parse_field(selector)
        _run_disc_queries(field, field.from_int(2), Magnitude.unit())
    assert calls == []


def test_shift_uses_the_trimmed_center(monkeypatch):
    calls = _count_shifts(monkeypatch)
    r = Magnitude.finite(Exponent(1))
    _run_disc_queries(LSER, LSER.parse_element("2+t^(1/2)+t+t^(7/3)"), r)
    assert calls == [LSER.parse_element("2+t^(1/2)")] * 3
    calls.clear()
    irrational = Magnitude.finite(Exponent(0, Fraction(1, 2)))  # rho^(sqrt(2)/2)
    _run_disc_queries(LSER, LSER.parse_element("t^(2/3)+t^(3/4)"), irrational)
    assert calls == [LSER.parse_element("t^(2/3)")] * 3
    calls.clear()
    _run_disc_queries(Q5, Fraction(7, 3), Magnitude.finite(Exponent(2)))
    assert calls == [Fraction(7, 3)] * 3
