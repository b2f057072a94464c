"""Products of root factors held on integer keys, against their lowered form.

Over a Puiseux field :meth:`Poly.product` (as ``BranchData.from_roots``
uses it) keeps ``f`` as the field's ``KeyedRows`` and lowers ``coeffs``
only when they are read.  The keyed and lowered forms must be one
polynomial: equal, hashed and printed alike, of one degree, and read
alike on every disc, in agreement with the whole expansion of
``oracles.reference_dominant_terms``.  The cover path (the product, the
skeleton and a fiber count at every disc vertex) must never lower it.
"""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berkline import (
    BranchData,
    DiscPoint,
    Exponent,
    Magnitude,
    Poly,
    cover_skeleton,
    fiber_count,
    parse_field,
)
from berkline import fields
from berkline.polynomials import dominant_terms
from helpers import distinct_roots, rand_element
from oracles import reference_dominant_terms

SELECTORS = ("puiseux:Q", "puiseux:F5")

# Roots whose product cancels coefficients, with the degrees that cancel:
# ``t`` and ``-t`` the one of ``T``, and over F_5 ``1`` and ``4`` too
# (``-5 = 0``); roots that sum to zero the one of ``T^(n-1)``.
_CANCELLING = {
    "puiseux:Q": [
        (["t", "-t"], [1]),
        (["t^(1/2)", "-t^(1/2)", "2", "-2"], [1, 3]),
        (["1", "t", "-1-t"], [2]),
    ],
    "puiseux:F5": [
        (["1", "4"], [1]),
        (["t", "-t"], [1]),
        (["2", "3", "t^(1/3)", "-t^(1/3)"], [1, 3]),
    ],
}


def _radii(rng):
    """An integer, a fractional and an irrational radius."""
    return [
        Magnitude.finite(Exponent(rng.randint(-2, 3))),
        Magnitude.finite(Exponent(Fraction(rng.randint(-6, 9), rng.choice([2, 3, 7])))),
        Magnitude.finite(Exponent(Fraction(rng.randint(-4, 4), 3), Fraction(rng.choice([-1, 1, 2]), 2))),
    ]


def _centers(rng, field, roots):
    """At a root, near one (a root plus a small term) and away from all."""
    near = field.add(rng.choice(roots), field.monomial(Fraction(rng.randint(2, 9), rng.choice([1, 2, 5]))))
    return [rng.choice(roots), near, rand_element(rng, field)]


def _check_keyed_against_lowered(field, roots, lead, rng):
    bd = BranchData.from_roots(field, roots, lead)
    f = bd.f
    d, rows, scale = f._keyed
    m = field.char
    assert rows and rows[-1]
    assert all(c and (not m or 0 < c < m) for row in rows for c in row.values())
    assert f.degree == len(roots) and not f.is_zero
    eager = Poly.make(field, field.mul_coeffs([bd.lead], *[(field.neg(r), field.one) for r in bd.roots]))
    for r in _radii(rng):
        for a in _centers(rng, field, bd.roots):
            got = dominant_terms(f, a, r)
            assert got == dominant_terms(eager, a, r)
            _, e_min, dominant = reference_dominant_terms(eager, a, r)
            assert got[:2] == (e_min, dominant)
    lowered = Poly.make(field, f.coeffs)
    assert f == lowered == eager
    assert (hash(f), repr(f), f.degree) == (hash(lowered), repr(lowered), lowered.degree)
    return rows


@pytest.mark.parametrize("selector", SELECTORS)
@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), lead=st.sampled_from([None, "2", "3*t^(-1/2)", "t^(2)+1"]))
def test_keyed_and_lowered_forms_agree(selector, seed, count, lead):
    field = parse_field(selector)
    rng = random.Random(seed)
    roots = distinct_roots(rng, field, count)
    _check_keyed_against_lowered(field, roots, lead and field.parse_element(lead), rng)


@pytest.mark.parametrize("selector", SELECTORS)
def test_cancelled_coefficients_are_empty_rows(selector):
    field = parse_field(selector)
    rng = random.Random(5)
    for texts, cancelled in _CANCELLING[selector]:
        roots = [field.parse_element(s) for s in texts]
        rows = _check_keyed_against_lowered(field, roots, field.parse_element("3*t^(1/5)"), rng)
        assert [i for i, row in enumerate(rows) if not row] == cancelled, texts


def test_only_coeffs_is_filled_on_read():
    """Any other missing attribute of a keyed product is an
    ``AttributeError``, as on every ``Poly``, and reading one lowers
    nothing."""
    field = parse_field("puiseux:Q")
    f = BranchData.from_roots(field, [field.parse_element("t"), field.one]).f
    with pytest.raises(AttributeError, match="no_such_field"):
        f.no_such_field
    assert not hasattr(f, "no_such_field")
    with pytest.raises(AttributeError):
        Poly.coeffs.__get__(f)  # the slot itself: still unset
    assert f.degree == 2


def test_reads_leave_the_held_rows_as_they_are():
    """The dict sweep updates its rows in place, so every read of a
    keyed product sweeps copies of the rows it holds: over puiseux:F5
    (always the dict sweep), over puiseux:Q at ``t^(1/1000) +
    t^(999/1000)`` with the product already on that denominator (the
    dict rows, as a packed row would be too wide) and at a center with
    exponent denominators new to the product (keys rescaled).  After
    three rounds of reads the held rows equal a deep snapshot taken
    before the first."""
    wide = "t^(1/1000)+t^(999/1000)"
    cases = (
        ("puiseux:F5", [["t^(1/2)"], ["1", "1"], ["2+t", "1"], ["3", "t", "1"]], ["2+t", "t^(1/2)", "3"]),
        ("puiseux:Q", [["t^(1/1000)"], ["0", "1"], ["1"] + ["0"] * 99 + ["1"]], [wide]),
        ("puiseux:Q", [["2*t^(1/2)"], ["t", "1"], ["1/3", "t", "1"]], ["1+t^(1/7)", "t^(-2/5)"]),
    )
    radii = (Magnitude.zero(), Magnitude.finite(Exponent(2)))
    for selector, factors, centers in cases:
        field = parse_field(selector)
        f = Poly.product(field, *[[field.parse_element(c) for c in cs] for cs in factors])
        held = copy.deepcopy(f._keyed)
        centers = [field.parse_element(a) for a in centers]
        if centers[0] == field.parse_element(wide):
            d, rows, L = f._keyed
            _, ([shift], D) = fields._keyed(field.base, centers, d=d)
            assert field.base._packed_sweep(list(shift.items()), D, rows, L) is None
        for _ in range(3):
            for a in centers:
                for r in radii:
                    dominant_terms(f, a, r)
        assert f._keyed == held, selector


def test_the_cover_path_never_lowers(monkeypatch):
    """``from_roots``, ``cover_skeleton`` and ``fiber_count`` at every
    disc vertex read the product on its integer keys only."""
    field = parse_field("puiseux:Q")
    lowered = []
    real = fields._from_int_keys

    def counting(*args, **kwargs):
        lowered.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fields, "_from_int_keys", counting)
    rng = random.Random(11)
    vertices = 0
    for count in range(1, 9):
        bd = BranchData.from_roots(field, distinct_roots(rng, field, count))
        cs = cover_skeleton(bd)
        for v in cs.base.vertices:
            if isinstance(v.point, DiscPoint):
                assert fiber_count(bd, v.point) == cs.vertex_fibers[v.id]
                vertices += 1
    assert vertices >= 20
    assert lowered == []
