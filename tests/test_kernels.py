"""Differential oracles for the polynomial kernels of the fields.

The Taylor shift, the product and the evaluation run on Python ints,
one kernel for both base fields: over Q with the denominators cleared,
over F_p reduced mod ``p`` (dense for ``padic`` and ``trivial``
coefficients, on integer exponent keys for Puiseux sums).  Evaluation
is the first row of the shift.  Every one of them must agree term for
term with the generic constructions through the field's own ``add`` and
``mul``, kept in ``oracles.py``, and over Q with sympy.
"""

import random
import sys
from fractions import Fraction
from functools import partial, reduce
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from berkline import (
    DomainError,
    Exponent,
    Magnitude,
    PAdicField,
    Poly,
    PrimeField,
    PuiseuxField,
    Rationals,
    TrivialField,
    parse_field,
    parse_poly,
    taylor_shift,
)
from berkline import fields
from berkline.errors import MAX_EXACT_BITS
from berkline.fields import _IntKernels, _keyed, _product_work, _term_work
from berkline.polynomials import dominant_terms
from oracles import horner, schoolbook_coeffs, sympy_puiseux, synthetic_shift

# ``Rationals()`` rather than ``QQ``: the integer kernels are chosen by
# the type of the base field, so any instance of it gets them.
FIELDS = {
    "padic5": PAdicField(5),
    "trivialQ": TrivialField(Rationals()),
    "puiseuxQ": PuiseuxField(Rationals()),
    "puiseuxF3": PuiseuxField(PrimeField(3)),
    "trivialF7": TrivialField(PrimeField(7)),
}

# Mixed small and large denominators, so the lcm that clears them is
# usually a product of several, and large numerators of both signs.
_DENOMINATORS = st.sampled_from([1, 1, 2, 3, 4, 7, 25, 10**30 + 3, 2**61 - 1])
_NUMERATORS = st.one_of(st.integers(-60, 60), st.integers(-(10**40), 10**40))
_RATIONALS = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)
# Exponents of Puiseux terms, negative ones and several denominators.
_EXPONENTS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
# Degrees 0 (a keyed shift of a constant changes nothing), 1 (the direct
# fold of dense shifts) and 16 are drawn often; the rest cover the
# integer sweep in between.
_DEGREES = st.one_of(st.sampled_from([0, 1, 16]), st.integers(2, 15))


def _base_coefficient(field, data):
    base = field.base
    if isinstance(base, PrimeField):
        return base.from_int(data.draw(st.integers(1, base.p - 1)))
    return data.draw(_RATIONALS.filter(bool))


def element(field, data, nonzero=False):
    """A random element; about a quarter of them zero unless ``nonzero``."""
    if not nonzero and data.draw(st.integers(0, 3)) == 0:
        return field.zero
    if not isinstance(field, PuiseuxField):
        return _base_coefficient(field, data)
    acc = field.zero
    for g in data.draw(st.lists(_EXPONENTS, min_size=1, max_size=3, unique=True)):
        acc = field.add(acc, field.monomial(g, _base_coefficient(field, data)))
    return acc if acc else field.one


def coefficients(field, data, degree):
    """``degree + 1`` coefficients with a nonzero leading one."""
    return [element(field, data) for _ in range(degree)] + [element(field, data, nonzero=True)]


# On top of the suite's profile (conftest.py): the Puiseux oracles at
# degree 16 are slow, so fewer examples.
_SETTINGS = settings(max_examples=20)


@pytest.mark.parametrize("name", FIELDS)
@_SETTINGS
@given(data=st.data())
def test_shift_matches_generic_sweep(name, data):
    field = FIELDS[name]
    cs = coefficients(field, data, data.draw(_DEGREES))
    a = element(field, data)
    assert field.taylor_shift_coeffs(cs, a, len(cs)) == synthetic_shift(field, cs, a)


@pytest.mark.parametrize("name", FIELDS)
@_SETTINGS
@given(data=st.data())
def test_product_matches_schoolbook(name, data):
    """One call multiplies one to five factors, and gives the fold of
    the two-factor schoolbook product.  A factor may be its neighbour
    mirrored, ``f(-T)``: ``f(T) * f(-T)`` is even, so every odd
    coefficient of that product cancels."""
    field = FIELDS[name]
    count = data.draw(st.sampled_from([2, 2, 1, 3, 4, 5]))
    degrees = _DEGREES if count <= 2 else st.integers(0, 4)
    factors = [coefficients(field, data, data.draw(degrees))]
    cancelling = False
    while len(factors) < count:
        cancelling = data.draw(st.booleans())
        if cancelling:
            factors.append([field.neg(c) if i % 2 else c for i, c in enumerate(factors[-1])])
        else:
            factors.append(coefficients(field, data, data.draw(degrees)))
    product = field.mul_coeffs(*factors)
    assert product == reduce(partial(schoolbook_coeffs, field), factors)
    if count == 2 and cancelling:
        assert all(field.is_zero(c) for c in product[1::2])


@pytest.mark.parametrize("name", FIELDS)
@_SETTINGS
@given(data=st.data())
def test_evaluation_matches_horner(name, data):
    field = FIELDS[name]
    cs = coefficients(field, data, data.draw(_DEGREES))
    a = element(field, data)
    f = Poly.make(field, cs)
    assert f.evaluate(a) == horner(field, cs, a)


@pytest.mark.parametrize("name", FIELDS)
def test_zero_polynomial_and_zero_shift(name):
    """The zero polynomial shifts to itself and evaluates to zero, and a
    shift by zero changes nothing, at the degrees of both kernels."""
    field = FIELDS[name]
    a = field.one
    assert taylor_shift(Poly(field, ()), a) == Poly(field, ())
    assert Poly(field, ()).evaluate(a) == field.zero
    for degree in (1, 5):
        cs = [field.from_int(i + 1) for i in range(degree + 1)]
        assert field.taylor_shift_coeffs(cs, field.zero, len(cs)) == cs
        assert Poly.make(field, cs).evaluate(field.zero) == cs[0]


@pytest.mark.parametrize("selector", ["padic:5", "trivial:F7", "puiseux:Q", "puiseux:F5"])
def test_a_shift_returns_exactly_count_coefficients(selector):
    """Every ``count`` from 0 to ``n`` gives the first ``count``
    coefficients of the full shift, ``[]`` for 0: for 1, 2 (the direct
    fold) and 3 to 5 coefficients (the integer sweeps), shifted by zero
    and by two nonzero centers."""
    field = parse_field(selector)
    el = field.parse_element
    puiseux = isinstance(field, PuiseuxField)
    coeffs = [el("t^(-1)+3" if puiseux else "3"), el("2"), el("-1"), field.zero, el("1")]
    other = "t^(1/2)+2" if puiseux else "4" if field.char else "1/3"
    centers = [field.zero, el("2"), el(other)]
    for n in range(1, len(coeffs) + 1):
        for a in centers:
            full = field.taylor_shift_coeffs(coeffs[:n], a, n)
            assert full == synthetic_shift(field, coeffs[:n], a)
            for count in range(n + 1):
                got = field.taylor_shift_coeffs(coeffs[:n], a, count)
                assert got == full[:count], (n, a, count)


def test_integer_kernels_do_not_touch_fraction_arithmetic(monkeypatch):
    """Over Q the kernels of degree two and up never call the base
    field's ``add`` or ``mul``, whichever ``Rationals``
    instance the field was built on: shifts, products of two and three
    factors and evaluation, dense and over Puiseux sums."""
    rng = random.Random(3)
    cases = []
    for field in (FIELDS["padic5"], FIELDS["trivialQ"], Rationals()):
        cs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(5)]
        cs.append(Fraction(1))
        a = Fraction(2, 3)
        expected = (
            synthetic_shift(field, cs, a),
            schoolbook_coeffs(field, cs, cs),
            schoolbook_coeffs(field, schoolbook_coeffs(field, cs, cs), cs),
            horner(field, cs, a),
        )
        cases.append((field, cs, a, expected))
    puiseux = FIELDS["puiseuxQ"]
    t = puiseux.t
    pcs = [puiseux.add(t, puiseux.from_int(i)) for i in range(1, 5)]
    expected_puiseux = (
        synthetic_shift(puiseux, pcs, t),
        schoolbook_coeffs(puiseux, pcs, pcs),
        schoolbook_coeffs(puiseux, schoolbook_coeffs(puiseux, pcs, pcs), pcs),
        horner(puiseux, pcs, t),
    )

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside an integer kernel")

    for name in ("add", "mul"):
        monkeypatch.setattr(Rationals, name, refuse)
    for field, cs, a, expected in cases:
        got = (
            field.taylor_shift_coeffs(cs, a, len(cs)),
            field.mul_coeffs(cs, cs),
            field.mul_coeffs(cs, cs, cs),
            Poly.make(field, cs).evaluate(a),
        )
        assert got == expected
    got = (
        puiseux.taylor_shift_coeffs(pcs, t, len(pcs)),
        puiseux.mul_coeffs(pcs, pcs),
        puiseux.mul_coeffs(pcs, pcs, pcs),
        Poly.make(puiseux, pcs).evaluate(t),
    )
    assert got == expected_puiseux


def test_integer_kernels_do_not_touch_prime_field_arithmetic(monkeypatch):
    """The same over F_p: with ``PrimeField.add`` and ``mul`` refusing,
    dense shifts of degree two and up (``trivial:F7``), keyed ones
    (``puiseux:F5``), products of two and three factors and evaluation
    give what the generic constructions gave before the patch."""
    rng = random.Random(5)
    trivial = TrivialField(PrimeField(7))
    puiseux = PuiseuxField(PrimeField(5))
    t = puiseux.t
    cases = [
        (trivial, [trivial.from_int(rng.randint(0, 6)) for _ in range(5)] + [trivial.one],
         trivial.from_int(3)),
        (puiseux, [puiseux.add(t, puiseux.from_int(i)) for i in range(1, 5)],
         puiseux.add(t, puiseux.parse_element("2*t^(1/2)"))),
    ]
    expected = [
        (
            synthetic_shift(field, cs, a),
            schoolbook_coeffs(field, cs, cs),
            schoolbook_coeffs(field, schoolbook_coeffs(field, cs, cs), cs),
            horner(field, cs, a),
        )
        for field, cs, a in cases
    ]

    def refuse(*args):
        raise AssertionError("F_p element arithmetic inside an integer kernel")

    for name in ("add", "mul"):
        monkeypatch.setattr(PrimeField, name, refuse)
    for (field, cs, a), want in zip(cases, expected):
        got = (
            field.taylor_shift_coeffs(cs, a, len(cs)),
            field.mul_coeffs(cs, cs),
            field.mul_coeffs(cs, cs, cs),
            Poly.make(field, cs).evaluate(a),
        )
        assert got == want


def _sympy_q(sympy, cs):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in cs[::-1]]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain=sympy.QQ)


def _from_sympy(poly):
    return [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()[::-1]]


def test_kernels_match_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(71)
    dens = (1, 2, 9, 10**30 + 3, 2**61 - 1)
    field = FIELDS["trivialQ"]
    for n in range(30):
        deg = (0, 1, 16)[n % 3] if n < 9 else rng.randint(2, 12)
        cs = [Fraction(rng.randint(-(10**25), 10**25), rng.choice(dens)) for _ in range(deg)]
        cs.append(Fraction(rng.randint(1, 10**25), rng.choice(dens)))
        ds = [Fraction(rng.randint(-99, 99), rng.choice(dens)) for _ in range(rng.randint(1, 6))]
        a = Fraction(rng.randint(-(10**20), 10**20), rng.choice(dens))
        f, g = _sympy_q(sympy, cs), _sympy_q(sympy, ds)
        at = sympy.Rational(a.numerator, a.denominator)
        assert field.taylor_shift_coeffs(cs, a, len(cs)) == _from_sympy(f.shift(at))
        if any(ds):
            product = _from_sympy(f * g)
            got = field.mul_coeffs(cs, ds)
            assert got[: len(product)] == product and not any(got[len(product):])
        value = f.eval(at)
        assert Poly.make(field, cs).evaluate(a) == Fraction(int(value.p), int(value.q))


def _dominant_terms_of(g, r):
    """``dominant_terms`` read off a whole expansion ``g``, for a zero or
    rational radius ``r``."""
    vals = [x[0][0] if x else None for x in g]
    if r.is_zero:
        i = next(i for i, v in enumerate(vals) if v is not None)
        return (Exponent(vals[0]) if i == 0 else None), (i,), (g[i][:1],)
    e_r = r.exponent.a
    es = {i: v + i * e_r for i, v in enumerate(vals) if v is not None}
    e_min = min(es.values())
    dominant = tuple([i for i in sorted(es) if es[i] == e_min])
    return Exponent(e_min), dominant, tuple([g[i][:1] for i in dominant])


_RADII = st.one_of(
    st.just(Magnitude.zero()),
    st.builds(lambda e: Magnitude.finite(Exponent(e)), _EXPONENTS),
)


@pytest.mark.parametrize("name", ["puiseuxQ", "puiseuxF5"])
@settings(max_examples=12)
@given(data=st.data())
def test_puiseux_kernels_match_sympy(name, data):
    """Puiseux sums against sympy (``oracles.sympy_puiseux``), which
    shares none of the library's arithmetic: ``taylor_shift``,
    ``Poly.evaluate`` and ``dominant_terms`` at degrees 0-2, and
    ``mul_coeffs``, with negative exponents and mixed denominators."""
    pytest.importorskip("sympy")
    field = FIELDS["puiseuxQ"] if name == "puiseuxQ" else PuiseuxField(PrimeField(5))
    cs = coefficients(field, data, data.draw(st.integers(0, 2)))
    ys = coefficients(field, data, data.draw(st.integers(0, 2)))
    a, r = element(field, data), data.draw(_RADII)
    f = Poly.make(field, cs)
    g = sympy_puiseux(field, [cs], a)
    assert list(taylor_shift(f, a).coeffs) == g
    assert f.evaluate(a) == g[0]
    assert field.mul_coeffs(cs, ys) == sympy_puiseux(field, [cs, ys], field.zero)
    b = field.trim_center(a, r)
    expansion = g if b == a else sympy_puiseux(field, [cs], b)
    assert dominant_terms(f, a, r) == _dominant_terms_of(expansion, r)


def test_exact_work_is_bounded():
    """Evaluation and shifts over Q know the size of their numbers before
    they start, and refuse past ``MAX_EXACT_BITS``; so does ``p**e``."""
    q5 = FIELDS["padic5"]
    big = Fraction(1, 7**3000)
    f = Poly.make(q5, [Fraction(0)] * 4096 + [Fraction(7**3000)])
    with pytest.raises(DomainError, match="exact evaluation"):
        f.evaluate(big)
    with pytest.raises(DomainError, match="Taylor shift"):
        taylor_shift(f, big)
    # at the limit and just past it
    e = MAX_EXACT_BITS // 3  # 5 has three bits
    assert q5.element_with_valuation(Exponent(e)) == Fraction(5) ** e
    with pytest.raises(DomainError, match="above"):
        q5.element_with_valuation(Exponent(-(e + 1)))
    assert q5.element_with_valuation(Exponent(Fraction(1, 2))) is None


@pytest.mark.parametrize("name", ["padic5", "puiseuxQ"])
def test_size_bounds_at_the_threshold(name):
    """A sweep over Q whose estimated size is exactly ``MAX_EXACT_BITS``
    runs and one bit more is refused, for one row (evaluation) and for
    the whole shift, dense and keyed.  The input is ``c*T^4`` with ``c``
    of ``lf`` bits at ``a = A/D = 3/2`` (keyed: ``3/2 + t``, where ``A``
    is 3 + 2, the sum of the numerators of ``2*a``).  One row needs
    ``lf + 4*max(bits A, bits D) + bits(4)``, the shift
    ``lf + 4*(bits A + bits D + 1)``."""
    field = FIELDS[name]
    keyed = isinstance(field, PuiseuxField)
    a = field.parse_element("3/2+t" if keyed else "3/2")
    bits_a = 3 if keyed else 2
    for what, extra, run, oracle in (
        ("exact evaluation", 4 * bits_a + 3, lambda f: f.evaluate(a), horner),
        ("a Taylor shift", 4 * (bits_a + 3), lambda f: list(taylor_shift(f, a).coeffs),
         synthetic_shift),
    ):
        lf = MAX_EXACT_BITS - extra
        cs = [field.zero] * 4 + [field.from_int(1 << (lf - 1))]  # lf bits
        assert run(Poly.make(field, cs)) == oracle(field, cs, a), what
        cs[-1] = field.from_int(1 << lf)
        with pytest.raises(DomainError, match=what):
            run(Poly.make(field, cs))


_F10007 = PuiseuxField(PrimeField(10007))


def _work_and_calls(field, cs, a, count):
    """``_term_work`` of a keyed sweep and the number of term operations
    of the same sweep through the field's ``add`` and ``mul``: one base
    field ``mul`` per pair of terms in ``synthetic_shift`` (the full
    shift) or ``horner`` (``count = 1``).  The kernel's rows must equal
    the oracle's."""
    _, ([shift], _), (rows, _) = _keyed(field.base, (a,), cs)
    calls = []
    mul = PrimeField.mul

    def counting(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    with patch.object(PrimeField, "mul", counting):
        expected = [horner(field, cs, a)] if count == 1 else synthetic_shift(field, cs, a)
    assert field.taylor_shift_coeffs(cs, a, count) == expected
    return _term_work(shift.items(), rows, count), len(calls)


def test_the_keyed_sweep_folds_only_from_nonzero_rows():
    """Over F_5 many rows of the full shift of ``T^125 + T`` at ``2 + t``
    vanish, since most binomials ``C(j, i)`` vanish mod 5 (Lucas).  The
    keyed sweep folds from a row only when it is nonzero: as many folds
    as there are (pass, row) pairs of ``synthetic_shift`` whose source
    row is nonzero.  Each fold reads its source row and rebuilds the row
    it updates, one ``dict.items`` call each, counted with a profile
    hook on the sweep's own frame."""
    field = PuiseuxField(PrimeField(5))
    cs = [field.zero] * 126
    cs[1] = cs[125] = field.one
    a = field.parse_element("2+t")
    nonzero = []
    mul = PuiseuxField.mul

    def counting(self, x, y):
        nonzero.append(bool(y))
        return mul(self, x, y)

    with patch.object(PuiseuxField, "mul", counting):
        expected = synthetic_shift(field, cs, a)
    sweep, items = _IntKernels.shift_keyed.__code__, []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is sweep and getattr(arg, "__name__", "") == "items":
            items.append(1)

    sys.setprofile(profile)
    try:
        got = field.taylor_shift_coeffs(cs, a, len(cs))
    finally:
        sys.setprofile(None)
    assert got == expected
    assert 0 < sum(nonzero) < len(nonzero)
    assert len(items) == 2 * sum(nonzero)


@_SETTINGS
@given(data=st.data(), count=st.sampled_from([1, None]))
def test_term_work_bounds_the_sweep(data, count):
    """``_term_work`` is an upper bound on the term operations."""
    field = _F10007
    cs = coefficients(field, data, data.draw(st.integers(0, 9)))
    a = element(field, data, nonzero=True)
    work, calls = _work_and_calls(field, cs, a, len(cs) if count is None else count)
    assert calls <= work


def test_term_work_is_tight_where_the_supports_fill():
    """Where every row fills the key span, the estimate is within a
    small factor of the work done: evaluation of coefficients with 21
    terms each at ``1 + t + t^2``, and of ``T^9`` at ``1 + t^(-1)``,
    whose keys run below zero."""
    field = _F10007
    dense = field.parse_element("+".join(f"t^({k})" for k in range(21)))
    for cs, a in (
        ([dense] * 10, field.parse_element("1+t+t^(2)")),
        ([field.zero] * 9 + [field.one], field.parse_element("1+t^(-1)")),
    ):
        work, calls = _work_and_calls(field, cs, a, 1)
        assert calls <= work <= 3 * calls


def _product_term_operations(keyed):
    """The term operations of ``mul_keyed`` on keyed factors: each step
    takes every key of the running product's rows (over Q the zeros too,
    which stay until the end) against every term of the next factor.
    Over F_p the kernel drops the running zeros first, so there this
    count is at least its work."""
    xs, ops = [set(row) for row in keyed[0]], 0
    for factor in keyed[1:]:
        ys = [set(row) for row in factor]
        ops += sum(map(len, xs)) * sum(map(len, ys))
        out = [set() for _ in range(len(xs) + len(ys) - 1)]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys, i):
                out[j] |= {gx + gy for gx in x for gy in y}
        xs = out
    return ops


@_SETTINGS
@given(data=st.data(), name=st.sampled_from(["puiseuxQ", "puiseuxF3"]))
def test_product_work_bounds_the_product(data, name):
    """``_product_work`` is an upper bound on the term operations of a
    product of one to six factors of degree 0 to 4 (degree 1 is a root
    factor of ``from_roots``)."""
    field = FIELDS[name]
    factors = [
        coefficients(field, data, data.draw(st.integers(0, 4)))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    _, *keyed = _keyed(field.base, *factors)
    keyed = [rows for rows, _ in keyed]
    assert _product_term_operations(keyed) <= _product_work(keyed)


_QQ_KEYED = PuiseuxField(Rationals())
# The worst case of the width bound is a single key: every coefficient
# and the center at exponent 0, all positive, so that nothing cancels.
_WIDTH_EXPONENTS = st.sampled_from(
    [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
)


def _at_zero(c):
    """``c`` as a Puiseux element with the one exponent 0."""
    return ((Fraction(0), Fraction(c)),)


@st.composite
def _width_case(draw):
    """Coefficients of degree 1 to 7 and a center over puiseux:Q, all
    positive half the time, with numerators up to 2**70."""
    positive = draw(st.booleans())
    values = st.integers(1, 2**70) if positive else st.integers(-(2**70), 2**70).filter(bool)

    def elem(min_size):
        x = _QQ_KEYED.zero
        for g in draw(st.lists(_WIDTH_EXPONENTS, min_size=min_size, max_size=3)):
            c = Fraction(draw(values), draw(st.sampled_from([1, 1, 3, 4])))
            x = _QQ_KEYED.add(x, _QQ_KEYED.monomial(g, c))
        return x

    degree = draw(st.integers(1, 7))
    return [elem(0) for _ in range(degree)] + [elem(1)], elem(1)


def _slots(row, low, W):
    """The slots of a packed row, read as signed ``W``-bit values from
    the bottom: ``{key: value}`` for the nonzero ones."""
    half, slots, key = 1 << (W - 1), {}, low
    while row:
        c = row & (2 * half - 1)
        c = c - 2 * half if c >= half else c
        if c:
            slots[key] = c
        row, key = (row - c) >> W, key + 1
    return slots


@settings(max_examples=150)
@given(case=_width_case())
@example(case=([_at_zero(255)] * 2, _at_zero(254)))
@example(case=([_at_zero(Fraction(255, 4))] * 2, _at_zero(Fraction(248, 7))))
def test_packed_rows_hold_every_slot_in_its_width(case):
    """White box: every final row of the packed sweep over puiseux:Q,
    unpacked slot by slot, equals the dict row of ``shift_keyed``, keys
    and values, at the same scale, and every value is below
    ``2**(W-1)`` in absolute value.  The two examples are the single-key
    worst case, ``l1 * (A1 + D)`` with both factors just below a power
    of two, within a factor 4 of the bound: a width two bits short reads
    them wrong."""
    cs, a = case
    _, ([shift], D), (rows, L) = _keyed(Rationals(), (a,), cs)
    keyed = (list(shift.items()), D, rows, L)
    sweep = Rationals()._packed_sweep(*keyed)
    assume(sweep is not None)
    W, lo, final, scale, D = sweep
    want, want_scale, want_D = Rationals().shift_keyed(*keyed, len(rows))
    assert (scale, D) == (want_scale, want_D)
    got = [_slots(row, low, W) for low, row in zip(lo, final)]
    assert got == want
    assert all(abs(c) < 1 << (W - 1) for row in want for c in row.values())


@pytest.mark.parametrize("name", ["puiseuxQ", "puiseuxF5"])
def test_repeated_exponents_are_summed_in_the_keyed_kernels(name):
    """A coefficient that is not in canonical form, with an exponent
    repeated, is the sum of its terms: the keyed shift, evaluation, disc
    reader and one-factor product read it as ``k.add(k.zero, c)`` does.
    Three forms: ``3 - 6`` (a sum that survives), ``3 + t - 3`` (terms
    that cancel, over F_5 ``3 + 2``) and ``3 - 3`` (nothing left), as
    the constant term and as every coefficient, at the centers ``t`` and
    ``2 + t``."""
    field = {"puiseuxQ": PuiseuxField(Rationals()), "puiseuxF5": PuiseuxField(PrimeField(5))}[name]
    three, minus = field.base.from_int(3), field.base.from_int(-3)
    forms = [
        ((Fraction(0), three), (Fraction(0), -6)),
        ((Fraction(0), three), (Fraction(1), field.base.one), (Fraction(0), minus)),
        ((Fraction(0), three), (Fraction(0), minus)),
    ]
    rho2 = Magnitude.finite(Exponent(2))
    for c in forms:
        canonical = field.add(field.zero, c)
        assert canonical != c
        for cs in ([c, field.one], [c, c]):
            f = Poly.make(field, cs)
            g = Poly.make(field, [canonical if x is c else x for x in cs])
            for text in ("t", "2+t"):
                a = field.parse_element(text)
                assert taylor_shift(f, a) == taylor_shift(g, a)
                assert f.evaluate(a) == g.evaluate(a)
                for r in (rho2, Magnitude.zero()):
                    assert dominant_terms(f, a, r) == dominant_terms(g, a, r)
            assert Poly.make(field, field.mul_coeffs(f.coeffs)) == g


@pytest.mark.parametrize("name", ["puiseuxQ", "puiseuxF5"])
def test_a_center_whose_terms_cancel_shifts_nothing(name):
    """A center not in canonical form whose terms all cancel (``t - t``,
    over F_5 ``t + 4*t``) is zero: the keyed shift, evaluation and disc
    reader read ``f`` as it is, dense and as a keyed product."""
    field = {"puiseuxQ": PuiseuxField(Rationals()), "puiseuxF5": PuiseuxField(PrimeField(5))}[name]
    a = ((Fraction(1), field.base.one), (Fraction(1), field.base.from_int(-1)))
    cs = [field.parse_element(s) for s in ("1+t^(1/2)", "t", "3", "t^(-1)")]
    f = Poly.make(field, cs)
    assert taylor_shift(f, a) == f
    assert f.evaluate(a) == cs[0]
    keyed = Poly.product(field, cs)
    for r in (Magnitude.finite(Exponent(2)), Magnitude.zero()):
        assert dominant_terms(f, a, r) == dominant_terms(keyed, a, r) == dominant_terms(f, field.zero, r)


def test_the_size_bound_runs_once_per_keyed_sweep(monkeypatch):
    """Over puiseux:Q ``_check_q_size`` runs once per sweep, before
    either reader: for a shift, an evaluation and a disc reading, on
    packed rows (``T^3 + t*T + 1`` at ``1 + t``) and on the dict rows
    (``T^24 + T`` at ``t^(1/1000) + t^(999/1000)``, where a packed row
    would be too wide)."""
    field = _QQ_KEYED
    calls = []
    check = fields._check_q_size
    monkeypatch.setattr(fields, "_check_q_size", lambda *args: calls.append(1) or check(*args))
    for poly, center, packed in (
        ("T^3+t*T+1", "1+t", True),
        ("T^24+T", "t^(1/1000)+t^(999/1000)", False),
    ):
        f, a = parse_poly(field, poly), field.parse_element(center)
        _, ([shift], D), (rows, L) = _keyed(field.base, (a,), f.coeffs)
        assert (Rationals()._packed_sweep(list(shift.items()), D, rows, L) is not None) == packed
        for read in (lambda: taylor_shift(f, a), lambda: f.evaluate(a),
                     lambda: dominant_terms(f, a, Magnitude.finite(Exponent(2)))):
            calls.clear()
            read()
            assert len(calls) == 1, (poly, center)
