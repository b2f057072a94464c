"""Seeded random generators shared by the unit and acceptance suites.

Everything takes an explicit ``random.Random`` so each test owns its
seed and stays reproducible in isolation.  Coefficient sizes are kept
small on purpose: the library is exact, so test cost is dominated by
Fraction arithmetic depth, not by sample counts.
"""

import random
from fractions import Fraction

from berkline import (
    DiscPoint,
    Exponent,
    Magnitude,
    PAdicField,
    Poly,
    PuiseuxField,
    Rationals,
    TrivialField,
    Type1Point,
)

Q5 = PAdicField(5)
LSER = PuiseuxField(Rationals())
BACKENDS = (Q5, LSER)

# Distinct after reduction, so sampling without replacement gives
# genuinely distinct Puiseux exponents.
_GAMMAS = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(-4, 10)})


def rand_fraction(rng: random.Random, lo=-9, hi=9, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_padic_element(rng: random.Random, field: PAdicField, nonzero=False):
    num = rng.randint(-40, 40)
    if nonzero and num == 0:
        num = 7
    x = Fraction(num, rng.choice([1, 1, 2, 3, 7]))
    return x * Fraction(field.p) ** rng.randint(-2, 2)


def rand_puiseux_element(rng: random.Random, field: PuiseuxField, nonzero=False, max_terms=3):
    n = rng.randint(1 if nonzero else 0, max_terms)
    acc = field.zero
    if n == 0:
        return acc
    for g in rng.sample(_GAMMAS, n):
        c = field.base.from_int(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
        if field.base.is_zero(c):
            c = field.base.one
        acc = field.add(acc, field.monomial(g, c))
    return acc


def rand_trivial_element(rng: random.Random, field: TrivialField, nonzero=False):
    base = field.base
    x = base.div(base.from_int(rng.randint(-9, 9)), base.from_int(rng.choice([1, 2, 4])))
    return base.one if nonzero and base.is_zero(x) else x


def rand_element(rng: random.Random, field, nonzero=False):
    if isinstance(field, PAdicField):
        return rand_padic_element(rng, field, nonzero)
    if isinstance(field, TrivialField):
        return rand_trivial_element(rng, field, nonzero)
    return rand_puiseux_element(rng, field, nonzero)


def rand_poly(rng: random.Random, field, max_deg=6) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [rand_element(rng, field) for _ in range(deg)]
    coeffs.append(rand_element(rng, field, nonzero=True))
    return Poly.make(field, coeffs)


def rand_exponent(rng: random.Random, irrational=False) -> Exponent:
    a = rand_fraction(rng, -4, 4, 3)
    if not irrational:
        return Exponent(a)
    b = rand_fraction(rng, -3, 3, 2)
    if b == 0:
        b = Fraction(1, 2)
    return Exponent(a, b)


def rand_radius(rng: random.Random, irrational=None) -> Magnitude:
    if irrational is None:
        irrational = rng.random() < 0.4
    return Magnitude.finite(rand_exponent(rng, irrational))


def rand_point(rng: random.Random, field, type1_weight=0.35):
    if rng.random() < type1_weight:
        return Type1Point(field, rand_element(rng, field))
    return DiscPoint(field, rand_element(rng, field), rand_radius(rng))


def rand_unit_disc_point(rng: random.Random, field=Q5, type1_weight=0.4):
    """A point of E(0, 1): integral center, radius exponent >= 0."""
    num = rng.randint(-60, 60)
    center = Fraction(num, rng.choice([1, 1, 2, 3, 7])) * Fraction(field.p) ** rng.randint(0, 2)
    if rng.random() < type1_weight:
        return Type1Point(field, center)
    e = Fraction(rng.randint(0, 8), rng.randint(1, 3))
    return DiscPoint(field, center, Magnitude.finite(Exponent(e)))


def distinct_roots(rng: random.Random, field, count: int):
    """Pairwise distinct field elements, mixing scales and clusters."""
    roots = []
    while len(roots) < count:
        x = rand_element(rng, field)
        if rng.random() < 0.3 and roots:
            # nudge an existing root to force a tight cluster
            bump = rand_element(rng, field, nonzero=True)
            x = field.add(rng.choice(roots), bump)
        if all(not field.is_zero(field.sub(x, r)) for r in roots):
            roots.append(x)
    return roots
