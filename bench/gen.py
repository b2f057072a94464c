"""Seeded input generators for the benchmark workloads.

Modelled on the test suite's generators but kept here, so that editing a
test can never silently change what the benchmark measures.  Every
function takes an explicit ``random.Random``; a workload derives one per
query from ``(seed, workload, query index)``, so the same seed always
yields the same inputs, whatever ran before.
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
    Type1Point,
)

Q5 = PAdicField(5)
LSER = PuiseuxField(Rationals())

# Distinct after reduction, so sampling without replacement gives
# distinct Puiseux exponents.
_GAMMAS = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(-4, 10)})


def query_rng(seed: int, workload: str, i) -> random.Random:
    """The generator for query ``i``.  Negative indices are warm-up
    queries, identical for every seed so that set-up cost is too."""
    if isinstance(i, int) and i < 0:
        seed = "warm-up"
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{seed}/{workload}/{i}")


def rand_padic_element(rng, nonzero=False):
    num = rng.randint(-40, 40)
    if nonzero and num == 0:
        num = 7
    x = Fraction(num, rng.choice([1, 1, 2, 3, 7]))
    return x * Fraction(Q5.p) ** rng.randint(-2, 2)


def puiseux_with_terms(rng, n: int):
    """A Puiseux element with exactly ``n`` terms."""
    acc = LSER.zero
    for g in rng.sample(_GAMMAS, n):
        c = LSER.base.from_int(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
        acc = LSER.add(acc, LSER.monomial(g, c))
    return acc


def rand_puiseux_element(rng, nonzero=False, max_terms=3):
    return puiseux_with_terms(rng, rng.randint(1 if nonzero else 0, max_terms))


def rand_element(rng, field, nonzero=False):
    if field is Q5:
        return rand_padic_element(rng, nonzero)
    return rand_puiseux_element(rng, nonzero)


def rand_poly(rng, field, deg: int) -> Poly:
    coeffs = [rand_element(rng, field) for _ in range(deg)]
    coeffs.append(rand_element(rng, field, nonzero=True))
    return Poly.make(field, coeffs)


def rand_exponent(rng, irrational=False) -> Exponent:
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if not irrational:
        return Exponent(a)
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Exponent(a, b or Fraction(1, 2))


def rand_radius(rng, irrational=None) -> Magnitude:
    if irrational is None:
        irrational = rng.random() < 0.4
    return Magnitude.finite(rand_exponent(rng, irrational))


def rand_point(rng, field, type1_weight=0.35):
    if rng.random() < type1_weight:
        return Type1Point(field, rand_element(rng, field))
    return DiscPoint(field, rand_element(rng, field), rand_radius(rng))


def rand_unit_disc_point(rng, type1_weight=0.4):
    """A point of E(0, 1) over Q5: integral center, radius exponent >= 0."""
    center = Fraction(rng.randint(-60, 60), rng.choice([1, 1, 2, 3, 7])) * 5 ** rng.randint(0, 2)
    if rng.random() < type1_weight:
        return Type1Point(Q5, center)
    e = Fraction(rng.randint(0, 8), rng.randint(1, 3))
    return DiscPoint(Q5, center, Magnitude.finite(Exponent(e)))


def distinct_roots(rng, field, count: int):
    """Pairwise distinct elements mixing scales and tight clusters.

    Returns the roots and how many of them were made by nudging an
    earlier root, which is what forms a cluster.
    """
    roots, clustered = [], 0
    while len(roots) < count:
        x = rand_element(rng, field)
        nudged = bool(roots) and rng.random() < 0.3
        if nudged:
            x = field.add(rng.choice(roots), rand_element(rng, field, nonzero=True))
        if all(not field.is_zero(field.sub(x, r)) for r in roots):
            roots.append(x)
            clustered += nudged
    return roots, clustered
