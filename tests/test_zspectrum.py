"""Real semivaluations on the integers and n-adic seminorms."""

import math
import random
from fractions import Fraction

import pytest

from berkline import (
    RM_ONE,
    DomainError,
    ParseError,
    RealMag,
    ZArch,
    ZPAdic,
    ZPAdicInfty,
    ZTrivial,
    format_zpoint,
    nadic_norm,
    nadic_spectral,
    parse_zpoint,
    prime_factors,
    zpoint_eval,
    zpoint_is_multiplicative_on,
    zpoint_limit_check,
)
from berkline import zspectrum

of = RealMag.of


def _vp(x: Fraction, p: int) -> int:
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def test_realmag_cross_base_comparisons():
    assert of(2, 3) == of(8, 1)
    assert of(4, Fraction(1, 2)) == of(2, 1)
    # 2^(1/3) vs 3^(1/5): raise both to the 15th power, 32 > 27
    assert of(2, Fraction(1, 3)) > of(3, Fraction(1, 5))
    assert of(6, -1) < of(5, -1)
    assert RealMag.zero() < of(7, -30)
    assert not RealMag.zero() < RealMag.zero()
    assert of(5, 0) == RM_ONE


def test_realmag_arithmetic():
    assert of(2, 1) * of(2, 2) == of(2, 3)
    assert of(2, Fraction(1, 2)) * of(8, Fraction(1, 2)) == of(4, 1)
    assert of(4, 1) * of(2, -1) == of(2, 1)
    assert of(5, -1).inverse() == of(5, 1)
    assert of(4, 1).root(2) == of(2, 1)
    assert of(2, 3) ** 2 == of(2, 6)
    assert RealMag.zero() * of(3, 2) == RealMag.zero()
    assert abs(of(5, -1).to_float() - 0.2) < 1e-12


def test_realmag_order_is_total_and_multiplicative():
    rng = random.Random(101)
    mags = [of(rng.randint(2, 9), Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(40)]
    for a in mags[:12]:
        for b in mags[:12]:
            assert (a < b) + (a == b) + (b < a) == 1
            for c in mags[:6]:
                if a < b:
                    assert a * c < b * c or (a * c) == (b * c) and c.is_zero


def test_zpoint_eval_frozen():
    assert zpoint_eval(ZTrivial(), 17) == RM_ONE
    assert zpoint_eval(ZTrivial(), 0).is_zero
    branch = ZPAdic(5, Fraction(1, 2))
    assert zpoint_eval(branch, 50) == of(5, -1)
    assert zpoint_eval(branch, 3) == RM_ONE
    assert zpoint_eval(branch, 0).is_zero
    arch = ZArch(Fraction(1, 3))
    assert zpoint_eval(arch, -8) == of(8, Fraction(1, 3))
    assert zpoint_eval(arch, 1) == RM_ONE
    inf7 = ZPAdicInfty(7)
    assert zpoint_eval(inf7, 14).is_zero
    assert zpoint_eval(inf7, 3) == RM_ONE


def test_zpoint_validation():
    with pytest.raises(DomainError):
        ZPAdic(4, Fraction(1))
    with pytest.raises(DomainError):
        ZPAdic(5, Fraction(0))
    with pytest.raises(DomainError):
        ZArch(Fraction(0))
    with pytest.raises(DomainError):
        ZArch(Fraction(3, 2))
    with pytest.raises(DomainError):
        ZPAdicInfty(6)


def test_all_points_are_multiplicative():
    rng = random.Random(103)
    pts = [
        ZTrivial(),
        ZPAdic(2, Fraction(1)),
        ZPAdic(5, Fraction(1, 4)),
        ZArch(Fraction(1)),
        ZArch(Fraction(1, 2)),
        ZPAdicInfty(3),
    ]
    pairs = [(rng.randint(-90, 90), rng.randint(-90, 90)) for _ in range(80)]
    for x in pts:
        assert zpoint_is_multiplicative_on(x, pairs)
        for m, n in pairs[:20]:
            assert zpoint_eval(x, m * n) == zpoint_eval(x, m) * zpoint_eval(x, n)


def test_prime_factors():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(97) == {97: 1}
    with pytest.raises(DomainError):
        prime_factors(1)


def test_prime_factors_beyond_trial_division():
    m61 = 2**61 - 1
    assert prime_factors(m61) == {m61: 1}
    assert prime_factors(1000000007 * 1000000009) == {1000000007: 1, 1000000009: 1}
    n = 2**5 * 3 * 1009**2 * 999983 * 1000003
    assert prime_factors(n) == {2: 5, 3: 1, 1009: 2, 999983: 1, 1000003: 1}
    assert list(prime_factors(n)) == sorted(prime_factors(n))
    rng = random.Random(163)
    primes = [p for p in range(1025, 60000, 2) if all(p % q for q in range(3, 246, 2))]
    for _ in range(20):
        picked = rng.sample(primes, rng.randint(2, 4))
        assert prime_factors(math.prod(picked)) == {p: 1 for p in picked}


def test_prime_factors_refuses_instead_of_searching(monkeypatch):
    with pytest.raises(DomainError, match="primality is decided only below"):
        prime_factors(3 * (2**89 - 1))  # a prime cofactor beyond PRIME_LIMIT
    monkeypatch.setattr(zspectrum, "_RHO_STEPS", 8)
    with pytest.raises(DomainError, match="rho steps"):
        prime_factors(1000000007 * 1000000009)


def test_nadic_norm_frozen():
    assert nadic_norm(12, 6) == of(6, -1)
    assert nadic_norm(Fraction(1, 2), 6) == of(6, 1)
    assert nadic_norm(5, 10) == RM_ONE
    assert nadic_norm(8, 12) == RM_ONE
    assert nadic_norm(72, 12) == of(12, -1)
    assert nadic_norm(0, 6).is_zero


def test_nadic_norm_matches_scan_oracle():
    rng = random.Random(107)
    for n in (6, 10, 12, 30):
        factors = prime_factors(n)
        for _ in range(60):
            x = Fraction(rng.randint(-2000, 2000), rng.randint(1, 60))
            if x == 0:
                continue
            # largest integer d with x inside n^d * Z localized at n's primes
            d = None
            for cand in range(40, -41, -1):
                if all(_vp(x, p) >= cand * e for p, e in factors.items()):
                    d = cand
                    break
            assert nadic_norm(x, n) == of(n, -d)


def test_nadic_spectral_frozen():
    assert nadic_spectral(12, 6) == of(6, -1)
    assert nadic_spectral(8, 12) == RM_ONE
    assert nadic_spectral(72, 12) == of(12, Fraction(-3, 2))
    assert nadic_spectral(0, 6).is_zero


def test_nadic_spectral_is_the_power_limit():
    rng = random.Random(109)
    for n in (6, 10, 12, 30):
        for _ in range(12):
            x = Fraction(rng.randint(-400, 400), rng.randint(1, 30))
            if x == 0:
                continue
            spec = nadic_spectral(x, n)
            estimates = [nadic_norm(x ** m, n).root(m) for m in (1, 2, 4, 8, 16, 32, 64)]
            for a, b in zip(estimates, estimates[1:]):
                assert b <= a  # squeezes down onto the spectral value
            assert spec <= estimates[-1]
            gap = estimates[-1] * spec.inverse()
            assert gap <= of(n, Fraction(1, 32))


def test_composite_nadic_norm_fails_multiplicativity():
    witnesses = {6: (2, 3), 10: (2, 5), 12: (4, 3), 30: (6, 5)}
    for n, (a, b) in witnesses.items():
        lhs = nadic_norm(a * b, n)
        rhs = nadic_norm(a, n) * nadic_norm(b, n)
        assert lhs != rhs


def test_prime_nadic_norm_is_multiplicative():
    rng = random.Random(113)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            a = Fraction(rng.randint(-300, 300), rng.randint(1, 20))
            b = Fraction(rng.randint(-300, 300), rng.randint(1, 20))
            if a == 0 or b == 0:
                continue
            assert nadic_norm(a * b, p) == nadic_norm(a, p) * nadic_norm(b, p)
            assert nadic_norm(a, p) == nadic_spectral(a, p)


def test_zpoint_limit_check():
    report = zpoint_limit_check(
        lambda r: ZPAdic(5, r),
        [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)],
        [50, 3, 0, -7],
    )
    assert report.monotone
    assert 0 < report.max_deviation < 0.4
    arch = zpoint_limit_check(
        lambda r: ZArch(r),
        [Fraction(1), Fraction(1, 2), Fraction(1, 4)],
        [2, -3],
    )
    assert arch.monotone
    with pytest.raises(DomainError):
        zpoint_limit_check(lambda r: ZPAdic(5, r), [Fraction(1), Fraction(1)], [2])


def test_zpoint_text_roundtrip():
    for text in ("trivial", "p:5,r:1/2", "arch:1/3", "pinf:7"):
        assert format_zpoint(parse_zpoint(text)) == text
    for bad in ("p:4,r:1", "arch:0", "arch:3/2", "pinf:8", "bogus", "p:5"):
        with pytest.raises(ParseError):
            parse_zpoint(bad)
