"""Real semivaluations on the integers and n-adic norms on the rationals.

The points here follow Ostrowski's list: the trivial norm, powers of
p-adic norms, powers of the usual absolute value, and the degenerate
quotient seminorms that kill one prime.  Values are archimedean-sized
reals, so they get their own exact magnitude type (`RealMag`) instead of
the log-scale `Magnitude` used on the non-archimedean side: a value is
stored as ``base ** exp`` with rational base and exponent, and
comparisons cross-power to a common integer exponent so that no floats
enter any decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

from .errors import (  # the rho budgets are read through these names at call time
    _RHO_STEPS, _TRIAL_BOUND, DomainError, ParseError, _is_prime, _vp, _vp_int, read_literal,
    record,
)
from .exponents import Ordering


# ---------------------------------------------------------------------
# Exact archimedean-capable magnitudes


@record
class RealMag:
    """``base ** exp`` with positive rational base, or zero.

    The base is kept as constructed (5 ** 0 stays base 5) so printed
    output reflects where the value came from; equality is semantic.
    """

    base: Optional[Fraction]
    exp: Optional[Fraction]

    @staticmethod
    def zero() -> "RealMag":
        return RealMag(None, None)

    @staticmethod
    def of(base, exp) -> "RealMag":
        b = Fraction(base)
        if b <= 0:
            raise DomainError("magnitude base must be positive")
        return RealMag(b, Fraction(exp))

    @property
    def is_zero(self) -> bool:
        return self.base is None

    def compare(self, other: "RealMag") -> Ordering:
        if self.is_zero and other.is_zero:
            return Ordering.EQ
        if self.is_zero:
            return Ordering.LT
        if other.is_zero:
            return Ordering.GT
        # Raise both sides to the lcm of the exponent denominators;
        # x -> x**L is monotone on positives, and both sides become
        # plain rationals.
        L = math.lcm(self.exp.denominator, other.exp.denominator)
        left = self.base ** int(self.exp * L)
        right = other.base ** int(other.exp * L)
        if left < right:
            return Ordering.LT
        if left > right:
            return Ordering.GT
        return Ordering.EQ

    def __eq__(self, other):
        if not isinstance(other, RealMag):
            return NotImplemented
        return self.compare(other) is Ordering.EQ

    def __lt__(self, other):
        return self.compare(other) is Ordering.LT

    def __le__(self, other):
        return self.compare(other) is not Ordering.GT

    def __gt__(self, other):
        return self.compare(other) is Ordering.GT

    def __ge__(self, other):
        return self.compare(other) is not Ordering.LT

    def __mul__(self, other: "RealMag") -> "RealMag":
        if self.is_zero or other.is_zero:
            return RealMag.zero()
        if self.base == other.base:
            return RealMag(self.base, self.exp + other.exp)
        if self.exp == other.exp:
            return RealMag(self.base * other.base, self.exp)
        # Incommensurate shapes: collapse to an L-th root of an exact
        # rational, which is still display-faithful.
        L = math.lcm(self.exp.denominator, other.exp.denominator)
        v = self.base ** int(self.exp * L) * other.base ** int(other.exp * L)
        return RealMag(Fraction(v), Fraction(1, L))

    def __pow__(self, k: int) -> "RealMag":
        if self.is_zero:
            if k <= 0:
                raise DomainError("zero magnitude has no nonpositive powers")
            return self
        return RealMag(self.base, self.exp * k)

    def inverse(self) -> "RealMag":
        if self.is_zero:
            raise DomainError("zero magnitude has no inverse")
        return RealMag(self.base, -self.exp)

    def root(self, n: int) -> "RealMag":
        if n <= 0:
            raise DomainError("root order must be positive")
        if self.is_zero:
            return self
        return RealMag(self.base, self.exp / n)

    def to_float(self) -> float:
        """Display-only; every decision in this module is exact."""
        if self.is_zero:
            return 0.0
        return float(self.base) ** float(self.exp)

    def __str__(self):
        if self.is_zero:
            return "0"
        return f"{self.base}^({self.exp})"


RM_ONE = RealMag.of(1, 0)


# ---------------------------------------------------------------------
# Points of the spectrum of the integers


@record
class ZTrivial:
    pass


@record
class ZPAdic:
    p: int
    r: Fraction

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r <= 0:
            raise DomainError("p-adic branch parameter must be positive")


@record
class ZArch:
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if not 0 < self.r <= 1:
            raise DomainError("archimedean branch parameter must lie in (0, 1]")


@record
class ZPAdicInfty:
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")


ZPoint = Union[ZTrivial, ZPAdic, ZArch, ZPAdicInfty]


def zpoint_eval(x: ZPoint, m: int) -> RealMag:
    if m == 0:
        return RealMag.zero()
    if isinstance(x, ZTrivial):
        return RM_ONE
    if isinstance(x, ZPAdic):
        return RealMag.of(x.p, -x.r * _vp_int(abs(m), x.p))
    if isinstance(x, ZArch):
        return RealMag.of(abs(m), x.r)
    if m % x.p == 0:
        return RealMag.zero()
    return RM_ONE


def zpoint_is_multiplicative_on(x: ZPoint, pairs: Sequence[Tuple[int, int]]) -> bool:
    for a, b in pairs:
        if zpoint_eval(x, a * b) != zpoint_eval(x, a) * zpoint_eval(x, b):
            return False
    return True


# ---------------------------------------------------------------------
# n-adic norms on the rationals


def _rho_factor(n: int) -> int:
    """A proper factor of the composite ``n`` (no factor below
    ``_TRIAL_BOUND``), by Brent's variant of Pollard's rho.

    Raises :class:`DomainError` when ``_RHO_STEPS`` steps of the
    pseudo-random walk find none."""
    budget, c = _RHO_STEPS, 0
    while budget > 0:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            budget -= 2 * r
            r *= 2
        if g == n:  # the last batch hit every factor: retrace it
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise DomainError(f"no factor of {n} found within {_RHO_STEPS} rho steps")


def prime_factors(n: int) -> dict:
    """``{p: e}`` with ``n = prod p**e``, primes ascending.

    Trial division runs only up to a small bound.  Each cofactor left
    is tested with the deterministic ``_is_prime`` and, when composite,
    split by Pollard's rho.  A cofactor at or above ``PRIME_LIMIT``, or
    one the rho step budget cannot split, raises :class:`DomainError`
    instead of searching on."""
    if n < 2:
        raise DomainError("factorization needs an integer of size at least 2")
    out: dict = {}
    m, p = n, 2
    while p < _TRIAL_BOUND and p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    pending = [m] if m > 1 else []
    while pending:
        c = pending.pop()
        if _is_prime(c):
            out[c] = out.get(c, 0) + 1
        else:
            d = _rho_factor(c)
            pending += [d, c // d]
    return dict(sorted(out.items()))


def nadic_norm(x, n: int) -> RealMag:
    """``n ** d`` with d minimal such that x * n**d has no prime of n
    left in its denominator.  Minimality unwinds to a single ceiling:
    d is the ceiling of the exponent of :func:`nadic_spectral`."""
    s = nadic_spectral(x, n)
    return s if s.is_zero else RealMag.of(n, math.ceil(s.exp))


def nadic_spectral(x, n: int) -> RealMag:
    """The limit of nadic_norm(x**m) ** (1/m): ``n ** d`` with
    d = max over p | n of -v_p(x)/e_p."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("the norm index must be an integer of size at least 2")
    x = Fraction(x)
    if x == 0:
        return RealMag.zero()
    need = max(Fraction(-_vp(x, p), e) for p, e in prime_factors(n).items())
    return RealMag.of(n, need)


# ---------------------------------------------------------------------
# Convergence reports along a branch


@record
class LimitReport:
    """Exact monotonicity verdicts plus a display-only deviation."""

    radii: Tuple[Fraction, ...]
    samples: Tuple[int, ...]
    monotone: bool
    max_deviation: float


def _deviation(v: RealMag) -> RealMag:
    return v if v >= RM_ONE else v.inverse()


def zpoint_limit_check(
    family: Callable[[Fraction], ZPoint],
    radii: Sequence[Fraction],
    samples: Sequence[int],
) -> LimitReport:
    """Track |m| along the branch as the parameter shrinks to 0.

    Checks exactly that each nonzero sample's deviation from 1 is weakly
    decreasing along the given radii (which must be strictly
    decreasing), and reports the largest remaining deviation at the
    smallest radius as a float for display.
    """
    rs = [Fraction(r) for r in radii]
    if len(rs) < 2 or any(not rs[i] > rs[i + 1] for i in range(len(rs) - 1)):
        raise DomainError("radii must strictly decrease toward 0")
    monotone = True
    worst = 0.0
    for m in samples:
        if m == 0:
            continue
        values = [zpoint_eval(family(r), m) for r in rs]
        devs = [_deviation(v) for v in values]
        for a, b in zip(devs, devs[1:]):
            if not b <= a:
                monotone = False
        worst = max(worst, abs(values[-1].to_float() - 1.0))
    return LimitReport(tuple(rs), tuple([int(m) for m in samples]), monotone, worst)


# ---------------------------------------------------------------------
# Text forms


def format_zpoint(x: ZPoint) -> str:
    if isinstance(x, ZTrivial):
        return "trivial"
    if isinstance(x, ZPAdic):
        return f"p:{x.p},r:{x.r}"
    if isinstance(x, ZArch):
        return f"arch:{x.r}"
    return f"pinf:{x.p}"


def parse_zpoint(text: str) -> ZPoint:
    s = "".join(text.split())
    try:
        if s == "trivial":
            return ZTrivial()
        if s.startswith("p:"):
            body = s[2:]
            if ",r:" not in body:
                raise ParseError("zpoint", text, "expected p:<prime>,r:<rational>")
            p_text, r_text = body.split(",r:", 1)
            return ZPAdic(
                read_literal(p_text, "zpoint", text, integer=True),
                read_literal(r_text, "zpoint", text),
            )
        if s.startswith("arch:"):
            return ZArch(read_literal(s[5:], "zpoint", text))
        if s.startswith("pinf:"):
            return ZPAdicInfty(read_literal(s[5:], "zpoint", text, integer=True))
    except DomainError as exc:
        raise ParseError("zpoint", text, str(exc)) from None
    raise ParseError("zpoint", text)
