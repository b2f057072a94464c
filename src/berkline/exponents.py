"""Exact log-scale arithmetic for magnitudes and disc radii.

Every non-archimedean magnitude handled by this library is written as
``rho**e`` for a fixed but unspecified base ``rho`` in (0, 1).  Only the
exponent ``e`` is stored, as an element of the group Q + Q*sqrt(2).  The
rational part covers every value a coefficient field can produce; the
sqrt(2) part supplies radii that are multiplicatively independent from
all of them, which is exactly what separates the two kinds of disc
points on the line.

Because ``rho < 1``, the order on magnitudes is the reverse of the order
on exponents: a larger exponent means a smaller magnitude, and the zero
magnitude sits below everything.  All comparisons reduce to exact
rational sign tests; no floating point enters any decision.
"""

from __future__ import annotations

import re
from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm, sqrt
from typing import Optional, Union

from .errors import DomainError, Frozen, ParseError, read_literal


class Ordering(IntEnum):
    LT = -1
    EQ = 0
    GT = 1


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected a rational, got {type(v).__name__}")


def _sign2(x: int, y: int) -> int:
    """Exact sign of ``x + y*sqrt(2)`` for integers ``x`` and ``y``.

    When the two have opposite signs the result hinges on whether
    ``x*x`` beats ``2*y*y``; this is the only place where irrationality
    of sqrt(2) matters (the two squares can tie only at zero).
    """
    if y == 0:
        return (x > 0) - (x < 0)
    if x >= 0 and y > 0:
        return 1
    if x <= 0 and y < 0:
        return -1
    if x > 0:  # y < 0: positive iff x > -y*sqrt(2) iff x^2 > 2 y^2
        return 1 if x * x > 2 * y * y else -1
    return 1 if 2 * y * y > x * x else -1  # x < 0, y > 0


def _cmp(e1: "Exponent", e2: "Exponent") -> int:
    """Sign of ``e1 - e2``, computed on the stored integers alone.

    Both values are ``(n + m*sqrt(2)) / d`` with ``d > 0``, so over the
    common positive denominator ``d1*d2`` the sign of the difference is
    the sign of the difference of the numerator pairs.
    """
    d1, d2 = e1._d, e2._d
    if d1 == d2:
        return _sign2(e1._n - e2._n, e1._m - e2._m)
    return _sign2(e1._n * d2 - e2._n * d1, e1._m * d2 - e2._m * d1)


def _make(n: int, m: int, d: int) -> "Exponent":
    """The exponent ``(n + m*sqrt(2)) / d`` for ``d > 0``, reduced."""
    if d != 1:
        g = gcd(n, m, d)
        if g != 1:
            n, m, d = n // g, m // g, d // g
    e = _new(Exponent)
    e._n, e._m, e._d = n, m, d
    return e


class Exponent:
    """The real number ``a + b*sqrt(2)`` with ``a``, ``b`` exact rationals.

    Stored as three ints ``(n, m, d)`` with ``a = n/d``, ``b = m/d``,
    ``d > 0`` and ``gcd(n, m, d) = 1``, so every value has one form and
    arithmetic and comparisons run on ints without building fractions.
    ``a`` and ``b`` are read-only :class:`Fraction` views.  Instances are
    immutable values in the sense of :class:`Fraction` (whose private
    slots are likewise only written on construction); arithmetic returns
    new objects.  The total order agrees with the real-number order and
    is decided by the sign rule in :meth:`sign`, never by floats.
    """

    __slots__ = ("_n", "_m", "_d")

    def __init__(self, a, b=0):
        if type(a) is int and type(b) is int:
            self._n, self._m, self._d = a, b, 1
            return
        a, b = _as_fraction(a), _as_fraction(b)
        da, db = a.denominator, b.denominator
        d = lcm(da, db)
        # a and b are in lowest terms, so no prime divides all of
        # n, m and d = lcm(da, db): the triple is already reduced
        self._n = a.numerator * (d // da)
        self._m = b.numerator * (d // db)
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._n, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._m, self._d)

    def __repr__(self) -> str:
        return f"Exponent(a={self.a!r}, b={self.b!r})"

    def __eq__(self, other):
        if other.__class__ is not Exponent:
            return NotImplemented
        return self._n == other._n and self._m == other._m and self._d == other._d

    def __hash__(self) -> int:
        # equal to hash((a, b)); a Fraction with denominator 1 hashes as its int
        if self._d == 1:
            return hash((self._n, self._m))
        return hash((self.a, self.b))

    # -- group structure ----------------------------------------------

    def __add__(self, other: "Exponent") -> "Exponent":
        if not isinstance(other, Exponent):
            return NotImplemented  # lets INF.__radd__ absorb the sum
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._n + other._n, self._m + other._m, d1)
        return _make(self._n * d2 + other._n * d1, self._m * d2 + other._m * d1, d1 * d2)

    def __sub__(self, other: "Exponent") -> "Exponent":
        if not isinstance(other, Exponent):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._n - other._n, self._m - other._m, d1)
        return _make(self._n * d2 - other._n * d1, self._m * d2 - other._m * d1, d1 * d2)

    def __neg__(self) -> "Exponent":
        e = _new(Exponent)
        e._n, e._m, e._d = -self._n, -self._m, self._d
        return e

    def scale(self, q) -> "Exponent":
        """Multiply by an exact rational scalar."""
        q = _as_fraction(q)
        return _make(self._n * q.numerator, self._m * q.numerator, self._d * q.denominator)

    def __abs__(self) -> "Exponent":
        return -self if self.sign() < 0 else self

    # -- order ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of ``a + b*sqrt(2)``, which is the sign of
        ``n + m*sqrt(2)`` because ``d > 0``; see :func:`_sign2`."""
        return _sign2(self._n, self._m)

    def is_rational(self) -> bool:
        return self._m == 0

    def __lt__(self, other: "Exponent") -> bool:
        if not isinstance(other, Exponent):
            return NotImplemented
        return _cmp(self, other) < 0

    def __le__(self, other: "Exponent") -> bool:
        if not isinstance(other, Exponent):
            return NotImplemented
        return _cmp(self, other) <= 0

    def __gt__(self, other: "Exponent") -> bool:
        if not isinstance(other, Exponent):
            return NotImplemented
        return _cmp(self, other) > 0

    def __ge__(self, other: "Exponent") -> bool:
        if not isinstance(other, Exponent):
            return NotImplemented
        return _cmp(self, other) >= 0

    def to_float(self) -> float:
        """Display-only float image; never used in comparisons."""
        return self._n / self._d + self._m / self._d * sqrt(2.0)

    def __str__(self) -> str:
        return format_exponent(self)


_new = object.__new__

EXP_ZERO = Exponent(0)
EXP_ONE = Exponent(1)


def exp_compare(e1: Exponent, e2: Exponent) -> Ordering:
    """Exact comparison of two exponents as real numbers."""
    if not (isinstance(e1, Exponent) and isinstance(e2, Exponent)):
        raise TypeError("exp_compare needs two exponents")
    return Ordering(_cmp(e1, e2))


# ---------------------------------------------------------------------
# Magnitudes


class Magnitude(Frozen):
    """Zero, or the positive real ``rho**exponent`` with ``rho`` in (0, 1).

    ``exponent is None`` encodes the zero magnitude.  Multiplication adds
    exponents (zero is absorbing); comparisons invert the exponent order
    because the base is below one.  ``Magnitude.unit()`` is ``rho**0``.
    Equal magnitudes have equal exponents, and hash as ``(exponent,)``.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: Optional[Exponent]):
        _set_exponent(self, exponent)

    def __repr__(self) -> str:
        return f"Magnitude(exponent={self.exponent!r})"

    def __eq__(self, other):
        if other.__class__ is not Magnitude:
            return NotImplemented
        return self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.exponent,))

    @staticmethod
    def zero() -> "Magnitude":
        return Magnitude(None)

    @staticmethod
    def finite(e: Exponent) -> "Magnitude":
        if not isinstance(e, Exponent):
            e = Exponent(e)
        return Magnitude(e)

    @staticmethod
    def unit() -> "Magnitude":
        return Magnitude(EXP_ZERO)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __mul__(self, other: "Magnitude") -> "Magnitude":
        if self.is_zero or other.is_zero:
            return Magnitude.zero()
        return Magnitude(self.exponent + other.exponent)

    def __pow__(self, k: int) -> "Magnitude":
        if self.is_zero:
            if k <= 0:
                raise DomainError("zero magnitude has no non-positive powers")
            return self
        return Magnitude(self.exponent.scale(k))

    def root(self, n: int) -> "Magnitude":
        if n < 1:
            raise DomainError("root index must be a positive integer")
        if self.is_zero:
            return self
        return Magnitude(self.exponent.scale(Fraction(1, n)))

    def __lt__(self, other: "Magnitude") -> bool:
        e1, e2 = self.exponent, other.exponent
        if e1 is None:
            return e2 is not None
        if e2 is None:
            return False
        return _cmp(e1, e2) > 0  # rho < 1 inverts the order

    def __le__(self, other: "Magnitude") -> bool:
        e1, e2 = self.exponent, other.exponent
        if e1 is None:
            return True
        if e2 is None:
            return False
        return _cmp(e1, e2) >= 0

    def __gt__(self, other: "Magnitude") -> bool:
        return other < self

    def __ge__(self, other: "Magnitude") -> bool:
        return other <= self

    def __str__(self) -> str:
        return format_magnitude(self)


_set_exponent = Magnitude.exponent.__set__

MAG_ZERO = Magnitude.zero()
MAG_ONE = Magnitude.unit()


# rho**v for the integers |v| <= _INTERNED, filled on first use: the
# values p-adic valuations take, shared instead of rebuilt per call.
# Magnitudes are immutable, so sharing shows only through ``is``.
_INTERNED = 256
_INT_MAGS: dict = {}


def int_magnitude(v: int) -> Magnitude:
    """``rho**v`` for an integer ``v``; one shared instance per small ``v``."""
    m = _INT_MAGS.get(v)
    if m is None:
        m = Magnitude(Exponent(v))
        if -_INTERNED <= v <= _INTERNED:
            _INT_MAGS[v] = m
    return m


def mag_max(*ms: Magnitude) -> Magnitude:
    best = ms[0]
    for m in ms[1:]:
        if m > best:
            best = m
    return best


def is_rational_over_value_group(m: Magnitude, gen: Exponent) -> bool:
    """Does some positive integer power of ``m`` land in the value group?

    ``gen`` is the group's generating exponent (0 for a trivially valued
    field, 1 for the standard p-adic and Puiseux normalizations).  The
    value group is divisible in the Puiseux case and cyclic in the
    p-adic case, but for this question only two facts matter: rational
    exponents are commensurable with any nonzero rational generator, and
    nothing with a sqrt(2) component ever is.
    """
    if not gen.is_rational():
        raise DomainError("value-group generator must be rational")
    if m.is_zero:
        raise DomainError("zero magnitude is not a radius")
    e = m.exponent
    if gen.sign() == 0:
        return e.sign() == 0 and e.is_rational()
    return e.is_rational()


# ---------------------------------------------------------------------
# Lengths: exponents extended by a single point at +infinity, used for
# path lengths and leaf edges of skeleton graphs.


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("berkline-infinite-length")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self


INF = _Infinity()

Length = Union[Exponent, _Infinity]


def add_lengths(*xs: Length) -> Length:
    total: Length = EXP_ZERO
    for x in xs:
        if x is INF or total is INF:
            return INF
        total = total + x
    return total


def format_length(x: Length) -> str:
    return "inf" if x is INF else format_exponent(x)


# ---------------------------------------------------------------------
# Text forms.  Canonical emission is "a" when b == 0 and "a+b*s2" (with
# the sign of b folded into the separator) otherwise; parsing accepts
# exactly those shapes, with ``a`` and ``b`` rational literals and
# whitespace ignored.

_EXP_RE = re.compile(r"(?P<a>-?[^-+]+)(?:(?P<sign>[+-])(?P<b>[^-+]+)\*s2)?")


def format_exponent(e: Exponent) -> str:
    if e.is_rational():
        return str(e.a)
    if e.b > 0:
        return f"{e.a}+{e.b}*s2"
    return f"{e.a}-{-e.b}*s2"


def parse_exponent(text: str) -> Exponent:
    m = _EXP_RE.fullmatch("".join(text.split()))
    if not m:
        raise ParseError("exponent", text)
    a = read_literal(m.group("a"), "exponent", text)
    if m.group("b") is None:
        return Exponent(a)
    b = read_literal(m.group("b"), "exponent", text)
    return Exponent(a, -b if m.group("sign") == "-" else b)


def format_magnitude(m: Magnitude) -> str:
    if m.is_zero:
        return "0"
    return f"rho^({format_exponent(m.exponent)})"
