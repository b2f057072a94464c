"""Dense univariate polynomials over the exact valued fields.

Coefficients are stored low degree first with trailing zeros trimmed,
so structural equality of :class:`Poly` values is equality of
polynomials.  Everything here is exact; the Newton-polygon routines
return magnitude multisets in the same log scale the rest of the
library uses.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
import re

from .errors import MAX_DEGREE, DomainError, Frozen, split_top, top_level
from .exponents import EXP_ZERO, Exponent, Magnitude
from .fields import ValuedField


class Poly(Frozen):
    """A polynomial in T over a fixed valued field.

    A record of ``field`` and ``coeffs``: equal when both are, hashed as
    that pair.  A product over a Puiseux field made by :meth:`product` is
    held on integer keys, as the field's :class:`KeyedRows`, in the
    private slot ``_keyed``: ``degree``, ``is_zero`` and the disc readers
    (:func:`dominant_terms`) read those rows as they are, and ``coeffs``
    is lowered from them on its first read.  Every public value, ``==``,
    ``hash`` and ``repr`` are those of the lowered polynomial.
    """

    __slots__ = ("field", "coeffs")
    _keyed = None  # the KeyedRows of a product held keyed, see _KeyedProduct

    def __init__(self, field: ValuedField, coeffs: tuple):
        _set_field(self, field)
        _set_coeffs(self, coeffs)

    def __repr__(self) -> str:
        return f"Poly(field={self.field!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.field, self.coeffs) == (other.field, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    @staticmethod
    def make(field: ValuedField, coeffs) -> "Poly":
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def product(field: ValuedField, *factors) -> "Poly":
        """The product of one or more coefficient lists, each with a
        nonzero last entry.  Over a Puiseux field it stays on the integer
        keys of the field's ``keyed_product`` until ``coeffs`` is read."""
        keyed_product = getattr(field, "keyed_product", None)
        if keyed_product is None:
            return Poly.make(field, field.mul_coeffs(*factors))
        f = object.__new__(_KeyedProduct)
        _set_field(f, field)
        _set_keyed(f, keyed_product(*factors))
        return f

    @staticmethod
    def constant(field: ValuedField, c) -> "Poly":
        return Poly.make(field, [c])

    @staticmethod
    def variable(field: ValuedField) -> "Poly":
        return Poly.make(field, [field.zero, field.one])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def leading_coefficient(self):
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        k = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(
            k, [k.add(self.coefficient(i), other.coefficient(i)) for i in range(n)]
        )

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        k = self.field
        return Poly(k, tuple([k.neg(c) for c in self.coeffs]))

    def __mul__(self, other: "Poly") -> "Poly":
        """Schoolbook product: the field's ``mul_coeffs`` on two factors (it
        takes one or more), on the Python ints of its base field, Q or F_p;
        Puiseux fields run it on integer exponent keys."""
        k = self.field
        if self.is_zero or other.is_zero:
            return Poly(k, ())
        return Poly.make(k, k.mul_coeffs(self.coeffs, other.coeffs))

    def scale(self, c) -> "Poly":
        k = self.field
        return Poly.make(k, [k.mul(c, a) for a in self.coeffs])

    def evaluate(self, a):
        """``f(a) = g_0`` for ``g = f(T + a)``: the first row of the
        field's sweep, Horner's rule (over Q homogenised on ints), refused
        with :class:`DomainError` past ``errors.MAX_EXACT_BITS``."""
        k = self.field
        return k.taylor_shift_coeffs(self.coeffs, a, 1)[0] if self.coeffs else k.zero

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading_coefficient()))

    def __str__(self) -> str:
        return format_poly(self)


class _KeyedProduct(Poly):
    """A :class:`Poly` made by :meth:`Poly.product` over a Puiseux field,
    with ``coeffs`` left unset until it is read.  Only this class has a
    ``__getattr__``: on CPython 3.11 a class with one reads each of its
    slots about four times slower (the read is not specialised), so a
    polynomial built with its coefficients pays nothing for it."""

    __slots__ = ("_keyed",)

    @property
    def degree(self) -> int:
        return len(self._keyed[1]) - 1

    @property
    def is_zero(self) -> bool:
        return not self._keyed[1]

    def __getattr__(self, name):
        if name != "coeffs":
            raise AttributeError(name)
        coeffs = tuple(self.field.lower_keyed(self._keyed))
        _set_coeffs(self, coeffs)
        return coeffs


_set_field = Poly.field.__set__
_set_coeffs = Poly.coeffs.__set__
_set_keyed = _KeyedProduct._keyed.__set__


def taylor_shift(f: Poly, a) -> Poly:
    """Expand ``f`` around ``a``: the polynomial ``g`` with g(T) = f(T + a).

    The field runs the classic synthetic-division sweep (von zur Gathen
    and Gerhard, *Modern Computer Algebra*, ch. 10): ``a`` is folded in
    one row at a time, so the cost is quadratic in the degree with no
    binomials, and row 0 alone is :meth:`Poly.evaluate`.  It runs on the
    Python ints of the base field, over Q with the denominators cleared
    and over F_p reduced mod ``p``; Puiseux fields run it on integer
    exponent keys.
    Callers that only need ``f`` on a disc ``E(a, r)`` should use
    :func:`disc_expansion`, which shifts by a trimmed center.
    """
    k = f.field
    return Poly.make(k, k.taylor_shift_coeffs(f.coeffs, a, len(f.coeffs)))


def disc_expansion(f: Poly, a, r: Magnitude) -> Poly:
    """``f`` expanded around a center of the disc ``E(a, r)``.

    Trimming lemma: ``E(a, r) = E(a', r)`` whenever ``|a - a'| <= r``,
    and everything this library reads off an expansion on a disc (the
    seminorm ``max |g_i| r**i``, root counts, the dominant term and the
    residue polynomial up to translation) depends on the disc alone.
    So the shift uses ``trim_center(a, r)``, which drops the part of
    ``a`` of size at most ``r``; when nothing is left no shift runs.
    """
    k = f.field
    a = k.trim_center(a, r)
    return f if k.is_zero(a) else taylor_shift(f, a)


def dominant_terms(f: Poly, a, r: Magnitude):
    """``(e_min, dominant, lowest)`` for ``f`` on the disc ``E(a, r)``,
    with ``g`` the expansion of :func:`disc_expansion`: the least
    exponent ``e_min = min(v(g_i) + i*e_r)`` (``rho**e_min`` is the Gauss
    norm ``max |g_i| * r**i``), the ascending indices that attain it, and
    for each of them a lowest term of ``g_i``, an element with the
    valuation and the leading residue of ``g_i``.

    The largest dominant index is the number of roots in the disc, and
    a type-2 residue polynomial is zero off the dominant indices and the
    leading residue of ``g_i`` on them.  For ``r = 0`` the one dominant
    index is the first nonzero one, the limit of small radii, and
    ``e_min`` is ``None`` unless it is 0; it is ``None`` for ``f = 0``.

    ``g`` itself is not built: the field's ``lowest_terms`` runs the
    shift by the trimmed center and gives each row's valuation, and only
    the dominant rows are lowered, to their lowest term.
    """
    k = f.field
    vals, lowest = k.lowest_terms(f.coeffs if f._keyed is None else f._keyed, k.trim_center(a, r))
    if r.is_zero:
        for i, v in enumerate(vals):
            if v is not None:
                return (v if i == 0 else None), (i,), (lowest(i),)
        return None, (), ()
    e_min, dominant = None, []
    e_r = r.exponent
    ie_r = EXP_ZERO  # i*e_r, by one addition per step
    for i, v in enumerate(vals):
        if v is not None:
            e = v + ie_r
            if e_min is None or e < e_min:
                e_min, dominant = e, [i]
            elif e == e_min:
                dominant.append(i)
        ie_r = ie_r + e_r
    return e_min, tuple(dominant), tuple([lowest(i) for i in dominant])


def derivative(f: Poly) -> Poly:
    return hasse_derivative(f, 1)  # C(n, 1) = n


def hasse_derivative(f: Poly, i: int) -> Poly:
    """The i-th Hasse derivative: sum of C(n, i) c_n T^(n-i).

    Dividing the iterated derivative by i! is folded into the binomial,
    so the operation stays meaningful in positive characteristic, where
    the plain derivative can vanish without the polynomial being
    constant.
    """
    if i < 0:
        raise DomainError("Hasse derivative index must be non-negative")
    k = f.field
    out = [
        k.mul(k.from_int(comb(n, i)), f.coeffs[n])
        for n in range(i, len(f.coeffs))
    ]
    return Poly.make(k, out)


# ---------------------------------------------------------------------
# Newton polygon


def newton_slopes(f: Poly) -> tuple:
    """Multiset of root magnitudes, smallest first, from the lower hull.

    Zero roots are read off the T-adic valuation and reported as zero
    magnitudes; each finite hull segment of slope s and horizontal
    length L contributes L roots of magnitude ``rho**(-s)``.
    """
    if f.is_zero:
        raise DomainError("the zero polynomial has no root data")
    k = f.field
    v0 = 0
    while k.is_zero(f.coeffs[v0]):
        v0 += 1
    mags = [Magnitude.zero()] * v0
    # valuations of field elements are rational on every backend
    pts = [
        (i - v0, k.valuation(f.coeffs[i]).exponent.a)
        for i in range(v0, len(f.coeffs))
        if not k.is_zero(f.coeffs[i])
    ]
    hull = _lower_hull(pts)
    for (i1, e1), (i2, e2) in zip(hull, hull[1:]):
        slope = Fraction(e2 - e1, i2 - i1)
        mags.extend([Magnitude.finite(Exponent(-slope))] * (i2 - i1))
    return tuple(sorted(mags))


def _lower_hull(pts):
    """Lower convex hull by a monotone sweep; input is sorted by x."""
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def count_roots_in_disc(f: Poly, a, r: Magnitude) -> int:
    """Number of roots (with multiplicity) with ``|root - a| <= r``.

    This is the Weierstrass degree of ``f`` on ``E(a, r)``: the largest
    index of :func:`dominant_terms`, which for ``r = 0`` is the order of
    ``f`` at ``a``.  :func:`newton_slopes` gives the same count from the
    whole lower hull.
    """
    if f.is_zero:
        raise DomainError("the zero polynomial has no root data")
    return dominant_terms(f, a, r)[1][-1]


# ---------------------------------------------------------------------
# Division, gcd, squarefree structure.  These need coefficient
# inverses, so they are meant for residue and base fields (where every
# nonzero element is invertible); over Puiseux coefficients they work
# exactly when the divisions encountered stay monomial.


def poly_divmod(f: Poly, g: Poly):
    if g.is_zero:
        raise DomainError("polynomial division by zero")
    k = f.field
    lead_inv = k.inv(g.leading_coefficient())
    rem = list(f.coeffs)
    dq = len(f.coeffs) - len(g.coeffs)
    if dq < 0:
        return Poly(k, ()), f
    quo = [k.zero] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + g.degree]
        if k.is_zero(c):
            continue
        q = k.mul(c, lead_inv)
        quo[i] = q
        for j, b in enumerate(g.coeffs):
            rem[i + j] = k.sub(rem[i + j], k.mul(q, b))
    return Poly.make(k, quo), Poly.make(k, rem)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    while not g.is_zero:
        f, g = g, poly_divmod(f, g)[1]
    if f.is_zero:
        return f
    return f.monic()


def _exact_div(f: Poly, g: Poly) -> Poly:
    q, r = poly_divmod(f, g)
    if not r.is_zero:
        raise DomainError("division was expected to be exact")
    return q


def _deflate(f: Poly, p: int) -> Poly:
    k = f.field
    if any(
        i % p != 0 and not k.is_zero(c) for i, c in enumerate(f.coeffs)
    ):
        raise DomainError("polynomial is not a p-th power in T")
    return Poly.make(k, [f.coeffs[i] for i in range(0, len(f.coeffs), p)])


def squarefree_decomposition(f: Poly):
    """Pairs ``(g, e)`` with the ``g`` monic, squarefree, pairwise coprime
    and ``f = lc(f) * prod g**e``.

    The characteristic-p wrinkle (vanishing derivatives) is handled by
    deflating T^p and scaling multiplicities, which is valid over the
    prime and rational residue fields used here because both are
    perfect.
    """
    if f.degree < 1:
        return []
    d = derivative(f)
    if d.is_zero:
        p = f.field.char
        if p == 0:
            raise DomainError("constant derivative in characteristic zero")
        return [(g, p * e) for g, e in squarefree_decomposition(_deflate(f, p))]
    parts = []
    g0 = poly_gcd(f, d)
    w = _exact_div(f.monic(), g0)
    i = 1
    while w.degree >= 1:
        y = poly_gcd(w, g0)
        z = _exact_div(w, y)
        if z.degree >= 1:
            parts.append((z.monic(), i))
        w = y
        g0 = _exact_div(g0, y)
        i += 1
    if g0.degree >= 1:
        parts.extend(squarefree_decomposition(g0))
    return sorted(parts, key=lambda pair: (pair[1], pair[0].degree))


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of ``f``."""
    if f.degree < 0:
        raise DomainError("the zero polynomial has no squarefree part")
    out = Poly.constant(f.field, f.field.one)
    for g, _ in squarefree_decomposition(f):
        out = out * g
    return out.monic() if out.degree >= 1 else out


def is_constant_times_square(f: Poly) -> bool:
    """Is ``f`` a nonzero constant times a square (multiplicities all even)?"""
    if f.is_zero:
        raise DomainError("zero polynomial")
    return all(e % 2 == 0 for _, e in squarefree_decomposition(f))


# ---------------------------------------------------------------------
# Text form: "c_k*T^k + ... + c_0" with compound coefficients in
# parentheses.  The variable of the polynomial level is always the
# capital T; a lowercase t inside a coefficient belongs to the Puiseux
# backend.

_TERM_RE = re.compile(r"^(?:(?P<coef>.+)\*)?T(?:\^(?P<k>\d+))?$")

def _wrap(text: str) -> str:
    """A coefficient's text as the factor of a term: in parentheses when
    it is a sum of several terms."""
    return f"({text})" if len(split_top(text, "+-", "polynomial", text)) > 1 else text


def _unwrap(text: str, original: str) -> str:
    """``text`` without the parentheses that enclose all of it."""
    while text[:1] == "(" and top_level(text, "polynomial", original) == [0, len(text) - 1]:
        text = text[1:-1]
    return text


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    k = f.field
    parts = []
    one = k.format_element(k.one)
    for i in range(f.degree, -1, -1):
        c = f.coefficient(i)
        if k.is_zero(c):
            continue
        ctext = _wrap(k.format_element(c))
        if i == 0:
            parts.append(ctext)
        else:
            tpow = "T" if i == 1 else f"T^{i}"
            parts.append(tpow if ctext == one else f"{ctext}*{tpow}")
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-") and not part.startswith("(-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def parse_poly(field: ValuedField, text: str) -> Poly:
    coeffs: dict = {}
    for term in split_top("".join(text.split()), "+-", "polynomial", text):
        k, c = _parse_poly_term(field, term, text)
        coeffs[k] = field.add(coeffs.get(k, field.zero), c)
    degree = max(coeffs) if coeffs else 0
    return Poly.make(field, [coeffs.get(i, field.zero) for i in range(degree + 1)])


def _parse_degree(digits) -> int:
    if digits is None:
        return 1
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        raise DomainError(f"polynomial degree above the limit {MAX_DEGREE}")
    return int(digits)


def _parse_poly_term(field: ValuedField, term: str, original: str):
    neg = False
    if term.startswith("-"):
        neg, term = True, term[1:]
    m = _TERM_RE.match(term)
    if m:
        k = _parse_degree(m.group("k"))
        coef_text = m.group("coef")
        c = field.one if coef_text is None else field.parse_element(_unwrap(coef_text, original))
    else:
        k = 0
        c = field.parse_element(_unwrap(term, original))
    if neg:
        c = field.neg(c)
    return k, c
