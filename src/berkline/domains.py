"""Affinoid subsets of the line cut out by finitely many inequalities.

A domain is a conjunction of conditions ``|f(x)| <= r * |g(x)|`` (or
``>=``); membership is decided exactly through seminorm evaluation.
Three familiar shapes get first-class treatment (closed discs, closed
annuli, discs with open holes removed) because their Shilov boundaries
are finite explicit sets of disc points; arbitrary inequality lists
support membership only.

The classification tag is syntactic on purpose: it reports how the
domain is presented, not the finest class its underlying set lies in.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Tuple, Union

from .errors import DomainError, ParseError, read_pair, record, split_top
from .exponents import Magnitude, format_exponent, format_magnitude, mag_max, parse_exponent
from .fields import ValuedField
from .line import ChainPoint, DiscPoint, Point, _anchor, _join_radius, eval_seminorm, point_eq
from .polynomials import Poly, format_poly, parse_poly


class Rel(Enum):
    LEQ = "<="
    GEQ = ">="


def _is_one(p: Poly) -> bool:
    k = p.field
    return p.degree == 0 and k.is_zero(k.sub(p.coefficient(0), k.one))


@record
class Inequality:
    """``|f(x)| rel bound * |g(x)|``."""

    f: Poly
    g: Poly
    bound: Magnitude
    rel: Rel

    def __post_init__(self):
        if self.bound.is_zero:
            raise DomainError("inequality bounds must be positive magnitudes")
        if self.f.field != self.g.field:
            raise DomainError("inequality sides live over different fields")

    def holds_at(self, x: Point) -> bool:
        lhs = eval_seminorm(self.f, x)
        rhs = self.bound * eval_seminorm(self.g, x)
        return lhs <= rhs if self.rel is Rel.LEQ else lhs >= rhs


class DomainClass(Enum):
    EVERYTHING = "everything"
    WEIERSTRASS = "weierstrass"
    LAURENT = "laurent"
    RATIONAL = "rational"
    GENERAL = "general"


@record
class Domain:
    """Conjunction of inequalities; the empty conjunction is the whole
    line.  The no-common-zero hypothesis behind the rational class is
    recorded by the tag, not verified; a violation just yields a domain
    with fewer points than the name suggests."""

    inequalities: Tuple[Inequality, ...] = ()

    def __post_init__(self):
        fields = {iq.f.field for iq in self.inequalities}
        if len(fields) > 1:
            raise DomainError("all inequalities must share one coefficient field")

    @staticmethod
    def everything() -> "Domain":
        return Domain(())

    @property
    def is_everything(self) -> bool:
        return not self.inequalities

    def classify(self) -> DomainClass:
        if self.is_everything:
            return DomainClass.EVERYTHING
        all_leq = all(iq.rel is Rel.LEQ for iq in self.inequalities)
        if all_leq and all(_is_one(iq.g) for iq in self.inequalities):
            return DomainClass.WEIERSTRASS
        if all(_is_one(iq.g) or _is_one(iq.f) for iq in self.inequalities):
            return DomainClass.LAURENT
        shared = {iq.g.coeffs for iq in self.inequalities}
        if all_leq and len(shared) == 1:
            return DomainClass.RATIONAL
        return DomainClass.GENERAL


def member(x: Point, d: Domain) -> bool:
    """Exact for honest points; for chains the verdict uses the
    innermost listed disc and may differ from the limit point's."""
    return all(iq.holds_at(x) for iq in d.inequalities)


def domain_intersect(d1: Domain, d2: Domain) -> Domain:
    return Domain(d1.inequalities + d2.inequalities)


# ---------------------------------------------------------------------
# Standard shapes with explicit Shilov boundaries


@record
class ClosedDisc:
    field: ValuedField
    center: object
    radius: Magnitude

    def __post_init__(self):
        if self.radius.is_zero:
            raise DomainError("disc radius must be positive")


@record
class Annulus:
    """Closed annulus: inner radius ``s`` up to outer radius ``r``."""

    field: ValuedField
    center: object
    inner: Magnitude
    outer: Magnitude

    def __post_init__(self):
        if self.inner.is_zero or self.outer.is_zero:
            raise DomainError("annulus radii must be positive")
        if not self.inner <= self.outer:
            raise DomainError("annulus needs inner radius <= outer radius")


@record
class DiscMinusHoles:
    """Closed disc with pairwise disjoint open subdiscs removed.  The
    removed discs being open is what keeps their maximal points inside;
    they are exactly the extra Shilov points."""

    field: ValuedField
    center: object
    radius: Magnitude
    holes: Tuple[Tuple[object, Magnitude], ...]

    def __post_init__(self):
        if self.radius.is_zero:
            raise DomainError("disc radius must be positive")
        k = self.field
        for a, r in self.holes:
            if r.is_zero:
                raise DomainError("hole radii must be positive")
            if _join_radius(k, (a, r), (self.center, self.radius)) > self.radius:
                raise DomainError("holes must sit inside the disc")
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                ai, ri = self.holes[i]
                aj, rj = self.holes[j]
                if k.valuation(k.sub(ai, aj)) < mag_max(ri, rj):
                    raise DomainError("holes must be pairwise disjoint")


StandardDomain = Union[ClosedDisc, Annulus, DiscMinusHoles]


def _t_minus(field: ValuedField, a) -> Poly:
    return Poly.make(field, (field.neg(a), field.one))


def _radius_and_holes(sd: StandardDomain):
    """Every shape as the closed disc ``E(sd.center, radius)`` minus open
    holes: the annulus ``s <= |T - a| <= r`` is ``E(a, r)`` minus the open
    disc of radius ``s`` around ``a``, and a closed disc has no holes."""
    if isinstance(sd, ClosedDisc):
        return sd.radius, ()
    if isinstance(sd, Annulus):
        return sd.outer, ((sd.center, sd.inner),)
    return sd.radius, sd.holes


def to_domain(sd: StandardDomain) -> Domain:
    """``|T - a| <= r`` for the disc, then ``|T - a_i| >= r_i`` for each
    open hole ``|T - a_i| < r_i`` it removes."""
    k = sd.field
    one = Poly.constant(k, k.one)
    radius, holes = _radius_and_holes(sd)
    return Domain(tuple([
        Inequality(_t_minus(k, sd.center), one, radius, Rel.LEQ),
        *[Inequality(_t_minus(k, a), one, r, Rel.GEQ) for a, r in holes],
    ]))


def shilov_boundary(sd: StandardDomain) -> Tuple[Point, ...]:
    """The finite set where every |f| attains its maximum.  A shape is a
    disc minus open holes, and the maximal points of the disc and of each
    hole smaller than it make up the set: the outer point always, the
    inner one of a genuinely thick annulus, one per hole of a disc with
    holes (the maximal point of a full-size hole is the outer point)."""
    k = sd.field
    radius, holes = _radius_and_holes(sd)
    return tuple([
        DiscPoint(k, sd.center, radius), *[DiscPoint(k, a, r) for a, r in holes if r < radius]
    ])


def max_modulus_check(f: Poly, sd: StandardDomain, samples) -> bool:
    """True when the largest Shilov value dominates |f| at every sample.
    Samples must belong to the domain; the maximum over the whole domain
    is attained on the Shilov set, so this is a genuine upper bound and
    the bound is tight."""
    d = to_domain(sd)
    for x in samples:
        if not member(x, d):
            raise DomainError("sample point lies outside the domain")
    best = max(eval_seminorm(f, b) for b in shilov_boundary(sd))
    return all(eval_seminorm(f, x) <= best for x in samples)


def in_interior(x: Point, sd: StandardDomain) -> bool:
    if not member(x, to_domain(sd)):
        return False
    return not any(point_eq(x, b) for b in shilov_boundary(sd))


# ---------------------------------------------------------------------
# Reduction to the residue line


class _Generic:
    __slots__ = ()

    def __repr__(self):
        return "GENERIC"


GENERIC = _Generic()


def reduce_point(x: Point):
    """Image of a unit-disc point on the residue line.

    The Gauss point of the unit disc maps to the generic point; every
    other point sits inside a unique residue class and maps to that
    residue.  Chains reduce through their innermost listed disc, which
    is exact as soon as that disc has radius below one.
    """
    k = x.field
    center, radius = _anchor(x, -1)
    unit = Magnitude.unit()
    if not radius <= unit or not k.valuation(center) <= unit:
        raise DomainError("reduction is defined on the unit disc only")
    if radius == unit:
        if isinstance(x, ChainPoint):
            raise DomainError("chain too coarse to reduce: refine below radius one")
        return GENERIC
    return k.residue(center)


# ---------------------------------------------------------------------
# Text forms


def format_inequality(iq: Inequality) -> str:
    return (
        f"|{format_poly(iq.f)}| {iq.rel.value} "
        f"{format_magnitude(iq.bound)} * |{format_poly(iq.g)}|"
    )


def format_domain(d: Domain) -> str:
    if d.is_everything:
        return "everything"
    return " && ".join(format_inequality(iq) for iq in d.inequalities)


_INEQ_RE = re.compile(
    r"^\|(?P<f>[^|]+)\|(?P<rel><=|>=)rho\^\((?P<e>[^)]*)\)\*\|(?P<g>[^|]+)\|$"
)


def parse_domain(field: ValuedField, text: str) -> Domain:
    s = "".join(text.split())
    if s == "everything":
        return Domain.everything()
    ineqs = []
    for part in s.split("&&"):
        m = _INEQ_RE.match(part)
        if not m:
            raise ParseError(
                "domain", text, f"bad inequality {part!r}; "
                "expected |<poly>| <= rho^(<exp>) * |<poly>|"
            )
        rel = Rel.LEQ if m.group("rel") == "<=" else Rel.GEQ
        ineqs.append(
            Inequality(
                parse_poly(field, m.group("f")),
                parse_poly(field, m.group("g")),
                Magnitude.finite(parse_exponent(m.group("e"))),
                rel,
            )
        )
    return Domain(tuple(ineqs))


def format_standard_domain(sd: StandardDomain) -> str:
    k = sd.field

    def e(mag: Magnitude) -> str:
        return format_exponent(mag.exponent)

    if isinstance(sd, ClosedDisc):
        return f"closed_disc({k.format_element(sd.center)}; {e(sd.radius)})"
    if isinstance(sd, Annulus):
        return (
            f"annulus({k.format_element(sd.center)}; "
            f"{e(sd.inner)}, {e(sd.outer)})"
        )
    holes = ", ".join(
        f"({k.format_element(a)}; {e(r)})" for a, r in sd.holes
    )
    return f"disc_holes({k.format_element(sd.center)}; {e(sd.radius)}; {holes})"


# Each standard shape: its number of ``;`` parts and the reason given
# when the count is wrong.
_SHAPES = {
    "closed_disc": (2, "expected (a; e)"),
    "annulus": (2, "expected (a; e_inner, e_outer)"),
    "disc_holes": (3, "expected (a; e; (a1; e1), ...)"),
}


def parse_standard_domain(field: ValuedField, text: str) -> StandardDomain:
    rule = "standard-domain"
    s = "".join(text.split())
    name, _, body = s.partition("(")
    if name not in _SHAPES or not body.endswith(")"):
        raise ParseError(rule, text)
    count, usage = _SHAPES[name]
    parts = split_top(body[:-1], ";", rule, text)
    if len(parts) != count:
        raise ParseError(rule, text, usage)
    try:
        if name == "annulus":
            radii = split_top(parts[1], ",", rule, text)
            if len(radii) != 2:
                raise ParseError(rule, text, "expected two radius exponents")
            center = field.parse_element(parts[0])
            return Annulus(field, center, *[Magnitude(parse_exponent(e)) for e in radii])
        holes = []
        if name == "disc_holes":
            for item in split_top(parts[2], ",", rule, text):
                a, e = read_pair(item, rule, text, "hole")
                holes.append((field.parse_element(a), Magnitude(parse_exponent(e))))
        center, radius = field.parse_element(parts[0]), Magnitude(parse_exponent(parts[1]))
        if name == "closed_disc":
            return ClosedDisc(field, center, radius)
        return DiscMinusHoles(field, center, radius, tuple(holes))
    except DomainError as exc:
        raise ParseError(rule, text, str(exc)) from None
