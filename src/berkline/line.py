"""Points of the non-archimedean affine line and their tree geometry.

A point is a multiplicative seminorm on the polynomial ring, and every
seminorm handled here is presented through discs:

* ``Type1Point(a)``: evaluation at a field element, the disc of radius
  zero around ``a``.
* ``DiscPoint(a, r)``: the sup norm over the closed disc ``E(a, r)``
  with ``r = rho**e > 0``.  Whether ``e`` is commensurable with the
  field's value group separates the two flavours (types 2 and 3).
* ``ChainPoint(discs)``: a strictly shrinking nested family standing in
  for a limit point (type 4).  Listing finitely many discs makes most
  answers upper bounds; operations that cannot be exact say so.

Containment of discs is the tree order.  Any two discs are either
nested or disjoint, which is why joins exist and paths are unique.  So
every relation between ``x = E(a_x, r_x)`` and ``y = E(a_y, r_y)`` is
read off one number, ``D(x, y) = max(r_x, r_y, |a_x - a_y|)``, the
radius of their join: ``x <= y`` exactly when ``D = r_y``, ``x = y``
when ``D = r_x = r_y``, and the join is ``E(a_x, D)``.  The rest of the
geometry below is interval bookkeeping on exponents.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple, Union

from .errors import DomainError, Frozen, ParseError, read_pair, record, split_top
from .exponents import (
    INF,
    Exponent,
    Length,
    Magnitude,
    add_lengths,
    format_exponent,
    format_length,
    is_rational_over_value_group,
    mag_max,
    parse_exponent,
)
from .fields import ValuedField
from .polynomials import Poly, dominant_terms


# ---------------------------------------------------------------------
# Point representations


# The points are records compared and hashed by identity: equality of
# points is the tree question :func:`point_eq`, not equality of fields.


class Type1Point(Frozen):
    """Evaluation at a field element."""

    __slots__ = ("field", "center")

    def __init__(self, field: ValuedField, center):
        _set_field(self, field)
        _set_center(self, center)

    def __repr__(self):
        return f"Type1Point(field={self.field!r}, center={self.center!r})"

    def __str__(self):
        return format_point(self)


class DiscPoint(Frozen):
    """The maximal point of the closed disc ``E(center, radius)``."""

    __slots__ = ("field", "center", "radius")

    def __init__(self, field: ValuedField, center, radius: Magnitude):
        if radius.is_zero:
            raise DomainError("disc points need a positive radius; use Type1Point")
        _set_disc_field(self, field)
        _set_disc_center(self, center)
        _set_radius(self, radius)

    def __repr__(self):
        return f"DiscPoint(field={self.field!r}, center={self.center!r}, radius={self.radius!r})"

    def __str__(self):
        return format_point(self)


class ChainPoint(Frozen):
    """A strictly nested chain of discs, outermost first.

    ``limit_exponent`` records the infimum of the radii when the caller
    knows it; otherwise radius queries return the innermost listed disc
    and are flagged as upper bounds.
    """

    __slots__ = ("field", "discs", "limit_exponent")

    def __init__(
        self,
        field: ValuedField,
        discs: Tuple[Tuple[object, Magnitude], ...],
        limit_exponent: Optional[Exponent] = None,
    ):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "discs", discs)
        object.__setattr__(self, "limit_exponent", limit_exponent)
        if not self.discs:
            raise DomainError("a chain needs at least one disc")
        k = self.field
        prev = None
        for center, radius in self.discs:
            if radius.is_zero:
                raise DomainError("chain radii must be positive")
            if prev is not None:
                if not radius < prev[1]:
                    raise DomainError("chain radii must strictly decrease")
                if _join_radius(k, (center, radius), prev) > prev[1]:
                    raise DomainError("chain discs must be nested")
            prev = (center, radius)
        # ``radius`` is now the last listed radius, the smallest, as they strictly decrease
        if self.limit_exponent is not None and not self.limit_exponent > radius.exponent:
            raise DomainError("limit radius must sit below every listed disc")

    def __repr__(self):
        return (
            f"ChainPoint(field={self.field!r}, discs={self.discs!r}, "
            f"limit_exponent={self.limit_exponent!r})"
        )

    def __str__(self):
        return format_point(self)


_set_field = Type1Point.field.__set__
_set_center = Type1Point.center.__set__
_set_disc_field = DiscPoint.field.__set__
_set_disc_center = DiscPoint.center.__set__
_set_radius = DiscPoint.radius.__set__


Point = Union[Type1Point, DiscPoint, ChainPoint]


def _anchor(x: Point, i: int = 0):
    """(center, radius) of the disc that stands in for ``x``: its own
    disc, of radius zero at a type-1 point, and a chain's listed disc
    ``i``.

    Tree operations take a chain's outermost disc (``i = 0``), which is
    exact whenever the other point leaves that disc and an upper
    approximation otherwise; seminorms and reduction take its innermost
    (``i = -1``).
    """
    if isinstance(x, Type1Point):
        return x.center, Magnitude.zero()
    if isinstance(x, DiscPoint):
        return x.center, x.radius
    return x.discs[i]


def _join_radius(k: ValuedField, disc, other) -> Magnitude:
    """``D = max(r, s, |a - b|)`` for the discs ``(a, r)`` and ``(b, s)``
    over ``k``: the radius of the smallest disc containing both.  Two
    discs are nested or disjoint, so ``D`` decides every order question
    between them: ``(a, r)`` lies in ``(b, s)`` exactly when ``D = s``."""
    (a, r), (b, s) = disc, other
    return mag_max(r, s, k.valuation(k.sub(a, b)))


def _relate(x: Point, y: Point):
    """``(k, (a_x, r_x), (a_y, r_y), D)`` for two points over one field
    ``k``: their anchors and the radius ``D`` of their join."""
    k = x.field
    if k != y.field:
        raise DomainError("points belong to different coefficient fields")
    dx, dy = _anchor(x), _anchor(y)
    return k, dx, dy, _join_radius(k, dx, dy)


# ---------------------------------------------------------------------
# Classification


@record
class PointClass:
    """Type plus the two invariants of the completed residue field.

    ``F`` counts the residue transcendence degree and ``E`` the rational
    rank added to the value group; each point type realizes at most one
    of them.
    """

    type: int
    E: int
    F: int


class Components(Enum):
    """What removing the point does to the space around it."""

    ONE = "one"
    TWO = "two"
    P1_OF_RESIDUE = "p1-of-residue-field"


def classify(x: Point) -> PointClass:
    if isinstance(x, Type1Point):
        return PointClass(1, 0, 0)
    if isinstance(x, ChainPoint):
        return PointClass(4, 0, 0)
    if is_rational_over_value_group(x.radius, x.field.value_group_gen):
        return PointClass(2, 0, 1)
    return PointClass(3, 1, 0)


def components_count(x: Point) -> Components:
    t = classify(x).type
    if t in (1, 4):
        return Components.ONE
    if t == 3:
        return Components.TWO
    return Components.P1_OF_RESIDUE


@record
class RadiusInfo:
    value: Magnitude
    exact: bool


def point_radius(x: Point) -> RadiusInfo:
    if isinstance(x, ChainPoint) and x.limit_exponent is not None:
        return RadiusInfo(Magnitude(x.limit_exponent), True)
    return RadiusInfo(_anchor(x, -1)[1], not isinstance(x, ChainPoint))


def seminorm_is_exact(x: Point) -> bool:
    return not isinstance(x, ChainPoint)


# ---------------------------------------------------------------------
# Seminorm evaluation


def eval_seminorm(f: Poly, x: Point) -> Magnitude:
    """Apply the seminorm of ``x`` to ``f``.

    At a disc point this is the Gauss norm ``max |g_i| * r**i`` of the
    expansion on the disc, ``rho**e_min`` of :func:`dominant_terms`.
    For a chain the value reported is the one at the innermost listed
    disc; the true limit value can only be smaller, so callers treating
    chains should consult :func:`seminorm_is_exact`.
    """
    if f.field != x.field:
        raise DomainError("polynomial and point fields differ")
    if isinstance(x, Type1Point):
        return x.field.valuation(f.evaluate(x.center))
    center, radius = _anchor(x, -1)
    return Magnitude(dominant_terms(f, center, radius)[0])


def torus_retract(f: Poly, x: Point, t: Magnitude) -> Magnitude:
    """Sup of ``|f|`` over the closed disc of radius ``t`` around ``x``.

    That is ``max_i |D_i f|_x * t**i`` over the Hasse derivatives, and
    equals the Gauss norm of ``f`` on ``E(a, max(r, t))`` for
    ``x = E(a, r)`` (``r = 0`` at a type-1 point), on every backend,
    trivially valued ones included.  With ``g = f(T + a)``,
    ``|D_i f|_x = max_{j>=i} |C(j, i) g_j| * r**(j-i)``.  Since
    ``|C(j, i)| <= 1``, every term is at most ``|g_j| * max(r, t)**j``;
    the term ``j = i`` attains that bound when ``t > r``, and the term
    ``i = 0`` when ``t <= r``.
    """
    if t.is_zero:
        raise DomainError("retraction radius must be positive")
    if isinstance(x, ChainPoint):
        raise DomainError("retraction is not defined for chain points")
    if f.is_zero:
        return Magnitude.zero()
    a, r = _anchor(x)
    return eval_seminorm(f, DiscPoint(x.field, a, mag_max(r, t)))


# ---------------------------------------------------------------------
# Tree order, joins, paths


def point_leq(x: Point, y: Point) -> bool:
    """Disc containment: does the disc of ``y`` contain the disc of ``x``?
    It does exactly when the join radius ``D(x, y)`` is ``r_y``.

    Comparisons that involve a chain use its outermost listed disc and
    are therefore approximate.
    """
    _, _, (_, ry), d = _relate(x, y)
    return d == ry


def point_eq(x: Point, y: Point) -> bool:
    _, (_, rx), (_, ry), d = _relate(x, y)
    return d == rx == ry


def join(x: Point, y: Point) -> Point:
    """Smallest disc point above both arguments, ``E(a_x, D)``.

    Returns an input unchanged when its radius is ``D``: it then
    dominates the other.  With chains involved the join is computed from
    outermost listed discs (an upper approximation of the true join).
    """
    k, (ax, rx), (_, ry), d = _relate(x, y)
    if d == rx:
        return x
    if d == ry:
        return y
    return DiscPoint(k, ax, d)


@record
class PathSegment:
    """Disc points sharing one center, traversed between two exponents.

    ``e_from``/``e_to`` are radius exponents (``INF`` marks a radius-zero
    leaf end); the segment walks monotonically between them.
    """

    center: object
    e_from: Length
    e_to: Length

    @property
    def length(self) -> Length:
        if self.e_from is INF or self.e_to is INF:
            return INF
        return abs(self.e_from - self.e_to)


@record
class Path:
    segments: Tuple[PathSegment, ...]
    start: Point
    end: Point
    length: Length


def _radius_exponent_or_inf(r: Magnitude) -> Length:
    return INF if r.is_zero else r.exponent


def path(x: Point, y: Point) -> Path:
    """The unique arc from ``x`` to ``y``: up to the join, then down.

    The join is ``E(a_x, r_z)`` with ``r_z = max(r_x, r_y, |a_x - a_y|)``.
    It contains both ends, and discs that share a point are nested, so
    an end is the join exactly when its radius is ``r_z``: one valuation
    decides the whole arc.
    """
    if isinstance(x, ChainPoint) or isinstance(y, ChainPoint):
        raise DomainError("paths with chain endpoints are not supported")
    _, (ax, rx), (ay, ry), rz = _relate(x, y)
    ez = _radius_exponent_or_inf(rz)
    segments = []
    if rx != rz:
        segments.append(PathSegment(ax, _radius_exponent_or_inf(rx), ez))
    if ry != rz:
        segments.append(PathSegment(ay, ez, _radius_exponent_or_inf(ry)))
    return Path(tuple(segments), x, y, add_lengths(*[s.length for s in segments]))


class _InfinityDirection:
    __slots__ = ()

    def __repr__(self):
        return "DIR_INF"


INFINITY_DIR = _InfinityDirection()


def direction(x: Point, y: Point):
    """Which branch at the disc point ``x`` the point ``y`` falls into.

    Branches at a type-2 point are parametrized by the residue line plus
    a point at infinity: residues label the open subdiscs, infinity
    labels everything outside the closed disc.  Needs a field element of
    magnitude equal to the radius, so over a p-adic backend the radius
    exponent must be an integer.
    """
    if not isinstance(x, DiscPoint):
        raise DomainError("directions are defined at disc points")
    if classify(x).type != 2:
        raise DomainError("directions need a type-2 base point")
    k, (ax, rx), (ay, ry), d = _relate(x, y)
    if d == rx == ry:
        raise DomainError("no direction from a point to itself")
    c = k.element_with_valuation(rx.exponent)
    if c is None:
        raise DomainError("no field element realizes this radius; direction undefined")
    if d != rx:  # ``y`` lies outside the disc of ``x``
        return INFINITY_DIR
    return k.residue_of_quotient(k.sub(ay, ax), c)


# ---------------------------------------------------------------------
# Skeleton graphs, convex hulls, retractions


@record
class SkeletonVertex:
    """``point is None`` marks the projective infinity attached by
    double-cover constructions; everything else is an honest point."""

    id: int
    point: Optional[Point]
    ptype: int
    genus: int = 0

    @property
    def label(self) -> str:
        return "inf" if self.point is None else format_point(self.point)


@record
class SkeletonEdge:
    """``u`` is the lower endpoint (smaller disc), ``v`` the upper."""

    u: int
    v: int
    length: Length


@record
class SkeletonGraph:
    vertices: Tuple[SkeletonVertex, ...]
    edges: Tuple[SkeletonEdge, ...]
    marked: frozenset

    def vertex(self, vid: int) -> SkeletonVertex:
        return self.vertices[vid]

    def canonical_key(self):
        labels = {
            v.id: (v.label, v.ptype, v.genus, v.id in self.marked)
            for v in self.vertices
        }
        edge_keys = sorted(
            (min(labels[e.u], labels[e.v]), max(labels[e.u], labels[e.v]),
             format_length(e.length))
            for e in self.edges
        )
        return (tuple(sorted(labels.values())), tuple(edge_keys))

    def to_dot(self, name: str = "skeleton") -> str:
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            mark = " *" if v.id in self.marked else ""
            lines.append(
                f'  n{v.id} [label="{v.label} t{v.ptype} g{v.genus}{mark}"];'
            )
        for e in self.edges:
            lines.append(f'  n{e.u} -- n{e.v} [len="{format_length(e.length)}"];')
        lines.append("}")
        return "\n".join(lines)


def convex_hull(points) -> SkeletonGraph:
    """Minimal subtree spanning the given points: their cluster tree.

    Each input ``x`` stands for its disc ``E(a_x, r_x)`` (``r_x = 0`` for
    type 1), and ``D(x, y) = max(r_x, r_y, |a_x - a_y|)`` is the radius
    of the join of ``x`` and ``y``.  ``D`` obeys the strong triangle
    inequality, so for each ``R`` the relation ``D < R`` splits a set of
    inputs into classes.  The hull's vertices are the inputs plus their
    pairwise joins, and one recursion meets each of them once: a set
    ``S`` of inputs has the vertex ``E(a, R)`` with ``R`` the largest
    ``D`` within ``S`` (radii included), the inputs of radius ``R`` are
    that vertex (it is marked), and the classes of the others under
    ``D < R`` are its children.  Two inputs part at the vertex of radius
    ``D(x, y)``, which is their join, and no join lies strictly between
    a class and its parent, so each child is wired to the smallest
    vertex above it.  Every pairwise ``D`` is computed once.

    A disc is labelled by the input center inside it with the smallest
    text, so labels depend on the point set alone.  Leaf edges down to
    radius-zero points carry infinite length.
    """
    pts = list(points)
    if not pts:
        raise DomainError("hull of an empty point set")
    k = pts[0].field
    for p in pts:
        if isinstance(p, ChainPoint):
            raise DomainError("hulls of chain points are not supported")
        if p.field != k:
            raise DomainError("points belong to different coefficient fields")

    anchors = [_anchor(p) for p in pts]
    dist = [[r] * len(pts) for _, r in anchors]  # D(x, x) = r_x
    for i, disc in enumerate(anchors):
        for j in range(i):
            dist[i][j] = dist[j][i] = _join_radius(k, disc, anchors[j])
    texts = [k.format_element(a) for a, _ in anchors]

    found = []  # (point, radius, parent index, marked)
    stack = [(list(range(len(pts))), None, [])]
    while stack:
        members, parent, enclosing = stack.pop()
        row = dist[members[0]]
        radius = mag_max(*[row[j] for j in members])
        own = [j for j in members if dist[j][j] == radius]
        if radius.is_zero:
            point = pts[own[0]]
        else:
            # the centers inside this disc: the members', plus those of
            # enclosing input discs that happen to fall in it
            a = anchors[members[0]][0]
            inside = members + [
                j for j in enclosing
                if k.valuation(k.sub(anchors[j][0], a)) <= radius
            ]
            point = DiscPoint(k, anchors[min(inside, key=texts.__getitem__)][0], radius)
        vid = len(found)
        found.append((point, radius, parent, bool(own)))
        rest = [j for j in members if j not in own]
        enclosing = enclosing + own
        while rest:
            row = dist[rest[0]]
            child, far = [], []
            for j in rest:
                (child if row[j] < radius else far).append(j)
            stack.append((child, vid, enclosing))
            rest = far

    order = sorted(range(len(found)), key=lambda i: format_point(found[i][0]))
    new_id = {old: vid for vid, old in enumerate(order)}
    vertices = tuple([
        SkeletonVertex(vid, found[old][0], classify(found[old][0]).type)
        for vid, old in enumerate(order)
    ])
    edges = []
    for old, (_, r, parent, _) in enumerate(found):
        if parent is not None:
            length = INF if r.is_zero else r.exponent - found[parent][1].exponent
            edges.append(SkeletonEdge(new_id[old], new_id[parent], length))
    edges.sort(key=lambda e: (e.u, e.v))
    marked = frozenset(new_id[old] for old, f in enumerate(found) if f[3])
    return SkeletonGraph(vertices, tuple(edges), marked)


def top_vertex(g: SkeletonGraph) -> SkeletonVertex:
    """Highest vertex with an honest point (the root of the disc order).

    Every vertex of a hull lies in its root disc, so the root is the
    honest vertex with the largest radius.
    """
    return max(
        (v for v in g.vertices if v.point is not None), key=lambda v: _anchor(v.point)[1]
    )


def retract_to_hull(x: Point, g: SkeletonGraph) -> Point:
    """Nearest point of the subtree ``g``, the gate every path to ``g``
    passes through; a point of ``g`` is the join below or above it, so
    :func:`join` returns it unchanged.

    Inside the top disc, ``x`` climbs until it first meets the tree, at
    the lowest of its joins with the vertices.  Those joins all contain
    ``x``, so they are nested and the lowest has the smallest radius;
    among equal radii the last in vertex order is kept, whose center
    labels the answer.
    """
    if isinstance(x, ChainPoint):
        raise DomainError("retraction of chain points is not supported")
    if not g.vertices:
        raise DomainError("retraction onto an empty graph")
    top = top_vertex(g)
    if point_leq(x, top.point):
        joins = [join(x, v.point) for v in g.vertices if v.point is not None]
        return min(reversed(joins), key=lambda z: _anchor(z)[1])
    if any(g.vertex(e.v).point is None for e in g.edges):
        return join(x, top.point)  # lands on the infinite upward ray
    return top.point


# ---------------------------------------------------------------------
# Text forms


def format_point(x: Point) -> str:
    k = x.field
    if isinstance(x, Type1Point):
        return f"pt1({k.format_element(x.center)})"
    if isinstance(x, DiscPoint):
        return f"disc({k.format_element(x.center)}; {format_exponent(x.radius.exponent)})"
    items = ",".join(
        f"({format_exponent(r.exponent)};{k.format_element(c)})" for c, r in x.discs
    )
    tail = "" if x.limit_exponent is None else f"; limit={format_exponent(x.limit_exponent)}"
    return f"chain[{items}{tail}]"


def parse_point(field: ValuedField, text: str) -> Point:
    s = "".join(text.split())
    if s.startswith("pt1(") and s.endswith(")"):
        return Type1Point(field, field.parse_element(s[4:-1]))
    if s.startswith("disc(") and s.endswith(")"):
        body = s[5:-1]
        if ";" not in body:
            raise ParseError("point", text, "disc needs a center and an exponent")
        elem, exp = body.split(";", 1)
        # a parsed radius is rho**e, never zero, so DiscPoint accepts it
        radius = Magnitude(parse_exponent(exp))
        return DiscPoint(field, field.parse_element(elem), radius)
    if s.startswith("chain[") and s.endswith("]"):
        body = s[6:-1]
        limit = None
        if ";limit=" in body:
            body, limit_text = body.rsplit(";limit=", 1)
            limit = parse_exponent(limit_text)
        discs = []
        for item in split_top(body, ",", "point", text):
            exp, elem = read_pair(item, "point", text, "chain entry")
            discs.append((field.parse_element(elem), Magnitude(parse_exponent(exp))))
        try:
            return ChainPoint(field, tuple(discs), limit)
        except DomainError as exc:
            raise ParseError("point", text, str(exc)) from None
    raise ParseError("point", text)
