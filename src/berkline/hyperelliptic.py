"""Double covers S**2 = f(T) with squarefree f given by its roots.

Everything is driven by where the branch points (the roots, plus the
point at infinity when the degree is odd) sit in the tree of discs:

* the fiber over a disc point has 2 points exactly when f admits a
  square root in the local ring there, detected through residue
  polynomials (type 2) or through the parity of the dominant term
  (type 3);
* the skeleton of the cover is the convex hull of the branch points,
  each vertex and edge decorated with its fiber count, computed by
  parity counts of branch points per direction;
* the genus splits into local vertex genera plus the number of
  independent cycles of the doubled graph.

Residue characteristic 2 is rejected up front: the cover is wildly
ramified there and none of the parity reasoning applies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple, Union

from .errors import MAX_DEGREE, DomainError, record
from .exponents import INF, Exponent
from .fields import ValuedField
from .line import (
    Point,
    SkeletonEdge,
    SkeletonGraph,
    SkeletonVertex,
    Type1Point,
    _anchor,
    classify,
    convex_hull,
)
from .polynomials import Poly, dominant_terms, is_constant_times_square


def _reject_residue_char_2(field: ValuedField) -> None:
    if field.residue_char == 2:
        raise DomainError("residue characteristic 2 is not supported")


@record
class BranchData:
    """Squarefree polynomial presented through its full root list."""

    f: Poly
    roots: Tuple[object, ...]
    lead: object
    infinity_branch: bool

    @staticmethod
    def from_roots(field: ValuedField, roots, lead=None) -> "BranchData":
        _reject_residue_char_2(field)
        rs = tuple(roots)
        if not rs:
            raise DomainError("at least one root is required")
        if len(rs) > MAX_DEGREE:
            raise DomainError(f"polynomial degree above the limit {MAX_DEGREE}")
        rs = tuple([field.add(field.zero, r) for r in rs])  # canonical: equal roots, equal forms
        if len(set(rs)) < len(rs):
            raise DomainError("roots must be pairwise distinct")
        lc = field.one if lead is None else field.add(field.zero, lead)
        if field.is_zero(lc):
            raise DomainError("leading coefficient must be nonzero")
        f = Poly.product(field, [lc], *[(field.neg(r), field.one) for r in rs])
        return BranchData(f, rs, lc, len(rs) % 2 == 1)

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def total_branch_points(self) -> int:
        return self.degree + (1 if self.infinity_branch else 0)


# ---------------------------------------------------------------------
# Fibers over individual points


def fiber_count(bd: BranchData, x: Point, strict_squares: bool = False):
    """Number of points of the cover above a disc point: 2 or 1, read off
    the dominant terms of the expansion of ``f`` on the disc.

    In strict mode the answer is about the configured field itself
    rather than its algebraic closure; ``None`` means one point here
    but two after an unramified extension (undetermined over this
    field).
    """
    t = classify(x).type
    if t not in (2, 3):
        raise DomainError("fiber counts are computed at disc points only")
    if bd.f.field != x.field:
        raise DomainError("cover and point fields differ")
    k = bd.f.field
    e_min, dominant, lowest = dominant_terms(bd.f, x.center, x.radius)

    def leading_residue(c):
        # the residue of g_i, from its lowest term c, over the canonical
        # element of its magnitude
        return k.residue_of_quotient(c, k.element_with_valuation(k.valuation(c).exponent))

    if t == 3:
        # one dominant term g_i * T**i: indices i != j tie only where
        # (i - j) * e_r = v(g_j) - v(g_i), and a type-3 e_r is irrational
        # (nonzero over a trivially valued field, where every v(g_i) = 0).
        # It is a square when i is even and, over the field itself, the
        # unit part of g_i is a square
        if dominant[0] % 2 == 1:
            return 1
        e_square = k.valuation(lowest[0]).exponent
    else:
        # Type 2: rescale the variable so the disc becomes the unit disc
        # and divide out the largest term; the residue polynomial is zero
        # off the dominant indices and the leading residue of g_i on them.
        # Two preimages exactly when it is a constant times a square,
        # which over a perfect residue field means every root multiplicity
        # of its squarefree decomposition is even.
        if k.element_with_valuation(x.radius.exponent) is None:
            raise DomainError("no field element realizes this radius")
        rf = k.residue_field
        res_coeffs = [rf.zero] * (dominant[-1] + 1)
        for i, c in zip(dominant, lowest):
            res_coeffs[i] = leading_residue(c)
        if not is_constant_times_square(Poly.make(rf, res_coeffs)):
            return 1
        e_square = e_min
    if not strict_squares:
        return 2
    # rho**e_square is a square in the value group exactly when some
    # element has magnitude rho**(e_square/2).  The factors of the
    # residue polynomial are monic, so the constant in front of the
    # square is its leading coefficient, that of the last dominant term.
    if k.element_with_valuation(e_square.scale(Fraction(1, 2))) is None:
        return None
    return 2 if k.residue_field.is_square(leading_residue(lowest[-1])) else None


# ---------------------------------------------------------------------
# Cover skeletons and genus bookkeeping


@record
class CoverSkeleton:
    base: SkeletonGraph
    vertex_fibers: Tuple[int, ...]
    edge_split: Tuple[bool, ...]
    vertex_genus: Tuple[int, ...]
    betti: int
    total_genus: int


def _roots_below(hull: SkeletonGraph) -> List[int]:
    """Number of marked leaves (the roots) in each vertex's subtree.

    :func:`convex_hull` splits a disc's inputs by ``D < R``, so each
    vertex has a strictly smaller radius than its parent.  Taking the
    edges in increasing radius of their lower end ``u`` therefore takes
    every edge below ``u`` before ``u``'s own, and ``below[u]`` is whole
    when it is added into its parent's count.
    """
    below = [int(v.id in hull.marked) for v in hull.vertices]
    for e in sorted(hull.edges, key=lambda e: _anchor(hull.vertices[e.u].point)[1]):
        below[e.v] += below[e.u]
    return below


def cover_skeleton(bd: BranchData) -> CoverSkeleton:
    """The hull of the roots, plus a ray to infinity for odd degree,
    decorated with fiber counts, edge splits and genera, all read off
    ``below[u]``, the number of roots (marked leaves) under the lower
    end ``u`` of each edge.

    * *Parities.*  There is an even number of branch points, so both
      sides of an edge hold counts of the parity of ``below[u]``.  The
      edge splits exactly when it is even; a non-split edge gives each
      of its ends one direction with an odd count.
    * *Directions.*  So ``m(v)``, the number of directions at ``v`` with
      an odd count, is the number of non-split edges at ``v``.  The one
      out of the top of the hull holds ``total - d = 0`` branch points
      for even degree and is the ray to infinity for odd degree.  Two
      points lie over ``v`` when ``m(v) = 0``; its genus is
      ``max(m(v)/2 - 1, 0)``.
    * *Betti number.*  The doubled graph has two copies of each
      two-preimage vertex and split edge, one of the rest; a non-split
      edge has an odd direction at each end, so it joins one-preimage
      vertices only.  With ``R`` one-preimage vertices and ``N``
      non-split edges in a tree of ``V`` vertices it has ``2V - R``
      vertices and ``2(V - 1) - N`` edges.  The roots are one-preimage
      vertices and each copy of a vertex lifts a path to one of them,
      so it is connected, with Betti number ``R - N - 1``.
    """
    k = bd.f.field
    hull = convex_hull([Type1Point(k, r) for r in bd.roots])
    below = _roots_below(hull)

    vertices = list(hull.vertices)
    edges = list(hull.edges)
    if bd.infinity_branch:
        apex = below.index(bd.degree)  # the one vertex above every root
        inf_id = len(vertices)
        vertices.append(SkeletonVertex(inf_id, None, 1, 0))
        edges.append(SkeletonEdge(apex, inf_id, INF))

    split = [below[e.u] % 2 == 0 for e in edges]
    m = [0] * len(vertices)
    for e, is_split in zip(edges, split):
        if not is_split:
            m[e.u] += 1
            m[e.v] += 1
    fibers = [2 if x == 0 else 1 for x in m]
    genera = [max(x // 2 - 1, 0) for x in m]
    betti = fibers.count(1) - split.count(False) - 1
    total_genus = sum(genera) + betti

    decorated = tuple([
        SkeletonVertex(v.id, v.point, v.ptype, genera[v.id]) for v in vertices
    ])
    base = SkeletonGraph(decorated, tuple(edges), hull.marked)
    return CoverSkeleton(
        base, tuple(fibers), tuple(split), tuple(genera), betti, total_genus
    )


def genus(bd: BranchData) -> int:
    return cover_skeleton(bd).total_genus


def tate_cycle_exponent(cs: CoverSkeleton) -> Exponent:
    """Total length of the unique cycle of the doubled graph, for
    betti = 1: twice the length of the split edges.

    The cycle is the set of edges that are not bridges.  Every hull
    vertex has a root below it, and above every edge lies a root (its
    upper end has a second child) or infinity.  So both sides of an
    edge hold one-preimage vertices, and the cover over each side is
    connected.  A non-split edge's one copy is the only link between
    them, a bridge; a split edge's two copies both link them, so
    neither is.  No infinite edge splits: one ends at a root or at
    infinity, alone on its side.
    """
    if cs.betti != 1:
        raise DomainError("cycle extraction needs first Betti number 1")
    total = Exponent(0)
    for e, is_split in zip(cs.base.edges, cs.edge_split):
        if is_split:
            total = total + e.length
    return total.scale(2)


# ---------------------------------------------------------------------
# Elliptic reduction through the Legendre parameter


@record
class Multiplicative:
    """Degenerate reduction; the skeleton is a cycle whose modulus is
    rho to this exponent."""

    cycle_exponent: Exponent
    via: str


@record
class GoodReduction:
    lambda_residue: object
    j_residue: object


EllipticReduction = Union[Multiplicative, GoodReduction]


def mobius_orbit(field: ValuedField, lam):
    """The six values of the Legendre parameter giving one curve."""
    one = field.one
    lam1 = field.sub(lam, one)
    return (
        lam,
        field.div(one, lam),
        field.neg(lam1),
        field.neg(field.div(one, lam1)),
        field.div(lam, lam1),
        field.div(lam1, lam),
    )


def _j_residue(rf, u):
    """j-invariant image 256 (u**2 - u + 1)**3 / (u**2 (u - 1)**2) in
    the residue field; defined since u avoids 0 and 1."""
    one = rf.one
    usq = rf.mul(u, u)
    num_core = rf.add(rf.sub(usq, u), one)
    num = rf.mul(rf.from_int(256), rf.mul(num_core, rf.mul(num_core, num_core)))
    um1 = rf.sub(u, one)
    den = rf.mul(usq, rf.mul(um1, um1))
    return rf.div(num, den)


def elliptic_reduction(field: ValuedField, lam) -> EllipticReduction:
    """Reduction type of the curve with Legendre parameter lambda.

    Decided through valuations alone, so it works over backends where
    the Moebius substitutions themselves are not representable: any
    parameter with |lam| != 1 or |lam - 1| != 1 is equivalent to one
    with magnitude above 1, and the cycle exponent only needs the
    relevant valuation, doubled.
    """
    _reject_residue_char_2(field)
    one = field.one
    if field.is_zero(lam) or field.is_zero(field.sub(lam, one)):
        raise DomainError("the parameter must avoid 0 and 1")
    e1 = field.valuation(lam).exponent
    e2 = field.valuation(field.sub(lam, one)).exponent
    if e1.sign() < 0:
        return Multiplicative(abs(e1).scale(2), "lambda")
    if e1.sign() > 0:
        return Multiplicative(e1.scale(2), "1/lambda")
    if e2.sign() > 0:
        return Multiplicative(e2.scale(2), "1/(1-lambda)")
    rf = field.residue_field
    u = field.residue(lam)
    return GoodReduction(u, _j_residue(rf, u))
