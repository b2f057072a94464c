"""Reference implementations kept as independent oracles.

Each one is the plain construction that a faster or shared library
routine replaced, or a classical closed form from root data that needs
no Taylor shift; the tests compare the two on random inputs.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Optional

from berkline import (
    INF,
    ChainPoint,
    DiscPoint,
    DomainError,
    Exponent,
    Magnitude,
    Path,
    PathSegment,
    Poly,
    SkeletonEdge,
    SkeletonGraph,
    SkeletonVertex,
    Type1Point,
    add_lengths,
    classify,
    convex_hull,
    eval_seminorm,
    format_point,
    hasse_derivative,
    is_constant_times_square,
    join,
    mag_max,
    point_eq,
    point_leq,
)
from berkline.errors import ParseError
from berkline.fields import PAdicField, PuiseuxField
from berkline.line import _anchor, _radius_exponent_or_inf
from berkline.exponents import EXP_ZERO
from berkline.polynomials import disc_expansion


def _strictly_below(x, y) -> bool:
    return point_leq(x, y) and not point_eq(x, y)


def _recentre_on_inputs(v, pts):
    if not isinstance(v, DiscPoint):
        return v
    k = v.field
    best = None
    for p in pts:
        c = _anchor(p)[0]
        if k.valuation(k.sub(c, v.center)) <= v.radius:
            text = k.format_element(c)
            if best is None or text < best[0]:
                best = (text, c)
    return v if best is None else DiscPoint(k, best[1], v.radius)


def reference_convex_hull(points) -> SkeletonGraph:
    """The hull from all pairwise joins.

    Vertices are the inputs plus all pairwise joins, deduplicated with
    ``point_eq``; each disc is recentred on its smallest contained input
    center, and each non-root vertex is wired to the smallest vertex
    strictly above it.
    """
    pts = list(points)
    verts: list = []

    def add(pt) -> None:
        for v in verts:
            if point_eq(v, pt):
                return
        verts.append(pt)

    for p in pts:
        add(p)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            add(join(pts[i], pts[j]))
    verts = [_recentre_on_inputs(v, pts) for v in verts]

    order = sorted(range(len(verts)), key=lambda i: format_point(verts[i]))
    vertex_objs = []
    for vid, old in enumerate(order):
        p = verts[old]
        vertex_objs.append(SkeletonVertex(vid, p, classify(p).type))

    edges = []
    for v in vertex_objs:
        uppers = [w for w in vertex_objs if _strictly_below(v.point, w.point)]
        if not uppers:
            continue
        parent = uppers[0]
        for w in uppers[1:]:
            if _strictly_below(w.point, parent.point):
                parent = w
        ev = _radius_exponent_or_inf(_anchor(v.point)[1])
        ep = _anchor(parent.point)[1].exponent
        length = INF if ev is INF else ev - ep
        edges.append(SkeletonEdge(v.id, parent.id, length))

    marked = frozenset(
        v.id for v in vertex_objs if any(point_eq(v.point, p) for p in pts)
    )
    edges.sort(key=lambda e: (e.u, e.v))
    return SkeletonGraph(tuple(vertex_objs), tuple(edges), marked)


def reference_path(x, y) -> Path:
    """The arc from ``x`` to ``y`` through their join point: an end gets
    a segment when ``point_eq`` says it is not the join."""
    if isinstance(x, ChainPoint) or isinstance(y, ChainPoint):
        raise DomainError("paths with chain endpoints are not supported")
    z = join(x, y)
    ax, rx = _anchor(x)
    ay, ry = _anchor(y)
    ez = _radius_exponent_or_inf(_anchor(z)[1])
    segments = []
    if not point_eq(x, z):
        segments.append(PathSegment(ax, _radius_exponent_or_inf(rx), ez))
    if not point_eq(y, z):
        segments.append(PathSegment(ay, ez, _radius_exponent_or_inf(ry)))
    total = add_lengths(*[s.length for s in segments]) if segments else Exponent(0)
    return Path(tuple(segments), x, y, total)


def reference_top_vertex(g):
    """The honest vertex that every other one is ``point_leq`` to, by a
    scan that moves up on each containment."""
    real = [v for v in g.vertices if v.point is not None]
    top = real[0]
    for v in real[1:]:
        if point_leq(top.point, v.point):
            top = v
    return top


def reference_retract_to_hull(x, g):
    """The retraction of a point onto a hull: inside the top disc, the
    lowest join of ``x`` with a vertex under ``point_leq``, a later join
    replacing an equal one; outside, the top vertex, or the join with it
    when an edge runs up to infinity."""
    if isinstance(x, ChainPoint):
        raise DomainError("retraction of chain points is not supported")
    top = reference_top_vertex(g)
    if point_leq(x, top.point):
        best = None
        for v in g.vertices:
            if v.point is not None:
                z = join(x, v.point)
                if best is None or point_leq(z, best):
                    best = z
        return best
    if any(g.vertex(e.v).point is None for e in g.edges):
        return join(x, top.point)
    return top.point


def reference_torus_retract(f, x, t):
    """The sup of ``|f|`` over the disc of radius ``t`` around ``x`` as
    ``max_i |D_i f|_x * t**i``: one seminorm per Hasse derivative."""
    if t.is_zero:
        raise DomainError("retraction radius must be positive")
    if isinstance(x, ChainPoint):
        raise DomainError("retraction is not defined for chain points")
    if f.is_zero:
        return Magnitude.zero()
    best = Magnitude.zero()
    tpow = Magnitude.unit()
    for i in range(f.degree + 1):
        term = eval_seminorm(hasse_derivative(f, i), x) * tpow
        if term > best:
            best = term
        tpow = tpow * t
    return best


def split_gauss_norm(k, c, roots, a, r):
    """``|c| * prod max(|a - alpha_j|, r)``: the seminorm at ``E(a, r)``
    of ``f = c * prod (T - alpha_j)`` with no Taylor shift.  Seminorms
    are multiplicative and ``|T - alpha|`` there is ``max(|a - alpha|,
    r)`` (Baker and Rumely, *Potential Theory and Dynamics on the
    Berkovich Projective Line*, ch. 1-2), for ``r`` zero or irrational
    and on trivially valued backends too."""
    out = k.valuation(c)
    for alpha in roots:
        out = out * mag_max(k.valuation(k.sub(a, alpha)), r)
    return out


def split_torus_retract(k, c, roots, a, r, t):
    """The sup of ``|f|`` over the disc of radius ``t`` around
    ``E(a, r)``, for ``f`` as in :func:`split_gauss_norm`: the same
    product with ``max(|a - alpha_j|, r, t)``."""
    return split_gauss_norm(k, c, roots, a, mag_max(r, t))


def legendre_reduction(k, lam):
    """The reduction of the curve with Legendre parameter ``lam``, read
    off ``j = 256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2)``: multiplicative
    exactly when ``v(j) < 0``, with cycle exponent ``-v(j)`` (Silverman,
    *Advanced Topics in the Arithmetic of Elliptic Curves*, ch. V), and
    otherwise good, ``j`` reducing to the residue of ``j``.  Returns
    ``(True, -v(j))`` or ``(False, residue of j)``.

    ``j`` is kept as its numerator and denominator, as a Puiseux field
    inverts only monomials.  In the good case ``|l| = |l - 1| = 1`` (else
    ``|j| > 1``), so the denominator is a unit and reduces."""
    one = k.one
    lam1 = k.sub(lam, one)
    core = k.add(k.mul(lam, lam1), one)
    num = k.mul(k.from_int(256), k.mul(core, k.mul(core, core)))
    den = k.mul(k.mul(lam, lam), k.mul(lam1, lam1))
    v_num, v_den = k.valuation(num), k.valuation(den)
    if v_num > v_den:
        return True, v_den.exponent - v_num.exponent
    return False, k.residue_field.div(k.residue(num), k.residue(den))


def synthetic_shift(k, coeffs, a) -> list:
    """Coefficients of ``f(T + a)`` from those of ``f``, low degree first,
    by the synthetic-division sweep through the field's ``add`` and
    ``mul``: the generic shift the integer kernels replaced."""
    cs = list(coeffs)
    n = len(cs)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            cs[j] = k.add(cs[j], k.mul(a, cs[j + 1]))
    return cs


def schoolbook_coeffs(k, xs, ys) -> list:
    """The product of two nonempty coefficient lists through the field's
    ``add`` and ``mul``: the generic product the integer kernels replaced."""
    out = [k.zero] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        if k.is_zero(a):
            continue
        for j, b in enumerate(ys):
            out[i + j] = k.add(out[i + j], k.mul(a, b))
    return out


def horner(k, coeffs, a):
    """``f(a)`` by Horner's rule through the field's ``add`` and ``mul``."""
    acc = k.zero
    for c in reversed(coeffs):
        acc = k.add(k.mul(acc, a), c)
    return acc


def sympy_puiseux(k, factors, a) -> list:
    """The coefficients of ``f_1(T + a) * ... * f_m(T + a)``, low degree
    first, for coefficient lists ``f_i`` over the Puiseux field ``k``,
    computed by sympy rather than by the library's arithmetic: ``t`` is
    a positive symbol, each exponent a ``sympy.Rational`` power of it,
    and the product is expanded and collected by powers of ``T``.  Over
    F_p the integer coefficients are reduced mod ``p`` afterwards.  With
    one factor this is the Taylor shift, and its first entry ``f(a)``."""
    import sympy

    t, T = sympy.Symbol("t", positive=True), sympy.Symbol("T")

    def rational(q):
        q = Fraction(q)
        return sympy.Rational(q.numerator, q.denominator)

    def to_sympy(x):
        return sympy.Add(*[rational(c) * t ** rational(g) for g, c in x])

    def fraction(x):
        x = sympy.Rational(x)
        return Fraction(int(x.p), int(x.q))

    def from_sympy(expr):
        terms = {}
        for monomial, c in sympy.expand(expr).as_coefficients_dict().items():
            c = fraction(c) if k.char == 0 else int(c) % k.char
            if c:
                terms[fraction(monomial.as_powers_dict().get(t, 0))] = c
        return tuple(sorted(terms.items()))

    at = T + to_sympy(a)
    expr = sympy.Integer(1)
    for f in factors:
        expr *= sympy.Add(*[to_sympy(c) * at**j for j, c in enumerate(f)])
    out = [k.zero] * (sum(len(f) - 1 for f in factors) + 1)
    for power, coeff in sympy.collect(sympy.expand(expr), T, evaluate=False).items():
        out[sympy.degree(power, T)] = from_sympy(coeff)
    return out


def pairwise_distinct(k, roots) -> None:
    """``DomainError`` unless the roots are pairwise distinct, decided by
    one subtraction per pair: the check ``from_roots`` ran before it
    compared canonical forms."""
    rs = tuple(roots)
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if k.is_zero(k.sub(rs[i], rs[j])):
                raise DomainError("roots must be pairwise distinct")


def schoolbook_product(f, g):
    """``f * g`` from the field's own ``add`` and ``mul``, term by term."""
    k = f.field
    if f.is_zero or g.is_zero:
        return Poly(k, ())
    return Poly.make(k, schoolbook_coeffs(k, f.coeffs, g.coeffs))


@dataclass(frozen=True)
class ReferenceExponent:
    """``a + b*sqrt(2)`` stored as two fractions, with every order
    question decided by the sign of a difference."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def __add__(self, other):
        return ReferenceExponent(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return ReferenceExponent(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return ReferenceExponent(-self.a, -self.b)

    def scale(self, q):
        return ReferenceExponent(self.a * q, self.b * q)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        lhs, rhs = a * a, 2 * b * b
        if a > 0:
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def is_rational(self) -> bool:
        return self.b == 0

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * sqrt(2.0)


def reference_format_exponent(e: ReferenceExponent) -> str:
    if e.b == 0:
        return str(e.a)
    if e.b > 0:
        return f"{e.a}+{e.b}*s2"
    return f"{e.a}-{-e.b}*s2"


@dataclass(frozen=True)
class ReferenceMagnitude:
    """Zero (``exponent is None``) or ``rho**exponent``; ``<=`` is
    ``==`` or ``<``."""

    exponent: Optional[ReferenceExponent]

    def __mul__(self, other):
        if self.exponent is None or other.exponent is None:
            return ReferenceMagnitude(None)
        return ReferenceMagnitude(self.exponent + other.exponent)

    def __lt__(self, other):
        if self.exponent is None:
            return other.exponent is not None
        if other.exponent is None:
            return False
        return self.exponent > other.exponent

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return other < self

    def __ge__(self, other):
        return other <= self


# ---------------------------------------------------------------------
# The text helpers that ``errors.split_top`` and ``errors.top_level``
# replaced, as they were: one paren-depth scan per grammar.


def old_split_terms(s: str, rule: str, original: str):
    """Split on top-level ``+``/``-``, folding signs into the terms."""
    terms = []
    cur = ""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(rule, original, "unbalanced parentheses")
        if ch in "+-" and depth == 0 and cur:
            terms.append(cur)
            cur = "-" if ch == "-" else ""
            continue
        if ch == "+" and depth == 0 and not cur:
            continue
        cur += ch
    if depth != 0:
        raise ParseError(rule, original, "unbalanced parentheses")
    if cur:
        terms.append(cur)
    if not terms:
        raise ParseError(rule, original, "no terms")
    return terms


def old_split_top(body: str, sep: str, rule: str, original: str):
    parts = []
    cur = ""
    depth = 0
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    if depth != 0:
        raise ParseError(rule, original, "unbalanced parentheses")
    return parts


def old_split_chain_items(body: str, original: str):
    items = []
    cur = ""
    depth = 0
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            items.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        items.append(cur)
    if not items or depth != 0:
        raise ParseError("point", original, "bad chain syntax")
    return items


def old_needs_parens(s: str) -> bool:
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and (ch == "+" or (ch == "-" and i > 0)):
            return True
    return False


def old_strip_parens(s: str) -> str:
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s
        s = s[1:-1]
    return s


def old_halvable_exponent(field, e) -> bool:
    """Is rho**e a square inside the value group of the field?"""
    if isinstance(field, PuiseuxField):
        return True
    if isinstance(field, PAdicField):
        return e.is_rational() and e.a.denominator == 1 and e.a.numerator % 2 == 0
    return e == Exponent(0)


def reference_dominant_terms(f: Poly, a, r):
    """``(g, e_min, dominant)`` from the whole expansion ``g`` of
    :func:`disc_expansion`: every coefficient exact, every valuation read
    off it.  ``polynomials.dominant_terms`` gives the same ``e_min`` and
    indices, and in place of ``g`` a lowest term of each dominant
    ``g_i``."""
    k = f.field
    g = disc_expansion(f, a, r)
    if r.is_zero:
        for i, c in enumerate(g.coeffs):
            if not k.is_zero(c):
                return g, (k.valuation(c).exponent if i == 0 else None), (i,)
        return g, None, ()
    e_min, dominant = None, []
    e_r = r.exponent
    ie_r = EXP_ZERO  # i*e_r, by one addition per step
    for i, c in enumerate(g.coeffs):
        if not k.is_zero(c):
            e = k.valuation(c).exponent + ie_r
            if e_min is None or e < e_min:
                e_min, dominant = e, [i]
            elif e == e_min:
                dominant.append(i)
        ie_r = ie_r + e_r
    return g, e_min, tuple(dominant)


def _reference_term_exponents(f: Poly, x: DiscPoint):
    """Exponents of |f_i| * r**i for the expansion of f at a center of
    x (the trimmed one of :func:`disc_expansion`); None entries mark
    vanishing coefficients."""
    k = f.field
    g = disc_expansion(f, x.center, x.radius)
    e_r = x.radius.exponent
    out = []
    for i, c in enumerate(g.coeffs):
        if k.is_zero(c):
            out.append((None, c))
        else:
            out.append((k.valuation(c).exponent + e_r.scale(i), c))
    return g, out


def reference_fiber_count(bd, x, strict_squares: bool = False):
    """Number of points of the cover above a disc point: 2 or 1, from the
    whole term list and the residue of every ``c_i * c**i / m0``.

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
    g, terms = _reference_term_exponents(bd.f, x)
    live = [(e, i) for i, (e, _) in enumerate(terms) if e is not None]
    e_min = min(e for e, _ in live)

    if t == 3:
        dominant = [i for e, i in live if e == e_min]
        if len(dominant) != 1:
            raise DomainError("irrational radius must single out one dominant term")
        i_star = dominant[0]
        if i_star % 2 == 1:
            return 1
        if not strict_squares:
            return 2
        e_c = k.valuation(g.coefficient(i_star)).exponent
        # rho**e_c is a square in the value group exactly when some
        # element has magnitude rho**(e_c/2)
        if k.element_with_valuation(e_c.scale(Fraction(1, 2))) is None:
            return None
        m0 = k.element_with_valuation(e_c)
        if m0 is None:
            return None
        u = k.residue_of_quotient(g.coefficient(i_star), m0)
        return 2 if k.residue_field.is_square(u) else None

    # Type 2: rescale the variable so the disc becomes the unit disc,
    # divide out the largest coefficient magnitude, and read the residue
    # polynomial.  Two preimages exactly when it is a constant times a
    # square, which over a perfect residue field means every root
    # multiplicity of its squarefree decomposition is even.
    c = k.element_with_valuation(x.radius.exponent)
    if c is None:
        raise DomainError("no field element realizes this radius")
    m0 = k.element_with_valuation(e_min)
    if m0 is None:
        raise DomainError("no field element realizes the dominant magnitude")
    rf = k.residue_field
    cpow = k.one
    res_coeffs = []
    for i, ci in enumerate(g.coeffs):
        res_coeffs.append(k.residue_of_quotient(k.mul(ci, cpow), m0))
        cpow = k.mul(cpow, c)
    u = Poly.make(rf, tuple(res_coeffs))
    if not is_constant_times_square(u):
        return 1
    if not strict_squares:
        return 2
    if k.element_with_valuation(e_min.scale(Fraction(1, 2))) is None:
        return None
    # the factors are monic, so the constant in front of the square is
    # exactly the leading coefficient
    return 2 if rf.is_square(u.leading_coefficient()) else None


def reference_cover_skeleton(bd):
    """Fibers, splits, genera, Betti number and cycle of a double cover,
    from its doubled graph built copy by copy.

    The roots under each hull vertex are counted on walks up from each
    root.  Every direction at a vertex counts toward ``m``: each
    downward edge with the roots below it, the upward one with the
    branch points outside, infinity included, also at a top with no ray
    above it.  A split edge ``(u, v)`` has the copies
    ``(us[i % len(us)], vs[i % len(vs)])`` for ``i`` in (0, 1), any
    other edge one copy between the first copies of its ends.  The
    Betti number comes from a union-find over the copies; when it is 1,
    edges at degree-one vertices are pruned until none remains, and the
    cycle is the length of what is left.  Returns
    ``(fibers, split, genera, betti, cycle)``, with ``cycle`` None
    unless the Betti number is 1.
    """
    k = bd.f.field
    hull = convex_hull([Type1Point(k, r) for r in bd.roots])
    up = {e.u: e.v for e in hull.edges}
    below = [0] * len(hull.vertices)
    for vid in hull.marked:
        while vid is not None:
            below[vid] += 1
            vid = up.get(vid)
    edges = [(e.u, e.v, e.length) for e in hull.edges]
    if bd.infinity_branch:
        edges.append((below.index(bd.degree), len(below), INF))
        below.append(bd.degree)
    n, total = len(below), bd.total_branch_points
    m, has_up = [0] * n, [False] * n
    for u, v, _ in edges:
        m[v] += below[u] % 2
        m[u] += (total - below[u]) % 2
        has_up[u] = True
    for vid in range(len(hull.vertices)):
        if not has_up[vid]:
            m[vid] += (total - below[vid]) % 2
    fibers = [2 if x == 0 else 1 for x in m]
    genera = [max(x // 2 - 1, 0) for x in m]
    split = [below[u] % 2 == 0 for u, _, _ in edges]

    copies, n_copies = [], 0
    for f in fibers:
        copies.append(range(n_copies, n_copies + f))
        n_copies += f
    doubled = []
    for (u, v, length), is_split in zip(edges, split):
        us, vs = copies[u], copies[v]
        doubled += [(us[i % len(us)], vs[i % len(vs)], length) for i in range(1 + is_split)]

    parent = list(range(n_copies))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b, _ in doubled:
        parent[find(a)] = find(b)
    betti = len(doubled) - n_copies + len({find(i) for i in range(n_copies)})
    if betti != 1:
        return fibers, split, genera, betti, None
    alive = doubled
    while True:
        deg = [0] * n_copies
        for a, b, _ in alive:
            deg[a] += 1
            deg[b] += 1
        kept = [(a, b, length) for a, b, length in alive if deg[a] > 1 and deg[b] > 1]
        if len(kept) == len(alive):
            break
        alive = kept
    cycle = Exponent(0)
    for _, _, length in alive:
        if length is INF:
            raise DomainError("unbounded edge on the cycle")
        cycle = cycle + length
    return fibers, split, genera, betti, cycle
