"""The four benchmark workloads.

Each workload is one closed-loop client: ``make(i)`` builds query ``i``
from the seed alone, ``run(query)`` sends it to the library (or the
CLI) and checks the exact answer, returning the answer's canonical text
for the digest, and ``describe(query)`` reports the input properties a
later optimisation may depend on.  A wrong answer raises
:class:`CheckFailed`.

The sizes of query ``i`` (degrees, term counts, degree band,
subcommand) follow a fixed schedule in ``i``; the seed draws the
values.  So every seed runs the same mix of sizes, which keeps the
spread between seeds small.  The answer digest and each traced pass
use the first ``pass_queries`` queries, so they compare equal inputs
across commits.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

from berkline import (
    Annulus,
    BranchData,
    ClosedDisc,
    DiscMinusHoles,
    DiscPoint,
    Exponent,
    Magnitude,
    Poly,
    Type1Point,
    add_lengths,
    convex_hull,
    count_roots_in_disc,
    cover_skeleton,
    eval_seminorm,
    fiber_count,
    format_magnitude,
    format_point,
    format_poly,
    format_standard_domain,
    join,
    max_modulus_check,
    member,
    path,
    point_eq,
    retract_to_hull,
    shilov_boundary,
    to_domain,
    torus_retract,
)
from berkline.exponents import EXP_ZERO

from gen import (
    LSER,
    Q5,
    distinct_roots,
    query_rng,
    rand_element,
    rand_padic_element,
    puiseux_with_terms,
    rand_point,
    rand_poly,
    rand_radius,
    rand_unit_disc_point,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class CheckFailed(Exception):
    """The program returned an answer that its exactness check refutes."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _fin(e) -> Magnitude:
    return Magnitude.finite(Exponent(Fraction(e)))


def _support(field, c) -> int:
    """Number of terms of a field element (0 or 1 over Q5)."""
    if field is Q5:
        return 0 if c == 0 else 1
    return len(c)


def _center_radius(x):
    if isinstance(x, Type1Point):
        return x.center, Magnitude.zero()
    return x.center, x.radius


def _path_length(x, y):
    total = EXP_ZERO
    for seg in path(x, y).segments:
        total = add_lengths(total, seg.length)
    return total


# ---------------------------------------------------------------------
# seminorm-puiseux


class SeminormPuiseux:
    """|fg| = |f||g| at disc points over puiseux:Q (criterion 01's path)."""

    name = "seminorm-puiseux"
    pass_queries = 24

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, i):
        rng = query_rng(self.seed, self.name, i)
        # The sizes follow a fixed walk over all 13 x 13 degree pairs and
        # center shapes, so every seed runs the same mix of sizes and only
        # the coefficients, exponents and radii vary with the seed.
        deg_f, deg_g = divmod(i * 97 % 169, 13)
        f = self._poly(rng, deg_f, i)
        g = self._poly(rng, deg_g, i + 2)
        # Expansion cost grows with center support times degree, so wide
        # centers only pair with small products, as in criterion 01.
        shape = i // 2
        if deg_f + deg_g <= 8:
            c = puiseux_with_terms(rng, shape % 4)
        elif shape % 10 < 3:
            c = LSER.zero
        else:
            gam = Fraction(rng.randint(-4, 9), 1 + shape % 3)
            c = LSER.monomial(gam, Fraction(rng.randint(1, 5)))
        x = DiscPoint(LSER, c, rand_radius(rng, irrational=i % 2 == 1))
        return f, g, x

    @staticmethod
    def _poly(rng, deg, offset):
        # coefficient j has (offset + j) % 4 terms, the leading one 1 to 3
        coeffs = [puiseux_with_terms(rng, (offset + j) % 4) for j in range(deg)]
        coeffs.append(puiseux_with_terms(rng, 1 + (offset + deg) % 3))
        return Poly.make(LSER, coeffs)

    def run(self, q) -> str:
        f, g, x = q
        a = eval_seminorm(f, x)
        b = eval_seminorm(g, x)
        ab = eval_seminorm(f * g, x)
        _require(ab == a * b, "|fg| != |f||g|")
        return " ".join(format_magnitude(m) for m in (a, b, ab))

    def describe(self, q) -> dict:
        f, g, x = q
        e_r = x.radius.exponent
        return {
            "degree": [f.degree, g.degree],
            "center_terms": len(x.center),
            "center_term_inside_disc": any(Exponent(gam) >= e_r for gam, _ in x.center),
            "irrational_radius": not e_r.is_rational(),
        }


# ---------------------------------------------------------------------
# geometry-padic


def _shape_samples(rng, sd, count):
    """Members of a standard shape: its Shilov points plus points drawn
    near the shape's anchors, kept only when ``member`` accepts them."""
    dom = to_domain(sd)
    out = list(shilov_boundary(sd))
    if isinstance(sd, ClosedDisc):
        anchors = [(sd.center, sd.radius.exponent)]
    elif isinstance(sd, Annulus):
        anchors = [(sd.center, sd.outer.exponent), (sd.center, sd.inner.exponent)]
    else:
        anchors = [(sd.center, sd.radius.exponent)]
        anchors += [(a, r.exponent) for a, r in sd.holes]
    while len(out) < count:
        a, e = anchors[rng.randrange(len(anchors))]
        u = Q5.from_int(rng.choice([1, 2, 3, 6, 7]))
        step = Q5.mul(u, Q5.element_with_valuation(Exponent(e.a + rng.randint(0, 2))))
        c = Q5.add(a, step)
        if rng.random() < 0.3:
            x = DiscPoint(Q5, c, _fin(e.a + rng.randint(0, 2)))
        else:
            x = Type1Point(Q5, c)
        if member(x, dom):
            out.append(x)
    return out


def _standard_shape(rng, kind, field=Q5):
    center = field.from_int(rng.randint(-6, 6))
    e = rng.randint(-1, 2)
    if kind == 0:
        return ClosedDisc(field, center, _fin(e))
    if kind == 1:
        return Annulus(field, center, _fin(e + rng.randint(1, 3)), _fin(e))
    unit = field.element_with_valuation(Exponent(e))
    b1 = field.add(center, unit)
    b2 = field.add(center, field.mul(field.from_int(3), unit))
    holes = ((b1, _fin(e + 1)), (b2, _fin(e + rng.randint(1, 2))))
    return DiscMinusHoles(field, center, _fin(e), holes)


class GeometryPadic:
    """Tree laws, hulls, torus retraction, max modulus and root counts
    over padic:5: the Fraction side of the stack.

    Each query runs one instance of each of the four kinds in turn, so
    every query carries the same mix; the polynomial degrees and the
    shape follow the query index, the points and coefficients the seed.
    """

    name = "geometry-padic"
    pass_queries = 12
    SHAPES = 12
    SAMPLES = 24

    def __init__(self, seed: int):
        self.seed = seed
        rng = query_rng(seed, self.name, "shapes")
        self.shapes = []
        for j in range(self.SHAPES):
            sd = _standard_shape(rng, j % 3)
            self.shapes.append((sd, _shape_samples(rng, sd, self.SAMPLES)))

    def make(self, i):
        rng = query_rng(self.seed, self.name, i)
        triple = [rand_point(rng, Q5) for _ in range(3)]
        hull_pts = [rand_point(rng, Q5) for _ in range(8)]
        tree = (triple, hull_pts, rand_point(rng, Q5))
        torus = (rand_poly(rng, Q5, i % 9), rand_point(rng, Q5), rand_radius(rng))
        max_modulus = (rand_poly(rng, Q5, i % 7), self.shapes[i % self.SHAPES])
        f = rand_poly(rng, Q5, 1 + i % 6)
        g = rand_poly(rng, Q5, 1 + (i * 5 + 3) % 6)
        root_count = (f, g, rand_padic_element(rng), rand_radius(rng))
        return tree, torus, max_modulus, root_count

    def run(self, q) -> str:
        tree, torus, max_modulus, root_count = q
        return " | ".join((
            self._tree(*tree),
            self._torus(*torus),
            self._max_modulus(*max_modulus),
            self._root_count(*root_count),
        ))

    def _tree(self, triple, hull_pts, y):
        x, w, z = triple
        _require(point_eq(join(x, x), x), "join(x, x) != x")
        j = join(x, w)
        _require(point_eq(j, join(w, x)), "join is not commutative")
        jz = join(j, z)
        _require(point_eq(jz, join(x, join(w, z))), "join is not associative")
        _require(
            _path_length(x, w) == add_lengths(_path_length(x, j), _path_length(j, w)),
            "path lengths do not add across the join",
        )
        hull = convex_hull(hull_pts)
        r = retract_to_hull(y, hull)
        for v in hull.vertices:
            _require(
                _path_length(y, v.point)
                == add_lengths(_path_length(y, r), _path_length(r, v.point)),
                "path to a hull vertex misses the retraction",
            )
        return f"{format_point(j)} {format_point(jz)} {hull.canonical_key()} {format_point(r)}"

    def _torus(self, f, x, t):
        a, r = _center_radius(x)
        got = torus_retract(f, x, t)
        _require(got == eval_seminorm(f, DiscPoint(Q5, a, max(r, t))), "torus retraction")
        return format_magnitude(got)

    def _max_modulus(self, f, shape):
        sd, samples = shape
        _require(max_modulus_check(f, sd, samples), "a sample exceeds the Shilov maximum")
        best = max(eval_seminorm(f, b) for b in shilov_boundary(sd))
        _require(any(eval_seminorm(f, x) == best for x in samples), "maximum not attained")
        return format_magnitude(best)

    def _root_count(self, f, g, a, r):
        nf, ng = count_roots_in_disc(f, a, r), count_roots_in_disc(g, a, r)
        nfg = count_roots_in_disc(f * g, a, r)
        _require(nfg == nf + ng, "root counts are not additive")
        return f"{nf} {ng} {nfg}"

    def describe(self, q) -> dict:
        _, (f_t, x, _), (f_m, (sd, _)), (f, g, a, _) = q
        return {
            "degree": [f_t.degree, f_m.degree, f.degree, g.degree],
            "center_terms": [_support(Q5, _center_radius(x)[0]), _support(Q5, a)],
            "shape": type(sd).__name__,
        }


# ---------------------------------------------------------------------
# cover-skeleton


class CoverSkeleton:
    """Double-cover skeletons from partly clustered root sets.

    Each query builds one cover over puiseux:Q (d = 3..9) and one over
    padic:5 (d = 8..24); the degree band follows the query index, the
    roots the seed.
    """

    name = "cover-skeleton"
    pass_queries = 7  # one per degree band

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, i):
        rng = query_rng(self.seed, self.name, i)
        band = i % 7
        out = []
        for field, d in ((LSER, 3 + band), (Q5, 8 + (16 * band) // 6)):
            roots, clustered = distinct_roots(rng, field, d)
            out.append((field, roots, clustered, rng.random()))
        return out

    def run(self, q) -> str:
        return " | ".join(self._cover(field, roots, pick) for field, roots, _, pick in q)

    @staticmethod
    def _cover(field, roots, pick) -> str:
        d = len(roots)
        bd = BranchData.from_roots(field, roots)
        cs = cover_skeleton(bd)
        _require(cs.total_genus == (d - 1) // 2, "total genus != floor((d-1)/2)")
        # an independent oracle for the parity-derived fibers: the
        # residue-polynomial test of fiber_count at one disc vertex
        discs = [v for v in cs.base.vertices if isinstance(v.point, DiscPoint)]
        v = discs[int(pick * len(discs))]
        _require(fiber_count(bd, v.point) == cs.vertex_fibers[v.id], "fiber count disagrees")
        return repr(cs.base.canonical_key())

    def describe(self, q) -> dict:
        out = {}
        for field, roots, clustered, _ in q:
            tag = "puiseux" if field is LSER else "padic"
            out[tag + "_roots"] = len(roots)
            out[tag + "_clustered_root"] = [k < clustered for k in range(len(roots))]
            out[tag + "_root_terms"] = [_support(field, r) for r in roots]
        return out


# ---------------------------------------------------------------------
# cli


SUBCOMMANDS = (
    "classify", "eval", "path", "hull", "member", "shilov",
    "reduce", "mspecz", "nadic", "elliptic", "hyper", "retract",
)
FIELDS = (("padic:5", Q5), ("puiseux:Q", LSER))
FIXTURES = json.loads((BENCH_DIR / "cli_fixtures.json").read_text())


def _cli_argv(rng, sub):
    """Arguments for one generated call of ``sub``; every call is valid,
    so the seed code answers each with exit code 0.  Option values use
    the ``--opt=value`` form because many begin with a minus sign."""
    sel, k = FIELDS[rng.randrange(2)]
    fp = format_point

    def point():
        return fp(rand_point(rng, k))

    if sub == "classify":
        return [sub, "--field", sel, point()]
    if sub == "eval":
        f = rand_poly(rng, k, rng.randint(0, 6))
        return [sub, "--field", sel, "--poly=" + format_poly(f), point()]
    if sub == "path":
        return [sub, "--field", sel, point(), point()]
    if sub == "hull":
        dot = ["--dot"] if rng.random() < 0.5 else []
        return [sub, "--field", sel, *dot, *(point() for _ in range(rng.randint(2, 6)))]
    if sub == "member":
        sd = _standard_shape(rng, rng.randrange(2), k)
        return [sub, "--field", sel, "--standard=" + format_standard_domain(sd), point()]
    if sub == "shilov":
        sd = _standard_shape(rng, rng.randrange(3), k)
        return [sub, "--field", sel, "--standard=" + format_standard_domain(sd)]
    if sub == "reduce":
        return [sub, "--field", "padic:5", fp(rand_unit_disc_point(rng))]
    if sub == "mspecz":
        zp = rng.choice(["trivial", "p:5,r:1/2", "p:2,r:1/3", "arch:1/2", "pinf:7"])
        values = ",".join(str(rng.randint(-5000, 5000)) for _ in range(rng.randint(1, 6)))
        return [sub, "--point", zp, "--values=" + values]
    if sub == "nadic":
        x = Fraction(rng.randint(1, 600) * rng.choice([1, -1]), rng.randint(1, 600))
        return [sub, "--n", str(rng.randint(2, 60)), f"--x={x}"]
    if sub == "elliptic":
        lam = k.zero
        while k.is_zero(lam) or k.is_zero(k.sub(lam, k.one)):
            lam = rand_element(rng, k, nonzero=True)
        return [sub, "--field", sel, "--lambda=" + k.format_element(lam)]
    if sub == "hyper":
        d = rng.randint(3, 5 if k is LSER else 8)
        roots, _ = distinct_roots(rng, k, d)
        form = rng.choice([[], ["--dot"], ["--strict-squares"]])
        return [sub, "--field", sel, "--roots=" + ",".join(map(k.format_element, roots)), *form]
    hull_args = []
    for _ in range(rng.randint(1, 4)):
        hull_args.append("--hull-point=" + point())
    return [sub, "--field", sel, *hull_args, point()]


def check_cli_output(argv, code: int, out: str, expected) -> str:
    """Exit 0 with nothing on stderr (it is merged into ``out``), then
    either the frozen fixture text or one ``status: ok`` JSON line or a
    DOT graph."""
    _require(code == 0, f"exit code {code}: {out.strip()[:200]}")
    if expected is not None:
        _require(out == expected, "fixture output changed")
    elif "--dot" in argv:
        _require(out.startswith("graph ") and out.endswith("}\n"), "not a DOT graph")
    else:
        _require(out.count("\n") == 1, "not exactly one output line")
        _require(json.loads(out).get("status") == "ok", "status is not ok")
    return out


class Cli:
    """Sequential ``python -m berkline.cli`` calls: generated arguments for
    all twelve subcommands alternating with the twelve frozen fixtures."""

    name = "cli"
    pass_queries = 2 * len(SUBCOMMANDS)
    CALL_TIMEOUT_S = 60

    def __init__(self, seed: int, in_process: bool = False):
        self.seed = seed
        self.in_process = in_process
        self.max_child_rss_kb = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def make(self, i):
        if i % 2 == 1:
            fixture = FIXTURES[(i // 2) % len(FIXTURES)]
            return fixture["argv"], fixture["stdout"]
        rng = query_rng(self.seed, self.name, i)
        return _cli_argv(rng, SUBCOMMANDS[(i // 2) % len(SUBCOMMANDS)]), None

    def run(self, q) -> str:
        argv, expected = q
        code, out = self._call_in_process(argv) if self.in_process else self._call(argv)
        return check_cli_output(argv, code, out, expected)

    def _call(self, argv):
        p = subprocess.Popen(
            [sys.executable, "-m", "berkline.cli", *argv],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(self.CALL_TIMEOUT_S, p.kill)
        killer.start()
        try:
            out = p.stdout.read().decode()
            p.stdout.close()
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return p.returncode, out

    @staticmethod
    def _call_in_process(argv):
        from berkline import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.run(argv)
        return code, buf.getvalue()

    def describe(self, q) -> dict:
        argv, expected = q
        return {"subcommand": argv[0], "fixture": expected is not None}


WORKLOADS = {w.name: w for w in (SeminormPuiseux, GeometryPadic, CoverSkeleton, Cli)}
