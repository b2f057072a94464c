"""Command-line front end: text grammars in, JSON or DOT out.

Exit codes: 0 success, 2 argparse-level misuse (unknown subcommand, bad
flags), 3 grammar parse failure, 4 precondition violation.  Parse
failures print a single diagnostic line naming the offending grammar
rule.  All JSON output is deterministic: keys sorted, exact values as
strings or ints, floats only in fields named "approx" which are display
only and never fed back into computations.

Each subcommand ``_cmd_<name>(args, field)`` returns its answer: a dict,
or the DOT text of ``hull --dot`` and ``hyper --dot``.  :func:`run`
parses ``--field``, when the subcommand has one, before the other
arguments, and prints every answer, JSON with ``"status": "ok"`` added.

Start-up is part of every call, so each subcommand imports the library
modules it runs inside its own function, and this module loads only
``errors`` at import.  ``classify``, ``eval``, ``path``, ``hull`` and
``retract`` load ``exponents``, ``fields``, ``polynomials`` and ``line``;
``member``, ``shilov`` and ``reduce`` add ``domains``; ``elliptic`` and
``hyper`` add ``hyperelliptic``; ``nadic`` and ``mspecz`` load only
``exponents`` and ``zspectrum``.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import DomainError, ParseError, read_literal


def _frac_json(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


def _with_approx(out: dict, approx) -> dict:
    """``out`` with the display-only float ``approx()``, left out when
    that is beyond the range of a float."""
    try:
        out["approx"] = approx()
    except OverflowError:
        pass
    return out


def _mag_json(mag, field) -> dict:
    from .exponents import format_exponent
    from .fields import PAdicField

    if mag.is_zero:
        return {"zero": True}
    out = {"zero": False, "exponent": format_exponent(mag.exponent)}
    if isinstance(field, PAdicField):
        return _with_approx(out, lambda: float(field.p) ** (-mag.exponent.to_float()))
    return out


def _realmag_json(v) -> dict:
    if v.is_zero:
        return {"zero": True}
    return _with_approx({"base": _frac_json(v.base), "exp": _frac_json(v.exp)}, v.to_float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berkline",
        description="Exact computations on the non-archimedean line of discs",
    )
    sub = parser.add_subparsers(dest="command")

    def with_field(p):
        p.add_argument("--field", required=True, help="padic:<p> | puiseux:<B> | trivial:<B>")
        return p

    p = with_field(sub.add_parser("classify", help="point type and invariants"))
    p.add_argument("point")

    p = with_field(sub.add_parser("eval", help="apply a point's seminorm to a polynomial"))
    p.add_argument("--poly", required=True)
    p.add_argument("point")

    p = with_field(sub.add_parser("path", help="the unique arc between two points"))
    p.add_argument("start")
    p.add_argument("end")

    p = with_field(sub.add_parser("hull", help="convex hull of finitely many points"))
    p.add_argument("--dot", action="store_true")
    p.add_argument("points", nargs="+")

    p = with_field(sub.add_parser("member", help="affinoid membership test"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--domain")
    group.add_argument("--standard")
    p.add_argument("point")

    p = with_field(sub.add_parser("shilov", help="Shilov boundary of a standard shape"))
    p.add_argument("--standard", required=True)

    p = with_field(sub.add_parser("reduce", help="reduction of a unit-disc point"))
    p.add_argument("point")

    p = sub.add_parser("mspecz", help="evaluate a real semivaluation on integers")
    p.add_argument("--point", required=True)
    p.add_argument("--values", required=True, help="comma-separated integers")

    p = sub.add_parser("nadic", help="n-adic norm and spectral seminorm of a rational")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--x", required=True)

    p = with_field(sub.add_parser("elliptic", help="reduction type from the Legendre parameter"))
    p.add_argument("--lambda", dest="lam", required=True)

    p = with_field(sub.add_parser("hyper", help="skeleton and genus of a double cover"))
    p.add_argument("--roots", required=True, help="comma-separated field elements")
    p.add_argument("--lc", help="leading coefficient (default 1)")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--strict-squares", action="store_true")

    p = with_field(sub.add_parser("retract", help="retraction onto a hull"))
    p.add_argument("--hull-point", action="append", required=True)
    p.add_argument("point")

    return parser


def _cmd_classify(args, field) -> dict:
    from .line import classify, components_count, parse_point

    x = parse_point(field, args.point)
    pc = classify(x)
    return {
        "type": pc.type,
        "E": pc.E,
        "F": pc.F,
        "components": components_count(x).value,
    }


def _cmd_eval(args, field) -> dict:
    from .line import eval_seminorm, parse_point, seminorm_is_exact
    from .polynomials import parse_poly

    x = parse_point(field, args.point)
    f = parse_poly(field, args.poly)
    return {
        "value": _mag_json(eval_seminorm(f, x), field),
        "exact": seminorm_is_exact(x),
    }


def _cmd_path(args, field) -> dict:
    from .exponents import format_length
    from .line import parse_point, path

    x = parse_point(field, args.start)
    y = parse_point(field, args.end)
    p = path(x, y)
    return {
        "segments": [
            {
                "center": field.format_element(s.center),
                "from": format_length(s.e_from),
                "to": format_length(s.e_to),
                "length": format_length(s.length),
            }
            for s in p.segments
        ],
        "length": format_length(p.length),
    }


def _graph_json(g) -> dict:
    from .exponents import format_length

    return {
        "vertices": [
            {
                "id": v.id,
                "point": v.label,
                "type": v.ptype,
                "genus": v.genus,
                "marked": v.id in g.marked,
            }
            for v in g.vertices
        ],
        "edges": [
            {"u": e.u, "v": e.v, "len": format_length(e.length)} for e in g.edges
        ],
    }


def _cmd_hull(args, field):
    from .line import convex_hull, parse_point

    pts = [parse_point(field, t) for t in args.points]
    g = convex_hull(pts)
    return g.to_dot("hull") if args.dot else _graph_json(g)


def _cmd_member(args, field) -> dict:
    from .domains import member, parse_domain, parse_standard_domain, to_domain
    from .line import parse_point, seminorm_is_exact

    x = parse_point(field, args.point)
    if args.standard is not None:
        sd = parse_standard_domain(field, args.standard)
        d = to_domain(sd)
    else:
        d = parse_domain(field, args.domain)
    return {
        "member": member(x, d),
        "exact": seminorm_is_exact(x),
        "class": d.classify().value,
    }


def _cmd_shilov(args, field) -> dict:
    from .domains import parse_standard_domain, shilov_boundary
    from .line import format_point

    sd = parse_standard_domain(field, args.standard)
    return {
        "points": [format_point(b) for b in shilov_boundary(sd)],
    }


def _cmd_reduce(args, field) -> dict:
    from .domains import GENERIC, reduce_point
    from .line import parse_point

    x = parse_point(field, args.point)
    r = reduce_point(x)
    if r is GENERIC:
        return {"generic": True}
    return {
        "generic": False,
        "residue": field.residue_field.format_element(r),
    }


def _cmd_mspecz(args, field) -> dict:
    from .zspectrum import format_zpoint, parse_zpoint, zpoint_eval

    zp = parse_zpoint(args.point)
    values = [read_literal(c, "integer", c, integer=True) for c in args.values.split(",")]
    return {
        "point": format_zpoint(zp),
        "values": [
            dict(m=m, **_realmag_json(zpoint_eval(zp, m))) for m in values
        ],
    }


def _cmd_nadic(args, field) -> dict:
    from .zspectrum import nadic_norm, nadic_spectral

    x = read_literal(args.x, "rational", args.x)
    return {
        "norm": _realmag_json(nadic_norm(x, args.n)),
        "spectral": _realmag_json(nadic_spectral(x, args.n)),
    }


def _cmd_elliptic(args, field) -> dict:
    from .exponents import format_exponent
    from .hyperelliptic import Multiplicative, elliptic_reduction

    lam = field.parse_element(args.lam)
    red = elliptic_reduction(field, lam)
    if isinstance(red, Multiplicative):
        return {
            "type": "multiplicative",
            "cycle_exponent": format_exponent(red.cycle_exponent),
            "via": red.via,
        }
    rf = field.residue_field
    return {
        "type": "good",
        "lambda_residue": rf.format_element(red.lambda_residue),
        "j_residue": rf.format_element(red.j_residue),
    }


def _cmd_hyper(args, field):
    from .hyperelliptic import BranchData, cover_skeleton, fiber_count
    from .line import classify

    roots = [field.parse_element(t) for t in args.roots.split(",")]
    lead = field.parse_element(args.lc) if args.lc is not None else None
    bd = BranchData.from_roots(field, roots, lead)
    cs = cover_skeleton(bd)
    if args.dot:
        return cs.base.to_dot("cover")
    payload = {
        "betti": cs.betti,
        "total_genus": cs.total_genus,
        "vertex_genera": list(cs.vertex_genus),
        "fibers": list(cs.vertex_fibers),
        "splits": list(cs.edge_split),
    }
    payload.update(_graph_json(cs.base))
    if args.strict_squares:
        strict = []
        for v in cs.base.vertices:
            if v.point is None or classify(v.point).type not in (2, 3):
                strict.append(None)
            else:
                strict.append(fiber_count(bd, v.point, strict_squares=True))
        payload["strict_fibers"] = strict
    return payload


def _cmd_retract(args, field) -> dict:
    from .line import convex_hull, format_point, parse_point, retract_to_hull

    hull_pts = [parse_point(field, t) for t in args.hull_point]
    x = parse_point(field, args.point)
    g = convex_hull(hull_pts)
    return {"point": format_point(retract_to_hull(x, g))}


_COMMANDS = {
    "classify": _cmd_classify,
    "eval": _cmd_eval,
    "path": _cmd_path,
    "hull": _cmd_hull,
    "member": _cmd_member,
    "shilov": _cmd_shilov,
    "reduce": _cmd_reduce,
    "mspecz": _cmd_mspecz,
    "nadic": _cmd_nadic,
    "elliptic": _cmd_elliptic,
    "hyper": _cmd_hyper,
    "retract": _cmd_retract,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    # Exact answers are printed in full, however many digits they have;
    # the literals they come from are bounded by errors.MAX_DIGITS.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        field = None
        if "field" in args:
            from .fields import parse_field

            field = parse_field(args.field)
        out = _COMMANDS[args.command](args, field)
        print(out if isinstance(out, str) else json.dumps({"status": "ok", **out}, sort_keys=True))
    except ParseError as exc:
        print(f"parse error [{exc.rule}]: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def main() -> None:
    # A call is one short-lived process: what is alive now (the
    # interpreter's start-up, the standard library, this module) stays
    # until exit, so the cyclic collector skips it, here and in its passes
    # at exit.  The library's objects, made after this, are collected as
    # before.
    import gc

    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
