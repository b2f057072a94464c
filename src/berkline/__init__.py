"""Exact computations on the non-archimedean line of discs.

The package loads its modules lazily (PEP 562): ``berkline.join`` imports
``berkline.line`` on first use, so a caller compiles only the modules
whose names it asks for.  A name is read from its defining module on
every access and never stored here, so rebinding it there (as
``monkeypatch`` or a tracer does) shows here at once, and undoing the
rebinding leaves no stale copy behind.
"""

import importlib

# defining module -> the public names the package re-exports from it
_EXPORTS = {
    "errors": ("DomainError", "ParseError"),
    "exponents": (
        "EXP_ONE", "EXP_ZERO", "Exponent", "INF", "MAG_ONE", "MAG_ZERO", "Magnitude",
        "Ordering", "add_lengths", "exp_compare", "format_exponent", "format_length",
        "format_magnitude", "is_rational_over_value_group", "mag_max", "parse_exponent",
    ),
    "fields": (
        "PAdicField", "PrimeField", "PuiseuxField", "QQ", "Rationals", "TrivialField",
        "parse_base_field", "parse_field", "ultrametric_check",
    ),
    "polynomials": (
        "Poly", "count_roots_in_disc", "derivative", "format_poly", "hasse_derivative",
        "is_constant_times_square", "newton_slopes", "parse_poly", "poly_divmod",
        "poly_gcd", "squarefree_decomposition", "squarefree_part", "taylor_shift",
    ),
    "line": (
        "ChainPoint", "Components", "DiscPoint", "INFINITY_DIR", "Path", "PathSegment",
        "Point", "PointClass", "RadiusInfo", "SkeletonEdge", "SkeletonGraph",
        "SkeletonVertex", "Type1Point", "classify", "components_count", "convex_hull",
        "direction", "eval_seminorm", "format_point", "join", "parse_point", "path",
        "point_eq", "point_leq", "point_radius", "retract_to_hull", "seminorm_is_exact",
        "top_vertex", "torus_retract",
    ),
    "domains": (
        "Annulus", "ClosedDisc", "DiscMinusHoles", "Domain", "DomainClass", "GENERIC",
        "Inequality", "Rel", "StandardDomain", "domain_intersect", "format_domain",
        "format_standard_domain", "in_interior", "max_modulus_check", "member",
        "parse_domain", "parse_standard_domain", "reduce_point", "shilov_boundary",
        "to_domain",
    ),
    "zspectrum": (
        "LimitReport", "RM_ONE", "RealMag", "ZArch", "ZPAdic", "ZPAdicInfty", "ZPoint",
        "ZTrivial", "format_zpoint", "nadic_norm", "nadic_spectral", "parse_zpoint",
        "prime_factors", "zpoint_eval", "zpoint_is_multiplicative_on", "zpoint_limit_check",
    ),
    "hyperelliptic": (
        "BranchData", "CoverSkeleton", "EllipticReduction", "GoodReduction",
        "Multiplicative", "cover_skeleton", "elliptic_reduction", "fiber_count", "genus",
        "mobius_orbit", "tate_cycle_exponent",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:  # a library module not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
