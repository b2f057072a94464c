"""The lazy package and the per-subcommand imports of the CLI.

``import berkline`` loads no library module, and a CLI call loads only
the modules its subcommand runs.  The package re-exports the same public
names as the eager package did, each read from its defining module on
every access, so a rebinding there shows through the package and undoing
it leaves no stale copy behind."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import berkline
import berkline.line
from test_cli import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of the package, by defining module, as the eager
# package bound them
NAMES = {
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

_LINE = {"errors", "exponents", "fields", "polynomials", "line"}

# the library modules each subcommand loads
LOADS = {
    "classify": _LINE,
    "eval": _LINE,
    "path": _LINE,
    "hull": _LINE,
    "retract": _LINE,
    "member": _LINE | {"domains"},
    "shilov": _LINE | {"domains"},
    "reduce": _LINE | {"domains"},
    "elliptic": _LINE | {"hyperelliptic"},
    "hyper": _LINE | {"hyperelliptic"},
    "nadic": {"errors", "exponents", "zspectrum"},
    "mspecz": {"errors", "exponents", "zspectrum"},
}

_REPORT = "import sys; print(*sorted(m for m in sys.modules if m.startswith('berkline')))"


def _fresh(code: str, *argv: str) -> tuple:
    """The lines ``code`` prints in a fresh interpreter, and the sorted
    names of the ``berkline`` modules loaded after it."""
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}", *argv],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    ).stdout
    *printed, modules = out.splitlines()
    return printed, modules.split()


def _berkline(names) -> list:
    return sorted({"berkline"} | {f"berkline.{n}" for n in names})


def test_import_berkline_loads_no_submodule():
    assert _fresh("import berkline") == ([], ["berkline"])
    # a library module is still an attribute of the package, loaded on use
    printed, modules = _fresh("import berkline; print(berkline.zspectrum.__name__)")
    assert (printed, modules) == (["berkline.zspectrum"], _berkline(LOADS["nadic"]))


def test_import_cli_loads_only_errors():
    assert _fresh("import berkline.cli") == ([], _berkline({"cli", "errors"}))


def test_each_subcommand_loads_only_the_modules_it_runs():
    assert sorted(LOADS) == sorted(argv[0] for argv, _ in FIXTURES)
    code = "import sys; from berkline.cli import run; run(sys.argv[1:])"
    for argv, expected in FIXTURES:
        printed, modules = _fresh(code, *argv)
        assert "\n".join(printed) + "\n" == expected, argv
        assert modules == _berkline(LOADS[argv[0]] | {"cli"}), argv[0]


def test_package_names_frozen():
    frozen = sorted(n for names in NAMES.values() for n in names)
    assert len(frozen) == 116
    assert sorted(berkline.__all__) == frozen
    assert set(frozen) <= set(dir(berkline))


def test_each_name_is_the_defining_modules_object():
    for module, names in NAMES.items():
        defining = importlib.import_module(f"berkline.{module}")
        for name in names:
            assert getattr(berkline, name) is getattr(defining, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from berkline import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(berkline.__all__)
    for names in NAMES.values():
        for name in names:
            assert namespace[name] is getattr(berkline, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        berkline.no_such_name
    assert not hasattr(berkline, "Fraction")  # imported by the modules, not exported


def test_package_reads_rebound_names_afresh(monkeypatch):
    original = berkline.line.join

    def stand_in(x, y):
        return original(x, y)

    monkeypatch.setattr(berkline.line, "join", stand_in)
    assert berkline.join is stand_in
    monkeypatch.undo()
    assert berkline.join is original
    assert "join" not in vars(berkline)
