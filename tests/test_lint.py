"""Two checks on the library's source.

No tuple in the library is built from a generator.

``tuple(<generator>)`` cannot know the final length: CPython allocates
the tuple at the generator's length hint (10) and resizes it as items
arrive, and a ``*<generator>`` call argument goes through the same
path.  When such a tuple is freed it goes to the free list of its final
size, and those lists keep up to 2,000 tuples for each size from 1 to
20 until a full collector pass empties them.  A list knows its length,
so ``tuple([...])`` is allocated once at that size.

Measured on the ``seminorm-puiseux`` bench workload with automatic
collection off: 6,000 queries left 4.06 MB in the tuple free lists (RSS
27.9 MB) while ``fields._from_int_keys`` built its tuples from
generators, and 0.46 MB (RSS 23.6 MB) with lists.  On
``cover-skeleton``, six more sites took RSS after 2,500 queries from
27.5 to 25.0 MB.  A library that runs fewer full collections (fewer
``Fraction`` objects) keeps those lists longer, so the saving shows as
peak memory.

No float enters the library outside its display functions: no float
literal, ``float(...)`` call, ``.to_float()`` call or ``math.sqrt`` /
``math.log*`` anywhere in ``src/berkline`` except in
:data:`FLOAT_DISPLAY`.  Every verdict is decided on exact values, so a
float is only ever a rendering.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "berkline"

# The display functions that may compute floats, by module and dotted
# name: the CLI's ``approx`` fields, the float images of exact values,
# and the display-only deviation of the convergence report.
FLOAT_DISPLAY = (
    "cli._mag_json",
    "cli._with_approx",
    "exponents.Exponent.to_float",
    "zspectrum.RealMag.to_float",
    "zspectrum.zpoint_limit_check",
)


def generator_built_tuples(source: str, name: str = "<string>") -> list:
    """``(line, form)`` for each ``tuple(<generator>)`` and each call with
    a ``*<generator>`` argument in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                and node.args and isinstance(node.args[0], ast.GeneratorExp)):
            found.append((node.lineno, "tuple(<generator>)"))
        for arg in node.args:
            if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp):
                found.append((node.lineno, "*<generator>"))
    return found


def test_the_check_sees_both_forms():
    source = (
        "a = tuple(x for x in y)\n"
        "b = f(*(x for x in y))\n"
        "c = tuple([x for x in y])\n"
        "d = f(*[x for x in y])\n"
        "e = sum(x for x in y)\n"
    )
    assert generator_built_tuples(source) == [(1, "tuple(<generator>)"), (2, "*<generator>")]


def test_no_generator_built_tuples_in_the_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{line}: {form}"
        for path in paths
        for line, form in generator_built_tuples(path.read_text(), str(path))
    ]
    assert found == []


def _float_math(name: str) -> bool:
    return name == "sqrt" or name.startswith("log")


def float_uses(source: str, name: str = "<string>") -> list:
    """``(scope, line, form)`` for each float literal, ``float(...)``
    call, ``.to_float()`` call and use of ``math.sqrt`` or a
    ``math.log*`` function (through ``import math [as m]`` or ``from math
    import ...``) in ``source``; ``scope`` is the dotted name of the
    enclosing classes and functions, ``""`` at module level."""
    tree = ast.parse(source, name)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names.update((a.asname or a.name, a.name) for a in node.names if _float_math(a.name))

    def form(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return "float literal"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                return "float()"
            if isinstance(node.func, ast.Attribute) and node.func.attr == "to_float":
                return ".to_float()"
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _float_math(node.attr)):
            return f"math.{node.attr}"
        if isinstance(node, ast.Name) and node.id in names:
            return f"math.{names[node.id]}"
        return None

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                continue
            what = form(child)
            if what:
                found.append((scope, child.lineno, what))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(tree, "")
    return found


def _displays(module: str, scope: str) -> bool:
    where = f"{module}.{scope}"
    return any(where == name or where.startswith(name + ".") for name in FLOAT_DISPLAY)


def test_the_float_check_sees_every_form():
    source = (
        "import math as m\n"
        "from math import sqrt, log2 as lg, isqrt\n"
        "a = 1.5\n"
        "b = float(x)\n"
        "c = x.to_float()\n"
        "d = m.log(x)\n"
        "e = m.sqrt(x)\n"
        "f = sqrt(x) + lg(x)\n"
        "class C:\n"
        "    def shown(self):\n"
        "        return 2e3\n"
        "g = isqrt(x) + x.to_float + m.gcd(1, 2) + int(3) + 3 // 4\n"
    )
    assert float_uses(source) == [
        ("", 3, "float literal"),
        ("", 4, "float()"),
        ("", 5, ".to_float()"),
        ("", 6, "math.log"),
        ("", 7, "math.sqrt"),
        ("", 8, "math.sqrt"),
        ("", 8, "math.log2"),
        ("C.shown", 11, "float literal"),
    ]
    assert _displays("zspectrum", "RealMag.to_float")
    assert _displays("cli", "_mag_json.helper")
    assert not _displays("cli", "_realmag_json")
    assert not _displays("exponents", "Exponent.sign")


def test_no_float_outside_the_display_functions():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    uses = [(path.stem, *use) for path in paths for use in float_uses(path.read_text(), str(path))]
    assert {(module, scope) for module, scope, _, _ in uses} >= {("exponents", "Exponent.to_float")}
    assert [u for u in uses if not _displays(u[0], u[1])] == []
