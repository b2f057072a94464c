"""No tuple in the library is built from a generator.

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
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "berkline"


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
