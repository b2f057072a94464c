"""The demo scripts in ``scripts/``, frozen.

Each script runs in a fresh interpreter and must exit 0 with its
output byte for byte as recorded here.  ``skeleton_gallery.py`` runs
the polynomial kernels (the product in ``from_roots`` and the fiber
counts of ``cover_skeleton``) over ``puiseux:Q`` and ``padic:5``;
``mz_convergence.py`` runs the n-adic norms of the spectrum of Z.
The statement tracer ``unreached.py`` is checked in process on a small
module.
"""

import gc
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_GALLERY = """\
== degenerate elliptic, cycle of length two
   degree 3, branch points 4, genus 1, betti 1
   v0: disc(0; -1)  fibers=1 genus=0
   v1: disc(0; 0)  fibers=1 genus=0
   v2: pt1(0)  fibers=1 genus=0 *
   v3: pt1(1)  fibers=1 genus=0 *
   v4: pt1(t^(-1))  fibers=1 genus=0 *
   v5: inf  fibers=1 genus=0
   e0: v1 -- v0  len=1  split
   e1: v2 -- v1  len=inf  inert
   e2: v3 -- v1  len=inf  inert
   e3: v4 -- v0  len=inf  inert
   e4: v0 -- v5  len=inf  inert

== wider cycle, modulus six
   degree 3, branch points 4, genus 1, betti 1
   v0: disc(0; -3)  fibers=1 genus=0
   v1: disc(0; 0)  fibers=1 genus=0
   v2: pt1(0)  fibers=1 genus=0 *
   v3: pt1(1)  fibers=1 genus=0 *
   v4: pt1(t^(-3))  fibers=1 genus=0 *
   v5: inf  fibers=1 genus=0
   e0: v1 -- v0  len=3  split
   e1: v2 -- v1  len=inf  inert
   e2: v3 -- v1  len=inf  inert
   e3: v4 -- v0  len=inf  inert
   e4: v0 -- v5  len=inf  inert

== two clusters of genus zero, loops instead
   degree 5, branch points 6, genus 2, betti 2
   v0: disc(0; 0)  fibers=1 genus=0
   v1: disc(0; 1)  fibers=1 genus=0
   v2: disc(1; 1)  fibers=1 genus=0
   v3: pt1(0)  fibers=1 genus=0 *
   v4: pt1(1)  fibers=1 genus=0 *
   v5: pt1(1+t)  fibers=1 genus=0 *
   v6: pt1(2)  fibers=1 genus=0 *
   v7: pt1(t)  fibers=1 genus=0 *
   v8: inf  fibers=1 genus=0
   e0: v1 -- v0  len=1  split
   e1: v2 -- v0  len=1  split
   e2: v3 -- v1  len=inf  inert
   e3: v4 -- v2  len=inf  inert
   e4: v5 -- v2  len=inf  inert
   e5: v6 -- v0  len=inf  inert
   e6: v7 -- v1  len=inf  inert
   e7: v0 -- v8  len=inf  inert

== depth mixes into the edge lengths
   degree 6, branch points 6, genus 2, betti 2
   v0: disc(0; 0)  fibers=1 genus=0
   v1: disc(0; 1)  fibers=1 genus=0
   v2: disc(0; 2)  fibers=1 genus=0
   v3: disc(2; 3)  fibers=1 genus=0
   v4: pt1(0)  fibers=1 genus=0 *
   v5: pt1(1)  fibers=1 genus=0 *
   v6: pt1(2)  fibers=1 genus=0 *
   v7: pt1(2+t^(3))  fibers=1 genus=0 *
   v8: pt1(t)  fibers=1 genus=0 *
   v9: pt1(t^(2))  fibers=1 genus=0 *
   e0: v1 -- v0  len=1  inert
   e1: v2 -- v1  len=1  split
   e2: v3 -- v0  len=3  split
   e3: v4 -- v2  len=inf  inert
   e4: v5 -- v0  len=inf  inert
   e5: v6 -- v3  len=inf  inert
   e6: v7 -- v3  len=inf  inert
   e7: v8 -- v1  len=inf  inert
   e8: v9 -- v2  len=inf  inert

"""

_GALLERY_PADIC = """\
== two points, one disc
   degree 2, branch points 2, genus 0, betti 0
   v0: disc(0; 0)  fibers=1 genus=0
   v1: pt1(0)  fibers=1 genus=0 *
   v2: pt1(1)  fibers=1 genus=0 *
   e0: v1 -- v0  len=inf  inert
   e1: v2 -- v0  len=inf  inert

== good reduction, genus one
   degree 3, branch points 4, genus 1, betti 0
   v0: disc(0; 0)  fibers=1 genus=1
   v1: pt1(0)  fibers=1 genus=0 *
   v2: pt1(1)  fibers=1 genus=0 *
   v3: pt1(2)  fibers=1 genus=0 *
   v4: inf  fibers=1 genus=0
   e0: v1 -- v0  len=inf  inert
   e1: v2 -- v0  len=inf  inert
   e2: v3 -- v0  len=inf  inert
   e3: v0 -- v4  len=inf  inert

== split pair below the Gauss disc
   degree 4, branch points 4, genus 1, betti 1
   v0: disc(0; 0)  fibers=2 genus=0
   v1: disc(0; 1)  fibers=1 genus=0
   v2: disc(1; 1)  fibers=1 genus=0
   v3: pt1(0)  fibers=1 genus=0 *
   v4: pt1(1)  fibers=1 genus=0 *
   v5: pt1(5)  fibers=1 genus=0 *
   v6: pt1(6)  fibers=1 genus=0 *
   e0: v1 -- v0  len=1  split
   e1: v2 -- v0  len=1  split
   e2: v3 -- v1  len=inf  inert
   e3: v4 -- v2  len=inf  inert
   e4: v5 -- v1  len=inf  inert
   e5: v6 -- v2  len=inf  inert

== three residue classes, genus two
   degree 5, branch points 6, genus 2, betti 1
   v0: disc(0; 0)  fibers=1 genus=1
   v1: disc(0; 1)  fibers=1 genus=0
   v2: pt1(0)  fibers=1 genus=0 *
   v3: pt1(1)  fibers=1 genus=0 *
   v4: pt1(2)  fibers=1 genus=0 *
   v5: pt1(3)  fibers=1 genus=0 *
   v6: pt1(5)  fibers=1 genus=0 *
   v7: inf  fibers=1 genus=0
   e0: v1 -- v0  len=1  split
   e1: v2 -- v1  len=inf  inert
   e2: v3 -- v0  len=inf  inert
   e3: v4 -- v0  len=inf  inert
   e4: v5 -- v0  len=inf  inert
   e5: v6 -- v1  len=inf  inert
   e6: v0 -- v7  len=inf  inert

"""

_GALLERY_DOT = """\
graph skeleton {
  n0 [label="disc(0; 0) t2 g0"];
  n1 [label="disc(0; 1) t2 g0"];
  n2 [label="disc(0; 2) t2 g0"];
  n3 [label="disc(2; 3) t2 g0"];
  n4 [label="pt1(0) t1 g0 *"];
  n5 [label="pt1(1) t1 g0 *"];
  n6 [label="pt1(2) t1 g0 *"];
  n7 [label="pt1(2+t^(3)) t1 g0 *"];
  n8 [label="pt1(t) t1 g0 *"];
  n9 [label="pt1(t^(2)) t1 g0 *"];
  n1 -- n0 [len="1"];
  n2 -- n1 [len="1"];
  n3 -- n0 [len="3"];
  n4 -- n2 [len="inf"];
  n5 -- n0 [len="inf"];
  n6 -- n3 [len="inf"];
  n7 -- n3 [len="inf"];
  n8 -- n1 [len="inf"];
  n9 -- n2 [len="inf"];
}
"""

_MZ_CONVERGENCE = """\
== |.|_6
   |2*3| < |2|*|3| on 2, 3
   x=6: m=1:0.1667  m=2:0.1667  m=4:0.1667  m=8:0.1667  m=16:0.1667  m=32:0.1667  m=64:0.1667  -> spectral 0.1667 (6^(-1))
   x=8/9: m=1:36.0000  m=2:36.0000  m=4:36.0000  m=8:36.0000  m=16:36.0000  m=32:36.0000  m=64:36.0000  -> spectral 36.0000 (6^(2))
   x=7/25: m=1:1.0000  m=2:1.0000  m=4:1.0000  m=8:1.0000  m=16:1.0000  m=32:1.0000  m=64:1.0000  -> spectral 1.0000 (6^(0))

== |.|_10
   |2*5| < |2|*|5| on 2, 5
   x=6: m=1:1.0000  m=2:1.0000  m=4:1.0000  m=8:1.0000  m=16:1.0000  m=32:1.0000  m=64:1.0000  -> spectral 1.0000 (10^(0))
   x=8/9: m=1:1.0000  m=2:1.0000  m=4:1.0000  m=8:1.0000  m=16:1.0000  m=32:1.0000  m=64:1.0000  -> spectral 1.0000 (10^(0))
   x=7/25: m=1:100.0000  m=2:100.0000  m=4:100.0000  m=8:100.0000  m=16:100.0000  m=32:100.0000  m=64:100.0000  -> spectral 100.0000 (10^(2))

== |.|_12
   |2*6| < |2|*|6| on 2, 6
   x=6: m=1:1.0000  m=2:0.2887  m=4:0.2887  m=8:0.2887  m=16:0.2887  m=32:0.2887  m=64:0.2887  -> spectral 0.2887 (12^(-1/2))
   x=8/9: m=1:144.0000  m=2:144.0000  m=4:144.0000  m=8:144.0000  m=16:144.0000  m=32:144.0000  m=64:144.0000  -> spectral 144.0000 (12^(2))
   x=7/25: m=1:1.0000  m=2:1.0000  m=4:1.0000  m=8:1.0000  m=16:1.0000  m=32:1.0000  m=64:1.0000  -> spectral 1.0000 (12^(0))

== |.|_24
   |2*12| < |2|*|12| on 2, 12
   x=6: m=1:1.0000  m=2:1.0000  m=4:0.4518  m=8:0.4518  m=16:0.3704  m=32:0.3704  m=64:0.3525  -> spectral 0.3467 (24^(-1/3))
   x=8/9: m=1:576.0000  m=2:576.0000  m=4:576.0000  m=8:576.0000  m=16:576.0000  m=32:576.0000  m=64:576.0000  -> spectral 576.0000 (24^(2))
   x=7/25: m=1:1.0000  m=2:1.0000  m=4:1.0000  m=8:1.0000  m=16:1.0000  m=32:1.0000  m=64:1.0000  -> spectral 1.0000 (24^(0))

== p-adic branch at p=2, r sliding toward the trivial point
        x  r=1  r=1/2  r=1/4  r=1/8  r=1/16
       50  0.5000  0.7071  0.8409  0.9170  0.9576
       12  0.2500  0.5000  0.7071  0.8409  0.9170
        7  1.0000  1.0000  1.0000  1.0000  1.0000 (unit, stays at 1)
     -360  0.1250  0.3536  0.5946  0.7711  0.8781

== p-adic branch at p=5, r sliding toward the trivial point
        x  r=1  r=1/2  r=1/4  r=1/8  r=1/16
       50  0.0400  0.2000  0.4472  0.6687  0.8178
       12  1.0000  1.0000  1.0000  1.0000  1.0000 (unit, stays at 1)
        7  1.0000  1.0000  1.0000  1.0000  1.0000 (unit, stays at 1)
     -360  0.2000  0.4472  0.6687  0.8178  0.9043

"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["skeleton_gallery.py"], _GALLERY),
        (["skeleton_gallery.py", "--field", "padic:5"], _GALLERY_PADIC),
        (["skeleton_gallery.py", "--dot"], _GALLERY_DOT),
        (["mz_convergence.py"], _MZ_CONVERGENCE),
    ],
    ids=["gallery", "gallery-padic", "gallery-dot", "mz-convergence"],
)
def test_script_output_frozen(argv, expected):
    script, *args = argv
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == expected


_SAMPLE = '''\
"""A module whose one negative branch is never taken."""
import os


def sign(x):
    """Docstring, not counted."""
    if x < 0:
        return -1
    return (
        1
    )
'''


def test_unreached_names_the_one_statement_never_run(tmp_path):
    spec = importlib.util.spec_from_file_location("unreached", ROOT / "scripts" / "unreached.py")
    unreached = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unreached)
    (tmp_path / "sample.py").write_text(_SAMPLE)
    sample = importlib.util.spec_from_file_location("sample", tmp_path / "sample.py")

    def run():
        module = importlib.util.module_from_spec(sample)
        sample.loader.exec_module(module)
        assert module.sign(2) == 1

    missed, total = unreached.unreached(tmp_path, unreached.collect(run, tmp_path))
    assert total == 3
    assert [(path.name, line, text) for path, line, text in missed] == [
        ("sample.py", 8, "return -1")
    ]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gc_census_counts_collections_per_generation():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gc_census.py"), "--queries", "14"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    head, *gens = out.stdout.splitlines()[:4]
    assert head == "cover-skeleton, seed 1, queries 0..13, 0 failed"
    assert [line.split(":")[0] for line in gens] == ["gen 0", "gen 1", "gen 2"]
    assert all(line.endswith(" ms") and " collections, " in line for line in gens)


def test_gc_census_names_the_caller_of_a_full_collection():
    census = _load_script("gc_census")
    hook = census.Census()
    gc.callbacks.append(hook)
    try:
        gc.collect()
    finally:
        gc.callbacks.remove(hook)
    assert hook.count[2] == 1 and hook.pause[2] > 0
    [(query, pause, caller)] = hook.full
    assert query is None and pause == hook.pause[2]
    assert caller == "outside the library, in test_scripts." + (
        "test_gc_census_names_the_caller_of_a_full_collection"
    )
