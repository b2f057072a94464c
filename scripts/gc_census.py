#!/usr/bin/env python3
"""Count the garbage collections a benchmark workload triggers.

Runs queries 0..N-1 of one workload of ``bench/workloads.py`` in this
process as the closed loop of ``bench/run.py`` does (its set-up and
warm-up first, then each query made, run and described, with the
loop's per-query records kept), and prints for each generation the
number of collections and their total pause.  Then, for each gen-2
collection, the query it fell in, its pause and the top-level library
call it started in: the outermost ``berkline`` function on the stack
when the collector ran, or the caller outside the library.

Usage, from the repository root::

    python scripts/gc_census.py [--workload cover-skeleton] [--seed 1] [--queries 4000]

The harness modules are imported as they are and nothing is written
next to them (no bytecode cache).  Only the standard library is used.
"""

import argparse
import gc
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = str(ROOT / "src" / "berkline")


def _caller(frame) -> str:
    """The outermost library function on the stack of ``frame``, else
    the first function above the collector's own callback."""
    outermost, first = None, None
    while frame is not None:
        code = frame.f_code
        if code.co_filename != __file__ and first is None:
            first = code
        if code.co_filename.startswith(LIBRARY):
            outermost = code
        frame = frame.f_back
    code = outermost or first
    qualname = getattr(code, "co_qualname", code.co_name)  # Python 3.11 on
    name = f"{Path(code.co_filename).stem}.{qualname}"
    return name if outermost else f"outside the library, in {name}"


class Census:
    """A ``gc.callbacks`` hook: collections and pauses per generation,
    and one ``(query, pause, caller)`` entry per gen-2 collection."""

    def __init__(self):
        self.count = [0, 0, 0]
        self.pause = [0.0, 0.0, 0.0]
        self.full = []
        self.query = None
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
            if info["generation"] == 2:
                self.full.append([self.query, 0.0, _caller(sys._getframe(1))])
            return
        gen, dt = info["generation"], perf_counter() - self._start
        self.count[gen] += 1
        self.pause[gen] += dt
        if gen == 2:
            self.full[-1][1] = dt


def census(name: str, seed: int, queries: int):
    """The :class:`Census` of queries 0..queries-1, and the number of
    them that failed their check."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from run import Outcome, setup

    wl, loop, out = setup(name, seed), Outcome(), Census()
    gc.callbacks.append(out)
    try:
        for i in range(queries):
            out.query = i
            q = wl.make(i)
            loop.record(wl, i, q, keep_answer=i < wl.pass_queries)
            loop.described.append(wl.describe(q))
    finally:
        gc.callbacks.remove(out)
    return out, loop.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="cover-skeleton")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--queries", type=int, default=4000)
    args = ap.parse_args(argv)
    out, failed = census(args.workload, args.seed, args.queries)
    print(f"{args.workload}, seed {args.seed}, queries 0..{args.queries - 1}, {failed} failed")
    for gen in range(3):
        print(f"gen {gen}: {out.count[gen]} collections, {out.pause[gen] * 1e3:.1f} ms")
    for query, pause, caller in out.full:
        print(f"gen 2 at query {query}: {pause * 1e3:.1f} ms, in {caller}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
