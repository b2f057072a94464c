"""Self-test: proves the exactness checks and the tracer are live.

For each workload, a tiny run over the first ``pass_queries`` queries must pass
unperturbed and must report failures once one library function is
perturbed through the same outside wrapping the tracer uses; a tiny
traced pass must cover nonzero time.  The metric names in
BENCHMARK.json must match the ones the benchmark emits.
"""

import json

from berkline import EXP_ONE, Magnitude

from run import END_TO_END, GATED, ROOT, Outcome, per_layer_spec, setup, timed_pass
from tracer import Tracer, patch

RHO = Magnitude.finite(EXP_ONE)

# workload -> (module, function, perturbation of the original function)
PERTURBATIONS = {
    "seminorm-puiseux": (
        "berkline.line", "eval_seminorm",
        lambda fn: lambda f, x: fn(f, x) * RHO,
    ),
    "geometry-padic": ("berkline.line", "join", lambda fn: lambda x, y: x),
    "cover-skeleton": (
        "berkline.hyperelliptic", "fiber_count",
        lambda fn: lambda *a, **k: 3 - fn(*a, **k),
    ),
    "cli": (
        "berkline.domains", "shilov_boundary",
        lambda fn: lambda sd: tuple(reversed(fn(sd))),
    ),
}


def _check(ok: bool, what: str) -> bool:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    return ok


def selftest() -> int:
    ok = True
    for name, (module, attr, perturb) in PERTURBATIONS.items():
        wl = setup(name, 1, in_process=True)
        queries = [wl.make(i) for i in range(wl.pass_queries)]

        clean = Outcome()
        timed_pass(wl, queries, clean)
        ok &= _check(clean.failed == 0, f"{name}: {len(queries)} queries pass unperturbed")

        broken = Outcome()
        undo = patch(module, attr, perturb)
        try:
            timed_pass(wl, queries, broken)
        finally:
            undo()
        ratio = broken.failed / len(queries)
        ok &= _check(ratio > 0, f"{name}: fail_ratio {ratio:.3f} with {attr} perturbed")

        tracer = Tracer()
        traced = Outcome()
        tracer.install()
        try:
            wall = timed_pass(wl, queries[:4], traced)
        finally:
            tracer.remove()
        coverage = tracer.top_level_s() / wall
        ok &= _check(coverage > 0, f"{name}: traced coverage {coverage:.3f}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    gated = [(key, unit) for key, unit in END_TO_END if key in GATED]
    ok &= _check(declared == gated, "BENCHMARK.json end_to_end matches the report")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    ok &= _check(declared == per_layer_spec(), "BENCHMARK.json per_layer matches the report")
    return 0 if ok else 1
