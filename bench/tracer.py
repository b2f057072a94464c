"""Outside-in tracing of berkline's public layer boundaries.

The tracer never edits the library: it replaces each boundary function
with a timing wrapper in every namespace that binds it (``line``,
``hyperelliptic`` and ``cli`` import functions by name, and so do the
workloads) and wraps methods on their class.  Private helpers such as ``_disc_eval``
are not wrapped, so their time shows as self time of the public caller.

Spans are aggregated in memory per (parent, name) pair: call count,
total duration and the part of it covered by direct child spans.  A
span's self time is its duration minus that covered part.
"""

import functools
import importlib
import sys
from time import perf_counter

from berkline.line import Type1Point

# (span name, defining module, attribute path); several attributes may
# share one span name, as all the text grammars share ``cli.parse``.
BOUNDARIES = (
    ("exponents.Exponent.sign", "berkline.exponents", "Exponent.sign"),
    ("fields.puiseux.add", "berkline.fields", "PuiseuxField.add"),
    ("fields.puiseux.mul", "berkline.fields", "PuiseuxField.mul"),
    ("fields.puiseux.valuation", "berkline.fields", "PuiseuxField.valuation"),
    ("fields.padic.valuation", "berkline.fields", "PAdicField.valuation"),
    ("polynomials.Poly.__mul__", "berkline.polynomials", "Poly.__mul__"),
    ("polynomials.taylor_shift", "berkline.polynomials", "taylor_shift"),
    ("polynomials.hasse_derivative", "berkline.polynomials", "hasse_derivative"),
    ("polynomials.newton_slopes", "berkline.polynomials", "newton_slopes"),
    ("polynomials.squarefree_decomposition", "berkline.polynomials", "squarefree_decomposition"),
    ("line.eval_seminorm", "berkline.line", "eval_seminorm"),
    ("line.torus_retract", "berkline.line", "torus_retract"),
    ("line.join", "berkline.line", "join"),
    ("line.point_eq", "berkline.line", "point_eq"),
    ("line.point_leq", "berkline.line", "point_leq"),
    ("line.path", "berkline.line", "path"),
    ("line.convex_hull", "berkline.line", "convex_hull"),
    ("line.retract_to_hull", "berkline.line", "retract_to_hull"),
    ("domains.member", "berkline.domains", "member"),
    ("domains.max_modulus_check", "berkline.domains", "max_modulus_check"),
    ("domains.shilov_boundary", "berkline.domains", "shilov_boundary"),
    ("zspectrum.nadic_norm", "berkline.zspectrum", "nadic_norm"),
    ("zspectrum.nadic_spectral", "berkline.zspectrum", "nadic_spectral"),
    ("zspectrum.zpoint_eval", "berkline.zspectrum", "zpoint_eval"),
    ("hyperelliptic.BranchData.from_roots", "berkline.hyperelliptic", "BranchData.from_roots"),
    ("hyperelliptic.cover_skeleton", "berkline.hyperelliptic", "cover_skeleton"),
    ("hyperelliptic.fiber_count", "berkline.hyperelliptic", "fiber_count"),
    ("cli.build_parser", "berkline.cli", "build_parser"),
    ("cli.parse", "berkline.fields", "parse_field"),
    ("cli.parse", "berkline.line", "parse_point"),
    ("cli.parse", "berkline.polynomials", "parse_poly"),
    ("cli.parse", "berkline.domains", "parse_domain"),
    ("cli.parse", "berkline.domains", "parse_standard_domain"),
    ("cli.parse", "berkline.zspectrum", "parse_zpoint"),
    ("cli.parse", "berkline.fields", "PAdicField.parse_element"),
    ("cli.parse", "berkline.fields", "PuiseuxField.parse_element"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))


def patch(module_name: str, attr_path: str, make_replacement):
    """Replace a library function in every module that binds it.

    ``make_replacement(original)`` returns the replacement.  Returns a
    callable that restores every original binding.
    """
    module = importlib.import_module(module_name)
    owner_name, _, attr = attr_path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make_replacement(raw.__func__)))
        else:
            setattr(owner, attr, make_replacement(raw))
        return lambda: setattr(owner, attr, raw)
    original = getattr(module, attr)
    replacement = make_replacement(original)
    # every namespace that imported the function by name: berkline's own
    # modules and the benchmark's, which call the public API directly
    bound = [
        mod
        for mod in list(sys.modules.values())
        if getattr(mod, "__dict__", {}).get(attr) is original
    ]
    for mod in bound:
        setattr(mod, attr, replacement)

    def undo():
        for mod in bound:
            setattr(mod, attr, original)

    return undo


class Tracer:
    """Collects spans and boundary counters while installed."""

    def __init__(self):
        self._stack = []  # [span name, time covered by child spans]
        self.spans = {}  # (parent, name) -> [calls, total_s, child_s]
        self.puiseux_mul_terms = []
        self.padic_bits_max = 0
        self.disc_evals = 0
        self.skeleton_vertices = 0
        self._undo = []

    # -- boundary counters, observed after each call ------------------

    def _observe(self, name, args, result):
        if name == "fields.puiseux.mul":
            self.puiseux_mul_terms.append(len(result))
        elif name == "fields.padic.valuation":
            x = args[1]
            bits = max(x.numerator.bit_length(), x.denominator.bit_length()) if x else 0
            self.padic_bits_max = max(self.padic_bits_max, bits)
        elif name == "line.eval_seminorm":
            self.disc_evals += not isinstance(args[1], Type1Point)
        elif name == "hyperelliptic.cover_skeleton":
            self.skeleton_vertices += len(result.base.vertices)

    def _wrapper(self, name, fn):
        stack, spans, observe = self._stack, self.spans, self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                rec = spans.get((parent and parent[0], name))
                if rec is None:
                    rec = spans[(parent and parent[0], name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += frame[1]
            observe(name, args, result)
            return result

        return traced

    def install(self):
        # cli binds library functions by name; import it first so the
        # namespace scan in ``patch`` sees those bindings too
        importlib.import_module("berkline.cli")
        for name, module, attr in BOUNDARIES:
            self._undo.append(patch(module, attr, functools.partial(self._wrapper, name)))

    def remove(self):
        while self._undo:
            self._undo.pop()()

    # -- read-out -------------------------------------------------------

    def calls(self, name) -> int:
        return sum(rec[0] for (_, n), rec in self.spans.items() if n == name)

    def self_s(self, name) -> float:
        return sum(rec[1] - rec[2] for (_, n), rec in self.spans.items() if n == name)

    def child_calls(self, parent, name) -> int:
        rec = self.spans.get((parent, name))
        return rec[0] if rec else 0

    def top_level_s(self) -> float:
        return sum(rec[1] for (parent, _), rec in self.spans.items() if parent is None)
