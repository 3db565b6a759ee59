"""Layer tracing from outside the package, by replacing attributes at run time.

``Tracer.install`` wraps each traced function of ``dispersive_decay`` in a
span. Most modules bind ``_forward_raw`` and the ratio functions by name, so
every module attribute that holds a traced function is replaced, not only the
one in the defining module; traced methods and properties are replaced on
their class. ``Tracer.uninstall`` puts every original object back. An
untraced run never creates a ``Tracer``, so it installs nothing.

A span records its name, the op it belongs to, its parent span, and its start
and end. A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over the spans of its functions. Spans
stay in memory until ``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

from dispersive_decay import (
    calculus,
    cli,
    grid,
    harness,
    littlewood_paley,
    proof_tracer,
    propagator,
    schwartz,
)
from dispersive_decay.errors import (
    AccuracyNotMetError,
    DomainTooSmallError,
    UndefinedRatioError,
)

# Traced module-level functions; the layer is the defining module's name.
FUNCTIONS = (
    (grid, ("_forward_raw", "_inverse_raw")),
    (littlewood_paley, ("bernstein_ratio", "bernstein_derivative_ratio",
                        "lemma1_ratio", "lemma2_ratio")),
    (calculus, ("lp_norm", "hs_norm", "weighted_norm", "norms", "locate_sup",
                "fractional_derivative", "spectral_derivative")),
    (schwartz, ("generate_schwartz", "schwartz_sample")),
    (propagator, ("evolve_spectral", "evolve_quadrature", "oscillatory_integral",
                  "_subdivide")),
    (proof_tracer, ("trace_terms",)),
    (harness, ("run_decay", "run_lemma_suites", "run_trace", "run_trace_ratio_suite",
               "_quadrature_sup", "decay_rows", "write_csv")),
    (cli, ("main",)),
)

# Traced methods and properties, replaced on their class.
METHODS = (
    (grid.GridSpec, ("x", "xi", "_signs")),
    (littlewood_paley.BumpFunction, ("dyadic_piece",)),
    (propagator.SpectralAmplitude, ("__init__", "__call__")),
)

LAYERS = ("grid", "littlewood_paley", "calculus", "schwartz", "propagator",
          "proof_tracer", "harness", "cli")

RATIO_SPANS = ("littlewood_paley.bernstein_ratio", "littlewood_paley.bernstein_derivative_ratio",
               "littlewood_paley.lemma1_ratio", "littlewood_paley.lemma2_ratio")
QUAD_SPANS = ("propagator.evolve_quadrature", "propagator.oscillatory_integral",
              "propagator._subdivide")
SPLINE_BUILD = "propagator.SpectralAmplitude.__init__"
SPLINE_EVAL = "propagator.SpectralAmplitude.__call__"
AXIS_SPANS = ("grid.GridSpec.x", "grid.GridSpec.xi", "grid.GridSpec._signs")
FFT_SPANS = ("grid._forward_raw", "grid._inverse_raw")

_OSC_BUDGET = inspect.signature(propagator.oscillatory_integral).parameters["budget"].default
_OSC_PARAMS = list(inspect.signature(propagator.oscillatory_integral).parameters)


def package_modules() -> list:
    """Every loaded module of the package, where by-name bindings can live."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dispersive_decay"
                                  or name.startswith("dispersive_decay."))]


def traced_objects() -> list:
    """(owner, attribute, object) for every binding the tracer replaces."""
    originals = {id(getattr(mod, n)): getattr(mod, n)
                 for mod, names in FUNCTIONS for n in names}
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if id(value) in originals and value is originals[id(value)]:
                found.append((mod, attr, value))
    for cls, names in METHODS:
        found.extend((cls, n, cls.__dict__[n]) for n in names)
    return found


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self):
        self.spans = []            # (op, span id, parent id, name, start, end)
        self.self_s = Counter()    # span name -> summed self time
        self.total_s = Counter()   # span name -> summed duration
        self.calls = Counter()     # span name -> calls
        self.counts = Counter()    # named work counters
        self.maxima = defaultdict(float)
        self.hook_s = 0.0
        self._stack = []           # open spans: [id, start, child time, scratch, name]
        self._next_id = 0
        self._saved = []
        self._op = None
        self._grid_xi = {}         # id -> weakref to each GridSpec.xi array of this op
        self._forward_seen = set()
        self._pieces = set()

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, original in traced_objects():
            if isinstance(owner, type):
                layer = owner.__module__.rsplit(".", 1)[-1]
                name = f"{layer}.{owner.__name__}.{attr}"
                if isinstance(original, property):
                    replacement = property(self._wrap(name, original.fget))
                else:
                    replacement = self._wrap(name, original)
            else:
                if id(original) not in wrapped:
                    layer = original.__module__.rsplit(".", 1)[-1]
                    wrapped[id(original)] = self._wrap(
                        f"{layer}.{original.__name__}", original)
                replacement = wrapped[id(original)]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- ops and spans ------------------------------------------------------

    def begin_op(self, op: int):
        self._op = op
        self._grid_xi.clear()
        self._forward_seen.clear()
        self._pieces = set()

    def end_op(self):
        self.counts["piece_pairs"] += len(self._pieces)
        self._grid_xi.clear()
        self._forward_seen.clear()
        self._op = None

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            scratch = None
            if before:
                hook_start = time.perf_counter()
                scratch = before(args, kwargs)
                tracer._hook_time(time.perf_counter() - hook_start)
            frame = [tracer._next_id, time.perf_counter(), 0.0, scratch, name]
            tracer._next_id += 1
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame)
                result, error = None, exc
            else:
                tracer._close(name, frame)
                error = None
            if after:
                hook_start = time.perf_counter()
                after(args, kwargs, result, error, scratch)
                tracer._hook_time(time.perf_counter() - hook_start)
            if error is not None:
                raise error
            return result

        return traced

    def _hook_time(self, seconds: float):
        # counter upkeep (hashing, mostly) is charged to the tracer, not to
        # the enclosing span's self time
        self.hook_s += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def _close(self, name: str, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child = frame[:3]
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((self._op, span_id, parent[0] if parent else None,
                           name, start, end))
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1

    def write_spans(self, path):
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    # -- per-function counters ------------------------------------------------
    # Hook names are "_before_" / "_after_" plus the span name with dots as _.

    def _count_fft(self, values):
        n = len(values)
        self.counts["fft_calls"] += 1
        self.counts["fft_bytes"] += n * 16 * 2  # complex128 in and out
        self.counts[f"fft_len_{n}"] += 1

    def _before_grid__forward_raw(self, args, kwargs):
        values = args[1] if len(args) > 1 else kwargs["values"]
        self._count_fft(values)
        key = (len(values),
               hashlib.sha1(memoryview(np.ascontiguousarray(values))).digest())
        if key in self._forward_seen:
            self.counts["forward_repeats"] += 1
        self._forward_seen.add(key)
        self.counts["forward_calls"] += 1

    def _before_grid__inverse_raw(self, args, kwargs):
        self._count_fft(args[1] if len(args) > 1 else kwargs["hat"])

    def _after_grid_GridSpec_xi(self, args, kwargs, result, exc, scratch):
        if result is not None:
            self._grid_xi[id(result)] = weakref.ref(result)

    def _after_littlewood_paley_BumpFunction_dyadic_piece(self, args, kwargs, result, exc,
                                                          scratch):
        xi = args[1] if len(args) > 1 else kwargs["xi"]
        k = args[2] if len(args) > 2 else kwargs["k"]
        size = getattr(xi, "size", 1)
        self.counts["piece_nodes"] += size
        ref = self._grid_xi.get(id(xi))
        if ref is not None and ref() is xi:
            self.counts["piece_calls"] += 1
            self._pieces.add((size, k))

    def _after_ratio(self, args, kwargs, result, exc, scratch):
        if isinstance(exc, UndefinedRatioError):
            self.counts["undefined"] += 1

    _after_littlewood_paley_bernstein_ratio = _after_ratio
    _after_littlewood_paley_bernstein_derivative_ratio = _after_ratio
    _after_littlewood_paley_lemma1_ratio = _after_ratio
    _after_littlewood_paley_lemma2_ratio = _after_ratio

    def _after_propagator_evolve_spectral(self, args, kwargs, result, exc, scratch):
        if isinstance(exc, DomainTooSmallError):
            self.counts["wrap_guard_trips"] += 1

    def _before_propagator_oscillatory_integral(self, args, kwargs):
        bound = dict(zip(_OSC_PARAMS, args), **kwargs)
        return {"budget": bound.get("budget", _OSC_BUDGET), "panels": 0}

    def _after_propagator_oscillatory_integral(self, args, kwargs, result, exc, scratch):
        if isinstance(exc, AccuracyNotMetError):
            self.counts["accuracy_failures"] += 1
        frac = scratch["panels"] / scratch["budget"]
        self.maxima["panel_budget_frac_max"] = max(
            self.maxima["panel_budget_frac_max"], frac)

    def _after_propagator__subdivide(self, args, kwargs, result, exc, scratch):
        if result is None:
            return
        panels = int(result[0].size)
        self.counts["panels"] += panels
        for frame in reversed(self._stack):
            if isinstance(frame[3], dict) and "panels" in frame[3]:
                frame[3]["panels"] += panels
                break

    def _after_propagator_SpectralAmplitude___call__(self, args, kwargs, result, exc,
                                                     scratch):
        xi = args[1] if len(args) > 1 else kwargs["xi"]
        self.counts["spline_nodes"] += getattr(xi, "size", 1)

    def _after_proof_tracer_trace_terms(self, args, kwargs, result, exc, scratch):
        if result is not None:
            self.maxima["recon_defect_max"] = max(
                self.maxima["recon_defect_max"], float(result.reconstruction_defect))

    def _after_schwartz_generate_schwartz(self, args, kwargs, result, exc, scratch):
        self.counts["samples"] += 1

    def _after_schwartz_schwartz_sample(self, args, kwargs, result, exc, scratch):
        # generate_schwartz draws its raw sample through schwartz_sample
        if not any(frame[4] == "schwartz.generate_schwartz" for frame in self._stack):
            self.counts["samples"] += 1


def layer_metrics(tr: Tracer, traced_ops: list, untraced_ops: list) -> dict:
    """Per-layer metrics of the traced ops, per item unless the unit says otherwise.

    ``grid.fft_bytes`` is computed (calls x N x 16 B, in and out), not
    measured. Shares are self time over the traced ops' wall time.
    """
    items = sum(op.items for op in traced_ops)
    wall = sum(op.seconds for op in traced_ops)
    s, c, calls = tr.self_s, tr.counts, tr.calls

    layer = tr.layer_self_s

    def layer_calls(name):
        return sum(v for k, v in calls.items() if k.split(".", 1)[0] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    fft_s = sum(s[n] for n in FFT_SPANS)
    quad_s = sum(s[n] for n in QUAD_SPANS)
    spline_s, build_s = s[SPLINE_EVAL], s[SPLINE_BUILD]
    per_item = {
        "grid.fft_calls": ("count", c["fft_calls"]),
        "grid.fft_s": ("s", fft_s),
        "grid.fft_bytes": ("B", c["fft_bytes"]),
        "grid.axis_builds": ("count", sum(calls[n] for n in AXIS_SPANS)),
        "grid.axis_s": ("s", sum(s[n] for n in AXIS_SPANS)),
        "littlewood_paley.piece_calls": ("count", c["piece_calls"]),
        "littlewood_paley.piece_nodes": ("count", c["piece_nodes"]),
        "littlewood_paley.piece_s": ("s", s["littlewood_paley.BumpFunction.dyadic_piece"]),
        "littlewood_paley.ratio_calls": ("count", sum(calls[n] for n in RATIO_SPANS)),
        "littlewood_paley.ratio_s": ("s", sum(s[n] for n in RATIO_SPANS)),
        "littlewood_paley.undefined": ("count", c["undefined"]),
        "calculus.calls": ("count", layer_calls("calculus")),
        "calculus.s": ("s", layer("calculus")),
        "schwartz.samples": ("count", c["samples"]),
        "schwartz.s": ("s", layer("schwartz")),
        "propagator.spectral_calls": ("count", calls["propagator.evolve_spectral"]),
        "propagator.spectral_s": ("s", s["propagator.evolve_spectral"]),
        "propagator.wrap_guard_trips": ("count", c["wrap_guard_trips"]),
        "propagator.quad_calls": ("count", calls["propagator.oscillatory_integral"]),
        "propagator.quad_s": ("s", quad_s),
        "propagator.panels": ("count", c["panels"]),
        "propagator.spline_builds": ("count", calls[SPLINE_BUILD]),
        "propagator.spline_build_s": ("s", build_s),
        "propagator.spline_nodes": ("count", c["spline_nodes"]),
        "propagator.spline_s": ("s", spline_s),
        "propagator.accuracy_failures": ("count", c["accuracy_failures"]),
        "proof_tracer.trace_calls": ("count", calls["proof_tracer.trace_terms"]),
        "proof_tracer.self_s": ("s", layer("proof_tracer")),
        "harness.self_s": ("s", layer("harness")),
        "harness.fallbacks": ("count", calls["harness._quadrature_sup"]),
        "harness.quadrature_sup_s": ("s", tr.total_s["harness._quadrature_sup"]),
        "harness.csv_s": ("s", tr.total_s["harness.write_csv"]),
        "cli.self_s": ("s", layer("cli")),
        "tracer.hook_s": ("s", tr.hook_s),
    }
    out = {name: {"value": ratio(v, items), "unit": f"{unit}/item"}
           for name, (unit, v) in per_item.items()}
    shares = {f"{name}.share": layer(name) for name in LAYERS}
    shares["propagator.spectral_share"] = s["propagator.evolve_spectral"]
    shares["propagator.quad_share"] = quad_s + spline_s + build_s
    shares["unattributed.share"] = wall - sum(s.values()) - tr.hook_s
    out.update({name: {"value": ratio(v, wall), "unit": "ratio"} for name, v in shares.items()})
    untraced_rate = ratio(sum(op.items for op in untraced_ops),
                          sum(op.seconds for op in untraced_ops))
    out.update({
        "grid.forward_repeat_frac": {
            "value": ratio(c["forward_repeats"], c["forward_calls"]), "unit": "ratio"},
        "littlewood_paley.piece_reuse": {
            "value": ratio(c["piece_pairs"], c["piece_calls"]), "unit": "ratio"},
        "propagator.panels_per_s": {
            "value": ratio(c["panels"], quad_s + spline_s + build_s), "unit": "1/s"},
        "propagator.spline_nodes_per_s": {
            "value": ratio(c["spline_nodes"], spline_s), "unit": "1/s"},
        "propagator.panel_budget_frac_max": {
            "value": tr.maxima["panel_budget_frac_max"], "unit": "ratio"},
        "proof_tracer.recon_defect_max": {
            "value": tr.maxima["recon_defect_max"], "unit": "1"},
        "tracer.items_per_s": {"value": ratio(items, wall), "unit": "1/s"},
        "tracer.overhead_frac": {
            "value": ratio(untraced_rate, ratio(items, wall)) - 1.0 if items else 0.0,
            "unit": "ratio"},
        "tracer.ops": {"value": len(traced_ops), "unit": "count"},
    })
    return out
