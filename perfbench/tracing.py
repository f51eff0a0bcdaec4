"""Spans and counters for the traced run, installed from outside the program.

`install` replaces functions and methods of the lplab modules with wrappers
that time or count them, and returns a callable that puts the originals
back.  A function imported into several modules (`from .x import f`) is
replaced under every name that refers to it.  No source file is edited.

A span records name, start, end and its parent span; a layer's self time is
its span time minus the time of the spans it directly encloses.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)    # span name -> seconds
        self.own = defaultdict(float)      # span name -> self seconds
        self.count = defaultdict(int)      # counter name -> count
        self.peak = defaultdict(float)     # gauge name -> maximum
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []       # [span index, child seconds]

    def span(self, name, fn, after=None, name_of=None):
        """Wrap fn in a span; after(result, args, kwargs) runs outside it."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(args, kwargs)
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.count[f"{label}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                elapsed = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                tracer.total[label] += elapsed
                tracer.own[label] += elapsed - frame[1]
                tracer.spans[frame[0]] = (label, start, end, parent)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _replace_everywhere(modules, original, replacement, undo):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _replace_method(cls, attr, make, undo):
    original = cls.__dict__[attr]
    setattr(cls, attr, make(original))
    undo.append((cls, attr, original))


def _kkt_residual(x, T, p, coefficients) -> float:
    """||T^t (|r|^(p-1) sgn r)||_inf / || |r|^(p-1) ||_inf at r = x - T c."""
    T = np.asarray(T, dtype=float)
    if T.size == 0:
        return 0.0
    r = np.asarray(x, dtype=float) - T @ coefficients
    g = np.sign(r) * np.abs(r) ** (p - 1.0)
    scale = float(np.max(np.abs(g)))
    return float(np.max(np.abs(T.T @ g))) / scale if scale else 0.0


def install(tracer: Tracer):
    """Instrument the lplab layers; returns a function that undoes it."""
    from lplab import checks, cli, group_ring, groups, homotopy, lp_complex
    from lplab import resolutions, vanishing

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "lplab" or name.startswith("lplab."))]
    undo: list = []
    count, peak = tracer.count, tracer.peak

    def grow_layer(original):
        def wrapped(self):
            before = len(self._layers) if self._layers is not None else 0
            original(self)
            after = len(self._layers)
            if after > before:
                count["groups.ball_elements"] += len(self._layers[-1])
        return tracer.span("groups.ball", wrapped)

    def scanned(report, args, kwargs):
        count["homotopy.tuples_checked"] += report.tuples_checked
        count["homotopy.tuples_skipped"] += report.tuples_skipped

    def assembled(op, args, kwargs):
        count["lp_complex.nnz"] += int(np.count_nonzero(op.matrix))
        count["lp_complex.dense_bytes"] += int(op.matrix.nbytes)

    def _p(args, kwargs):
        return float(args[2] if len(args) > 2 else kwargs["p"])

    def solved(result, args, kwargs):
        p = _p(args, kwargs)
        if p != 2.0:
            count["vanishing.irls_iterations"] += result.iterations
            kkt = _kkt_residual(args[0], args[1], p, result.coefficients)
            peak["vanishing.kkt_rel_max"] = max(peak["vanishing.kkt_rel_max"], kkt)

    def solve_name(args, kwargs):
        return "vanishing.lstsq_solve" if _p(args, kwargs) == 2.0 else "vanishing.irls_solve"

    def counting_writes(write):
        # Not a span: writing the output stays in the cli layer's self time.
        def wrapped(path, data):
            count["cli.bytes_written"] += len(data.encode("utf-8"))
            return write(path, data)
        return wrapped

    def checked(outcomes, args, kwargs):
        count["checks.count"] += len(outcomes)

    wrappers = [
        (cli.main, tracer.span("cli.run", cli.main)),
        (cli._atomic_write, counting_writes(cli._atomic_write)),
        (checks.run_all, tracer.span("checks.run_all", checks.run_all, after=checked)),
        (resolutions.resolution_from_name,
         tracer.span("resolutions.build", resolutions.resolution_from_name)),
        (homotopy.random_cochain, tracer.span("homotopy.cochain", homotopy.random_cochain)),
        (homotopy._residual_scan,
         tracer.span("homotopy.scan", homotopy._residual_scan, after=scanned)),
        (lp_complex.assemble_boundary,
         tracer.span("lp_complex.assemble", lp_complex.assemble_boundary, after=assembled)),
        (vanishing.lp_distance,
         tracer.span("vanishing.solve", vanishing.lp_distance, after=solved,
                     name_of=solve_name)),
        (vanishing.boundary_distance_curve,
         tracer.span("vanishing.curve", vanishing.boundary_distance_curve)),
    ]
    for original, replacement in wrappers:
        _replace_everywhere(modules, original, replacement, undo)
    _replace_method(groups.Group, "_grow_one_layer", grow_layer, undo)
    _replace_method(groups.Group, "mul",
                    lambda f: tracer.counter("groups.mul_calls", f), undo)
    _replace_method(group_ring.RingElement, "__init__",
                    lambda f: tracer.counter("group_ring.elements_built", f), undo)
    _replace_method(group_ring.RingElement, "convolve",
                    lambda f: tracer.counter("group_ring.convolve_calls", f), undo)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# (metric name, unit, better) for the traced run, in report order.
LAYER_METRICS = (
    ("groups.mul_calls", "count", "lower"),
    ("groups.ball_s", "s", "lower"),
    ("groups.ball_elements", "count", "lower"),
    ("group_ring.elements_built", "count", "lower"),
    ("group_ring.convolve_calls", "count", "lower"),
    ("homotopy.scan_s", "s", "lower"),
    ("homotopy.cochain_s", "s", "lower"),
    ("homotopy.tuples_checked", "count", "higher"),
    ("homotopy.tuples_skipped", "count", "lower"),
    ("homotopy.us_per_tuple", "us", "lower"),
    ("resolutions.build_s", "s", "lower"),
    ("lp_complex.assemble_s", "s", "lower"),
    ("lp_complex.nnz", "count", "lower"),
    ("lp_complex.dense_bytes", "B", "lower"),
    ("lp_complex.ns_per_nnz", "ns", "lower"),
    ("vanishing.lstsq_solve_s", "s", "lower"),
    ("vanishing.gate_failures", "count", "lower"),
    ("vanishing.irls_solve_s", "s", "lower"),
    ("vanishing.irls_iterations", "count", "lower"),
    ("vanishing.ms_per_iteration", "ms", "lower"),
    ("vanishing.kkt_rel_max", "ratio", "lower"),
    ("vanishing.curve_s", "s", "lower"),
    ("cli.run_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("checks.run_all_s", "s", "lower"),
    ("checks.count", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_values(tracer: Tracer, passes: int, overhead_s: float) -> dict[str, float]:
    """Per-pass layer figures from a tracer that recorded `passes` passes."""
    t, c = tracer.total, tracer.count

    def per_pass(value):
        return value / passes

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    return {
        "groups.mul_calls": per_pass(c["groups.mul_calls"]),
        "groups.ball_s": per_pass(t["groups.ball"]),
        "groups.ball_elements": per_pass(c["groups.ball_elements"]),
        "group_ring.elements_built": per_pass(c["group_ring.elements_built"]),
        "group_ring.convolve_calls": per_pass(c["group_ring.convolve_calls"]),
        "homotopy.scan_s": per_pass(t["homotopy.scan"]),
        "homotopy.cochain_s": per_pass(t["homotopy.cochain"]),
        "homotopy.tuples_checked": per_pass(c["homotopy.tuples_checked"]),
        "homotopy.tuples_skipped": per_pass(c["homotopy.tuples_skipped"]),
        "homotopy.us_per_tuple": ratio(t["homotopy.scan"], c["homotopy.tuples_checked"], 1e6),
        "resolutions.build_s": per_pass(t["resolutions.build"]),
        "lp_complex.assemble_s": per_pass(t["lp_complex.assemble"]),
        "lp_complex.nnz": per_pass(c["lp_complex.nnz"]),
        "lp_complex.dense_bytes": per_pass(c["lp_complex.dense_bytes"]),
        "lp_complex.ns_per_nnz": ratio(t["lp_complex.assemble"], c["lp_complex.nnz"], 1e9),
        "vanishing.lstsq_solve_s": per_pass(t["vanishing.lstsq_solve"]),
        "vanishing.gate_failures": per_pass(
            c["vanishing.lstsq_solve.raised.InvariantViolation"]),
        "vanishing.irls_solve_s": per_pass(t["vanishing.irls_solve"]),
        "vanishing.irls_iterations": per_pass(c["vanishing.irls_iterations"]),
        "vanishing.ms_per_iteration": ratio(t["vanishing.irls_solve"],
                                            c["vanishing.irls_iterations"], 1e3),
        "vanishing.kkt_rel_max": tracer.peak["vanishing.kkt_rel_max"],
        "vanishing.curve_s": per_pass(t["vanishing.curve"]),
        "cli.run_s": per_pass(t["cli.run"]),
        "cli.self_s": per_pass(tracer.own["cli.run"]),
        "cli.bytes_written": per_pass(c["cli.bytes_written"]),
        "checks.run_all_s": per_pass(t["checks.run_all"]),
        "checks.count": per_pass(c["checks.count"]),
        "trace.overhead_s": overhead_s,
    }
