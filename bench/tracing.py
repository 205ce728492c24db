"""Spans around the public functions of each layer module.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent, thread). The package
imports these functions by name into other modules (``cli`` imports
``newton_solve``, ``estimator`` imports ``build_operators`` and so on), so the
wrapper replaces every module attribute that holds the original function,
not only the defining one. ``uninstall`` puts the originals back, so untraced
operations run the program exactly as it stands.

Spans are kept in memory. After each operation they are folded into per-layer
totals; the spans of the first traced operations are kept whole and written
out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("laguerre", "operators", "solver", "reference", "estimator", "cli")
# wrapped although not in cli.__all__: the scan's thread pool runs inside it
EXTRA = {"cli": ("scan_L_reports",)}
METHODS = {"estimator": ("LaneEmdenSolver", ("fit", "predict"))}
# Leaf helpers called once per point, per residual or per RK4 stage. A span
# each would multiply the span count tenfold and inflate their callers' times.
LEAVES = {"eval_laguerre", "eval_laguerre_all", "eval_laguerre_deriv", "eval_mgl",
          "pow_signed", "pow_signed_deriv", "closed_form"}
KEEP_SPANS = 20000


def _quantities(name, args, result):
    """Per-call counts read from arguments and results at the boundary."""
    if name == "operators.eval_hat_interpolant":
        return {"points": int(np.size(args[2]))}
    if result is None:  # the call raised
        return None
    if name == "solver.newton_solve":
        return {"iterations": result.iterations, "converged": bool(result.converged)}
    if name == "reference.first_zero":
        return {"bisection_steps": result.refinement_iterations}
    if name == "reference.shooting_oracle":
        return {"steps": len(result.xs) - 2}
    return None


class Tracer:
    def __init__(self, emden):
        self.package = emden
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if n == "emden" or n.startswith("emden.")]
        self.patches = self._plan()
        self.spans = []
        self.kept = []
        self.totals = {}
        self._ids = iter(range(1, sys.maxsize))
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = []

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else 0)
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end,
                                     threading.get_ident(), _quantities(name, args, result)))

        return traced

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _plan(self):
        """(owner, attribute, original, wrapper) for every place a layer
        function is reachable by name."""
        originals = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr in tuple(getattr(module, "__all__", ())) + EXTRA.get(layer, ()):
                obj = getattr(module, attr)
                if attr in LEAVES:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patches = []
        for module in self.modules:
            for attr, obj in vars(module).items():
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    patches.append((module, attr, obj, originals[id(obj)][1]))
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(getattr(self.package, layer), cls_name)
            for attr in methods:
                obj = cls.__dict__[attr]
                patches.append((cls, attr, obj, self._wrap(f"{layer}.{attr}", obj)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def fold(self):
        """Fold the spans of one operation into the totals."""
        spans, self.spans = self.spans, []
        if len(self.kept) < KEEP_SPANS:
            self.kept.extend(spans)
        totals = self.totals
        by_id = {s[0]: s for s in spans}

        def add(key, value):
            totals[key] = totals.get(key, 0) + value

        def ancestors(span):
            parent = by_id.get(span[1])
            while parent is not None:
                yield parent
                parent = by_id.get(parent[1])

        for span in spans:
            _, _, name, start, end, _, extra = span
            add(name + ".calls", 1)
            add(name + ".ns", end - start)
            for key, value in (extra or {}).items():
                add(f"{name}.{key}", value)
            if name == "operators.eval_hat_interpolant" and any(
                    a[2] == "reference.first_zero" for a in ancestors(span)):
                add("reference.first_zero.interp_evals", 1)
            if name == "solver.newton_solve" and any(
                    a[2] == "cli.scan_L_reports" for a in ancestors(span)):
                add("cli.scan_L_reports.solve_ns", end - start)
            if name == "cli.main":
                inner = sorted((s[3], s[4]) for s in spans
                               if not s[2].startswith("cli.") and any(
                                   a[0] == span[0] for a in ancestors(s)))
                add("cli.main.self_ns", (end - start) - _union(inner))

    def write(self, path):
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, thread, extra in self.kept:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start_ns": start, "end_ns": end, "thread": thread,
                                         **(extra or {})}) + "\n")


def _union(intervals):
    total, reach = 0, None
    for start, end in intervals:
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(totals, ops, extra):
    """Per-layer metrics from the folded totals of ``ops`` traced operations.

    Calls, milliseconds, points and bytes are per operation; iterations,
    steps and evaluations are per call of the function they are named after."""
    def get(key):
        return totals.get(key, 0)

    def per_op(key, scale=1.0):
        return get(key) * scale / ops

    def ratio(num, den, scale=1.0):
        return get(num) * scale / get(den) if get(den) else 0.0

    ms = 1e-6
    return {
        "laguerre.radau_nodes.calls": (per_op("laguerre.radau_nodes.calls"), "count"),
        "laguerre.radau_nodes.ms": (per_op("laguerre.radau_nodes.ns", ms), "ms"),
        "operators.build_operators.calls": (per_op("operators.build_operators.calls"), "count"),
        "operators.build_operators.ms": (per_op("operators.build_operators.ns", ms), "ms"),
        "operators.builds_per_solve": (ratio("operators.build_operators.calls", "solver.newton_solve.calls"), "ratio"),
        "operators.eval_hat_interpolant.calls": (per_op("operators.eval_hat_interpolant.calls"), "count"),
        "operators.eval_hat_interpolant.points": (per_op("operators.eval_hat_interpolant.points"), "count"),
        "operators.eval_hat_interpolant.ms": (per_op("operators.eval_hat_interpolant.ns", ms), "ms"),
        "operators.eval_hat_interpolant.us_per_point": (ratio("operators.eval_hat_interpolant.ns", "operators.eval_hat_interpolant.points", 1e-3), "us"),
        "solver.newton_solve.calls": (per_op("solver.newton_solve.calls"), "count"),
        "solver.newton_solve.ms": (per_op("solver.newton_solve.ns", ms), "ms"),
        "solver.newton_solve.iterations": (ratio("solver.newton_solve.iterations", "solver.newton_solve.calls"), "count"),
        "solver.newton_solve.converged": (ratio("solver.newton_solve.converged", "solver.newton_solve.calls"), "share"),
        "solver.assemble_residual.calls": (per_op("solver.assemble_residual.calls"), "count"),
        "solver.assemble_jacobian.calls": (per_op("solver.assemble_jacobian.calls"), "count"),
        "solver.residual_evals_per_iteration": (ratio("solver.assemble_residual.calls", "solver.assemble_jacobian.calls"), "ratio"),
        "reference.first_zero.calls": (per_op("reference.first_zero.calls"), "count"),
        "reference.first_zero.ms": (per_op("reference.first_zero.ns", ms), "ms"),
        "reference.first_zero.interp_evals": (ratio("reference.first_zero.interp_evals", "reference.first_zero.calls"), "count"),
        "reference.first_zero.bisection_steps": (ratio("reference.first_zero.bisection_steps", "reference.first_zero.calls"), "count"),
        "reference.shooting_oracle.calls": (per_op("reference.shooting_oracle.calls"), "count"),
        "reference.shooting_oracle.ms": (per_op("reference.shooting_oracle.ns", ms), "ms"),
        "reference.shooting_oracle.steps": (ratio("reference.shooting_oracle.steps", "reference.shooting_oracle.calls"), "count"),
        "estimator.fit.ms": (per_op("estimator.fit.ns", ms), "ms"),
        "estimator.predict.ms": (per_op("estimator.predict.ns", ms), "ms"),
        "cli.main.self_ms": (per_op("cli.main.self_ns", ms), "ms"),
        "cli.output_bytes": (extra["output_bytes"] / ops, "B"),
        "cli.scan_L_reports.ms": (per_op("cli.scan_L_reports.ns", ms), "ms"),
        "cli.scan_L_reports.solve_overlap": (ratio("cli.scan_L_reports.solve_ns", "cli.scan_L_reports.ns"), "ratio"),
        "trace.overhead": (extra["overhead"], "ratio"),
    }
