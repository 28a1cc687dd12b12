"""Span recorder that measures the inar layers from outside.

Each traced layer is a public function. While a :class:`Tracer` is
installed, every module of the ``inar`` package that holds a reference to
one of those functions (the defining module, callers that imported the
name, and the package namespace) is rebound to a timing wrapper, so calls
between layers are caught where the caller looks the name up at run time.
Spans are kept in memory; self time is a span's duration minus the part
covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (defining module, public function)
LAYER_FUNCTIONS = {
    "config.parse_config": ("inar.config", "parse_config"),
    "montecarlo.run_experiment": ("inar.montecarlo", "run_experiment"),
    "montecarlo.summarize": ("inar.montecarlo", "summarize"),
    "montecarlo.normality_suite": ("inar.montecarlo", "normality_suite"),
    "simulate.simulate_path": ("inar.simulate", "simulate_path"),
    "simulate.poisson_sample": ("inar.simulate", "poisson_sample"),
    "estimate.build_design": ("inar.estimate", "build_design"),
    "estimate.solve_cls": ("inar.estimate", "solve_cls"),
    "inference.sandwich_covariance": ("inar.inference", "sandwich_covariance"),
    "inference.confidence_intervals": ("inar.inference", "confidence_intervals"),
    "inference.jarque_bera": ("inar.inference", "jarque_bera"),
    "inference.shapiro_wilk": ("inar.inference", "shapiro_wilk"),
    "inference.qq_data": ("inar.inference", "qq_data"),
    "inference.histogram_data": ("inar.inference", "histogram_data"),
}

# Recorded by the benchmark around ``inar.cli.main(["mc", ...])``: the whole
# `inar mc` command, whose self time is argument parsing and the file writes.
CLI_MC = "cli.mc"

SPAN_NAMES = (CLI_MC,) + tuple(LAYER_FUNCTIONS)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Per-span call counts, total and self time, plus the layer counters
    (variates drawn, replication failures, successful solves)."""

    def __init__(self):
        self.stats = {name: _Stat() for name in SPAN_NAMES}
        self.child_s = defaultdict(float)  # (parent, child) -> seconds
        self.variates = 0
        self.mc_failures = 0
        self.solve_ok = 0
        self._stack = []  # [name, seconds covered by children]
        self._saved = []  # (module, attribute, original)

    @contextmanager
    def span(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            stat = self.stats[name]
            stat.calls += 1
            stat.total_s += dt
            stat.self_s += dt - frame[1]
            if self._stack:
                parent = self._stack[-1]
                parent[1] += dt
                self.child_s[parent[0], name] += dt

    def _count(self, name, result):
        if name in ("simulate.simulate_path", "simulate.poisson_sample"):
            self.variates += 1 if isinstance(result, int) else len(result)
        elif name == "estimate.solve_cls":
            self.solve_ok += 1
        elif name == "montecarlo.run_experiment":
            self.mc_failures += result.failures

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, result)
            return result

        return traced

    def install(self):
        """Rebind every inar module attribute that refers to a traced
        function. Functions a future version no longer has are skipped and
        report zero calls."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            fn = getattr(importlib.import_module(module), attr, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "inar" or modname.startswith("inar.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def consistency_errors(self, tol=1e-9):
        """Self time within total time for every span, and the children of a
        span summing to no more than the span itself."""
        errors = []
        for name, stat in self.stats.items():
            if stat.self_s > stat.total_s + tol or stat.self_s < -tol:
                errors.append(f"{name}: self {stat.self_s:.6f}s outside [0, total {stat.total_s:.6f}s]")
        by_parent = defaultdict(float)
        for (parent, _), seconds in self.child_s.items():
            by_parent[parent] += seconds
        for parent, seconds in by_parent.items():
            if seconds > self.stats[parent].total_s + tol:
                errors.append(f"{parent}: children {seconds:.6f}s exceed total {self.stats[parent].total_s:.6f}s")
        return errors

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.total_s"] = (stat.total_s, "s")
            out[f"{name}.self_s"] = (stat.self_s, "s")
        sampling_s = (
            self.stats["simulate.simulate_path"].self_s
            + self.stats["simulate.poisson_sample"].self_s
        )
        solves = self.stats["estimate.solve_cls"].calls
        out["simulate.variates"] = (self.variates, "count")
        out["simulate.ns_per_variate"] = (
            sampling_s / self.variates * 1e9 if self.variates else 0.0, "ns"
        )
        out["montecarlo.failures"] = (self.mc_failures, "count")
        out["estimate.fit_ok_ratio"] = (self.solve_ok / solves if solves else 0.0, "ratio")
        return out
