"""Span tracing at the boundaries between ulmc's layers.

The tracer replaces, for the duration of one traced job, the functions one
layer calls in another (the name bound in the caller's module) with
wrappers that record a span: (name, start, end, parent index, run id).
Spans stay in memory and are written when the benchmark ends.  A span's
self time is its duration minus the durations of its direct children;
calls are single-threaded, so children never overlap.

Layers are the package modules: targets, brownian, samplers, analysis, cli.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("targets", "brownian", "samplers", "analysis", "cli")
METHODS = ("rmm", "rmm_parallel", "euler_uld", "exp_euler_uld", "lmc")

# The per-layer metrics a traced run prints for the benchmarked workloads
# (BENCHMARK.json's per_layer).  The split, path and per-method metrics of
# the chains and coupled workloads stay in the result file only: on the
# benchmarked workloads they are always zero.
REPORTED = (
    "targets.gradient_calls", "targets.gradient_points", "targets.gradient_s",
    "targets.build_s", "brownian.increments_calls", "brownian.increments_s",
    "brownian.normals_computed", "samplers.chain_steps", "samplers.self_s",
    "samplers.rmm.chain_step_us", "analysis.oracle_s", "analysis.stationary_self_s",
    "cli.self_s", "cli.csv_bytes", "setup.import_s", "trace.overhead_frac",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(x):
    shape = getattr(x, "shape", ())
    return 1 if len(shape) <= 1 else shape[0]


class Tracer:
    """Records spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.counts = defaultdict(Counter)  # run id -> counter name -> value
        self.run_id = 0
        self._stack = []
        self._patched = []

    def wrap(self, fn, name, count=None):
        """Return fn wrapped in a span; name may be a callable of the call."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                label = name(args, kwargs) if callable(name) else name
                self.spans[index] = (label, start, end, parent, self.run_id)
            if count is not None:
                count(self.counts[self.run_id], args, kwargs, result)
            return result

        return traced

    def traced_target(self, target):
        """The same target with its gradient oracle recorded as spans."""

        def count(c, args, kwargs, result):
            c["targets.gradient_calls"] += 1
            c["targets.gradient_points"] += _rows(args[0])

        return dataclasses.replace(
            target, gradient=self.wrap(target.gradient, "targets.gradient", count)
        )

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, ulmc):
        """Wrap every cross-layer call site the workloads reach."""
        import ulmc.analysis as analysis
        import ulmc.brownian as brownian
        import ulmc.cli as cli
        import ulmc.samplers as samplers

        def build_target(fn):
            def build(*args, **kwargs):
                return self.traced_target(fn(*args, **kwargs))

            return self.wrap(build, "targets.build")

        for name in ("quadratic_target", "logistic_target"):
            self._patch(cli, name, build_target(getattr(cli, name)))

        self._patch(cli, "run_chain", self.wrap(
            cli.run_chain,
            lambda a, k: "samplers.run_chain." + _arg(a, k, 1, "method"),
            _count_run_chain,
        ))
        for owner in (ulmc, analysis):
            self._patch(owner, "rmm_run_ensemble", self.wrap(
                owner.rmm_run_ensemble, "samplers.ensemble.rmm", _count_ensemble
            ))
        self._patch(analysis, "rmm_step", self.wrap(
            analysis.rmm_step, "samplers.step.rmm", _count_step("rmm")
        ))
        self._patch(analysis, "exponential_euler_uld_step", self.wrap(
            analysis.exponential_euler_uld_step,
            "samplers.step.exp_euler_uld",
            _count_step("exp_euler_uld"),
        ))

        for name, normals in (
            ("step_increments", _normals_step),
            ("step_increments_batch", _normals_two_cells_per_midpoint),
            ("exp_euler_increments", _normals_exp_euler),
            ("parallel_step_increments", _normals_two_cells_per_midpoint),
        ):
            self._patch(samplers, name, self.wrap(
                getattr(samplers, name), "brownian.increments", _count_increments(normals)
            ))
        self._patch(brownian.BrownianPathStore, "increments", self.wrap(
            brownian.BrownianPathStore.increments,
            "brownian.path_increments",
            _count_simple("brownian.path_increments_calls"),
        ))
        self._patch(brownian, "split", self.wrap(brownian.split, "brownian.split", _count_split))

        self._patch(ulmc, "rmm_moment_oracle", self.wrap(
            ulmc.rmm_moment_oracle, "analysis.oracle"
        ))
        self._patch(ulmc, "coupled_error_experiment", self.wrap(
            ulmc.coupled_error_experiment, "analysis.coupled"
        ))
        self._patch(cli, "stationary_error_study", self.wrap(
            cli.stationary_error_study, "analysis.stationary"
        ))
        self._patch(cli, "main", self.wrap(cli.main, "cli.main", _count_csv))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_simple(key):
    def count(c, args, kwargs, result):
        c[key] += 1

    return count


def _count_run_chain(c, args, kwargs, result):
    method = _arg(args, kwargs, 1, "method")
    steps = _arg(args, kwargs, 3, "n_steps")
    c["samplers.chain_steps"] += steps
    c[f"samplers.{method}.steps"] += steps


def _count_ensemble(c, args, kwargs, result):
    steps = _arg(args, kwargs, 1, "sched").N * _arg(args, kwargs, 2, "chains")
    c["samplers.chain_steps"] += steps
    c["samplers.rmm.steps"] += steps


def _count_step(method):
    def count(c, args, kwargs, result):
        c["samplers.chain_steps"] += 1
        c[f"samplers.{method}.steps"] += 1

    return count


# Normal draws per call, computed from the call's array shapes: two per
# coordinate for each (H, G) interval drawn.
def _normals_step(args, kwargs, result):
    h, alpha, dim = args[0], args[1], args[2]
    cells = int(alpha * h > 0.0) + int(h - alpha * h > 0.0)
    return 2 * dim * cells


def _normals_two_cells_per_midpoint(args, kwargs, result):
    # each midpoint (a row of W1) splits its cell in two; coincidences of a
    # midpoint with a cell boundary have probability zero
    return 4 * result.W1.size


def _normals_exp_euler(args, kwargs, result):
    return 2 * result.W2.size


def _count_increments(normals):
    def count(c, args, kwargs, result):
        c["brownian.increments_calls"] += 1
        c["brownian.normals_computed"] += normals(args, kwargs, result)

    return count


def _count_split(c, args, kwargs, result):
    c["brownian.split_calls"] += 1
    c["brownian.normals_computed"] += 2 * result[0].H.size


def _count_csv(c, args, kwargs, result):
    argv = list(args[0])
    if "--out" in argv:
        c["cli.csv_bytes"] += os.path.getsize(argv[argv.index("--out") + 1])


def self_times(spans, run_id):
    """Self time per span name for one run: duration minus direct children."""
    child_time = defaultdict(float)
    for i, (name, start, end, parent, rid) in enumerate(spans):
        if rid == run_id and parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    inclusive = defaultdict(float)
    for i, (name, start, end, parent, rid) in enumerate(spans):
        if rid == run_id:
            totals[name] += (end - start) - child_time[i]
            inclusive[name] += end - start
    return totals, inclusive


def layer_metrics(spans, counts, run_id):
    """Per-layer metrics of one traced job, plus each layer's self time."""
    selfs, inclusive = self_times(spans, run_id)
    c = counts[run_id]

    def layer_self(prefix):
        return sum(t for name, t in selfs.items() if name.startswith(prefix))

    metrics = {
        "targets.gradient_calls": c["targets.gradient_calls"],
        "targets.gradient_points": c["targets.gradient_points"],
        "targets.gradient_s": selfs["targets.gradient"],
        "brownian.increments_calls": c["brownian.increments_calls"],
        "brownian.increments_s": selfs["brownian.increments"],
        "brownian.normals_computed": c["brownian.normals_computed"],
        "brownian.split_calls": c["brownian.split_calls"],
        "brownian.split_s": selfs["brownian.split"],
        "brownian.path_increments_calls": c["brownian.path_increments_calls"],
        "brownian.path_increments_s": selfs["brownian.path_increments"],
        "samplers.chain_steps": c["samplers.chain_steps"],
        "samplers.self_s": layer_self("samplers."),
        "analysis.oracle_s": selfs["analysis.oracle"],
        "analysis.coupled_self_s": selfs["analysis.coupled"],
        "analysis.stationary_self_s": selfs["analysis.stationary"],
        "cli.self_s": selfs["cli.main"],
        "cli.csv_bytes": c["cli.csv_bytes"],
    }
    for method in METHODS:
        steps = c[f"samplers.{method}.steps"]
        busy = sum(t for name, t in inclusive.items()
                   if name.startswith("samplers.") and name.endswith("." + method))
        metrics[f"samplers.{method}.chain_step_us"] = 1e6 * busy / steps if steps else 0.0
    layers = {layer: layer_self(layer + ".") for layer in LAYERS}
    return metrics, layers


def unit_of(key):
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_bytes", "bytes")):
        if key.endswith(suffix):
            return unit
    return "count"
