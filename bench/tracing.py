"""Spans and counters recorded around the calls into each layer.

The tracer patches module attributes from outside the program: every module
imports its dependencies with ``from .x import name``, so a layer function is
wrapped once per consumer binding.  A binding that no longer exists is skipped
and its metrics read 0.  Spans are kept in memory and written out when the
run ends; a span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, attribute, span name); None as span name counts without a span
SPAN_BINDINGS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "experiments.parse_config"),
    *(("cli", name, "experiments.report") for name in (
        "run_report", "optimize_report", "sweep_table", "figure_curve", "table_pure", "table_werner")),
    ("cli", "to_csv", "experiments.serialize"),
    ("cli", "to_json", "experiments.serialize"),
    ("experiments", "maximize_timing", "optimizer.maximize_timing"),
    ("optimizer", "sweep", "optimizer.sweep"),
    ("experiments", "sweep", "optimizer.sweep"),
    ("optimizer", "factors_at", "noisekernel.factors_at"),
    ("experiments", "factors_at", "noisekernel.factors_at"),
    ("protocol", "factors_at", "noisekernel.factors_at"),
    ("noisekernel", "cumulative_decay", "noisekernel.cumulative_decay"),
    ("noisekernel", "decay_rate", None),
    ("optimizer", "average_fts_numeric", "metrics.average_fts_numeric"),
    ("experiments", "average_fts_numeric", "metrics.average_fts_numeric"),
    ("optimizer", "average_fts_analytic", "metrics.average_fts_analytic"),
    ("experiments", "average_fts_analytic", "metrics.average_fts_analytic"),
    ("experiments", "concurrence", "metrics.entanglement"),
    ("experiments", "chsh", "metrics.entanglement"),
    ("protocol", "run_with_factors", "protocol.run_with_factors"),
    ("protocol", "joint_evolve", "channels.joint_evolve"),
    ("protocol", "alice_factor_matrix", "channels.factor_matrix"),
    ("protocol", "bob_factor_matrix", "channels.factor_matrix"),
)
# factories whose returned callables are counted per evaluated point
OBJECTIVE_BINDINGS = (("optimizer", "objective_fn"),)
POINTWISE_BINDINGS = (("optimizer", "bloch_fidelity_fn"), ("experiments", "bloch_fidelity_fn"))

# per-layer metrics reported by a traced run: name -> (unit, better)
PER_LAYER = {
    "noisekernel.quadrature_calls": ("count", "lower"),
    "noisekernel.cumulative_decay.self_s": ("s", "lower"),
    "noisekernel.factors_at.calls": ("count", "lower"),
    "noisekernel.factors_at.self_s": ("s", "lower"),
    "optimizer.objective_evals": ("count", "lower"),
    "optimizer.grid_evals": ("count", "lower"),
    "optimizer.refine_evals": ("count", "lower"),
    "optimizer.sweep.self_s": ("s", "lower"),
    "optimizer.maximize_timing.self_s": ("s", "lower"),
    "metrics.quadrature_averages": ("count", "lower"),
    "metrics.montecarlo_averages": ("count", "lower"),
    "metrics.pointwise_points": ("count", "lower"),
    "metrics.points_per_average": ("ratio", "lower"),
    "metrics.average_fts_numeric.self_s": ("s", "lower"),
    "metrics.average_fts_analytic.calls": ("count", "lower"),
    "metrics.average_fts_analytic.self_s": ("s", "lower"),
    "metrics.entanglement.self_s": ("s", "lower"),
    "qlinalg.DensityOp.constructions": ("count", "lower"),
    "qlinalg.DensityOp.self_s": ("s", "lower"),
    "qlinalg.eig.calls": ("count", "lower"),
    "channels.joint_evolve.calls": ("count", "lower"),
    "channels.joint_evolve.self_s": ("s", "lower"),
    "channels.factor_matrix.self_s": ("s", "lower"),
    "protocol.run_with_factors.calls": ("count", "lower"),
    "protocol.run_with_factors.self_s": ("s", "lower"),
    "protocol.branches_retained": ("count", "higher"),
    "protocol.branches_computed": ("count", "lower"),
    "experiments.report.self_s": ("s", "lower"),
    "experiments.serialize.self_s": ("s", "lower"),
    "experiments.artifact_bytes": ("B", "lower"),
    "experiments.parse_config.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _method_arg(args, kwargs, position: int, default: str) -> str:
    return kwargs.get("method", args[position] if len(args) > position else default)


class Tracer:
    """Records spans and counters while ``active``; ``install`` patches the program."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.spans: List[list] = []  # [name, parent index, job, start_ns, end_ns]
        self.counts: Counter = Counter()
        self.reached: Counter = Counter()  # calls per patched binding
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _call_in_span(self, name: str, fn: Callable, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, parent, self.job, time.perf_counter_ns(), 0])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][4] = time.perf_counter_ns()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _patch(self, owner, attr: str, label: str, span: Optional[str] = None,
               on_call: Optional[Callable] = None, on_return: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr``: count the call, run ``on_call``, time it as ``span``, map the result."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self.reached[label] += 0

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            self.reached[label] += 1
            if on_call is not None:
                on_call(args, kwargs)
            if span is None:
                result = original(*args, **kwargs)
            else:
                result = self._call_in_span(span, original, args, kwargs)
            return result if on_return is None else on_return(result)

        setattr(owner, attr, functools.wraps(original)(wrapper))
        self._patches.append((owner, attr, original))

    # -- counters ------------------------------------------------------------

    def _count_quadrature(self, noisekernel, args, kwargs) -> None:
        # decided from the arguments with the program's own backend resolver
        params, t = args[0], kwargs.get("tau", kwargs.get("t", args[1] if len(args) > 1 else None))
        method = _method_arg(args, kwargs, 2, "auto")
        if t == 0.0 or params.gamma == 0.0:
            return
        resolve = getattr(noisekernel, "_resolve_method", None)
        backend = resolve(params, method) if resolve is not None else method
        if backend == "quadrature":
            self.counts["noisekernel.quadrature_calls"] += 1

    def _count_average(self, args, kwargs) -> None:
        method = _method_arg(args, kwargs, 1, "quadrature")
        self.counts[f"metrics.{method}_averages"] += 1

    def _count_objective(self, fn: Callable) -> Callable:
        def counted(tau, *args, **kwargs):
            if self.active:
                n = int(np.size(tau))
                self.counts["optimizer.objective_evals"] += n
                if self._inside("optimizer.sweep"):
                    self.counts["optimizer.grid_evals"] += n
                elif self._inside("optimizer.maximize_timing"):
                    self.counts["optimizer.refine_evals"] += n
            return fn(tau, *args, **kwargs)
        return counted

    def _count_points(self, fn: Callable) -> Callable:
        def counted(theta, phi, *args, **kwargs):
            if self.active:
                self.counts["metrics.pointwise_points"] += int(np.broadcast(theta, phi).size)
            return fn(theta, phi, *args, **kwargs)
        return counted

    def _count_branches(self, run):
        self.counts["protocol.branches_computed"] += len(run.branches)
        self.counts["protocol.branches_retained"] += len(run.retained_branches)
        return run

    def _count_bytes(self, text: str) -> str:
        self.counts["experiments.artifact_bytes"] += len(text.encode("utf-8"))
        return text

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every consumer binding; missing names are skipped."""
        from dfsteleport import cli, experiments, noisekernel, optimizer, protocol, qlinalg

        modules = {"cli": cli, "experiments": experiments, "noisekernel": noisekernel,
                   "optimizer": optimizer, "protocol": protocol}
        for mod, attr, span in SPAN_BINDINGS:
            on_call = on_return = None
            if attr in ("cumulative_decay", "decay_rate"):
                on_call = functools.partial(self._count_quadrature, noisekernel)
            elif attr == "average_fts_numeric":
                on_call = self._count_average
            elif attr == "run_with_factors":
                on_return = self._count_branches
            elif attr in ("to_csv", "to_json"):
                on_return = self._count_bytes
            self._patch(modules[mod], attr, f"{mod}.{attr}", span, on_call, on_return)
        for mod, attr in OBJECTIVE_BINDINGS:
            self._patch(modules[mod], attr, f"{mod}.{attr}", on_return=self._count_objective)
        for mod, attr in POINTWISE_BINDINGS:
            self._patch(modules[mod], attr, f"{mod}.{attr}", on_return=self._count_points)
        density_op = getattr(qlinalg, "DensityOp", None)
        if density_op is not None:
            self._patch(density_op, "__init__", "qlinalg.DensityOp.__init__", "qlinalg.DensityOp")
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, f"numpy.linalg.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        total: Dict[str, int] = defaultdict(int)
        for name, parent, _job, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return {name: ns * 1e-9 for name, ns in total.items()}

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def metrics(self, overhead_s: float) -> Dict[str, dict]:
        selfs = self.self_times()
        calls = self.span_counts()
        n_averages = self.counts["metrics.quadrature_averages"] + self.counts["metrics.montecarlo_averages"]
        values = {
            "noisekernel.factors_at.calls": calls["noisekernel.factors_at"],
            "metrics.average_fts_analytic.calls": calls["metrics.average_fts_analytic"],
            "qlinalg.DensityOp.constructions": calls["qlinalg.DensityOp"],
            "qlinalg.eig.calls": self.reached["numpy.linalg.eigh"] + self.reached["numpy.linalg.eigvalsh"],
            "channels.joint_evolve.calls": calls["channels.joint_evolve"],
            "protocol.run_with_factors.calls": calls["protocol.run_with_factors"],
            "metrics.points_per_average": (
                self.counts["metrics.pointwise_points"] / n_averages if n_averages else 0.0),
            "trace.overhead_s": overhead_s,
        }
        for name in PER_LAYER:
            if name.endswith(".self_s"):
                values[name] = selfs.get(name[: -len(".self_s")], 0.0)
            elif name not in values:
                values[name] = self.counts[name]
        return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, id, parent, job, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, job, start, end) in enumerate(self.spans):
                fh.write(json.dumps([name, index, parent, job, start, end]) + "\n")
