"""Tests of the benchmark itself: exact counts, predicted zeros, wrapper reach, oracles.

    python3 -m pytest bench/test_bench.py

Run from the repository root.  Each test runs one round of a workload in
process, so the whole file takes a few seconds.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oracles import Oracle, protocol_record  # noqa: E402
from run import Runner  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, make_round, run_job, write_config  # noqa: E402

SEED = 11
# the per-layer counts each workload bypasses, predicted before measuring
PREDICTED_ZERO = {
    "artifacts": ("noisekernel.quadrature_calls", "metrics.pointwise_points",
                  "metrics.quadrature_averages", "metrics.montecarlo_averages"),
    "thermal": ("metrics.pointwise_points", "metrics.quadrature_averages", "metrics.montecarlo_averages"),
    "physical": ("noisekernel.quadrature_calls",),
    "branch-scan": ("noisekernel.quadrature_calls",),
}
# Wrapped so that a future caller is counted, but no job path calls it yet.
NOT_YET_REACHED = {"noisekernel.decay_rate"}


def traced_round(workload, workdir):
    runner = Runner(workload, SEED, workdir)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        runner.run_round(1, "t")
    finally:
        tracer.uninstall()
        runner.close()
    _, failed, messages = runner.check()
    assert failed == 0, messages
    metrics = tracer.metrics(0.0)
    counts = {name: m["value"] for name, m in metrics.items()
              if not name.endswith("_s")}
    return counts, tracer.reached


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    out = {}
    for workload in WORKLOADS:
        first = traced_round(workload, tmp_path_factory.mktemp(workload))
        second = traced_round(workload, tmp_path_factory.mktemp(workload))
        out[workload] = (first, second)
    return out


def test_counts_repeat_exactly(traces):
    for workload, ((counts, _), (again, _)) in traces.items():
        assert counts == again, workload


def test_every_per_layer_metric_reported(traces):
    for workload, ((counts, _), _) in traces.items():
        assert set(counts) == {name for name in PER_LAYER if not name.endswith("_s")}, workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predicted_zero_counts(traces, workload):
    (counts, _), _ = traces[workload]
    for name in PREDICTED_ZERO[workload]:
        assert counts[name] == 0, name


def test_mechanism_workloads_exercise_their_layer(traces):
    assert traces["thermal"][0][0]["noisekernel.quadrature_calls"] > 0
    assert traces["physical"][0][0]["metrics.pointwise_points"] > 0
    assert traces["branch-scan"][0][0]["protocol.run_with_factors.calls"] > 0
    assert traces["artifacts"][0][0]["noisekernel.factors_at.calls"] > 0


def test_every_wrapper_reached(traces):
    installed = set(traces["artifacts"][0][1])
    reached = {label for (_, hits), _ in traces.values() for label, n in hits.items() if n > 0}
    assert installed - reached <= NOT_YET_REACHED


def test_missing_binding_records_zero(monkeypatch, tmp_path):
    from dfsteleport import optimizer

    monkeypatch.delattr(optimizer, "objective_fn")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "optimizer.objective_fn" not in tracer.reached
    assert tracer.metrics(0.0)["optimizer.objective_evals"]["value"] == 0


def _run_first(workload, kind, tmp_path):
    job = next(j for j in make_round(workload, SEED, 1) if j.kind == kind)
    config, out = str(tmp_path / "cfg.json"), str(tmp_path / ("out" + job.out_suffix))
    write_config(job, config)
    return job, out, run_job(job, config, out)


@pytest.mark.parametrize("workload,kind", [("artifacts", "figure"), ("thermal", "sweep"), ("physical", "run")])
def test_oracle_rejects_a_perturbed_artifact(workload, kind, tmp_path):
    job, out, _ = _run_first(workload, kind, tmp_path)
    assert Oracle().check(job, out, None) == []
    path = Path(out)
    if kind == "run":
        report = json.loads(path.read_text())
        report["average_fts"]["physical"]["quadrature"] += 1e-6
        path.write_text(json.dumps(report))
    else:
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-6)
        path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    assert Oracle().check(job, out, None) != []


def test_oracle_rejects_a_perturbed_branch_record(tmp_path):
    job, _, runs = _run_first("branch-scan", "protocol", tmp_path)
    record = np.concatenate([protocol_record(run) for run in runs])
    assert Oracle().check(job, None, record) == []
    record[5] += 1e-9
    assert Oracle().check(job, None, record) != []
