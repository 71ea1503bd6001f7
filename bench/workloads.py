"""Seeded job generators for the four benchmark workloads, and the job runner.

A workload is an endless stream of rounds.  Round ``r`` of workload ``w`` under
seed ``s`` is a pure function of ``(w, s, r)``, so the oracle pass and the
traced run can regenerate exactly the jobs the timed loop ran without keeping
them in memory.  Each round is a fixed mix of job kinds whose parameters are
spread evenly over the ranges below (see ``_Sampler``).

This module imports only the standard library at load time: the set-up probe
imports it before it starts its clock, so numpy and ``dfsteleport`` must be
imported by the timed code, not here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

PI = math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
WORKLOADS = ("artifacts", "thermal", "physical", "branch-scan")

# Paper ranges.  Receiver cutoffs span the published tables (0.01, 0.02) and
# figure panels (0.02 to 5); the published couplings are 0.1.  Quadrature cost
# grows as 1/lambda_c, so the thermal workload keeps to the figure cutoffs,
# which halves the spread of its slowest jobs.
LAMBDA_RANGE = (0.01, 5.0)
THERMAL_LAMBDA_RANGE = (0.02, 5.0)
GAMMA_RANGE = (0.05, 0.3)
TEMPERATURE_RANGE = (0.05, 2.0)
CONCURRENCE_RANGE = (0.1, 1.0)
UNBALANCED_CONCURRENCE_RANGE = (0.2, 0.95)
WINDOW_START_RANGE = (PI, 2.0 * PI)
WINDOW_WIDTH_RANGE = (PI, 2.0 * PI)
SWEEP_POINTS_RANGE = (41, 81)
TAU_RANGE = (0.0, 4.0 * PI)

THERMAL_STRATA = 8
PHYSICAL_MIX = (("optimize", 3), ("sweep", 3), ("run", 14))
BRANCH_SCAN_ROUND = 8
BRANCH_SCAN_INPUTS = 16

ARTIFACT_ARGV = (
    ("table", "1"), ("table", "2"), ("table", "3"),
    *(("figure", fig, "--panel", panel) for fig in ("2", "3") for panel in "abcd"),
)


@dataclass(frozen=True)
class Job:
    """One unit of work.

    ``kind`` is the CLI subcommand, or ``protocol`` for a scan of library
    ``run_protocol`` calls over several inputs.  CLI jobs carry their argv
    (without ``--config`` and ``--out``) and, when they need one, the config
    document; library jobs carry their arguments in ``params``.
    """

    kind: str
    argv: Tuple[str, ...] = ()
    config: Optional[dict] = None
    params: dict = field(default_factory=dict)

    @property
    def out_suffix(self) -> str:
        return ".csv" if self.kind in ("table", "figure", "sweep") else ".json"


class _Sampler:
    """Draws the parameters of round ``index`` of one workload under one seed.

    A group of ``n`` jobs takes, for every parameter, one value in each of
    ``n`` equal strata of [0, 1) (a Latin hypercube).  Which job gets which
    stratum is a fixed design, the same for every seed and round, so every
    round holds the same mix of cheap and costly parameter combinations: job
    cost here has heavy tails (low cutoffs, and windows where the receiver
    has fully decohered and the fidelity curve is flat), and random pairings
    would make a run's cost swing with its seed.  The seed sets where each
    value sits inside its stratum; that position moves from round to round
    along a golden-ratio sequence, so the rounds of a run fill the strata
    evenly.
    """

    def __init__(self, workload: str, seed: int, index: int):
        self.run_key = f"{workload}:{seed}"
        self.index = index
        self.rng = random.Random(f"{self.run_key}:{index}")

    def draws(self, group: str, n: int, names) -> List[dict]:
        columns = {}
        for name in names:
            design = list(range(n))
            random.Random(f"design:{group}:{name}").shuffle(design)
            offset = random.Random(f"{self.run_key}:{group}:{name}").random()
            shift = (offset + self.index * GOLDEN) % 1.0
            columns[name] = [(k + shift) / n for k in design]
        return [{name: columns[name][i] for name in names} for i in range(n)]


def _scale(u: float, bounds) -> float:
    return bounds[0] + u * (bounds[1] - bounds[0])


def _log_scale(u: float, bounds) -> float:
    return math.exp(_scale(u, (math.log(bounds[0]), math.log(bounds[1]))))


def _window(d: dict) -> List[float]:
    lo = _scale(d["start"], WINDOW_START_RANGE)
    return [lo, lo + _scale(d["width"], WINDOW_WIDTH_RANGE)]


def _n_points(d: dict) -> int:
    lo, hi = SWEEP_POINTS_RANGE
    return lo + int(d["points"] * (hi - lo + 1))


def _bloch(d: dict) -> dict:
    return {"theta": math.acos(1.0 - 2.0 * d["theta"]), "phi": 2.0 * PI * d["phi"]}


def _artifacts_round(sampler: _Sampler) -> List[Job]:
    jobs = [Job(kind=argv[0], argv=argv) for argv in ARTIFACT_ARGV]
    sampler.rng.shuffle(jobs)
    return jobs


def _thermal_round(sampler: _Sampler) -> List[Job]:
    rng = sampler.rng
    jobs = []
    for kind in ("optimize", "sweep"):
        names = ("lambda", "gamma", "temperature", "concurrence", "start", "width", "points")
        for i, d in enumerate(sampler.draws(kind, THERMAL_STRATA, names)):
            resource_kind = "pure" if i % 2 == 0 else "werner"
            config = {
                "resource": {"kind": resource_kind, "concurrence": _scale(d["concurrence"], CONCURRENCE_RANGE)},
                "bob_noise": {
                    "gamma": _scale(d["gamma"], GAMMA_RANGE),
                    "lambda_c": _log_scale(d["lambda"], THERMAL_LAMBDA_RANGE),
                    "temperature": _log_scale(d["temperature"], TEMPERATURE_RANGE),
                },
                "window": _window(d),
                "convention": "paper",
                "seed": rng.randrange(2**31),
            }
            if kind == "sweep":
                config["n_points"] = _n_points(d)
            jobs.append(Job(kind=kind, argv=(kind,), config=config))
    rng.shuffle(jobs)
    return jobs


def _physical_round(sampler: _Sampler) -> List[Job]:
    rng = sampler.rng
    jobs = []
    for kind, n in PHYSICAL_MIX:
        names = ("concurrence", "lambda", "gamma", "start", "width", "points",
                 "tau", "theta", "phi", "alice_lambda", "alice_gamma")
        for d in sampler.draws(kind, n, names):
            config = {
                "resource": {"kind": "pure", "concurrence": _scale(d["concurrence"], UNBALANCED_CONCURRENCE_RANGE)},
                "bob_noise": {"gamma": _scale(d["gamma"], GAMMA_RANGE),
                              "lambda_c": _log_scale(d["lambda"], LAMBDA_RANGE)},
                "convention": "physical",
                "seed": rng.randrange(2**31),
            }
            if kind == "run":
                config["alice_noise"] = {"gamma": d["alice_gamma"],
                                         "lambda_c": _log_scale(d["alice_lambda"], LAMBDA_RANGE)}
                config["tau"] = _scale(d["tau"], TAU_RANGE)
                config["input"] = _bloch(d)
            else:
                config["window"] = _window(d)
            if kind == "sweep":
                config["n_points"] = _n_points(d)
            jobs.append(Job(kind=kind, argv=(kind,), config=config))
    rng.shuffle(jobs)
    return jobs


def _branch_scan_round(sampler: _Sampler) -> List[Job]:
    # pure/Werner alternate, and each strategy takes half of either kind; one
    # job scans BRANCH_SCAN_INPUTS inputs, which keeps a job well above the
    # timer's and the machine's millisecond jitter
    names = ("resource", "alice_gamma", "alice_lambda", "bob_gamma", "bob_lambda", "tau")
    jobs = []
    for i, d in enumerate(sampler.draws("protocol", BRANCH_SCAN_ROUND, names)):
        if i % 2 == 0:
            mu = math.sqrt(d["resource"])
            resource = {"kind": "pure", "mu": mu, "lambda": math.sqrt(max(0.0, 1.0 - mu * mu))}
        else:
            resource = {"kind": "werner", "p": d["resource"]}
        params = {
            "inputs": [_bloch(e) for e in sampler.draws(f"inputs{i}", BRANCH_SCAN_INPUTS, ("theta", "phi"))],
            "resource": resource,
            "alice_noise": {"gamma": d["alice_gamma"], "lambda_c": _log_scale(d["alice_lambda"], LAMBDA_RANGE)},
            "bob_noise": {"gamma": d["bob_gamma"], "lambda_c": _log_scale(d["bob_lambda"], LAMBDA_RANGE)},
            "tau": _scale(d["tau"], TAU_RANGE),
            "strategy": "retain-psi" if (i // 2) % 2 == 0 else "retain-all",
        }
        jobs.append(Job(kind="protocol", params=params))
    return jobs


_ROUNDS = {
    "artifacts": _artifacts_round,
    "thermal": _thermal_round,
    "physical": _physical_round,
    "branch-scan": _branch_scan_round,
}


def make_round(workload: str, seed: int, index: int) -> List[Job]:
    """Jobs of round ``index`` of ``workload`` under ``seed``; deterministic."""
    return _ROUNDS[workload](_Sampler(workload, seed, index))


def warmup_job(workload: str) -> Job:
    """A cheap fixed job that takes the workload's first-call code paths."""
    if workload == "artifacts":
        return Job(kind="table", argv=("table", "2"))
    if workload == "branch-scan":
        return _branch_scan_round(_Sampler(workload, 0, 0))[0]
    config = {
        "resource": {"kind": "pure", "concurrence": 0.6},
        "bob_noise": {"gamma": 0.1, "lambda_c": 1.0,
                      "temperature": 1.0 if workload == "thermal" else 0.0},
        "window": [PI, 2.0 * PI],
        "n_points": 5,
        "convention": "paper" if workload == "thermal" else "physical",
    }
    return Job(kind="sweep", argv=("sweep",), config=config)


def write_config(job: Job, path: str) -> None:
    if job.config is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job.config, fh)


class JobFailed(RuntimeError):
    """A CLI job returned a non-zero exit code."""


def resource_spec(doc: dict):
    from dfsteleport import PurePair, Werner

    if doc["kind"] == "pure":
        if "concurrence" in doc:
            return PurePair.from_concurrence(doc["concurrence"])
        return PurePair(mu=doc["mu"], lam=doc["lambda"])
    if "concurrence" in doc:
        return Werner.from_concurrence(doc["concurrence"])
    return Werner(p=doc["p"])


def run_job(job: Job, config_path: str, out_path: str):
    """Run one job through its public entry point.

    CLI jobs go through ``dfsteleport.cli.main`` and leave their artifact at
    ``out_path``; library jobs return one ``ProtocolRun`` per input.  Raises
    on failure.
    """
    if job.kind == "protocol":
        import dfsteleport as dt

        p = job.params
        resource = resource_spec(p["resource"])
        alice, bob = dt.NoiseParams(**p["alice_noise"]), dt.NoiseParams(**p["bob_noise"])
        strategy = dt.Strategy(p["strategy"])
        return [dt.run_protocol(dt.BlochAngles(**angles), resource, alice, bob, p["tau"], strategy)
                for angles in p["inputs"]]
    from dfsteleport import cli

    argv = list(job.argv)
    if job.config is not None:
        argv += ["--config", config_path]
    code = cli.main(argv + ["--out", out_path])
    if code != 0:
        raise JobFailed(f"{' '.join(job.argv)} exited with code {code}")
    return None
