"""Experiment configurations, table/figure regeneration, and report assembly.

Configs are single JSON documents with every numeric field in omega0 units.
Regenerated tables carry the published reference values as constants next to
the recomputed ones; a deviation column and a ``documented-deviation`` flag
mark the rows whose printed values the computation cannot reproduce within
tolerance (the pure-resource table has two such fidelity rows and several
nonlocality rows at low concurrence).

Output assembly is deterministic: identical config and seed produce
byte-identical CSV/JSON, and every artifact embeds the SHA-256 hash of the
canonical config that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .metrics import (
    average_fts_analytic,
    average_fts_numeric,
    bloch_fidelity_fn,
    chsh,
    concurrence,
)
from .noisekernel import DecoherenceFactors, NoiseParams, factors_at
from .optimizer import TimingProblem, grid_points, maximize_timing, sweep
from .protocol import (
    PurePair,
    ResourceSpec,
    Strategy,
    Werner,
    resource_state,
    run_protocol,
)
from .qlinalg import BlochAngles

TWO_PI = 2.0 * math.pi

# sender-bath defaults; results the tool reports are invariant to them
DEFAULT_ALICE = NoiseParams(gamma=0.1, lambda_c=0.1, temperature=0.0)
DEFAULT_BOB = NoiseParams(gamma=0.1, lambda_c=0.01, temperature=0.0)

# flagging tolerances for the deviation columns
TOL_CONCURRENCE = 0.005
TOL_B_MAX = 0.01
TOL_FID_PURE = 0.01
TOL_FID_WERNER = 0.015

DEVIATION_FLAG = "documented-deviation"

# published reference rows regenerated by cmd_table (keyed by the row label)
TABLE1_PRINTED = {
    # concurrence: (b_max, fidelity)
    0.1: (1.56, 0.69),
    0.2: (1.70, 0.73),
    0.3: (1.83, 0.76),
    0.4: (1.98, 0.83),
    0.5: (2.12, 0.87),
    0.7: (2.40, 0.90),
    0.8: (2.55, 0.93),
    0.9: (2.69, 0.97),
    1.0: (2.8284271247461903, 1.0),
}
TABLE2_PRINTED = {
    # p: (concurrence, b_max, fidelity); Bell inequality satisfied
    0.40: (0.10, 1.13, 0.69),
    0.50: (0.25, 1.41, 0.74),
    0.60: (0.40, 1.69, 0.79),
    0.66: (0.49, 1.87, 0.82),
    0.69: (0.54, 1.95, 0.84),
}
TABLE3_PRINTED = {
    # p: (concurrence, b_max, fidelity); Bell inequality violated
    0.72: (0.58, 2.04, 0.86),
    0.75: (0.63, 2.12, 0.88),
    0.85: (0.78, 2.40, 0.93),
    0.90: (0.85, 2.54, 0.95),
    0.95: (0.93, 2.68, 0.98),
}

TABLE1_BOB = NoiseParams(gamma=0.1, lambda_c=0.01, temperature=0.0)
WERNER_TABLE_BOB = NoiseParams(gamma=0.1, lambda_c=0.02, temperature=0.0)

FIGURE_PANELS = {
    # (figure, panel) -> receiver cutoff; coupling 0.1 and concurrence 0.8 throughout
    (2, "a"): 0.05,
    (2, "b"): 0.20,
    (2, "c"): 0.50,
    (2, "d"): 5.00,
    (3, "a"): 0.02,
    (3, "b"): 0.03,
    (3, "c"): 0.05,
    (3, "d"): 0.07,
}
FIGURE_GAMMA = 0.1
FIGURE_CONCURRENCE = 0.8
FIGURE_TAU_MAX = 12.0 * math.pi
FIGURE_POINTS = 1201

# most tau points one sweep or optimize job may evaluate
MAX_TAU_POINTS = 100_000


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    resource: ResourceSpec
    alice_noise: NoiseParams
    bob_noise: NoiseParams
    tau: Optional[float]
    window: Optional[Tuple[float, float]]
    input_state: Optional[BlochAngles]  # None means Bloch-averaged only
    strategy: Strategy
    convention: str
    seed: int
    n_points: int
    canonical: dict = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class ResultTable:
    headers: List[str]
    rows: List[List]
    metadata: Dict[str, str]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError("table rows must match the header width")
            for cell in row:
                if isinstance(cell, float) and not math.isfinite(cell):
                    raise ValueError("table cells must be finite")


def _finite_number(val, where: str) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{where}: expected a number, got {val!r}")
    try:
        x = float(val)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {val!r}")
    return x


def _check_phases(tau: float, sender_omega0: float, receiver_omega0: float, where: str) -> None:
    # factors_at turns the sender's 2*omega0*tau and the receiver's omega0*tau into phases
    if not (math.isfinite(2.0 * (sender_omega0 * tau)) and math.isfinite(receiver_omega0 * tau)):
        raise ConfigError(f"{where}: omega0 * tau is too large for a finite phase at tau = {tau!r}")


def _require_number(obj: dict, key: str, context: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{context}: missing required field {key!r}")
    return _finite_number(obj[key], f"{context}.{key}")


def _parse_noise(obj, context: str, default: NoiseParams) -> NoiseParams:
    if obj is None:
        return default
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object, got {obj!r}")
    try:
        return NoiseParams(
            gamma=_require_number(obj, "gamma", context),
            lambda_c=_require_number(obj, "lambda_c", context),
            temperature=_require_number(obj, "temperature", context, default=0.0),
            omega0=_require_number(obj, "omega0", context, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_resource(obj, context: str = "resource") -> ResourceSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{context}: expected an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "pure":
            if "concurrence" in obj:
                return PurePair.from_concurrence(_require_number(obj, "concurrence", context))
            return PurePair(
                mu=_require_number(obj, "mu", context),
                lam=_require_number(obj, "lambda", context),
            )
        if kind == "werner":
            if "concurrence" in obj:
                return Werner.from_concurrence(_require_number(obj, "concurrence", context))
            return Werner(p=_require_number(obj, "p", context))
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}.kind: expected 'pure' or 'werner', got {kind!r}")


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a JSON config document; raises ConfigError naming the bad field."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    known = {
        "resource", "alice_noise", "bob_noise", "tau", "window",
        "input", "strategy", "convention", "seed", "n_points",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")

    resource = _parse_resource(doc.get("resource", {"kind": "pure", "concurrence": 1.0}))
    alice = _parse_noise(doc.get("alice_noise"), "alice_noise", DEFAULT_ALICE)
    bob = _parse_noise(doc.get("bob_noise"), "bob_noise", DEFAULT_BOB)

    tau = None
    if "tau" in doc:
        tau = _require_number(doc, "tau", "config")
        if tau < 0.0:
            raise ConfigError(f"tau: must be >= 0, got {tau!r}")
    window = None
    if "window" in doc:
        w = doc["window"]
        if not (isinstance(w, (list, tuple)) and len(w) == 2):
            raise ConfigError(f"window: expected [lo, hi], got {w!r}")
        lo, hi = (_finite_number(v, f"window[{i}]") for i, v in enumerate(w))
        if not (0.0 <= lo < hi):
            raise ConfigError(f"window: must satisfy 0 <= lo < hi, got {w!r}")
        window = (lo, hi)

    input_obj = doc.get("input", {"theta": math.pi / 2.0, "phi": 0.0})
    input_state: Optional[BlochAngles]
    if input_obj == "average":
        input_state = None
    elif isinstance(input_obj, dict):
        try:
            input_state = BlochAngles(
                theta=_require_number(input_obj, "theta", "input"),
                phi=_require_number(input_obj, "phi", "input", default=0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"input: {exc}") from exc
    else:
        raise ConfigError(f"input: expected angles object or 'average', got {input_obj!r}")

    strategy_name = doc.get("strategy", "retain-psi")
    try:
        strategy = Strategy(strategy_name)
    except ValueError:
        raise ConfigError(f"strategy: expected 'retain-psi' or 'retain-all', got {strategy_name!r}")

    convention = doc.get("convention", "paper")
    if convention not in ("paper", "physical"):
        raise ConfigError(f"convention: expected 'paper' or 'physical', got {convention!r}")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed: expected a nonnegative integer, got {seed!r}")

    n_points = doc.get("n_points", 601)
    if not isinstance(n_points, int) or n_points < 2:
        raise ConfigError(f"n_points: expected an integer >= 2, got {n_points!r}")

    canonical = _canonical_dict(resource, alice, bob, tau, window, input_state,
                                strategy, convention, seed, n_points)
    return ExperimentConfig(
        resource=resource,
        alice_noise=alice,
        bob_noise=bob,
        tau=tau,
        window=window,
        input_state=input_state,
        strategy=strategy,
        convention=convention,
        seed=seed,
        n_points=n_points,
        canonical=canonical,
    )


def _noise_dict(p: NoiseParams) -> dict:
    return {"gamma": p.gamma, "lambda_c": p.lambda_c,
            "temperature": p.temperature, "omega0": p.omega0}


def _canonical_dict(resource, alice, bob, tau, window, input_state,
                    strategy, convention, seed, n_points) -> dict:
    if isinstance(resource, PurePair):
        res = {"kind": "pure", "mu": resource.mu, "lambda": resource.lam}
    else:
        res = {"kind": "werner", "p": resource.p}
    out = {
        "resource": res,
        "alice_noise": _noise_dict(alice),
        "bob_noise": _noise_dict(bob),
        "strategy": strategy.value,
        "convention": convention,
        "seed": seed,
        "n_points": n_points,
    }
    if tau is not None:
        out["tau"] = tau
    if window is not None:
        out["window"] = list(window)
    out["input"] = (
        "average" if input_state is None
        else {"theta": input_state.theta, "phi": input_state.phi}
    )
    return out


def config_hash(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _complex_pair(z: complex) -> List[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_pairs(mat: np.ndarray) -> List[List[List[float]]]:
    return [[_complex_pair(z) for z in row] for row in mat]


def _factors_dict(fac: DecoherenceFactors) -> dict:
    return {
        "f": _complex_pair(fac.f),
        "g": _complex_pair(fac.g),
        "a": _complex_pair(fac.a),
        "b": _complex_pair(fac.b),
        "tau": fac.tau,
    }


def _average_block(resource: ResourceSpec, factors: DecoherenceFactors,
                   convention: str, seed: int) -> dict:
    fn = bloch_fidelity_fn(resource, factors, convention)
    quad = average_fts_numeric(fn, "quadrature")
    mc = average_fts_numeric(fn, "montecarlo", samples=100_000, seed=seed)
    return {
        "analytic": float(average_fts_analytic(resource, factors.b, convention)),
        "quadrature": quad.value,
        "montecarlo": mc.value,
        "montecarlo_stderr": mc.stderr,
    }


def run_report(config: ExperimentConfig) -> dict:
    """Full protocol-run report (JSON-ready dict)."""
    if config.tau is None:
        raise ConfigError("run requires a 'tau' field")
    _check_phases(config.tau, config.alice_noise.omega0, config.bob_noise.omega0, "tau")
    factors = factors_at(config.alice_noise, config.bob_noise, config.tau)
    report = {
        "tool": "dfsteleport",
        "version": __version__,
        "config": config.canonical,
        "config_sha256": config_hash(config.canonical),
        "tau": config.tau,
        "factors": _factors_dict(factors),
        "average_fts": {
            "paper": _average_block(config.resource, factors, "paper", config.seed),
            "physical": _average_block(config.resource, factors, "physical", config.seed),
        },
    }
    if config.input_state is not None:
        run = run_protocol(
            config.input_state, config.resource, config.alice_noise,
            config.bob_noise, config.tau, config.strategy,
        )
        report["classical_bits"] = run.classical_bits
        report["branches"] = [_branch_dict(b) for b in run.branches]
    return report


def _branch_dict(branch) -> dict:
    return {
        "outcome": branch.outcome.value,
        "retained": branch.retained,
        "degenerate": branch.degenerate,
        "probability": branch.probability,
        "fidelity_physical": branch.fidelity_vs_input,
        "fidelity_paper": branch.fidelity_paper,
        "bob_paper_scaled": _matrix_pairs(branch.bob_paper_scaled.mat),
        "bob_conditional": (
            None if branch.bob_conditional is None else _matrix_pairs(branch.bob_conditional.mat)
        ),
        "bob_output": (
            None if branch.bob_output is None else _matrix_pairs(branch.bob_output.mat)
        ),
    }


def _table_metadata(label: str, bob: NoiseParams, tau: float, extra: Dict[str, str]) -> Dict[str, str]:
    meta = {
        "tool": "dfsteleport",
        "version": __version__,
        "table": label,
        "gamma": _fmt(bob.gamma),
        "lambda_c": _fmt(bob.lambda_c),
        "omega0_tau": _fmt(tau),
    }
    meta.update(extra)
    canonical = {"table": label, "bob_noise": _noise_dict(bob), "tau": tau}
    meta["config_sha256"] = config_hash(canonical)
    return meta


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _flag(dev: float, tol: float) -> str:
    return DEVIATION_FLAG if abs(dev) > tol else ""


def table_pure() -> ResultTable:
    """Pure-resource fidelity/nonlocality table at the published working point."""
    tau = TWO_PI
    bob = TABLE1_BOB
    b = factors_at(DEFAULT_ALICE, bob, tau).b
    headers = [
        "concurrence", "c_computed",
        "b_max_computed", "b_max_printed", "b_max_deviation", "b_max_flag",
        "avg_fidelity_computed", "avg_fidelity_printed", "avg_fidelity_deviation", "avg_fidelity_flag",
    ]
    rows = []
    for c_target, (b_printed, f_printed) in TABLE1_PRINTED.items():
        resource = PurePair.from_concurrence(c_target)
        state = resource_state(resource)
        c_val = concurrence(state)
        b_val = chsh(state).b_max
        f_val = float(average_fts_analytic(resource, b))
        rows.append([
            c_target, c_val,
            b_val, b_printed, b_val - b_printed, _flag(b_val - b_printed, TOL_B_MAX),
            f_val, f_printed, f_val - f_printed, _flag(f_val - f_printed, TOL_FID_PURE),
        ])
    meta = _table_metadata("1", bob, tau, {
        "resource": "pure",
        "tolerance_b_max": _fmt(TOL_B_MAX),
        "tolerance_avg_fidelity": _fmt(TOL_FID_PURE),
    })
    return ResultTable(headers=headers, rows=rows, metadata=meta)


def table_werner(which: int) -> ResultTable:
    """Werner-resource tables: 2 = Bell inequality satisfied, 3 = violated."""
    printed = {2: TABLE2_PRINTED, 3: TABLE3_PRINTED}.get(which)
    if printed is None:
        raise ConfigError(f"no Werner table {which!r}; expected 2 or 3")
    tau = TWO_PI
    bob = WERNER_TABLE_BOB
    b = factors_at(DEFAULT_ALICE, bob, tau).b
    headers = [
        "p",
        "concurrence_computed", "concurrence_printed", "concurrence_deviation", "concurrence_flag",
        "b_max_computed", "b_max_printed", "b_max_deviation", "b_max_flag",
        "avg_fidelity_computed", "avg_fidelity_printed", "avg_fidelity_deviation", "avg_fidelity_flag",
        "violates_chsh",
    ]
    rows = []
    for p, (c_printed, b_printed, f_printed) in printed.items():
        resource = Werner(p)
        state = resource_state(resource)
        c_val = concurrence(state)
        report = chsh(state)
        f_val = float(average_fts_analytic(resource, b))
        rows.append([
            p,
            c_val, c_printed, c_val - c_printed, _flag(c_val - c_printed, TOL_CONCURRENCE),
            report.b_max, b_printed, report.b_max - b_printed, _flag(report.b_max - b_printed, TOL_B_MAX),
            f_val, f_printed, f_val - f_printed, _flag(f_val - f_printed, TOL_FID_WERNER),
            "yes" if report.violates else "no",
        ])
    meta = _table_metadata(str(which), bob, tau, {
        "resource": "werner",
        "tolerance_concurrence": _fmt(TOL_CONCURRENCE),
        "tolerance_b_max": _fmt(TOL_B_MAX),
        "tolerance_avg_fidelity": _fmt(TOL_FID_WERNER),
    })
    return ResultTable(headers=headers, rows=rows, metadata=meta)


def figure_curve(which: int, panel: str) -> ResultTable:
    """Average-fidelity-versus-timing curve for one published figure panel."""
    key = (which, panel)
    if key not in FIGURE_PANELS:
        raise ConfigError(f"no figure panel {which}{panel!r}")
    lambda_c = FIGURE_PANELS[key]
    bob = NoiseParams(gamma=FIGURE_GAMMA, lambda_c=lambda_c, temperature=0.0)
    resource: ResourceSpec
    if which == 2:
        resource = PurePair.from_concurrence(FIGURE_CONCURRENCE)
    else:
        resource = Werner.from_concurrence(FIGURE_CONCURRENCE)
    problem = TimingProblem(resource=resource, bob_noise=bob, window=(0.0, FIGURE_TAU_MAX))
    curve = sweep(problem, FIGURE_POINTS)
    rows = [[float(t), float(f)] for t, f in curve]
    meta = _table_metadata(f"figure{which}{panel}", bob, FIGURE_TAU_MAX, {
        "resource": "pure" if which == 2 else "werner",
        "concurrence": _fmt(FIGURE_CONCURRENCE),
        "n_points": str(FIGURE_POINTS),
    })
    return ResultTable(headers=["omega0_tau", "avg_fidelity"], rows=rows, metadata=meta)


def _timing_problem(config: ExperimentConfig, window: Tuple[float, float],
                    n_points: int, field: str) -> TimingProblem:
    """The job's timing problem; ``field`` is named if the job asks for too many tau points."""
    if n_points > MAX_TAU_POINTS:
        raise ConfigError(
            f"{field}: asks for {n_points} tau points, more than the {MAX_TAU_POINTS} a job may evaluate")
    # the objective's sender placeholder shares the receiver's omega0
    _check_phases(window[1], config.bob_noise.omega0, config.bob_noise.omega0, "window")
    return TimingProblem(
        resource=config.resource,
        bob_noise=config.bob_noise,
        window=window,
        convention=config.convention,
    )


def sweep_table(config: ExperimentConfig) -> ResultTable:
    """Average-fidelity curve over the config window."""
    if config.window is None:
        raise ConfigError("sweep requires a 'window' field")
    problem = _timing_problem(config, config.window, config.n_points, "n_points")
    curve = sweep(problem, config.n_points)
    meta = {
        "tool": "dfsteleport",
        "version": __version__,
        "config_sha256": config_hash(config.canonical),
        "convention": config.convention,
    }
    rows = [[float(t), float(f)] for t, f in curve]
    return ResultTable(headers=["omega0_tau", "avg_fidelity"], rows=rows, metadata=meta)


def optimize_report(config: ExperimentConfig, tol_tau: float = 1e-6) -> dict:
    """Timing-optimization report (JSON-ready dict)."""
    window = config.window
    if window is None:
        # tau = 0 trivially maximizes the envelope; start past it by default
        window = (math.pi, 4.0 * math.pi)
    problem = _timing_problem(config, window, grid_points(window), "window")
    solution = maximize_timing(problem, tol_tau)
    return {
        "tool": "dfsteleport",
        "version": __version__,
        "config": config.canonical,
        "config_sha256": config_hash(config.canonical),
        "window": list(window),
        "convention": config.convention,
        "tau_star": solution.tau_star,
        "f_star": solution.f_star,
        "local_maxima": [[t, f] for t, f in solution.local_maxima],
        "grid": [[float(t), float(f)] for t, f in solution.grid],
    }


def to_csv(table: ResultTable) -> str:
    """Deterministic CSV: metadata comments, header row, 12-significant-digit cells."""
    lines = [f"# {key}: {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.headers))
    for row in table.rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_fmt(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
