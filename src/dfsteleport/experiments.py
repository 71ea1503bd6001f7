"""Experiment configurations, table/figure regeneration, and report assembly.

Configs are single JSON documents with every numeric field in omega0 units.
The keys of their objects (resource, noise baths, input angles) are listed
once, in ``CONFIG_FIELDS``: ``_record`` builds each record from its object
and ``_as_dict`` writes it back into the canonical config.  The top-level
fields each have a rule of their own in ``parse_config``.  Every rejection is
a ``ConfigError`` that names the JSON path of the bad field or object once.

The published tables are listed once, in ``TABLES``: each gives its row
labels, the resource a label names, the receiver bath, the printed values and
the checked quantities with their tolerances, and one builder, ``table``,
writes all three.  Each checked quantity gets its computed value, the printed
one, their deviation and a ``documented-deviation`` flag where the computation
cannot reproduce the printed value within tolerance (the pure-resource table
has two such fidelity rows and several nonlocality rows at low concurrence).
C and B_max are the resource's X-state closed forms, so no table code reads
the resource's type.

Output assembly is deterministic: identical config and seed produce
byte-identical CSV/JSON, and every artifact embeds the SHA-256 hash of the
canonical config that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

try:  # CPython's own SHA-256: hashlib would load OpenSSL (~3.4 MB resident, ~3 ms) for it
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed it _sha2; hashlib serves any build
    from hashlib import sha256

from . import __version__
from .metrics import CONVENTIONS, _numeric_averages, average_fts_analytic
from .noisekernel import DecoherenceFactors, NoiseParams, factors_at, phase_integral, receiver_factor
from .optimizer import TimingProblem, grid_points, maximize_timing, sweep
from .protocol import PurePair, ResourceSpec, Strategy, Werner, run_with_factors
from .qlinalg import BlochAngles

DEFAULT_RESOURCE = PurePair.from_concurrence(1.0)
# sender-bath defaults; results the tool reports are invariant to them
DEFAULT_ALICE = NoiseParams(gamma=0.1, lambda_c=0.1, temperature=0.0)
DEFAULT_BOB = NoiseParams(gamma=0.1, lambda_c=0.01, temperature=0.0)

# flagging tolerances for the deviation columns
TOL_CONCURRENCE = 0.005
TOL_B_MAX = 0.01
TOL_FID_PURE = 0.01
TOL_FID_WERNER = 0.015
# printed values have two decimals, so a deviation can equal its tolerance in
# decimal and land on either side of it in binary; such a row is not flagged
FLAG_SLACK = 1e-9

DEVIATION_FLAG = "documented-deviation"
# the cells of a checked quantity, in the order _checked_cells writes them
_CHECKED_CELLS = ("computed", "printed", "deviation", "flag")

# published reference rows, keyed by the row label
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


@dataclass(frozen=True)
class TableSpec:
    """One published table: its row-label column, the resource a label names, the
    receiver bath at omega0*tau = 2*pi, the printed rows, and its columns in order.
    A column with a tolerance is checked against the next printed value of its row;
    one without is a single cell."""

    label: str
    resource: Callable[[float], ResourceSpec]
    bob: NoiseParams
    printed: Dict[float, Tuple[float, ...]]
    columns: Tuple[Tuple[str, Optional[float]], ...]


_WERNER_BOB = NoiseParams(gamma=0.1, lambda_c=0.02)
_WERNER_COLUMNS = (("concurrence", TOL_CONCURRENCE), ("b_max", TOL_B_MAX), ("avg_fidelity", TOL_FID_WERNER),
                   ("violates_chsh", None))
TABLES = {
    1: TableSpec("concurrence", PurePair.from_concurrence, NoiseParams(gamma=0.1, lambda_c=0.01), TABLE1_PRINTED,
                 (("c_computed", None), ("b_max", TOL_B_MAX), ("avg_fidelity", TOL_FID_PURE))),
    2: TableSpec("p", Werner, _WERNER_BOB, TABLE2_PRINTED, _WERNER_COLUMNS),
    3: TableSpec("p", Werner, _WERNER_BOB, TABLE3_PRINTED, _WERNER_COLUMNS),
}

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
FIGURE_RESOURCES = {2: PurePair, 3: Werner}
FIGURE_GAMMA = 0.1
FIGURE_CONCURRENCE = 0.8
FIGURE_TAU_MAX = 12.0 * math.pi
FIGURE_POINTS = 1201

# The config format's objects: each record's JSON keys, in the order they are
# checked, and the attribute each one sets.  A key is required unless its
# attribute has a default in the record's class.  A resource object also takes
# "kind", its RESOURCE_KINDS name, and "concurrence" in place of the record's keys.
CONFIG_FIELDS = {
    NoiseParams: {"gamma": "gamma", "lambda_c": "lambda_c", "temperature": "temperature", "omega0": "omega0"},
    BlochAngles: {"theta": "theta", "phi": "phi"},
    PurePair: {"mu": "mu", "lambda": "lam"},
    Werner: {"p": "p"},
}
RESOURCE_KINDS = {PurePair: "pure", Werner: "werner"}
_REQUIRED = {cls: {f.name for f in fields(cls) if f.default is MISSING} for cls in CONFIG_FIELDS}

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

    @property
    def canonical(self) -> dict:
        """The fields as the JSON document whose hash every artifact embeds."""
        out = {
            "resource": {"kind": RESOURCE_KINDS[type(self.resource)], **_as_dict(self.resource)},
            "alice_noise": _as_dict(self.alice_noise),
            "bob_noise": _as_dict(self.bob_noise),
            "strategy": self.strategy.value,
            "convention": self.convention,
            "seed": self.seed,
            "n_points": self.n_points,
        }
        if self.tau is not None:
            out["tau"] = self.tau
        if self.window is not None:
            out["window"] = list(self.window)
        out["input"] = "average" if self.input_state is None else _as_dict(self.input_state)
        return out


@dataclass(frozen=True)
class ResultTable:
    """A CSV artifact; ``to_csv`` checks each row's width and cells as it writes it."""

    headers: List[str]
    rows: List[Sequence]
    metadata: Dict[str, str]


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


def _check_phases(tau: float, sender_omega0: float, receiver_omega0: float, where: str,
                  sender_bath_phase: float = 0.0) -> None:
    # factors_at turns the sender's 2*omega0*tau and bath phase and the receiver's omega0*tau into phases
    if not (math.isfinite(2.0 * (sender_omega0 * tau)) and math.isfinite(receiver_omega0 * tau)):
        raise ConfigError(f"{where}: omega0 * tau is too large for a finite phase at tau = {tau!r}")
    if not math.isfinite(sender_bath_phase):
        raise ConfigError(f"{where}: the sender's bath phase is not finite at tau = {tau!r}")


def _reject_unknown(obj: dict, known, context: str) -> None:
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"{context}: unknown fields {sorted(unknown)}")


def _record(cls, obj, context: str):
    """The record ``cls`` built from its config object ``obj`` through ``CONFIG_FIELDS``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object, got {obj!r}")
    keys = CONFIG_FIELDS[cls]
    _reject_unknown(obj, keys, context)
    values = {}
    for key, attr in keys.items():
        if key in obj:
            values[attr] = _finite_number(obj[key], f"{context}.{key}")
        elif attr in _REQUIRED[cls]:
            raise ConfigError(f"{context}: missing required field {key!r}")
    try:
        return cls(**values)
    except ValueError as exc:  # the record's own range checks
        raise ConfigError(f"{context}: {exc}") from exc


def _as_dict(record) -> dict:
    """A record written back as its config object, every key present."""
    return {key: getattr(record, attr) for key, attr in CONFIG_FIELDS[type(record)].items()}


def _parse_resource(obj, context: str = "resource") -> ResourceSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{context}: expected an object with a 'kind' field")
    kind = obj["kind"]
    # by equality, not as a dict key: a JSON kind may be an unhashable list
    cls = next((c for c, name in RESOURCE_KINDS.items() if name == kind), None)
    if cls is None:
        names = " or ".join(map(repr, RESOURCE_KINDS.values()))
        raise ConfigError(f"{context}.kind: expected {names}, got {kind!r}")
    if "concurrence" not in obj:
        return _record(cls, {k: v for k, v in obj.items() if k != "kind"}, context)
    _reject_unknown(obj, ("kind", "concurrence", *CONFIG_FIELDS[cls]), context)
    if len(obj) > 2:  # the record's own fields would be silently ignored
        raise ConfigError(f"{context}: conflicting fields {sorted(set(obj) - {'kind'})}")
    c = _finite_number(obj["concurrence"], f"{context}.concurrence")
    try:
        return cls.from_concurrence(c)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a JSON config document; raises ConfigError naming the bad field."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _reject_unknown(doc, ("resource", "alice_noise", "bob_noise", "tau", "window",
                          "input", "strategy", "convention", "seed", "n_points"), "config")

    resource = _parse_resource(doc["resource"]) if "resource" in doc else DEFAULT_RESOURCE
    alice, bob = doc.get("alice_noise"), doc.get("bob_noise")  # null is the default bath
    alice = DEFAULT_ALICE if alice is None else _record(NoiseParams, alice, "alice_noise")
    bob = DEFAULT_BOB if bob is None else _record(NoiseParams, bob, "bob_noise")

    tau = None
    if "tau" in doc:
        tau = _finite_number(doc["tau"], "tau")
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

    input_obj = doc.get("input", {"theta": math.pi / 2.0})
    if not (input_obj == "average" or isinstance(input_obj, dict)):
        raise ConfigError(f"input: expected angles object or 'average', got {input_obj!r}")
    input_state = None if input_obj == "average" else _record(BlochAngles, input_obj, "input")

    strategy_name = doc.get("strategy", "retain-psi")
    try:
        strategy = Strategy(strategy_name)
    except ValueError:
        names = " or ".join(repr(s.value) for s in Strategy)
        raise ConfigError(f"strategy: expected {names}, got {strategy_name!r}")

    convention = doc.get("convention", "paper")
    if convention not in CONVENTIONS:
        raise ConfigError(f"convention: expected {' or '.join(map(repr, CONVENTIONS))}, got {convention!r}")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed: expected a nonnegative integer, got {seed!r}")

    n_points = doc.get("n_points", 601)
    if not isinstance(n_points, int) or n_points < 2:
        raise ConfigError(f"n_points: expected an integer >= 2, got {n_points!r}")

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
    )


def config_hash(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


def _complex_pair(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


def _matrix_pairs(mat) -> List[List[List[float]]]:
    return [[_complex_pair(z) for z in row] for row in mat]


def _factors_dict(fac: DecoherenceFactors) -> dict:
    return {
        "f": _complex_pair(fac.f),
        "g": _complex_pair(fac.g),
        "a": _complex_pair(fac.a),
        "b": _complex_pair(fac.b),
        "tau": fac.tau,
    }


def _average_blocks(resource: ResourceSpec, factors: DecoherenceFactors, seed: int) -> dict:
    """Both conventions' average blocks; the numeric ones share one evaluation per point set."""
    return {
        convention: {
            "analytic": float(average_fts_analytic(resource, factors.b, convention)),
            "quadrature": quad.value,
            "montecarlo": mc.value,
            "montecarlo_stderr": mc.stderr,
        }
        for convention, (quad, mc) in _numeric_averages(resource, factors, seed).items()
    }


def run_report(config: ExperimentConfig) -> dict:
    """Full protocol-run report (JSON-ready dict).

    ``average_fts`` is the Bloch average of the retained psi branch's
    fidelity (``metrics``) under either strategy: a ``retain-all`` config
    changes the per-branch data and ``classical_bits``, not that average,
    which is not the keep-all protocol's four-branch average.
    """
    if config.tau is None:
        raise ConfigError("run requires a 'tau' field")
    _check_phases(config.tau, config.alice_noise.omega0, config.bob_noise.omega0, "tau",
                  phase_integral(config.alice_noise, config.tau))
    factors = factors_at(config.alice_noise, config.bob_noise, config.tau)
    report = {
        "tool": "dfsteleport",
        "version": __version__,
        "config": config.canonical,
        "config_sha256": config_hash(config.canonical),
        "tau": config.tau,
        "factors": _factors_dict(factors),
        "average_fts": _average_blocks(config.resource, factors, config.seed),
    }
    if config.input_state is not None:
        run = run_with_factors(config.input_state, config.resource, factors, config.strategy)
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


def _table_metadata(label: str, bob: NoiseParams, tau: float, resource: ResourceSpec,
                    extra: Dict[str, str]) -> Dict[str, str]:
    meta = {
        "tool": "dfsteleport",
        "version": __version__,
        "table": label,
        "gamma": _fmt(bob.gamma),
        "lambda_c": _fmt(bob.lambda_c),
        "omega0_tau": _fmt(tau),
        "resource": RESOURCE_KINDS[type(resource)],
        **extra,
    }
    meta["config_sha256"] = config_hash({"table": label, "bob_noise": _as_dict(bob), "tau": tau})
    return meta


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _flag(dev: float, tol: float) -> str:
    return DEVIATION_FLAG if abs(dev) > tol + FLAG_SLACK else ""


def _checked_cells(value: float, printed: float, tol: float) -> list:
    """A checked quantity's computed, printed, deviation and flag cells."""
    return [value, printed, value - printed, _flag(value - printed, tol)]


def _table_values(resource: ResourceSpec, b: complex) -> Dict[str, object]:
    """Every table column's value for a resource and the receiver's factor b."""
    c, b_max = resource.concurrence, resource.b_max
    return {"concurrence": c, "c_computed": c, "b_max": b_max,
            "avg_fidelity": float(average_fts_analytic(resource, b)),
            "violates_chsh": "yes" if b_max > 2.0 else "no"}


def table(which: int) -> ResultTable:
    """Published table ``which`` of ``TABLES``, recomputed at its working point.

    Each checked quantity gets its computed, printed, deviation and flag cells,
    in the order of the printed values; C and B_max are the resource's X-state
    closed forms, and ``reference.concurrence`` and ``reference.chsh`` their
    eigen-solver oracles.
    """
    spec = TABLES.get(which)
    if spec is None:
        raise ConfigError(f"no table {which!r}; expected {' or '.join(map(str, TABLES))}")
    b = receiver_factor(spec.bob, math.tau)
    headers = [spec.label]
    for name, tol in spec.columns:
        headers += [name] if tol is None else [f"{name}_{cell}" for cell in _CHECKED_CELLS]
    rows = []
    for label, printed in spec.printed.items():
        resource = spec.resource(label)
        values = _table_values(resource, b)
        refs = iter(printed)
        row = [label]
        for name, tol in spec.columns:
            row += [values[name]] if tol is None else _checked_cells(values[name], next(refs), tol)
        rows.append(row)
    tolerances = {f"tolerance_{name}": _fmt(tol) for name, tol in spec.columns if tol is not None}
    meta = _table_metadata(str(which), spec.bob, math.tau, resource, tolerances)
    return ResultTable(headers=headers, rows=rows, metadata=meta)


def figure_curve(which: int, panel: str) -> ResultTable:
    """Average-fidelity-versus-timing curve for one published figure panel."""
    key = (which, panel)
    if key not in FIGURE_PANELS:
        raise ConfigError(f"no figure panel {which}{panel!r}")
    bob = NoiseParams(gamma=FIGURE_GAMMA, lambda_c=FIGURE_PANELS[key])
    resource = FIGURE_RESOURCES[which].from_concurrence(FIGURE_CONCURRENCE)
    problem = TimingProblem(resource=resource, bob_noise=bob, window=(0.0, FIGURE_TAU_MAX))
    curve = sweep(problem, FIGURE_POINTS)
    meta = _table_metadata(f"figure{which}{panel}", bob, FIGURE_TAU_MAX, resource,
                           {"concurrence": _fmt(FIGURE_CONCURRENCE), "n_points": str(FIGURE_POINTS)})
    return ResultTable(headers=["omega0_tau", "avg_fidelity"], rows=curve, metadata=meta)


def _timing_problem(config: ExperimentConfig, window: Tuple[float, float],
                    n_points: int, field: str) -> TimingProblem:
    """The job's timing problem; ``field`` is named if the job asks for too many tau points."""
    if n_points > MAX_TAU_POINTS:
        raise ConfigError(
            f"{field}: asks for {n_points} tau points, more than the {MAX_TAU_POINTS} a job may evaluate")
    # a window end keeps a run tau's phase bound, with both wings at the receiver's omega0
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
    return ResultTable(headers=["omega0_tau", "avg_fidelity"], rows=curve, metadata=meta)


def optimize_report(config: ExperimentConfig, tol_tau: float = 1e-6) -> dict:
    """Timing-optimization report (JSON-ready dict)."""
    window, field = config.window, "window"
    if window is None:
        # tau = 0 trivially maximizes the envelope; start past it by default
        window = (math.pi, 4.0 * math.pi)
        # the grid's size then follows the receiver's omega0 alone
        field = f"bob_noise.omega0 = {config.bob_noise.omega0!r} over the default window (pi, 4*pi)"
    problem = _timing_problem(config, window, grid_points(window, config.bob_noise.omega0), field)
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
        "grid": solution.grid,
    }


def to_csv(table: ResultTable) -> str:
    """Deterministic CSV: metadata comments, header row, 12-significant-digit cells.

    One pass over the cells checks each row's width and each float's
    finiteness, and builds the row's format; each row is then formatted once.
    """
    width = len(table.headers)
    lines = [f"# {key}: {value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.headers))
    for row in table.rows:
        if len(row) != width:
            raise ValueError("table rows must match the header width")
        formats = []
        for cell in row:
            if isinstance(cell, float):
                if not math.isfinite(cell):
                    raise ValueError("table cells must be finite")
                formats.append("%.12g")  # _fmt's format
            else:
                formats.append("%s")
        lines.append(",".join(formats) % tuple(row))
    return "\n".join(lines) + "\n"


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
