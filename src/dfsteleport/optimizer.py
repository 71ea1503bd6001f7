"""Measurement-timing optimization of the average teleportation fidelity.

The sender picks the Bell-measurement instant from pre-shared knowledge of the
receiver's bath, so the objective is the average fidelity as a function of tau
for a fixed resource and receiver noise; the sender's own bath never enters
it.  The cosine factor puts maxima near (just below) even multiples of pi,
where the decaying envelope shifts each stationary point slightly earlier, so
reported optima are exact stationary points rather than the 2*n*pi landmarks.

``maximize_timing`` brackets every interior local maximum on a dense grid
(step at most pi/50) and refines each bracket by golden-section search; the
window endpoints compete as candidates too.  Ties are broken toward smaller
tau, favoring the earlier measurement.  tau = 0 trivially maximizes the
envelope, so meaningful windows start after it (the CLI defaults to pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .metrics import average_fts_analytic
from .noisekernel import NoiseParams, factors_at
from .protocol import ResourceSpec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_GRID_STEP = math.pi / 50.0
_TIE_TOL = 1e-12

Objective = Callable[[float], float]


@dataclass(frozen=True)
class TimingProblem:
    """Average-fidelity-over-tau maximization for one resource and receiver bath."""

    resource: ResourceSpec
    bob_noise: NoiseParams
    window: Tuple[float, float]
    convention: str = "paper"

    def __post_init__(self):
        lo, hi = self.window
        if not (0.0 <= lo < hi):
            raise ValueError(f"window must satisfy 0 <= lo < hi, got {self.window!r}")
        if self.convention not in ("paper", "physical"):
            raise ValueError(f"unknown convention {self.convention!r}")


@dataclass(frozen=True)
class TimingSolution:
    tau_star: float
    f_star: float
    local_maxima: Tuple[Tuple[float, float], ...]
    grid: np.ndarray  # columns (tau, fidelity)


def _alice_placeholder(bob: NoiseParams) -> NoiseParams:
    # the objective is sender-noise-free; any valid sender params will do
    return NoiseParams(gamma=0.0, lambda_c=1.0, temperature=0.0, omega0=bob.omega0)


def objective_fn(problem: TimingProblem) -> Objective:
    """Closed-form average fidelity in the problem's convention as a function of tau."""
    alice = _alice_placeholder(problem.bob_noise)

    def fn(tau: float) -> float:
        fac = factors_at(alice, problem.bob_noise, tau)
        return float(average_fts_analytic(problem.resource, fac.b, problem.convention))

    return fn


def grid_points(window: Tuple[float, float]) -> int:
    """Number of tau points the grid stage of ``maximize_timing`` evaluates over ``window``."""
    lo, hi = window
    # clamped so that a window too wide to evaluate still gives a count a caller can reject
    return max(int(math.ceil(min((hi - lo) / _MAX_GRID_STEP, 2.0**53))) + 1, 3)


def sweep(problem: TimingProblem, n_points: int) -> np.ndarray:
    """Uniform tau grid of (tau, average fidelity) over the problem window."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    fn = objective_fn(problem)
    taus = np.linspace(problem.window[0], problem.window[1], n_points)
    values = np.array([fn(t) for t in taus])
    return np.column_stack([taus, values])


def _golden_max(fn: Objective, lo: float, hi: float, tol: float) -> Tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    tau = 0.5 * (a + b)
    return tau, fn(tau)


def maximize_timing(problem: TimingProblem, tol_tau: float = 1e-6) -> TimingSolution:
    """Global maximum of the average fidelity over the window, plus all local maxima."""
    if tol_tau <= 0.0:
        raise ValueError("tol_tau must be > 0")
    fn = objective_fn(problem)
    grid = sweep(problem, grid_points(problem.window))
    taus, values = grid[:, 0], grid[:, 1]

    candidates: list[Tuple[float, float]] = []
    local_maxima: list[Tuple[float, float]] = []
    for i in range(1, len(taus) - 1):
        if values[i] >= values[i - 1] and values[i] >= values[i + 1]:
            tau_ref, f_ref = _golden_max(fn, taus[i - 1], taus[i + 1], tol_tau)
            if f_ref < values[i]:  # refinement must never lose to its own bracket
                tau_ref, f_ref = taus[i], values[i]
            local_maxima.append((tau_ref, f_ref))
            candidates.append((tau_ref, f_ref))
    candidates.append((taus[0], values[0]))
    candidates.append((taus[-1], values[-1]))

    best_f = max(f for _, f in candidates)
    tau_star, f_star = min(
        ((t, f) for t, f in candidates if f >= best_f - _TIE_TOL * max(1.0, abs(best_f))),
        key=lambda tf: tf[0],
    )
    return TimingSolution(
        tau_star=float(tau_star),
        f_star=float(f_star),
        local_maxima=tuple(sorted(local_maxima)),
        grid=grid,
    )
