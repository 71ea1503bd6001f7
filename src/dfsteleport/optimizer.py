"""Measurement-timing optimization of the average teleportation fidelity.

The sender picks the Bell-measurement instant from pre-shared knowledge of the
receiver's bath, so the objective is the average fidelity as a function of tau
for a fixed resource and receiver noise; the sender's own bath never enters
it, and the objective evaluates only the receiver's factor
b = exp(-i*w0*tau - H(tau)).  Every Bloch average is affine in Re b,
F = f0 + slope * Re b, with one coefficient pair per resource and convention
(``metrics.average_fts_affine``, whose module docstring holds the table).
Each sweep or maximization reads the pair once.  Every slope is >= 0, so the
timing optima are the maxima of Re b = exp(-H)*cos(w0*tau), whatever the
resource and convention.  Its derivative is -exp(-H)*h(tau) with

    h(tau) = Gamma(tau)*cos(w0*tau) + w0*sin(w0*tau),   Gamma = dH/dtau,

so a maximum is where h goes from - to +.  The cosine puts these just below
even multiples of pi, where the decaying envelope shifts each stationary point
slightly earlier.  The sign of h never underflows, even where exp(-H) does.

``maximize_timing`` evaluates b once per point of a dense grid (step at most
pi/50 and at most pi/(50*w0), a hundred points per period of the cosine).
Every grid point whose Re b exceeds its left neighbour and is no smaller than
its right one brackets [tau_{i-1}, tau_{i+1}]; where h goes from
- to + across that bracket, bisection on the sign of h pins the maximum to
``tol_tau`` or to the float spacing of tau, whichever is coarser.  The window
endpoints compete as candidates too.  Ties in fidelity are broken toward
smaller tau, favoring the earlier measurement.  tau = 0 trivially maximizes
the envelope, so meaningful windows start after it (the CLI defaults to pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .metrics import CONVENTIONS, average_fts_affine
from .noisekernel import NoiseParams, decay_rate, receiver_factor
from .protocol import ResourceSpec

_MAX_GRID_STEP = math.pi / 50.0
_TIE_TOL = 1e-12


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
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")


@dataclass(frozen=True)
class TimingSolution:
    tau_star: float
    f_star: float
    local_maxima: Tuple[Tuple[float, float], ...]
    grid: List[Tuple[float, float]]  # (tau, fidelity) rows


def objective_fn(problem: TimingProblem) -> Callable[[float], float]:
    """Closed-form average fidelity in the problem's convention as a function of tau."""
    f0, slope = average_fts_affine(problem.resource, problem.convention)

    def fn(tau: float) -> float:
        return float(f0 + slope * receiver_factor(problem.bob_noise, tau).real)

    return fn


def grid_points(window: Tuple[float, float], omega0: float) -> int:
    """Number of tau points the grid stage of ``maximize_timing`` evaluates over ``window``.

    Re b oscillates in omega0*tau and its envelope does not depend on omega0,
    so the step is pi/(50*omega0), and never more than pi/50.
    """
    lo, hi = window
    # clamped so that a window too wide to evaluate still gives a count a caller can reject
    return max(int(math.ceil(min((hi - lo) * max(omega0, 1.0) / _MAX_GRID_STEP, 2.0**53))) + 1, 3)


def _linspace(lo: float, hi: float, n: int) -> List[float]:
    """``n`` evenly spaced floats from ``lo`` to ``hi``, the same floats as ``numpy.linspace``."""
    div = n - 1
    step = (hi - lo) / div
    if step == 0.0:  # the span over div underflows; numpy then scales i/div instead
        taus = [i / div * (hi - lo) + lo for i in range(n)]
    else:
        taus = [i * step + lo for i in range(n)]
    taus[-1] = hi
    return taus


def _curve(problem: TimingProblem, n_points: int) -> Tuple[List[float], List[float]]:
    """Uniform tau grid over the window and Re b at each point."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    taus = _linspace(problem.window[0], problem.window[1], n_points)
    return taus, [receiver_factor(problem.bob_noise, t).real for t in taus]


def sweep(problem: TimingProblem, n_points: int) -> List[Tuple[float, float]]:
    """Uniform tau grid of (tau, average fidelity) rows over the problem window."""
    f0, slope = average_fts_affine(problem.resource, problem.convention)
    taus, re_b = _curve(problem, n_points)
    return [(t, f0 + slope * r) for t, r in zip(taus, re_b)]


def _rate_sign_change(bob: NoiseParams, lo: float, hi: float, tol: float) -> Optional[float]:
    """Where h (module docstring) goes from - to + in [lo, hi], to ``tol``.

    None unless h(lo) < 0 <= h(hi).  Bisection also stops once the midpoint
    rounds to an end, so it ends for any ``tol``.
    """

    def h(tau: float) -> float:
        w = bob.omega0 * tau
        return decay_rate(bob, tau) * math.cos(w) + bob.omega0 * math.sin(w)

    if not h(lo) < 0.0 <= h(hi):
        return None
    while hi - lo > tol:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            break
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo + 0.5 * (hi - lo)


def maximize_timing(problem: TimingProblem, tol_tau: float = 1e-6) -> TimingSolution:
    """Global maximum of the average fidelity over the window, plus all interior local maxima.

    The local maxima are the maxima of Re b, found by bisection on the sign
    of h (module docstring).  They are the fidelity's maxima whenever its
    slope in Re b is > 0; a slope-0 resource (concurrence 0 or p = 0) has a
    constant fidelity and reports them all the same.  ``tau_star`` is the
    earliest of these maxima and the two window ends whose fidelity is within
    ``_TIE_TOL`` of the best.
    """
    if tol_tau <= 0.0:
        raise ValueError("tol_tau must be > 0")
    f0, slope = average_fts_affine(problem.resource, problem.convention)
    taus, re_b = _curve(problem, grid_points(problem.window, problem.bob_noise.omega0))
    values = [f0 + slope * r for r in re_b]

    local_maxima: list[Tuple[float, float]] = []
    for i in range(1, len(taus) - 1):
        # strict on the left, so that two grid points tied at the top bracket their maximum once
        if re_b[i - 1] < re_b[i] >= re_b[i + 1]:
            tau = _rate_sign_change(problem.bob_noise, taus[i - 1], taus[i + 1], tol_tau)
            if tau is not None:
                f = f0 + slope * receiver_factor(problem.bob_noise, tau).real
                local_maxima.append((tau, f))
    candidates = local_maxima + [(taus[0], values[0]), (taus[-1], values[-1])]

    best_f = max(f for _, f in candidates)
    tau_star, f_star = min(
        ((t, f) for t, f in candidates if f >= best_f - _TIE_TOL * max(1.0, abs(best_f))),
        key=lambda tf: tf[0],
    )
    return TimingSolution(
        tau_star=tau_star,
        f_star=f_star,
        local_maxima=tuple(local_maxima),
        grid=list(zip(taus, values)),
    )
