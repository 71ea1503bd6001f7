"""Teleportation fidelity, Wootters concurrence, and CHSH nonlocality.

The pointwise fidelity is the overlap of the unknown input with the corrected
receiver state.  Averaging the retained-branch fidelity uniformly over the
input Bloch sphere gives the closed forms

    pure resource:    F = 2/3 + (1/3) * (mu*lam* b + conj(mu*lam* b))
    Werner resource:  F = (p/6) * (b + conj(b)) + p/6 + 1/2

which the quadrature and Monte-Carlo averagers here exist to cross-check.
For a non-maximal pure resource the trace-4p bookkeeping makes the pointwise
value exceed one near the poles; the physical (unit-trace, retention-
conditioned) convention stays within [0, 1] and is exposed alongside.  It
coincides with the paper's for Werner and balanced pure resources.  For a
pure resource, u = cos^2(theta/2) is uniform over the sphere and the
physical pointwise value 1 - u(1-u)(1 - C Re b) / (mu^2 + (lam^2 - mu^2) u)
does not depend on phi, so with C = 2 mu lam and q = |lam^2 - mu^2|

    physical pure:    F = 1 - (1 - C Re b) * J(q)
    J(q) = [q - (1 - q^2) artanh(q)] / (2 q^3) = sum_k>=1 q^(2k-2) / (4k^2 - 1)

with J(0) = 1/3 (the paper value) and J(1) = 1/2.  The direct form cancels
as q -> 0, so small q takes the series.

Concurrence goes through the Hermitian form sqrt(rho) * rho_tilde * sqrt(rho)
(same spectrum as rho * rho_tilde, numerically stabler), and nonlocality uses
the two largest eigenvalues of T^T T for the correlation matrix
T_ij = Tr(rho sigma_i x sigma_j): the state violates the CHSH bound iff their
sum exceeds one, with maximal violation 2*sqrt(sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .noisekernel import DecoherenceFactors
from .protocol import PurePair, ResourceSpec, Werner
from .qlinalg import (
    PAULIS,
    SIGMA_Y,
    BlochAngles,
    DensityOp,
    eig_hermitian,
    mat_sqrt_psd,
)

PointwiseFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

_MIN_MC_SAMPLES = 1000


@dataclass(frozen=True)
class FidelityReport:
    """Pointwise and three-way-averaged fidelity in one convention."""

    convention: str
    pointwise: float
    average_analytic: float
    average_quadrature: float
    average_montecarlo: float
    montecarlo_stderr: float


@dataclass(frozen=True)
class NonlocalityReport:
    t_matrix: np.ndarray
    m_value: float
    b_max: float
    violates: bool


@dataclass(frozen=True)
class NumericAverage:
    value: float
    stderr: Optional[float]
    method: str
    samples: int
    widened: bool = False


def fidelity_pointwise(input_state: BlochAngles, output: DensityOp | np.ndarray) -> float:
    """Overlap <psi_in| rho |psi_in> (real by Hermiticity)."""
    mat = output.mat if isinstance(output, DensityOp) else np.asarray(output, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"output must be a single-qubit operator, got shape {mat.shape}")
    psi = input_state.ket().amps
    return float(np.real(psi.conj() @ mat @ psi))


def average_fts_pure(mu: float, lam: float, b: complex) -> float:
    """Bloch-averaged fidelity for the pure resource in the trace-4p convention."""
    if abs(mu**2 + lam**2 - 1.0) > 1e-12:
        raise ValueError("mu^2 + lam^2 must be 1")
    return 2.0 / 3.0 + (2.0 / 3.0) * np.real(mu * np.conj(lam) * b)


def average_fts_werner(p: float, b: complex) -> float:
    """Bloch-averaged fidelity for the Werner resource."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    return (p / 3.0) * np.real(b) + p / 6.0 + 0.5


def _average_fts_pure_physical(mu: float, lam: float, b: complex) -> float:
    """Bloch-averaged fidelity for the pure resource in the physical convention."""
    q = abs(lam**2 - mu**2)
    if q >= 1.0:
        j = 0.5
    elif q < 0.2:
        # the direct form cancels as q -> 0; 11 terms leave a tail below 1e-18 here
        j = sum(q ** (2 * k - 2) / (4 * k * k - 1) for k in range(11, 0, -1))
    else:
        j = (q - (1.0 - q * q) * np.arctanh(q)) / (2.0 * q**3)
    return 1.0 - (1.0 - 2.0 * np.real(mu * lam * b)) * j


def average_fts_analytic(resource: ResourceSpec, b: complex, convention: str = "paper") -> float:
    """Closed-form Bloch average of the retained-branch fidelity.

    ``convention`` is "paper" or "physical", already checked where it entered
    (``TimingProblem``, ``bloch_fidelity_fn``).
    """
    if isinstance(resource, PurePair):
        if convention == "physical":
            return _average_fts_pure_physical(resource.mu, resource.lam, b)
        return average_fts_pure(resource.mu, resource.lam, b)
    if isinstance(resource, Werner):
        return average_fts_werner(resource.p, b)
    raise TypeError(f"unknown resource spec {resource!r}")


def bloch_fidelity_fn(
    resource: ResourceSpec,
    factors: DecoherenceFactors,
    convention: str = "paper",
) -> PointwiseFn:
    """Vectorized pointwise fidelity of the retained corrected output.

    Built from the conditional-state matrix elements (not from the averaged
    closed forms), so it can serve as their oracle.  ``convention`` selects
    the trace-4p bookkeeping ("paper") or unit-trace states ("physical").
    """
    if convention not in ("paper", "physical"):
        raise ValueError(f"unknown convention {convention!r}")
    b = factors.b

    if isinstance(resource, PurePair):
        mu, lam = resource.mu, resource.lam

        def fn(theta, phi):
            theta = np.asarray(theta, dtype=float)
            phi = np.asarray(phi, dtype=float)
            alpha = np.cos(theta / 2.0)
            beta = np.sin(theta / 2.0) * np.exp(1j * phi)
            # corrected psi-branch elements in the trace-4p convention
            m00 = 2.0 * lam**2 * np.abs(alpha) ** 2
            m11 = 2.0 * mu**2 * np.abs(beta) ** 2
            m01 = 2.0 * mu * lam * alpha * np.conj(beta) * np.conj(b)
            val = (
                np.abs(alpha) ** 2 * m00
                + np.abs(beta) ** 2 * m11
                + 2.0 * np.real(np.conj(alpha) * beta * m01)
            )
            if convention == "physical":
                trace = m00 + m11
                val = np.where(trace > 0.0, val / np.where(trace > 0.0, trace, 1.0), np.nan)
            return val

        return fn

    if isinstance(resource, Werner):
        p = resource.p

        def fn(theta, phi):
            theta = np.asarray(theta, dtype=float)
            phi = np.asarray(phi, dtype=float)
            alpha = np.cos(theta / 2.0)
            beta = np.sin(theta / 2.0) * np.exp(1j * phi)
            pop = 0.5 + 0.5 * p * (np.abs(alpha) ** 2 - np.abs(beta) ** 2)
            m00 = pop
            m11 = 1.0 - pop
            m01 = p * alpha * np.conj(beta) * np.conj(b)
            return (
                np.abs(alpha) ** 2 * m00
                + np.abs(beta) ** 2 * m11
                + 2.0 * np.real(np.conj(alpha) * beta * m01)
            )

        return fn

    raise TypeError(f"unknown resource spec {resource!r}")


def average_fts_numeric(
    pointwise: PointwiseFn,
    method: str = "quadrature",
    *,
    theta_nodes: int = 64,
    phi_nodes: int = 64,
    samples: int = 100_000,
    seed: int | np.random.Generator = 0,
) -> NumericAverage:
    """Bloch-sphere average (1/4pi) int f sin(theta) dtheta dphi.

    Quadrature uses Gauss-Legendre in theta times a uniform periodic trapezoid
    in phi (both >= 64 nodes).  Monte-Carlo samples the sphere uniformly with
    a seeded generator and reports the standard error; below 1000 samples the
    error bar is doubled and flagged ``widened`` rather than trusted.
    """
    if method == "quadrature":
        if theta_nodes < 64 or phi_nodes < 64:
            raise ValueError("quadrature needs at least 64 nodes per axis")
        x, w = np.polynomial.legendre.leggauss(theta_nodes)
        theta = 0.5 * np.pi * (x + 1.0)
        wtheta = 0.5 * np.pi * w * np.sin(theta)
        phi = 2.0 * np.pi * np.arange(phi_nodes) / phi_nodes
        grid_t, grid_p = np.meshgrid(theta, phi, indexing="ij")
        vals = pointwise(grid_t.ravel(), grid_p.ravel()).reshape(theta_nodes, phi_nodes)
        value = float(np.dot(wtheta, vals.mean(axis=1)) / 2.0)
        return NumericAverage(value=value, stderr=None, method="quadrature", samples=theta_nodes * phi_nodes)
    if method == "montecarlo":
        if samples < 2:
            raise ValueError("montecarlo needs at least 2 samples")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        cos_theta = rng.uniform(-1.0, 1.0, samples)
        theta = np.arccos(cos_theta)
        phi = rng.uniform(0.0, 2.0 * np.pi, samples)
        vals = pointwise(theta, phi)
        value = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / np.sqrt(samples))
        widened = samples < _MIN_MC_SAMPLES
        if widened:
            stderr *= 2.0
        return NumericAverage(value=value, stderr=stderr, method="montecarlo", samples=samples, widened=widened)
    raise ValueError(f"unknown method {method!r}")


def fidelity_report(
    input_state: BlochAngles,
    resource: ResourceSpec,
    factors: DecoherenceFactors,
    *,
    convention: str = "paper",
    mc_samples: int = 100_000,
    seed: int | np.random.Generator = 0,
) -> FidelityReport:
    """Pointwise plus analytic/quadrature/Monte-Carlo averages in one convention."""
    fn = bloch_fidelity_fn(resource, factors, convention)
    pointwise = float(fn(np.array([input_state.theta]), np.array([input_state.phi]))[0])
    analytic = float(average_fts_analytic(resource, factors.b, convention))
    quad = average_fts_numeric(fn, "quadrature")
    mc = average_fts_numeric(fn, "montecarlo", samples=mc_samples, seed=seed)
    return FidelityReport(
        convention=convention,
        pointwise=pointwise,
        average_analytic=analytic,
        average_quadrature=quad.value,
        average_montecarlo=mc.value,
        montecarlo_stderr=mc.stderr if mc.stderr is not None else float("nan"),
    )


def concurrence(rho: DensityOp) -> float:
    """Wootters concurrence of a two-qubit state."""
    if rho.dim != 4:
        raise ValueError("concurrence requires a two-qubit state")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    rho_tilde = yy @ rho.mat.conj() @ yy
    root = mat_sqrt_psd(rho)
    w, _ = eig_hermitian(root @ rho_tilde @ root)
    lam = np.sqrt(np.clip(w, 0.0, None))
    return float(max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4]))


def chsh(rho: DensityOp) -> NonlocalityReport:
    """Correlation-matrix CHSH criterion for a two-qubit state."""
    if rho.dim != 4:
        raise ValueError("chsh requires a two-qubit state")
    t = np.empty((3, 3), dtype=float)
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            t[i, j] = float(np.real(np.trace(rho.mat @ np.kron(si, sj))))
    u, _ = eig_hermitian(t.T @ t)
    m_value = float(u[-1] + u[-2])
    t.flags.writeable = False
    return NonlocalityReport(
        t_matrix=t,
        m_value=m_value,
        b_max=float(2.0 * np.sqrt(max(0.0, m_value))),
        violates=bool(m_value > 1.0),
    )
