"""Teleportation fidelity, Wootters concurrence, and CHSH nonlocality.

The pointwise fidelity is the overlap of the unknown input with the corrected
receiver state.  Averaged uniformly over the input Bloch sphere, the retained-
branch fidelity is affine in Re b, F = f0 + slope * Re b, and
``average_fts_affine`` is the one place that knows the coefficients:

    resource, convention     f0            slope
    pure, paper              2/3           C/3
    pure, physical           1 - J(q)      C * J(q)
    Werner, either           1/2 + p/6     p/3

with C = 2 mu lam the pure pair's concurrence and q = |lam^2 - mu^2|.  Every
slope is >= 0, the premise of ``optimizer``.

The retained branch's pointwise value depends only on u = cos^2(theta/2),
which is uniform over the sphere, never on phi.  With v = 1 - u, the paper-
convention value and the branch trace are

    resource   paper value                              trace
    pure       2 lam^2 u^2 + 2 mu^2 v^2 + 2C u v Re b   2 mu^2 v + 2 lam^2 u
    Werner     1/2 + p (2u - 1)^2 / 2 + 2p u v Re b     1

and the physical value is their ratio.  Averaged over u in [0, 1] they give
the table above.  A run takes its quadrature and Monte-Carlo cross-checks from
this polar form (``_polar_fidelity_and_trace``) on the 64 Gauss-Legendre theta
nodes and on the seeded cos(theta) draws, each evaluated once for both
conventions, so for a Werner resource both conventions report the same
numeric averages by construction.  The (theta, phi) functions built from the branch
elements (``_fidelity_and_trace``, ``bloch_fidelity_fn``,
``average_fts_numeric``) are kept as its oracles; no command calls them.
The closed-form averages are plain ``math``; the numeric averages, the
oracles and the eigen-solver criteria below import numpy on first use.

For a non-maximal pure resource the trace-4p bookkeeping makes the pointwise
value exceed one near the poles; the physical (unit-trace, retention-
conditioned) convention stays within [0, 1] and is exposed alongside.  It
coincides with the paper's for Werner and balanced pure resources.  For a pure
resource the ratio is 1 - u(1-u)(1 - C Re b) / (mu^2 + (lam^2 - mu^2) u),
which integrates to the physical row above with

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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from .noisekernel import DecoherenceFactors, _gauss_legendre
from .protocol import PurePair, ResourceSpec, Werner, _branch_elements

if TYPE_CHECKING:
    import numpy as np

    from .qlinalg import DensityOp

PointwiseFn = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]

_MIN_MC_SAMPLES = 1000
_NODES = 64  # Gauss-Legendre nodes in theta and trapezoid nodes in phi
_MC_SAMPLES = 100_000  # Monte-Carlo draws of a run and the averagers' default


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
    widened: bool = False


def average_fts_affine(resource: ResourceSpec, convention: str = "paper") -> Tuple[float, float]:
    """``(f0, slope)`` with Bloch-averaged fidelity f0 + slope * Re b (table in the module docstring)."""
    if convention not in ("paper", "physical"):
        raise ValueError(f"unknown convention {convention!r}")
    if isinstance(resource, Werner):
        return 0.5 + resource.p / 6.0, resource.p / 3.0
    if not isinstance(resource, PurePair):
        raise TypeError(f"unknown resource spec {resource!r}")
    c = resource.concurrence
    if convention == "paper":
        return 2.0 / 3.0, c / 3.0
    q = abs(resource.lam**2 - resource.mu**2)
    if q >= 1.0:
        j = 0.5
    elif q < 0.2:
        # the direct form cancels as q -> 0; 11 terms leave a tail below 1e-18 here
        j = sum(q ** (2 * k - 2) / (4 * k * k - 1) for k in range(11, 0, -1))
    else:
        j = (q - (1.0 - q * q) * math.atanh(q)) / (2.0 * q**3)
    return 1.0 - j, c * j


def average_fts_analytic(resource: ResourceSpec, b: complex, convention: str = "paper") -> float:
    """Closed-form Bloch average of the retained-branch fidelity at receiver factor ``b``."""
    f0, slope = average_fts_affine(resource, convention)
    return f0 + slope * complex(b).real


def _fidelity_and_trace(resource: ResourceSpec, b: complex, theta, phi):
    """Paper-convention pointwise fidelity and the branch trace m00 + m11 at (theta, phi).

    Both are real arrays; the complex amplitudes and elements end with the call.
    """
    import numpy as np

    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    alpha = np.cos(theta / 2.0)
    beta = np.sin(theta / 2.0) * np.exp(1j * phi)
    m00, m11, m01 = _branch_elements(resource, alpha, beta, b)
    # <in| X rho X |in>: the sigma_x correction swaps the diagonal and conjugates m01
    val = (
        alpha**2 * m11
        + np.abs(beta) ** 2 * m00
        + 2.0 * np.real(alpha * np.conj(beta) * m01)
    )
    return val, m11 + m00


def _normalized(val, trace):
    """The physical (unit-trace) pointwise value; NaN where the branch has no weight."""
    import numpy as np

    return np.where(trace > 0.0, val / np.where(trace > 0.0, trace, 1.0), np.nan)


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
    if not isinstance(resource, (PurePair, Werner)):
        raise TypeError(f"unknown resource spec {resource!r}")
    b = factors.b
    # Werner branch states already have unit trace
    normalize = convention == "physical" and isinstance(resource, PurePair)

    def fn(theta, phi):
        val, trace = _fidelity_and_trace(resource, b, theta, phi)
        return _normalized(val, trace) if normalize else val

    return fn


def _quadrature_theta():
    """``(theta, reduce)``: the Gauss-Legendre theta nodes and the map from
    phi-averaged values on them to their ``NumericAverage``."""
    import numpy as np

    x, w = _gauss_legendre(_NODES)
    theta = 0.5 * np.pi * (x + 1.0)
    wtheta = 0.5 * np.pi * w * np.sin(theta)

    def reduce(vals) -> NumericAverage:
        return NumericAverage(value=float(np.dot(wtheta, vals) / 2.0), stderr=None)

    return theta, reduce


def _montecarlo_cos_theta(samples: int, seed: int):
    """``(rng, cos_theta, reduce)``: the seeded cos(theta) draws, the generator
    left after them, and the map from values at the draws to their ``NumericAverage``."""
    import numpy as np

    if samples < 2:
        raise ValueError("montecarlo needs at least 2 samples")
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, samples)

    def reduce(vals) -> NumericAverage:
        value = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / np.sqrt(samples))
        widened = samples < _MIN_MC_SAMPLES
        if widened:
            stderr *= 2.0
        return NumericAverage(value=value, stderr=stderr, widened=widened)

    return rng, cos_theta, reduce


def _bloch_points(method: str, samples: int = _MC_SAMPLES, seed: int = 0):
    """``(theta, phi, reduce)``: the method's points on the sphere and the map
    from the values there to their ``NumericAverage``."""
    import numpy as np

    if method == "quadrature":
        theta, reduce_theta = _quadrature_theta()
        phi = 2.0 * np.pi * np.arange(_NODES) / _NODES
        grid_t, grid_p = np.meshgrid(theta, phi, indexing="ij")

        def reduce(vals) -> NumericAverage:
            return reduce_theta(vals.reshape(_NODES, _NODES).mean(axis=1))

        return grid_t.ravel(), grid_p.ravel(), reduce
    if method == "montecarlo":
        # cos(theta) is drawn before phi, so the polar averages of a run see the same points
        rng, cos_theta, reduce = _montecarlo_cos_theta(samples, seed)
        return np.arccos(cos_theta), rng.uniform(0.0, 2.0 * np.pi, samples), reduce
    raise ValueError(f"unknown method {method!r}")


def average_fts_numeric(
    pointwise: PointwiseFn,
    method: str = "quadrature",
    *,
    samples: int = _MC_SAMPLES,
    seed: int = 0,
) -> NumericAverage:
    """Bloch-sphere average (1/4pi) int f sin(theta) dtheta dphi.

    Quadrature uses Gauss-Legendre in theta times a uniform periodic trapezoid
    in phi, 64 nodes each.  Monte-Carlo samples the sphere uniformly with
    a seeded generator and reports the standard error; below 1000 samples the
    error bar is doubled and flagged ``widened`` rather than trusted.
    """
    theta, phi, reduce = _bloch_points(method, samples, seed)
    return reduce(pointwise(theta, phi))


def _polar_fidelity_and_trace(resource: ResourceSpec, b: complex, u):
    """``_fidelity_and_trace`` as real functions of u = cos^2(theta/2) alone
    (table in the module docstring).  A Werner trace is the constant 1."""
    v = 1.0 - u
    re_b = complex(b).real
    if isinstance(resource, PurePair):
        mu2, lam2 = resource.mu**2, resource.lam**2
        c = resource.concurrence
        return 2.0 * (lam2 * u * u + mu2 * v * v + c * u * v * re_b), 2.0 * (mu2 * v + lam2 * u)
    if isinstance(resource, Werner):
        p = resource.p
        return 0.5 + 0.5 * p * (2.0 * u - 1.0) ** 2 + 2.0 * p * re_b * u * v, 1.0
    raise TypeError(f"unknown resource spec {resource!r}")


def _numeric_averages(resource: ResourceSpec, factors: DecoherenceFactors,
                      seed: int) -> Dict[str, Tuple[NumericAverage, NumericAverage]]:
    """``{convention: (quadrature, montecarlo)}`` at the default node and sample counts.

    The retained value does not depend on phi, so each point set is its polar
    part: the theta nodes (the phi trapezoid of a phi-independent value is
    exact) and the seeded cos(theta) draws, each evaluated once for both
    conventions.  Every average agrees with ``average_fts_numeric(
    bloch_fidelity_fn(resource, factors, convention), method, seed=seed)`` to
    rounding.  Werner branch states have unit trace, so their physical averages
    are the paper ones.
    """
    import numpy as np

    theta, quadrature = _quadrature_theta()
    _, cos_theta, montecarlo = _montecarlo_cos_theta(_MC_SAMPLES, seed)
    paper, physical = [], []
    for cos_t, reduce in ((np.cos(theta), quadrature), (cos_theta, montecarlo)):
        val, trace = _polar_fidelity_and_trace(resource, factors.b, 0.5 * (1.0 + cos_t))
        paper.append(reduce(val))
        physical.append(reduce(_normalized(val, trace)) if isinstance(resource, PurePair) else paper[-1])
    return {"paper": tuple(paper), "physical": tuple(physical)}


def concurrence(rho: DensityOp) -> float:
    """Wootters concurrence of a two-qubit state."""
    import numpy as np

    from .qlinalg import SIGMA_Y, eig_hermitian, mat_sqrt_psd

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
    import numpy as np

    from .qlinalg import PAULIS, eig_hermitian

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
