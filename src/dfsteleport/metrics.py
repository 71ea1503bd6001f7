"""Teleportation fidelity, Wootters concurrence, and CHSH nonlocality.

The pointwise fidelity is the overlap of the unknown input with the corrected
receiver state.  Both resources are X-states (``protocol``), so every closed
form below reads a resource through its five numbers (r00, r11, r22, r33, z)
alone, never through its type.  With

    s = r11 + r22,   A = r22 + r33,   B = r00 + r11,   q = |A - B|,

u = cos^2(theta/2) and v = 1 - u, the retained branch's paper-convention
value and its trace depend on u alone, never on phi:

    paper value   2 (r33 u^2 + r00 v^2 + s u v + 2z u v Re b)
    trace         2 (A u + B v)

and the physical value is their ratio.  u is uniform over the sphere, and
averaged over it the retained-branch fidelity is affine in Re b,
F = f0 + slope * Re b.  ``average_fts_affine`` is the one place that knows
the coefficients:

    convention   f0                        slope
    paper        (2 - s)/3                 2z/3
    physical     1 - (1 - 2s) J(q) - s     2z J(q)

A pure pair mu|up,up> + lam|down,down> has s = 0, q = |lam^2 - mu^2| and
2z = C = 2 mu lam, its concurrence; a Werner state has s = (1 - p)/2, q = 0
and 2z = p, so its pair is (1/2 + p/6, p/3) in both conventions.  The
physical row is exact where s q = 0, which covers both.  There, if q = 0,
the trace is 1 and the two conventions coincide; if s = 0, the ratio is

    1 - u v (1 - 2z Re b) / (B + (A - B) u),

which integrates to the physical row with

    J(q) = [q - (1 - q^2) artanh(q)] / (2 q^3) = sum_k>=1 q^(2k-2) / (4k^2 - 1)

with J(0) = 1/3 (the paper value) and J(1) = 1/2.  The direct form cancels
as q -> 0, so small q takes the series.  Every slope is >= 0, the premise of
``optimizer``.

A run takes its quadrature and Monte-Carlo cross-checks from this polar form
(``_polar_fidelity_and_trace``) on the 64 Gauss-Legendre theta nodes and on
the seeded cos(theta) draws, each evaluated once for both conventions.  A
Werner trace is exactly 1.0 there, so its physical averages equal its paper
ones bit for bit.  Each point set runs in at most four rows allocated once
per call, draws included, every step in place: a fresh 800 kB temporary per
step came back as page faults on every call, once the heap had returned the
freed pages to the system.  The (theta, phi) functions built from the branch
elements (``_fidelity_and_trace``, ``bloch_fidelity_fn``,
``average_fts_numeric``) are kept as its oracles; no command calls them.
The closed-form averages are plain ``math``; the numeric averages, the
oracles and the eigen-solver criteria below import numpy on first use.

For a non-maximal pure resource the trace-4p bookkeeping makes the pointwise
value exceed one near the poles; the physical (unit-trace, retention-
conditioned) convention stays within [0, 1] and is exposed alongside.

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
from .protocol import ResourceSpec, _branch_elements, _x_state

if TYPE_CHECKING:
    import numpy as np

    from .qlinalg import DensityOp

PointwiseFn = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]

# the fidelity bookkeeping conventions: trace-4p branch states, or unit-trace ones
CONVENTIONS = ("paper", "physical")
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
    """``(f0, slope)`` with Bloch-averaged fidelity f0 + slope * Re b (table in the module docstring).

    The physical pair is exact where s q = 0: pure pairs have s = 0 and Werner
    states q = 0.  Where q = 0 both conventions return the paper pair, which
    the physical row equals there (J(0) = 1/3), to the bit.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    r00, r11, r22, r33, z = _x_state(resource)
    s = r11 + r22
    q = abs((r22 + r33) - (r00 + r11))
    if convention == "paper" or q == 0.0:
        return (2.0 - s) / 3.0, 2.0 * z / 3.0
    if q >= 1.0:
        j = 0.5
    elif q < 0.2:
        # the direct form cancels as q -> 0; 11 terms leave a tail below 1e-18 here
        j = sum(q ** (2 * k - 2) / (4 * k * k - 1) for k in range(11, 0, -1))
    else:
        j = (q - (1.0 - q * q) * math.atanh(q)) / (2.0 * q**3)
    return 1.0 - (1.0 - 2.0 * s) * j - s, 2.0 * z * j


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


def _normalized(val, trace, out=None):
    """The physical (unit-trace) pointwise value; NaN where the branch has no weight.

    Written into ``out``, a row apart from ``val`` and ``trace``, when given.
    """
    import numpy as np

    if out is None:
        out = np.empty_like(val)
    out.fill(np.nan)
    return np.divide(val, trace, out=out, where=trace > 0.0)


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
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    b = factors.b
    normalize = convention == "physical"

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

    def reduce(vals, work=None) -> NumericAverage:
        # the dot product needs no work row
        return NumericAverage(value=float(np.dot(wtheta, vals) / 2.0), stderr=None)

    return theta, reduce


def _montecarlo_cos_theta(samples: int, seed: int, out=None):
    """``(rng, cos_theta, reduce)``: the seeded cos(theta) draws, written into
    ``out`` when given, the generator left after them, and the map from values
    at the draws to their ``NumericAverage``.  The map squares the deviations
    from the mean in its ``work`` row when given."""
    import numpy as np

    if samples < 2:
        raise ValueError("montecarlo needs at least 2 samples")
    rng = np.random.default_rng(seed)
    # rng.uniform(-1.0, 1.0, samples) step by step, in place
    cos_theta = rng.random(out=np.empty(samples) if out is None else out)
    cos_theta *= 2.0
    cos_theta += -1.0

    def reduce(vals, work=None) -> NumericAverage:
        # np.mean and np.std(ddof=1) step by step, so the bits are theirs
        mean = np.add.reduce(vals, axis=None) / samples
        dev = np.subtract(vals, mean, out=work)
        np.square(dev, out=dev)
        std = np.sqrt(np.add.reduce(dev, axis=None) / (samples - 1))
        stderr = float(std / np.sqrt(samples))
        widened = samples < _MIN_MC_SAMPLES
        if widened:
            stderr *= 2.0
        return NumericAverage(value=float(mean), stderr=stderr, widened=widened)

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


def _polar_fidelity_and_trace(resource: ResourceSpec, b: complex, u, *work):
    """``_fidelity_and_trace`` as real functions of u = cos^2(theta/2) alone
    (table in the module docstring).

    ``work`` is three rows shaped like u, fresh ones when not given.  The value
    is returned in the second and the trace in the third; u is left as it
    was.  Each step runs in place, associated as the comments write it: the
    averages' bits depend on that order.  The s u v term is folded in as
    s/2 - (s/2)(u^2 + v^2), so a pure pair (s = 0) adds exact zeros.
    """
    import numpy as np

    r00, r11, r22, r33, z = _x_state(resource)
    half_s = 0.5 * (r11 + r22)
    v, val, tmp = work or np.empty((3,) + np.shape(u))
    re_b = complex(b).real
    np.subtract(1.0, u, out=v)
    # value 2 (((r33 - s/2) u) u + ((r00 - s/2) v) v + ((2z u) v) Re b + s/2)
    np.multiply(r33 - half_s, u, out=val)
    val *= u
    np.multiply(r00 - half_s, v, out=tmp)
    tmp *= v
    val += tmp
    np.multiply(2.0 * z, u, out=tmp)
    tmp *= v
    tmp *= re_b
    val += tmp
    val += half_s
    val *= 2.0
    # trace 2 ((r00 + r11) v + (r22 + r33) u)
    np.multiply(r00 + r11, v, out=tmp)
    np.multiply(r22 + r33, u, out=v)
    tmp += v
    tmp *= 2.0
    return val, tmp


def _numeric_averages(resource: ResourceSpec, factors: DecoherenceFactors,
                      seed: int) -> Dict[str, Tuple[NumericAverage, NumericAverage]]:
    """``{convention: (quadrature, montecarlo)}`` at the default node and sample counts.

    The retained value does not depend on phi, so each point set is its polar
    part: the theta nodes (the phi trapezoid of a phi-independent value is
    exact) and the seeded cos(theta) draws, each evaluated once for both
    conventions.  Every average agrees with ``average_fts_numeric(
    bloch_fidelity_fn(resource, factors, convention), method, seed=seed)`` to
    rounding.  A Werner trace is exactly 1.0 on every u, so its physical
    averages are the paper ones.  Each point set runs in its own four rows.
    """
    import numpy as np

    theta, quadrature = _quadrature_theta()
    quad_rows = np.empty((4, _NODES))
    np.cos(theta, out=quad_rows[0])
    mc_rows = np.empty((4, _MC_SAMPLES))
    _, _, montecarlo = _montecarlo_cos_theta(_MC_SAMPLES, seed, mc_rows[0])
    paper, physical = [], []
    for rows, reduce in ((quad_rows, quadrature), (mc_rows, montecarlo)):
        u = rows[0]  # cos(theta) until the next two lines make it u
        u += 1.0
        u *= 0.5
        val, trace = _polar_fidelity_and_trace(resource, factors.b, u, *rows[1:])
        # u and the first work row are spent: the deviations and the physical value go there
        paper.append(reduce(val, u))
        physical.append(reduce(_normalized(val, trace, rows[1]), u))
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
