"""Teleportation fidelity: pointwise, Bloch-averaged in closed form, and numeric checks.

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
the seeded draws, each evaluated once for both conventions.  A Werner trace
is exactly 1.0 there, so its physical averages equal its paper ones bit for
bit.  The theta nodes run in four 64-wide rows.  The 100 000 draws stream
through one buffer of four ``_MC_BLOCK``-wide rows, allocated once per call
and small enough to stay in cache: each raw draw r is already
u = (cos(theta) + 1)/2, because r = k 2^-53 makes 2r - 1 and the way back
exact, every step runs in place in the block, and each block's mean and
squared deviations are merged into running (n, mean, M2) totals (Chan, Golub
and LeVeque).  So a call holds the block's 320 kB whatever the sample count,
where 100 000-wide rows would hold 3.2 MB.  The draws are the package's one
generator, SplitMix64 (Steele, Lea and Flood, OOPSLA 2014), computed in the
block's rows viewed as uint64 (``_uniform_draws``).  Its start state folds
every 64-bit word of the seed through SplitMix64's step (``_seed_state``), so
seeds below 2^64 map one-to-one and larger ones neither alias nor overflow.
With the plain-``math`` theta rule of ``noisekernel._gauss_legendre``, a run
loads neither ``numpy.random`` nor ``numpy.polynomial``.  The (theta, phi)
functions built from the branch elements (``_fidelity_and_trace``,
``bloch_fidelity_fn``, ``average_fts_numeric``) are kept as its oracles; no
command calls them.
The closed-form averages are plain ``math``; the numeric averages and the
oracles import numpy on first use.  The eigen-solver concurrence and CHSH
criteria are in ``reference``.

For a non-maximal pure resource the trace-4p bookkeeping makes the pointwise
value exceed one near the poles; the physical (unit-trace, retention-
conditioned) convention stays within [0, 1] and is exposed alongside.

What each convention averages, over inputs uniform on the sphere: ``physical``
is the mean of the kept state's fidelity (the ratio above); ``paper`` is the
same fidelity with each input weighted by its branch trace, a success-
weighted mean.  The weights need no normalization, because the trace's mean
is 2 (A + B)/2 = A + B = 1.  Both average the retained psi branch under
either strategy, not the keep-all protocol's four branches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from .noisekernel import DecoherenceFactors, _gauss_legendre
from .protocol import ResourceSpec, _branch_elements, _x_state

if TYPE_CHECKING:
    import numpy as np

PointwiseFn = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]

# the fidelity bookkeeping conventions: trace-4p branch states, or unit-trace ones
CONVENTIONS = ("paper", "physical")
_MIN_MC_SAMPLES = 1000
_NODES = 64  # Gauss-Legendre nodes in theta and trapezoid nodes in phi
_MC_SAMPLES = 100_000  # Monte-Carlo draws of a run and the averagers' default
_MC_BLOCK = 10_000  # draws a run evaluates at a time: four rows of them are 320 kB
_NO_DRAWS = (0, 0.0, 0.0)  # the (n, mean, M2) totals before the first draw
# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the state's increment, 2^64
# over the golden ratio, and the multipliers of its two mixing rounds
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_WORD = 2**64 - 1


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
        + np.sin(theta / 2.0) ** 2 * m00
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

    def reduce(vals) -> NumericAverage:
        return NumericAverage(value=float(np.dot(wtheta, vals) / 2.0), stderr=None)

    return theta, reduce


def _merge_moments(totals, vals, work=None):
    """``totals`` = (n, mean, M2) with the values ``vals`` merged in.

    The block's mean and squared deviations are np.mean's and np.var's bits,
    the deviations squared in ``work`` when given; the merge is Chan, Golub
    and LeVeque's.  Merged into ``_NO_DRAWS`` they come back exactly.
    """
    import numpy as np

    n_a, mean_a, m2_a = totals
    n_b = vals.size
    mean_b = float(np.add.reduce(vals, axis=None)) / n_b
    dev = np.subtract(vals, mean_b, out=work)
    np.square(dev, out=dev)
    n = n_a + n_b
    delta = mean_b - mean_a
    m2 = m2_a + float(np.add.reduce(dev, axis=None)) + delta * delta * (n_a * n_b / n)
    return n, mean_a + delta * (n_b / n), m2


def _montecarlo_average(totals) -> NumericAverage:
    """The mean of (n, mean, M2) totals and its standard error; below 1000
    samples the error bar is doubled and flagged ``widened``."""
    n, mean, m2 = totals
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    widened = n < _MIN_MC_SAMPLES
    if widened:
        stderr *= 2.0
    return NumericAverage(value=mean, stderr=stderr, widened=widened)


def _seed_state(seed: int) -> int:
    """The start state of ``seed``'s draws: each 64-bit word of the seed, low
    word first, xor-ed into the state (0 before the first) and advanced by one
    SplitMix64 step.

    One step is a bijection of 64-bit words, so seeds 0 ... 2^64 - 1 map
    one-to-one; a larger seed takes one step per word, so it neither aliases
    seed mod 2^64 nor overflows.  Masked Python ints throughout.
    """
    state = 0
    while True:
        z = ((state ^ (seed & _WORD)) + _GOLDEN) & _WORD
        z = ((z ^ (z >> 30)) * _MIX1) & _WORD
        z = ((z ^ (z >> 27)) * _MIX2) & _WORD
        state = z ^ (z >> 31)
        seed >>= 64
        if not seed:
            return state


@functools.lru_cache(maxsize=None)
def _weyl_steps():
    """Frozen i * _GOLDEN mod 2^64 for i < _MC_BLOCK: the state offsets of one block's draws."""
    import numpy as np

    steps = np.arange(_MC_BLOCK, dtype=np.uint64)
    steps *= _GOLDEN  # uint64 array arithmetic wraps mod 2^64 without a warning
    steps.flags.writeable = False
    return steps


def _uniform_draws(state: int, out, work=None) -> int:
    """Fill the float row ``out`` with the SplitMix64 draws that follow
    ``state`` and return the state after them.

    Draw i mixes z = state + (i + 1) _GOLDEN mod 2^64 by two xor-shift-multiply
    rounds and a last xor-shift, z ^= z >> 30, z *= _MIX1, z ^= z >> 27,
    z *= _MIX2, z ^= z >> 31, and is r = (z >> 11) 2^-53, a multiple of 2^-53
    in [0, 1).  The stream is counter-based, so calls on consecutive rows
    continue it exactly.  The steps run in ``out`` and ``work`` (a float row as
    long as ``out``, a fresh one when not given) viewed as uint64, _MC_BLOCK
    draws at a time, in array ops, which wrap mod 2^64 without a warning.
    """
    import numpy as np

    if work is None:
        work = np.empty_like(out)
    steps = _weyl_steps()
    for start in range(0, out.size, _MC_BLOCK):
        row = out[start:start + _MC_BLOCK]
        z, tmp = work[start:start + _MC_BLOCK].view(np.uint64), row.view(np.uint64)
        np.add(steps[:row.size], (state + _GOLDEN) & _WORD, out=z)
        np.right_shift(z, 30, out=tmp)
        z ^= tmp
        z *= _MIX1
        np.right_shift(z, 27, out=tmp)
        z ^= tmp
        z *= _MIX2
        np.right_shift(z, 31, out=tmp)
        z ^= tmp
        z >>= 11
        np.copyto(row, z.view(np.int64), casting="unsafe")  # exact below 2^53; faster than from uint64
        row *= 2.0**-53
        state = (state + row.size * _GOLDEN) & _WORD
    return state


def _montecarlo_cos_theta(samples: int, seed: int):
    """``(state, cos_theta, reduce)``: the seeded cos(theta) = 2r - 1 as one
    array, the state of the draws after them, and the map from values at the
    draws to their ``NumericAverage``.

    The draws r are ``_uniform_draws``' from ``_seed_state(seed)``.  A run
    streams the same draws through ``_numeric_averages``' block instead, as
    u = (cos(theta) + 1)/2, which is r bit for bit: r = k 2^-53 makes 2r - 1
    and the way back exact.  The map is its merge over one block.
    """
    import numpy as np

    if samples < 2:
        raise ValueError("montecarlo needs at least 2 samples")
    cos_theta = np.empty(samples)
    state = _uniform_draws(_seed_state(seed), cos_theta)
    cos_theta *= 2.0
    cos_theta -= 1.0

    def reduce(vals) -> NumericAverage:
        return _montecarlo_average(_merge_moments(_NO_DRAWS, vals))

    return state, cos_theta, reduce


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
        state, cos_theta, reduce = _montecarlo_cos_theta(samples, seed)
        phi = np.empty(samples)
        _uniform_draws(state, phi)
        phi *= 2.0 * np.pi
        return np.arccos(cos_theta), phi, reduce
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
    the seeded SplitMix64 draws (cos(theta) first, then phi) and reports the
    standard error; below 1000 samples the error bar is doubled and flagged
    ``widened`` rather than trusted.  ``seed`` is a nonnegative int.
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
    exact) and the seeded draws, each evaluated once for both conventions.
    Every average agrees with ``average_fts_numeric(bloch_fidelity_fn(
    resource, factors, convention), method, seed=seed)`` to rounding.  A
    Werner trace is exactly 1.0 on every u, so its physical averages are the
    paper ones.  The theta nodes run in four 64-wide rows; the draws stream
    through four ``_MC_BLOCK``-wide rows, one block at a time, into running
    (n, mean, M2) totals.  Each block's draws are the SplitMix64 stream's next
    ones from ``_seed_state(seed)``, computed in its first two rows.
    """
    import numpy as np

    b = factors.b
    theta, quadrature = _quadrature_theta()
    rows = np.empty((4, _NODES))
    u = np.cos(theta, out=rows[0])  # cos(theta) until the next two lines make it u
    u += 1.0
    u *= 0.5
    val, trace = _polar_fidelity_and_trace(resource, b, u, *rows[1:])
    quad_paper, quad_physical = quadrature(val), quadrature(_normalized(val, trace, rows[1]))
    state = _seed_state(seed)
    block = np.empty((4, _MC_BLOCK))
    paper = physical = _NO_DRAWS
    for start in range(0, _MC_SAMPLES, _MC_BLOCK):
        rows = block[:, :min(_MC_BLOCK, _MC_SAMPLES - start)]
        # the r behind _montecarlo_cos_theta's 2r - 1, which is u bit for bit
        state = _uniform_draws(state, rows[0], rows[1])
        u = rows[0]
        val, trace = _polar_fidelity_and_trace(resource, b, u, *rows[1:])
        # u and the first work row are spent: the deviations and the physical value go there
        paper = _merge_moments(paper, val, u)
        physical = _merge_moments(physical, _normalized(val, trace, rows[1]), u)
    return {"paper": (quad_paper, _montecarlo_average(paper)),
            "physical": (quad_physical, _montecarlo_average(physical))}
