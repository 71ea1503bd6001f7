"""Bath kernels and decoherence factors for Ohmic dephasing environments.

Internal units set ``omega0 = hbar = k_B = 1``; every time argument is the
dimensionless ``omega0 * tau`` appearing on all reported axes.  The spectral
density is Ohmic with exponential cutoff,

    J(w) = gamma * w * exp(-w / lambda_c),

and the time-dependent decay rate of a dephasing wing is

    rate(t) = 4 * int_0^inf J(w) coth(w / 2T) sin(w t) / w  dw,

with ``coth -> 1`` at zero temperature.  Its running integral fixes the
magnitude of the decoherence factors; the accompanying bath-induced phase is

    phase(tau) = 4 * int_0^tau [ int_0^inf J(w) (1 - cos(w t)) / w  dw ] dt.

All three have closed forms at every temperature (the pure-dephasing
spin-boson result; Breuer & Petruccione, The Theory of Open Quantum Systems,
2002).  At zero temperature ``rate = 4*gamma*L^2*t / (1 + L^2 t^2)``, its
running integral is ``2*gamma*ln(1 + L^2 tau^2)`` and the phase is
``4*gamma*(L tau - atan(L tau))``.  The phase kernel carries no temperature.
A bath at T > 0 adds ``4*gamma*S`` to the running integral and
``4*gamma*dS/dtau`` to the rate, where expanding
coth(w/2T) = 1 + 2*sum_n exp(-n w/T) gives

    S(tau) = sum_{n>=1} ln(1 + y^2/(a+n)^2) = 2*Re[lnGamma(1+a) - lnGamma(1+a+iy)],
    a = T/lambda_c,  y = T*tau

(the product formula of the Gamma function).  ``_thermal_sum`` evaluates it.

The closed forms are the program path (``method="closed"``, the default),
in plain ``math``/``cmath``.  ``method="quadrature"`` integrates the frequency
integrals above instead, with numpy imported on first use, and serves as
their independent oracle: they are truncated at
``max(40*lambda_c, 40/t)`` (the Ohmic envelope makes the discarded tail
< 1e-17 relative) and evaluated on composite Gauss-Legendre panels no wider
than half an oscillation period ``pi/t``, then re-evaluated on doubled panel
counts until two passes agree to the requested relative tolerance, or else
raise ``NumericAccuracyError``.

Everything here is a pure function of immutable parameter records; sweeps over
time grids can be parallelized freely.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

REL_TOL = 1e-8
_ABS_FLOOR = 1e-14
# largest x whose square is finite; past it the closed forms switch to overflow-free variants
_SQRT_MAX = math.sqrt(sys.float_info.max)
# Stirling coefficients B_2k / (2k (2k-1)) of lnGamma(w), k = 1..5, of the powers w^-(2k-1)
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


class NumericAccuracyError(RuntimeError):
    """Quadrature failed to converge within the refinement budget.

    Carries the best available value in ``estimate`` and the disagreement of
    the last two refinement passes in ``error_estimate``.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class NoiseParams:
    """Dephasing-bath description for one wing.

    gamma        dimensionless system-bath coupling strength
    lambda_c     cutoff frequency, in units of omega0
    temperature  bath temperature in units of hbar*omega0/k_B (0 allowed)
    omega0       qubit transition frequency (1 in internal units)
    """

    gamma: float
    lambda_c: float
    temperature: float = 0.0
    omega0: float = 1.0

    def __post_init__(self):
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be >= 0, got {self.gamma!r}")
        if not (self.lambda_c > 0.0 and math.isfinite(self.lambda_c)):
            raise ValueError(f"lambda_c must be > 0, got {self.lambda_c!r}")
        if not (self.temperature >= 0.0 and math.isfinite(self.temperature)):
            raise ValueError(f"temperature must be >= 0, got {self.temperature!r}")
        if not (self.omega0 > 0.0 and math.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be > 0, got {self.omega0!r}")


@dataclass(frozen=True)
class DecoherenceFactors:
    """Coherence multipliers of both wings at the measurement instant tau.

    ``f`` and ``g`` scale the single-flip coherences and ``a`` the double-flip
    coherence of the sender's two-qubit block; ``b`` scales the receiver's
    single-qubit coherence.  Magnitudes never exceed one, and factors produced
    from one sender bath satisfy |a| = |f|**4 and |f| = |g|.
    """

    f: complex
    g: complex
    a: complex
    b: complex
    tau: float

    def __post_init__(self):
        for name in ("f", "g", "a", "b"):
            z = complex(getattr(self, name))
            if not cmath.isfinite(z):
                raise ValueError(f"factor {name} is not finite")
            if abs(z) > 1.0 + 1e-9:
                raise ValueError(f"factor {name} has magnitude {abs(z)!r} > 1")
        if self.tau < 0.0:
            raise ValueError("tau must be >= 0")


def _coth_over_one(omega, temperature: float):
    # coth(w/2T); tanh keeps both the w->0 and w->inf ends overflow-free
    import numpy as np

    if temperature == 0.0:
        return np.ones_like(omega)
    return 1.0 / np.tanh(omega / (2.0 * temperature))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Frozen nodes and weights of the ``n``-point Gauss-Legendre rule on [-1, 1].

    Built on first use and kept: each build is an eigen-solve, and building at
    import would load numpy in every process.
    """
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_integral(fn: Callable, upper: float, n_panels: int) -> float:
    import numpy as np

    nodes, weights = _gauss_legendre(16)
    edges = np.linspace(0.0, upper, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return float(np.dot(fn(pts), wts))


def _frequency_integral(fn, params: NoiseParams, t: float) -> float:
    """Converged integral of ``fn`` over (0, omega_max) for an Ohmic-enveloped integrand."""
    omega_max = max(40.0 * params.lambda_c, 40.0 / t)
    width = min(math.pi / t, 0.5 * params.lambda_c)
    n = math.ceil(min(max(omega_max / width, 32.0), 20000.0))
    previous = _panel_integral(fn, omega_max, n)
    for refinement in (2, 4, 8):
        current = _panel_integral(fn, omega_max, refinement * n)
        err = abs(current - previous)
        if err <= REL_TOL * abs(current) + _ABS_FLOOR:
            return current
        previous = current
    raise NumericAccuracyError(
        f"frequency integral did not converge (last change {err:.3e})",
        estimate=current,
        error_estimate=err,
    )


def _log1p_sq(x: float) -> float:
    # ln(1 + x^2) for x >= 0; past _SQRT_MAX the square would overflow
    return 2.0 * math.log(x) if x > _SQRT_MAX else math.log1p(x * x)


def _thermal_sum(params: NoiseParams, tau: float) -> tuple[float, float]:
    """Thermal excess ``S(tau)`` of the decay (module docstring) and ``dS/dtau``.

    With q_n = 1/lambda_c + n/T each term is ln(1 + tau^2/q_n^2), so no
    T*tau or T/lambda_c is ever formed.  Terms with T*q_n < 12 are summed
    directly.  The rest is 2*Re[lnGamma(z) - lnGamma(z + iy)] at z = T*q_N,
    taken from the Stirling series as a difference: with r = y/z = tau/q_N,
    2*(y*atan(r) - (z - 1/2)*Re ln(1 + ir)) plus the Bernoulli terms of
    z^-m - (z + iy)^-m, which a recurrence forms without cancellation.
    Subtracting two large lnGamma values would lose every digit at high T.
    """
    temp, inv_cut = params.temperature, 1.0 / params.lambda_c
    first_tail = math.ceil(12.0 - min(temp * inv_cut, 11.0))  # least n >= 1 with T*q_n >= 12
    s = ds = 0.0
    for n in range(1, first_tail):
        q = inv_cut + n / temp
        s += _log1p_sq(tau / q)
        ds += 2.0 / (q * (q / tau) + tau)  # 2*tau/(q^2 + tau^2)
    zeta = inv_cut + first_tail / temp
    # past _SQRT_MAX only atan(r) = pi/2 is still visible in the sum
    r = min(tau / zeta, _SQRT_MAX)
    if r == 0.0:  # the tail underflows (or zeta overflowed)
        return s, ds
    ell = cmath.log(complex(1.0, r))  # ln(1 + r^2)/2 + i*atan(r)
    u = 1.0 / (temp * zeta)
    v = u / complex(1.0, r)
    d1 = d = complex(0.0, r) * v  # u^m - v^m at m = 1
    vm = v
    bern = dbern = 0j
    for k, c in enumerate(_STIRLING):
        bern += c * d
        dbern += c * (2 * k + 1) * vm * v  # d/dy of -v^m is i*m*v^(m+1)
        d = u * u * d + vm * (u + v) * d1  # u^(m+2) - v^(m+2)
        vm *= v * v
    s += 2.0 * (temp * (tau * ell.imag - zeta * ell.real) + 0.5 * ell.real + bern.real)
    ds += temp * (2.0 * (ell.imag - dbern.imag)) + 1.0 / (zeta * (zeta / tau) + tau)
    return s, ds


def decay_rate(params: NoiseParams, t: float, method: str = "closed") -> float:
    """Instantaneous dephasing rate of one wing at time ``t``.

    ``closed`` is 4*gamma*L^2*t/(1 + L^2 t^2) plus, at T > 0,
    4*gamma*dS/dt (module docstring); ``quadrature`` is its oracle.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0 or params.gamma == 0.0:
        return 0.0
    if method == "closed":
        x = params.lambda_c * t
        if max(x, params.lambda_c) > _SQRT_MAX:
            vacuum = 4.0 * params.gamma / (t + 1.0 / (params.lambda_c * x))  # 4*gamma/(t + 1/(L^2 t))
        else:
            vacuum = 4.0 * (params.gamma * params.lambda_c**2) * t / (1.0 + x**2)
        return vacuum if params.temperature == 0.0 else vacuum + 4.0 * (params.gamma * _thermal_sum(params, t)[1])
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    import numpy as np

    def integrand(w):
        return (
            4.0
            * params.gamma
            * np.exp(-w / params.lambda_c)
            * _coth_over_one(w, params.temperature)
            * np.sin(w * t)
        )

    return _frequency_integral(integrand, params, t)


def cumulative_decay(params: NoiseParams, tau: float, method: str = "closed") -> float:
    """Running integral of ``decay_rate`` from 0 to ``tau``.

    ``closed`` is 2*gamma*ln(1 + L^2 tau^2) plus, at T > 0, 4*gamma*S(tau)
    (module docstring).  Quadrature swaps the time and frequency integrals,
    which turns the nested integral into the single frequency integral with
    kernel (1 - cos(w*tau))/w.
    """
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0 or params.gamma == 0.0:
        return 0.0
    if method == "closed":
        x = params.lambda_c * tau
        if x > _SQRT_MAX:  # ln(1 + x^2) = 2 ln(x) to double precision; L*tau itself may overflow
            vacuum = 4.0 * params.gamma * (math.log(params.lambda_c) + math.log(tau))
        else:
            vacuum = 2.0 * (params.gamma * math.log1p(x**2))
        return vacuum if params.temperature == 0.0 else vacuum + 4.0 * (params.gamma * _thermal_sum(params, tau)[0])
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    import numpy as np

    def integrand(w):
        # 1 - cos as 2 sin^2 avoids cancellation at small w*tau
        return (
            4.0
            * params.gamma
            * np.exp(-w / params.lambda_c)
            * _coth_over_one(w, params.temperature)
            * 2.0
            * np.sin(0.5 * w * tau) ** 2
            / w
        )

    return _frequency_integral(integrand, params, tau)


def phase_integral(params: NoiseParams, tau: float, method: str = "closed") -> float:
    """Accumulated bath-induced (Lamb-like) phase up to ``tau``.

    The phase kernel carries no temperature dependence, so the Ohmic closed
    form 4*gamma*(L*tau - atan(L*tau)) is exact at any temperature; the
    quadrature backend integrates 4*gamma*exp(-w/L)*(tau - sin(w*tau)/w) for
    cross-checking.
    """
    if tau < 0.0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0 or params.gamma == 0.0:
        return 0.0
    if method == "closed":
        x = params.lambda_c * tau
        if x < 1e-3:
            core = x**3 / 3.0 - x**5 / 5.0
        else:
            core = x - math.atan(x)
        return 4.0 * params.gamma * core
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    import numpy as np

    def integrand(w):
        x = w * tau
        small = x < 1e-4
        with np.errstate(invalid="ignore", divide="ignore"):
            direct = tau - np.sin(x) / w
        series = tau * x**2 / 6.0 * (1.0 - x**2 / 20.0)
        return 4.0 * params.gamma * np.exp(-w / params.lambda_c) * np.where(small, series, direct)

    return _frequency_integral(integrand, params, tau)


def factors_at(alice: NoiseParams, bob: NoiseParams, tau: float) -> DecoherenceFactors:
    """Decoherence factors of both wings at the measurement instant ``tau``.

    With ``G`` the sender's cumulative decay, ``P`` the sender's accumulated
    phase and ``H`` the receiver's cumulative decay:

        f = exp(-i*w0*tau - G + i*P)      single-flip coherences
        g = exp(+i*w0*tau - G + i*P)
        a = exp(-2i*w0*tau - 4*G)         double-flip coherence
        b = exp(-i*w0*tau - H)            receiver coherence

    The double-flip exponent accumulates four times the single-flip decay and
    no bath phase; the up-down/down-up coherence it leaves untouched is why
    the psi rows of ``protocol._branch_elements`` carry the receiver's b alone.
    """
    g_alice = cumulative_decay(alice, tau)
    # reduced exactly, so that a huge bath phase does not swallow omega0*tau in the sum below
    p_alice = math.fmod(phase_integral(alice, tau), math.tau)
    wa = alice.omega0 * tau
    return DecoherenceFactors(
        f=cmath.exp(complex(-g_alice, -wa + p_alice)),
        g=cmath.exp(complex(-g_alice, +wa + p_alice)),
        a=cmath.exp(complex(-4.0 * g_alice, -2.0 * wa)),
        b=receiver_factor(bob, tau),
        tau=tau,
    )


def receiver_factor(bob: NoiseParams, tau: float) -> complex:
    """Receiver coherence factor b = exp(-i*w0*tau - H) on its own.

    The retained fidelity and the timing objective depend on no other factor.
    """
    return cmath.exp(complex(-cumulative_decay(bob, tau), -bob.omega0 * tau))
