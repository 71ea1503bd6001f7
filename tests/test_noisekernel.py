import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from dfsteleport import noisekernel
from dfsteleport.noisekernel import (
    DecoherenceFactors,
    NoiseParams,
    NumericAccuracyError,
    _frequency_integral,
    _gauss_legendre,
    _thermal_sum,
    cumulative_decay,
    decay_rate,
    factors_at,
    phase_integral,
    receiver_factor,
)

TWO_PI = 2.0 * np.pi


def closed_rate(gamma, lam, t):
    return 4.0 * gamma * lam**2 * t / (1.0 + lam**2 * t**2)


def closed_cumulative(gamma, lam, tau):
    return 2.0 * gamma * np.log1p((lam * tau) ** 2)


def gamma_product(gamma, lam, temp, tau):
    """Decay and rate at any T from scipy's complex lnGamma and digamma.

    G = 2*gamma*ln(1 + L^2 tau^2) + 8*gamma*Re[lnGamma(1+a) - lnGamma(1+a+iy)] and
    rate = 4*gamma*L^2*tau/(1 + L^2 tau^2) + 8*gamma*T*Im psi(1+a+iy), a = T/L, y = T*tau.
    The two lnGamma values cancel, so this oracle is sharp only where the thermal part is large.
    """
    z = complex(1.0 + temp / lam, temp * tau)
    thermal = (special.loggamma(1.0 + temp / lam) - special.loggamma(z)).real
    return (
        closed_cumulative(gamma, lam, tau) + 8.0 * gamma * thermal,
        closed_rate(gamma, lam, tau) + 8.0 * gamma * temp * special.psi(z).imag,
    )


# ------------------------------------------------------------------ validation


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(gamma=-0.1, lambda_c=1.0)
    with pytest.raises(ValueError):
        NoiseParams(gamma=0.1, lambda_c=0.0)
    with pytest.raises(ValueError):
        NoiseParams(gamma=0.1, lambda_c=1.0, temperature=-1.0)


def test_factors_validation():
    with pytest.raises(ValueError):
        DecoherenceFactors(f=1.5, g=1.0, a=1.0, b=1.0, tau=1.0)
    with pytest.raises(ValueError):
        DecoherenceFactors(f=1.0, g=1.0, a=1.0, b=1.0, tau=-1.0)


# ------------------------------------------------------------------ decay rate


def test_decay_rate_zero_time():
    assert decay_rate(NoiseParams(0.4, 0.3, 1.2), 0.0) == 0.0


def test_decay_rate_zero_temperature_closed_form():
    # direct evaluation of 4*gamma*L^2*t/(1 + L^2 t^2)
    p = NoiseParams(gamma=0.1, lambda_c=0.05)
    got = decay_rate(p, TWO_PI)
    assert got == pytest.approx(0.005718765750937108, rel=1e-13)
    assert got == pytest.approx(closed_rate(0.1, 0.05, TWO_PI), rel=1e-13)


def test_decay_rate_quadrature_matches_closed_form_at_zero_t():
    for gamma, lam, t in [(0.1, 0.05, 1.0), (0.3, 0.5, 5.0), (0.05, 2.0, 10.0)]:
        p = NoiseParams(gamma=gamma, lambda_c=lam)
        quad = decay_rate(p, t, method="quadrature")
        assert quad == pytest.approx(closed_rate(gamma, lam, t), rel=1e-8)


def test_decay_rate_finite_temperature_two_method_agreement():
    # independent oracle: high-order fixed-grid integration with Richardson
    # extrapolation (Romberg) of the same truncated frequency integral
    p = NoiseParams(gamma=0.1, lambda_c=0.5, temperature=0.5)
    t = 5.0

    def integrand(w):
        w = np.asarray(w, dtype=float)
        coth = 1.0 / np.tanh(w / (2.0 * p.temperature))
        return 4.0 * p.gamma * np.exp(-w / p.lambda_c) * coth * np.sin(w * t)

    wmax = 40.0 * p.lambda_c
    grid = np.linspace(1e-9, wmax, 2**15 + 1)
    oracle = integrate.romb(integrand(grid), dx=grid[1] - grid[0])
    got = decay_rate(p, t)
    assert got == pytest.approx(oracle, rel=1e-7)


# ------------------------------------------------------------ cumulative decay


def test_cumulative_decay_zero_tau():
    assert cumulative_decay(NoiseParams(0.2, 0.4), 0.0) == 0.0


def test_cumulative_decay_closed_form_values():
    # direct evaluations of 2*gamma*ln(1 + L^2 tau^2)
    low = cumulative_decay(NoiseParams(0.1, 0.01), TWO_PI)
    assert low == pytest.approx(0.2 * np.log1p((0.02 * np.pi) ** 2), rel=1e-14)
    assert low == pytest.approx(7.880138964507434e-4, rel=1e-12)
    high = cumulative_decay(NoiseParams(0.1, 5.0), TWO_PI)
    assert high == pytest.approx(0.2 * np.log1p((10.0 * np.pi) ** 2), rel=1e-14)
    assert high == pytest.approx(1.379128531314132, rel=1e-12)


def test_closed_forms_do_not_overflow():
    # (L*tau)^2 and L^2 leave float range here; the rate tends to 4*gamma/t
    huge = NoiseParams(0.1, 1e300)
    assert cumulative_decay(huge, 2.0) == pytest.approx(0.4 * np.log(2e300), rel=1e-15)
    assert decay_rate(huge, 2.0) == pytest.approx(0.2, rel=1e-15)
    assert decay_rate(huge, 1e-300) == pytest.approx(closed_rate(0.1, 1.0, 1.0) * 1e300, rel=1e-15)
    # bit-identical up to the largest L*tau whose square is finite, continuous past it
    edge = float(np.sqrt(np.finfo(float).max))
    assert cumulative_decay(NoiseParams(0.1, edge), 1.0) == 0.2 * np.log1p(edge**2)
    past = cumulative_decay(NoiseParams(0.1, np.nextafter(edge, np.inf)), 1.0)
    assert past == pytest.approx(0.2 * np.log1p(edge**2), rel=1e-15)


def test_closed_forms_survive_the_overflow_of_lambda_c_tau():
    # L*tau = 1e600 overflows although G = 4*gamma*ln(L*tau) is small
    weak = NoiseParams(1e-5, 1e300)
    assert cumulative_decay(weak, 1e300) == pytest.approx(4e-5 * 600.0 * np.log(10.0), rel=1e-14)
    assert abs(receiver_factor(weak, 1e300)) == pytest.approx(0.9462371613657931, rel=1e-14)
    # 4*gamma*L and L*t both overflow; the rate is 4*gamma/(t + 1/(L^2 t)) = 4*gamma/t here
    assert decay_rate(NoiseParams(2.93e16, 1.54e291), 1.17e17) == pytest.approx(4.0 * 2.93e16 / 1.17e17, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_gauss_legendre_rule_is_exact_below_degree_2n_and_built_once_and_frozen(n):
    # the defining property: sum w x^k = int_-1^1 x^k dx for every k <= 2n - 1,
    # each moment summed exactly, so what is left is the rule's own rounding
    nodes, weights = _gauss_legendre(n)
    for k in range(2 * n):
        moment = math.fsum(w * x**k for x, w in zip(nodes.tolist(), weights.tolist()))
        assert moment == pytest.approx(2.0 / (k + 1) if k % 2 == 0 else 0.0, rel=0.0, abs=4.5e-16)
    # numpy's eigenvalue-based rule, another algorithm, to rounding
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.abs(nodes - want_nodes).max() <= 1e-15
    assert np.abs(weights - want_weights).max() <= 4e-15
    assert _gauss_legendre(n)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_cumulative_decay_quadrature_vs_closed_form_grid():
    for gamma in (0.05, 0.1, 0.5):
        for lam in (0.01, 0.2, 5.0):
            for tau in (0.3, TWO_PI, 6.0 * np.pi):
                p = NoiseParams(gamma=gamma, lambda_c=lam)
                quad = cumulative_decay(p, tau, method="quadrature")
                assert quad == pytest.approx(closed_cumulative(gamma, lam, tau), rel=1e-7)


def test_cumulative_decay_matches_time_integral_of_rate():
    # nested oracle: integrate decay_rate over time directly
    p = NoiseParams(gamma=0.2, lambda_c=0.3, temperature=0.8)
    tau = 4.0
    oracle, err = integrate.quad(lambda t: decay_rate(p, t), 0.0, tau, limit=200)
    assert err < 1e-9
    assert cumulative_decay(p, tau) == pytest.approx(oracle, rel=1e-6)


def test_cumulative_decay_monotone_in_tau():
    taus = np.linspace(0.0, 8.0 * np.pi, 60)
    for p in (
        NoiseParams(0.1, 0.05),
        NoiseParams(0.1, 5.0),
        NoiseParams(0.4, 0.5, temperature=1.0),
    ):
        vals = [cumulative_decay(p, t) for t in taus]
        assert np.all(np.diff(vals) >= -1e-12)


def test_cumulative_decay_linear_in_gamma():
    for lam, tau, temp in [(0.05, TWO_PI, 0.0), (0.5, 3.0, 0.7)]:
        base = cumulative_decay(NoiseParams(0.1, lam, temp), tau)
        doubled = cumulative_decay(NoiseParams(0.2, lam, temp), tau)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_zero_temperature_limit_of_quadrature():
    # T -> 0: quadrature at T=1e-6 approaches the closed form
    taus = np.linspace(0.5, 4.0 * np.pi, 12)
    p = NoiseParams(gamma=0.1, lambda_c=0.3, temperature=1e-6)
    for t in taus:
        quad = decay_rate(p, t, method="quadrature")
        closed = closed_rate(0.1, 0.3, t)
        assert quad == pytest.approx(closed, rel=1e-5, abs=1e-12)


# ------------------------------------------------- closed form at every temperature

# gamma x lambda_c x T x tau: 162 points
FINITE_T_GRID = list(itertools.product((0.1, 1.0), (0.01, 0.5, 5.0), (0.05, 1.0, 5.0), (0.3, 6.28, 40.0)))


@pytest.mark.parametrize("lam", (0.01, 0.5, 5.0))
def test_finite_temperature_closed_form_matches_quadrature(lam):
    for gamma, _, temp, tau in (point for point in FINITE_T_GRID if point[1] == lam):
        p = NoiseParams(gamma, lam, temp)
        assert cumulative_decay(p, tau) == pytest.approx(cumulative_decay(p, tau, method="quadrature"), rel=1e-10)
        assert decay_rate(p, tau) == pytest.approx(decay_rate(p, tau, method="quadrature"), rel=1e-10)


@pytest.mark.parametrize("ratio", (1e3, 1e5, 1e8))
def test_high_temperature_closed_form_matches_quadrature(ratio):
    # T/lambda_c >= 1e3: two large lnGamma values would cancel here, the direct sum and
    # Stirling difference do not
    for lam, tau in itertools.product((0.01, 0.5), (0.3, 6.28, 40.0)):
        p = NoiseParams(0.1, lam, ratio * lam)
        assert cumulative_decay(p, tau) == pytest.approx(cumulative_decay(p, tau, method="quadrature"), rel=1e-10)
        assert decay_rate(p, tau) == pytest.approx(decay_rate(p, tau, method="quadrature"), rel=1e-10)


def test_closed_form_where_quadrature_stalls():
    # the 20000-panel cap makes the quadrature give up here; the estimate it
    # discards and the Gamma-function product both agree with the closed form
    p = NoiseParams(0.1, 50.0, 5.0)
    got = cumulative_decay(p, 2000.0)
    with pytest.raises(NumericAccuracyError) as excinfo:
        cumulative_decay(p, 2000.0, method="quadrature")
    assert got == pytest.approx(excinfo.value.estimate, rel=1e-12)
    want_g, want_rate = gamma_product(0.1, 50.0, 5.0, 2000.0)
    assert got == pytest.approx(want_g, rel=1e-13)
    assert decay_rate(p, 2000.0) == pytest.approx(want_rate, rel=1e-13)


def test_zero_temperature_values_are_the_vacuum_formulas(monkeypatch):
    # bit-identical to the zero-temperature closed forms, with no call into the thermal sum
    def no_thermal(*args):
        raise AssertionError("the thermal sum ran at T = 0")

    monkeypatch.setattr(noisekernel, "_thermal_sum", no_thermal)
    rng = np.random.default_rng(11)
    for _ in range(2000):
        gamma, lam, tau = (float(10.0**e) for e in rng.uniform((-3, -3, -3), (1, 2, 3)))
        p = NoiseParams(gamma, lam)
        x = lam * tau
        assert cumulative_decay(p, tau) == 2.0 * gamma * math.log1p(x**2)
        assert decay_rate(p, tau) == 4.0 * gamma * lam**2 * tau / (1.0 + x**2)


FINITE = st.floats(min_value=0.0, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=1e300),
    lambda_c=FINITE.filter(lambda x: x > 0.0),
    temperature=FINITE,
    tau=FINITE,
)
@example(gamma=0.1, lambda_c=0.5, temperature=1e300, tau=5.0)
@example(gamma=0.1, lambda_c=0.5, temperature=1e200, tau=1e200)
@example(gamma=1e300, lambda_c=1e-300, temperature=1e300, tau=1e300)
@example(gamma=0.1, lambda_c=1e-300, temperature=1.7e308, tau=1e-20)
@example(gamma=1e-5, lambda_c=1e300, temperature=0.0, tau=1e300)
@example(gamma=2.93e16, lambda_c=1.54e291, temperature=0.0, tau=1.17e17)
def test_closed_form_never_overflows_into_nan(gamma, lambda_c, temperature, tau):
    # the decay may overflow to +inf, never to NaN; gamma stops at 1e300 so that
    # 4*gamma stays finite.  At T = 0 the decay 2*gamma*ln(1 + (L*tau)^2) is below
    # 2840*gamma for every finite L and tau, so it must not overflow either
    p = NoiseParams(gamma, lambda_c, temperature)
    g = cumulative_decay(p, tau)
    assert not math.isnan(g) and g >= 0.0
    assert not math.isnan(decay_rate(p, tau)) and decay_rate(p, tau) >= 0.0
    if temperature == 0.0:
        assert math.isfinite(g)
    if temperature > 0.0 and tau > 0.0:  # both thermal terms, the rate's included
        assert all(not math.isnan(x) and x >= 0.0 for x in _thermal_sum(p, tau))
    b = receiver_factor(p, tau)
    assert math.isfinite(b.real) and math.isfinite(b.imag) and abs(b) <= 1.0


EXTREMES = (0.0, 5e-324, 1e-300, 1e-160, 0.1, 1.0, 1e150, 1e300, 1.7e308)


def test_closed_forms_are_never_nan_at_extreme_magnitudes():
    # every combination, gamma up to the float maximum: gamma multiplies each
    # decay term before the power of two does, so a term that underflows to 0
    # gives 0 where (4*gamma) * 0 would be inf * 0 = NaN
    for gamma, lambda_c, temperature, tau in itertools.product(EXTREMES, EXTREMES[1:], EXTREMES, EXTREMES):
        p = NoiseParams(gamma, lambda_c, temperature)
        assert not math.isnan(cumulative_decay(p, tau)), (p, tau)
        assert not math.isnan(decay_rate(p, tau)), (p, tau)


def test_factors_keep_omega0_tau_under_a_huge_sender_phase():
    # P ~ 3.2e145 would absorb omega0*tau in -omega0*tau + P; reduced mod 2*pi it does not
    alice = NoiseParams(gamma=1e-5, lambda_c=1e150)
    tau = 0.8
    fac = factors_at(alice, NoiseParams(0.1, 0.01), tau)
    phase = math.fmod(phase_integral(alice, tau), 2.0 * math.pi)
    assert cmath.phase(fac.f) == pytest.approx(cmath.phase(cmath.exp(1j * (phase - tau))), abs=1e-12)
    assert cmath.phase(fac.g) == pytest.approx(cmath.phase(cmath.exp(1j * (phase + tau))), abs=1e-12)
    # f g* a* is real and positive, as for any sender bath
    prod = fac.f * fac.g.conjugate() * fac.a.conjugate()
    assert prod.real > 0.0 and abs(prod.imag) <= 1e-12 * prod.real


# -------------------------------------------------------------- phase integral


def test_phase_integral_trivial_cases():
    assert phase_integral(NoiseParams(0.3, 0.7), 0.0) == 0.0
    assert phase_integral(NoiseParams(0.0, 0.7), 5.0) == 0.0


def test_phase_integral_closed_vs_quadrature():
    for gamma, lam, tau in [(0.1, 0.05, TWO_PI), (0.3, 1.0, 1.0), (0.1, 5.0, 4.0)]:
        p = NoiseParams(gamma=gamma, lambda_c=lam)
        closed = phase_integral(p, tau)
        quad = phase_integral(p, tau, method="quadrature")
        assert quad == pytest.approx(closed, rel=1e-8)


def test_phase_integral_vs_nested_oracle():
    # outer time integral of the analytic inner Ohmic frequency integral
    # gamma*L*(1 - 1/(1 + L^2 t^2))
    gamma, lam, tau = 0.1, 0.05, TWO_PI
    inner = lambda t: gamma * lam * (1.0 - 1.0 / (1.0 + (lam * t) ** 2))
    oracle, err = integrate.quad(lambda t: 4.0 * inner(t), 0.0, tau)
    assert err < 1e-12
    got = phase_integral(NoiseParams(gamma, lam), tau)
    assert got == pytest.approx(oracle, rel=1e-10)


def test_phase_integral_small_argument_series():
    p = NoiseParams(gamma=0.2, lambda_c=1e-5)
    tau = 1.0
    # x = L*tau tiny: 4*gamma*(x^3/3 - x^5/5)
    x = 1e-5
    assert phase_integral(p, tau) == pytest.approx(0.8 * (x**3 / 3.0 - x**5 / 5.0), rel=1e-10)


# -------------------------------------------------------------------- factors


def test_factors_free_evolution():
    alice = NoiseParams(gamma=0.0, lambda_c=1.0)
    bob = NoiseParams(gamma=0.0, lambda_c=1.0)
    tau = 1.234
    fac = factors_at(alice, bob, tau)
    assert fac.f == pytest.approx(np.exp(-1j * tau), abs=1e-15)
    assert fac.g == pytest.approx(np.exp(+1j * tau), abs=1e-15)
    assert fac.a == pytest.approx(np.exp(-2j * tau), abs=1e-15)
    assert fac.b == pytest.approx(np.exp(-1j * tau), abs=1e-15)


def test_factors_bob_magnitude():
    fac = factors_at(NoiseParams(0.0, 1.0), NoiseParams(0.1, 0.01), TWO_PI)
    assert abs(fac.b) == pytest.approx(np.exp(-0.2 * np.log1p((0.02 * np.pi) ** 2)), rel=1e-13)
    assert abs(fac.b) == pytest.approx(0.9992122965049609, rel=1e-12)


def test_factors_double_flip_relation():
    fac = factors_at(NoiseParams(0.3, 1.0), NoiseParams(0.1, 0.01), 1.0)
    assert abs(fac.a) == pytest.approx(abs(fac.f) ** 4, rel=1e-12)
    assert abs(fac.f) == pytest.approx(abs(fac.g), rel=1e-14)


def test_factors_b_matches_cumulative_decay_code_path():
    bob = NoiseParams(0.25, 0.8, temperature=0.3)
    for tau in (0.5, 2.0, TWO_PI):
        fac = factors_at(NoiseParams(0.1, 0.1), bob, tau)
        assert abs(fac.b) == pytest.approx(np.exp(-cumulative_decay(bob, tau)), abs=1e-14)


def test_receiver_factor_is_the_b_of_factors_at():
    # the receiver's factor needs no sender bath, at zero or finite temperature
    for bob in (NoiseParams(0.1, 0.05), NoiseParams(0.2, 0.5, temperature=1.0, omega0=1.3)):
        for tau in (0.0, 2.5, TWO_PI):
            assert receiver_factor(bob, tau) == factors_at(NoiseParams(0.3, 0.7), bob, tau).b


def test_factors_magnitudes_bounded():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alice = NoiseParams(rng.uniform(0, 2), rng.uniform(0.01, 5), rng.uniform(0, 2))
        bob = NoiseParams(rng.uniform(0, 2), rng.uniform(0.01, 5), rng.uniform(0, 2))
        fac = factors_at(alice, bob, rng.uniform(0, 12))
        for z in (fac.f, fac.g, fac.a, fac.b):
            assert abs(z) <= 1.0 + 1e-12


# ------------------------------------------------------------- error reporting


def test_frequency_integral_reports_nonconvergence():
    calls = [0]

    def never_settles(w):
        calls[0] += 1
        return np.full_like(w, float(calls[0]))

    p = NoiseParams(gamma=0.1, lambda_c=1.0)
    with pytest.raises(NumericAccuracyError) as excinfo:
        _frequency_integral(never_settles, p, 1.0)
    assert np.isfinite(excinfo.value.estimate)
    assert excinfo.value.error_estimate > 0.0
