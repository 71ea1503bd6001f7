import numpy as np
import pytest
from scipy import integrate

from conftest import random_bloch, random_density, random_pure_pair, random_unitary, random_werner

from dfsteleport.metrics import (
    _average_fts_pure_physical,
    average_fts_analytic,
    average_fts_numeric,
    average_fts_pure,
    average_fts_werner,
    bloch_fidelity_fn,
    chsh,
    concurrence,
    fidelity_pointwise,
    fidelity_report,
)
from dfsteleport.noisekernel import DecoherenceFactors, NoiseParams, factors_at
from dfsteleport.protocol import PurePair, Werner, resource_state
from dfsteleport.qlinalg import BlochAngles, DensityOp

TWO_PI = 2.0 * np.pi
SQRT_HALF = 1.0 / np.sqrt(2.0)
NOISELESS = NoiseParams(gamma=0.0, lambda_c=1.0)


def factors_with_b(b: complex) -> DecoherenceFactors:
    return DecoherenceFactors(f=1.0, g=1.0, a=1.0, b=b, tau=0.0)


def corrected_output_scaled(mu, lam, alpha, beta, b) -> np.ndarray:
    # corrected retained-branch state in the trace-4p convention
    return np.array(
        [
            [2.0 * lam**2 * abs(alpha) ** 2, 2.0 * mu * lam * alpha * np.conj(beta) * np.conj(b)],
            [2.0 * mu * lam * np.conj(alpha) * beta * b, 2.0 * mu**2 * abs(beta) ** 2],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------- pointwise fidelity


def test_fidelity_pointwise_perfect_output():
    ang = BlochAngles(theta=0.9, phi=1.7)
    assert fidelity_pointwise(ang, ang.ket().projector()) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_pointwise_maximally_mixed():
    ang = BlochAngles(theta=2.0, phi=0.3)
    assert fidelity_pointwise(ang, DensityOp(np.eye(2) / 2.0)) == pytest.approx(0.5, abs=1e-15)


def test_fidelity_pointwise_matches_trig_formula():
    # matrix contraction vs 2 lam^2 c^4 + 2 mu^2 s^4 + 2 s^2 c^2 (mu lam b + cc)
    rng = np.random.default_rng(50)
    mu, lam = 0.6, 0.8
    b = 0.97
    for _ in range(100):
        ang = random_bloch(rng)
        mat = corrected_output_scaled(mu, lam, ang.alpha, ang.beta, b)
        got = fidelity_pointwise(ang, DensityOp(mat, normalized=False))
        c2 = np.cos(ang.theta / 2.0) ** 2
        s2 = np.sin(ang.theta / 2.0) ** 2
        want = 2 * lam**2 * c2**2 + 2 * mu**2 * s2**2 + 2 * s2 * c2 * (2 * mu * lam * b)
        assert got == pytest.approx(want, rel=1e-12)


def test_paper_scaled_pointwise_can_exceed_one():
    pair = PurePair(mu=np.sqrt(0.8), lam=np.sqrt(0.2))
    fn = bloch_fidelity_fn(pair, factors_with_b(1.0), "paper")
    near_pole = float(fn(np.array([np.pi]), np.array([0.0]))[0])
    assert near_pole == pytest.approx(1.6, rel=1e-12)
    fn_phys = bloch_fidelity_fn(pair, factors_with_b(1.0), "physical")
    assert float(fn_phys(np.array([np.pi]), np.array([0.0]))[0]) <= 1.0 + 1e-12


# ------------------------------------------------------------------- averages


def test_average_fts_pure_maximal_noiseless():
    assert average_fts_pure(SQRT_HALF, SQRT_HALF, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_average_fts_pure_free_evolution_cosine():
    for tau in np.linspace(0.0, 4.0 * np.pi, 17):
        b = np.exp(-1j * tau)
        want = 2.0 / 3.0 + np.cos(tau) / 3.0
        assert average_fts_pure(SQRT_HALF, SQRT_HALF, b) == pytest.approx(want, abs=1e-14)


def test_average_fts_pure_published_table_value():
    b = factors_at(NOISELESS, NoiseParams(0.1, 0.01), TWO_PI).b
    pair = PurePair.from_concurrence(0.8)
    got = average_fts_pure(pair.mu, pair.lam, b)
    assert got == pytest.approx(0.9331232790679895, rel=1e-12)
    assert abs(got - 0.93) <= 0.01


def test_average_fts_werner_values():
    assert average_fts_werner(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    b = factors_at(NOISELESS, NoiseParams(0.1, 0.02), TWO_PI).b
    f_09 = average_fts_werner(0.9, b)
    assert abs(f_09 - 0.95) <= 0.015
    f_05 = average_fts_werner(0.5, b)
    assert f_05 == pytest.approx(0.7494785514090125, rel=1e-12)
    assert abs(f_05 - 0.74) <= 0.015


def test_average_fts_werner_concurrence_form():
    # p/3 = (2/9)(C + 1/2) and p/6 + 1/2 = (C + 5)/9 for C = (3p - 1)/2,
    # with the oscillation argument read as omega0*tau in both forms
    for c in (0.2, 0.5, 0.8):
        w = Werner.from_concurrence(c)
        for tau in (0.7, TWO_PI, 9.0):
            b = factors_at(NOISELESS, NoiseParams(0.1, 0.02), tau).b
            env = np.exp(-0.2 * np.log1p((0.02 * tau) ** 2))
            want = (2.0 / 9.0) * (c + 0.5) * np.cos(tau) * env + (c + 5.0) / 9.0
            assert average_fts_werner(w.p, b) == pytest.approx(want, rel=1e-12)


def test_average_fts_input_domain_checks():
    with pytest.raises(ValueError):
        average_fts_pure(0.9, 0.9, 1.0)
    with pytest.raises(ValueError):
        average_fts_werner(1.4, 1.0)


def test_physical_average_coincides_with_paper_for_werner_and_balanced_pairs():
    fac = factors_at(NOISELESS, NoiseParams(0.1, 0.05), 5.0)
    for resource in (PurePair(SQRT_HALF, SQRT_HALF), Werner(0.7)):
        paper = average_fts_analytic(resource, fac.b, "paper")
        assert average_fts_analytic(resource, fac.b, "physical") == pytest.approx(paper, abs=1e-15)
        report = fidelity_report(BlochAngles(1.0), resource, fac, convention="physical", mc_samples=1000)
        assert report.average_quadrature == pytest.approx(report.average_analytic, abs=1e-10)
    # an unbalanced pure pair is where the two conventions part
    pair = PurePair(0.6, 0.8)
    assert average_fts_analytic(pair, fac.b, "physical") != pytest.approx(
        average_fts_analytic(pair, fac.b, "paper"), abs=1e-3)


PHYSICAL_B = 0.83 * np.exp(-0.7j)


@pytest.mark.parametrize("c", [0.05, 0.2, 0.5, 0.8, 0.95, 1.0])
def test_physical_average_matches_bloch_quadrature(c):
    pair = PurePair.from_concurrence(c)
    fn = bloch_fidelity_fn(pair, factors_with_b(PHYSICAL_B), "physical")
    want = average_fts_numeric(fn, "quadrature").value
    assert average_fts_analytic(pair, PHYSICAL_B, "physical") == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("c", [0.0, 1e-6, 1e-3, 0.05, 0.3, 0.6, 0.9, 0.99, 0.9999, 1.0])
def test_physical_average_matches_one_dimensional_integral(c):
    # u = cos^2(theta/2) is uniform on [0, 1] and the pointwise value does not depend on phi
    pair = PurePair.from_concurrence(c)
    mu, lam, re_b = pair.mu, pair.lam, PHYSICAL_B.real

    def integrand(u):
        return 1.0 - u * (1.0 - u) * (1.0 - 2.0 * mu * lam * re_b) / (mu**2 + (lam**2 - mu**2) * u)

    want, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    assert average_fts_analytic(pair, PHYSICAL_B, "physical") == pytest.approx(want, abs=1e-10)


def test_physical_average_limits_and_symmetry():
    for b in (1.0, PHYSICAL_B, -0.4j):
        assert average_fts_analytic(PurePair.from_concurrence(0.0), b, "physical") == 0.5
        assert _average_fts_pure_physical(1.0, 0.0, b) == 0.5
        for c in (0.1, 0.5, 0.8, 0.99, 1.0):
            pair = PurePair.from_concurrence(c)
            assert _average_fts_pure_physical(pair.mu, pair.lam, b) == pytest.approx(
                _average_fts_pure_physical(pair.lam, pair.mu, b), abs=1e-15)


def test_physical_average_series_and_direct_form_meet():
    # the series takes over below q = |lam^2 - mu^2| = 0.2; on both sides of the switch
    # the value agrees with the direct form and with the series alike
    for q_target in (0.2 * (1.0 - 1e-12), 0.2, 0.2 * (1.0 + 1e-12)):
        mu, lam = np.sqrt((1.0 - q_target) / 2.0), np.sqrt((1.0 + q_target) / 2.0)
        q = abs(lam**2 - mu**2)
        direct = (q - (1.0 - q * q) * np.arctanh(q)) / (2.0 * q**3)
        series = sum(q ** (2 * k - 2) / (4 * k * k - 1) for k in range(1, 30))
        got = _average_fts_pure_physical(mu, lam, PHYSICAL_B)
        for j in (direct, series):
            assert got == pytest.approx(1.0 - (1.0 - 2.0 * mu * lam * PHYSICAL_B.real) * j, abs=1e-14)


# ------------------------------------------------------------------- numerics


def test_numeric_average_normalization():
    one = lambda theta, phi: np.ones_like(theta)
    quad = average_fts_numeric(one, "quadrature")
    assert quad.value == pytest.approx(1.0, abs=1e-13)
    mc = average_fts_numeric(one, "montecarlo", samples=5000, seed=1)
    assert mc.value == pytest.approx(1.0, abs=1e-13)
    assert mc.stderr == pytest.approx(0.0, abs=1e-15)


def test_numeric_average_matches_pure_closed_form():
    rng = np.random.default_rng(51)
    for _ in range(10):
        pair = random_pure_pair(rng)
        fac = factors_at(
            NoiseParams(rng.uniform(0, 0.5), rng.uniform(0.01, 2.0)),
            NoiseParams(rng.uniform(0, 0.5), rng.uniform(0.01, 2.0)),
            rng.uniform(0.0, 10.0),
        )
        fn = bloch_fidelity_fn(pair, fac, "paper")
        quad = average_fts_numeric(fn, "quadrature")
        want = average_fts_pure(pair.mu, pair.lam, fac.b)
        assert quad.value == pytest.approx(want, abs=1e-8)


def test_numeric_average_matches_werner_closed_form():
    rng = np.random.default_rng(52)
    for _ in range(10):
        w = random_werner(rng)
        fac = factors_at(
            NoiseParams(rng.uniform(0, 0.5), rng.uniform(0.01, 2.0)),
            NoiseParams(rng.uniform(0, 0.5), rng.uniform(0.01, 2.0)),
            rng.uniform(0.0, 10.0),
        )
        fn = bloch_fidelity_fn(w, fac, "paper")
        quad = average_fts_numeric(fn, "quadrature")
        want = average_fts_werner(w.p, fac.b)
        assert quad.value == pytest.approx(want, abs=1e-8)


def test_montecarlo_within_three_stderr():
    fac = factors_at(NOISELESS, NoiseParams(0.1, 0.05), TWO_PI)
    pair = PurePair.from_concurrence(0.7)
    fn = bloch_fidelity_fn(pair, fac, "paper")
    mc = average_fts_numeric(fn, "montecarlo", samples=100_000, seed=7)
    want = average_fts_pure(pair.mu, pair.lam, fac.b)
    assert abs(mc.value - want) <= 3.0 * mc.stderr
    assert not mc.widened


def test_montecarlo_small_sample_widening():
    fn = lambda theta, phi: np.cos(theta) ** 2
    mc = average_fts_numeric(fn, "montecarlo", samples=100, seed=3)
    assert mc.widened
    assert mc.stderr > 0.0


def test_numeric_average_rejects_bad_arguments():
    one = lambda theta, phi: np.ones_like(theta)
    with pytest.raises(ValueError):
        average_fts_numeric(one, "quadrature", theta_nodes=16)
    with pytest.raises(ValueError):
        average_fts_numeric(one, "simpson")
    with pytest.raises(ValueError):
        average_fts_numeric(one, "montecarlo", samples=1)


def test_fidelity_report_conventions():
    fac = factors_at(NOISELESS, NoiseParams(0.1, 0.01), TWO_PI)
    pair = PurePair(0.6, 0.8)
    ang = BlochAngles(theta=1.0, phi=0.2)
    paper = fidelity_report(ang, pair, fac, seed=11)
    assert paper.average_quadrature == pytest.approx(paper.average_analytic, abs=1e-8)
    assert abs(paper.average_montecarlo - paper.average_analytic) <= 3.0 * paper.montecarlo_stderr
    phys = fidelity_report(ang, pair, fac, convention="physical", seed=11)
    assert phys.average_analytic == pytest.approx(phys.average_quadrature, abs=1e-12)
    assert abs(phys.average_analytic - paper.average_analytic) > 1e-4
    assert abs(phys.average_montecarlo - phys.average_analytic) <= 3.0 * phys.montecarlo_stderr
    assert 0.0 <= phys.average_quadrature <= 1.0 + 1e-9
    assert 0.0 <= phys.pointwise <= 1.0 + 1e-9
    # Werner: conventions coincide and the closed form stays available
    wreport = fidelity_report(ang, Werner(0.8), fac, convention="physical", seed=11)
    assert wreport.average_quadrature == pytest.approx(wreport.average_analytic, abs=1e-8)


# ---------------------------------------------------------------- concurrence


def test_concurrence_pure_pair():
    # sqrt amplifies the spurious near-zero eigenvalues of a rank-1 state to
    # sqrt(eps) scale, so the pure case is only accurate to ~1e-7
    state = resource_state(PurePair(0.6, 0.8))
    assert concurrence(state) == pytest.approx(0.96, abs=1e-7)


def test_concurrence_werner():
    assert concurrence(resource_state(Werner(0.6))) == pytest.approx(0.4, abs=1e-10)


def test_concurrence_separable():
    assert concurrence(DensityOp(np.eye(4) / 4.0)) == 0.0


def test_concurrence_werner_closed_form_grid():
    for p in np.linspace(0.0, 1.0, 21):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(resource_state(Werner(p))) == pytest.approx(want, abs=1e-10)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(53)
    for _ in range(20):
        rho = resource_state(random_werner(rng))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = DensityOp(u @ rho.mat @ u.conj().T)
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)


# ----------------------------------------------------------------------- chsh


def test_chsh_werner_values():
    rep = chsh(resource_state(Werner(0.75)))
    assert rep.b_max == pytest.approx(2.0 * np.sqrt(2.0) * 0.75, abs=1e-10)
    assert rep.violates
    rep_local = chsh(resource_state(Werner(0.4)))
    assert rep_local.b_max == pytest.approx(1.1313708498984762, abs=1e-10)
    assert not rep_local.violates


def test_chsh_bell_state():
    state = resource_state(PurePair(SQRT_HALF, SQRT_HALF))
    rep = chsh(state)
    assert rep.b_max == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-10)
    assert rep.m_value == pytest.approx(2.0, abs=1e-10)


def test_chsh_werner_m_closed_form_grid():
    for p in np.linspace(0.0, 1.0, 21):
        rep = chsh(resource_state(Werner(p)))
        assert rep.m_value == pytest.approx(2.0 * p * p, abs=1e-10)
        assert rep.violates == (2.0 * p * p > 1.0)
        assert rep.b_max == pytest.approx(2.0 * np.sqrt(rep.m_value), abs=1e-12)


def test_chsh_pure_pair_m_value():
    # brute-force correlation matrix gives 1 + C^2; the simple (mu+lam)^2
    # expression overshoots it strictly between the product and Bell points
    for c in np.linspace(0.05, 1.0, 20):
        pair = PurePair.from_concurrence(c)
        rep = chsh(resource_state(pair))
        assert rep.m_value == pytest.approx(1.0 + c * c, abs=1e-10)
        mu_plus_lam_sq = (pair.mu + pair.lam) ** 2
        if c < 1.0 - 1e-9:
            assert mu_plus_lam_sq > rep.m_value + 1e-6


def test_chsh_local_unitary_invariance():
    rng = np.random.default_rng(54)
    for _ in range(20):
        rho = resource_state(random_pure_pair(rng))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = DensityOp(u @ rho.mat @ u.conj().T)
        assert chsh(rotated).m_value == pytest.approx(chsh(rho).m_value, abs=1e-10)


def test_chsh_t_matrix_diagonal_for_werner():
    rep = chsh(resource_state(Werner(0.9)))
    assert np.allclose(rep.t_matrix, np.diag([0.9, -0.9, 0.9]), atol=1e-12)
