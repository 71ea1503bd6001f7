import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from conftest import random_density, random_pure_pair, random_unitary, random_werner

from dfsteleport import metrics
from dfsteleport.experiments import _average_blocks, parse_config, run_report
from dfsteleport.metrics import (
    average_fts_affine,
    average_fts_analytic,
    average_fts_numeric,
    bloch_fidelity_fn,
)
from dfsteleport.noisekernel import DecoherenceFactors, NoiseParams, factors_at
from dfsteleport.protocol import PurePair, Werner
from dfsteleport.qlinalg import DensityOp
from dfsteleport.reference import chsh, concurrence, resource_state

TWO_PI = 2.0 * np.pi
SQRT_HALF = 1.0 / np.sqrt(2.0)
NOISELESS = NoiseParams(gamma=0.0, lambda_c=1.0)


def factors_with_b(b: complex) -> DecoherenceFactors:
    return DecoherenceFactors(f=1.0, g=1.0, a=1.0, b=b, tau=0.0)


# ---------------------------------------------------------- pointwise fidelity


def test_paper_scaled_pointwise_can_exceed_one():
    pair = PurePair(mu=np.sqrt(0.8), lam=np.sqrt(0.2))
    fn = bloch_fidelity_fn(pair, factors_with_b(1.0), "paper")
    near_pole = float(fn(np.array([np.pi]), np.array([0.0]))[0])
    assert near_pole == pytest.approx(1.6, rel=1e-12)
    fn_phys = bloch_fidelity_fn(pair, factors_with_b(1.0), "physical")
    assert float(fn_phys(np.array([np.pi]), np.array([0.0]))[0]) <= 1.0 + 1e-12


def test_pointwise_fidelity_ignores_the_sender_factors():
    # the retained psi branches see only the receiver's factor b
    rng = np.random.default_rng(51)
    theta = np.arccos(rng.uniform(-1.0, 1.0, 64))
    phi = rng.uniform(0.0, 2.0 * np.pi, 64)
    noisy = DecoherenceFactors(f=0.5j, g=-0.5j, a=0.0625, b=PHYSICAL_B, tau=1.0)
    for resource in (PurePair(0.6, 0.8), Werner(0.7)):
        for convention in ("paper", "physical"):
            free = bloch_fidelity_fn(resource, factors_with_b(PHYSICAL_B), convention)(theta, phi)
            assert np.array_equal(bloch_fidelity_fn(resource, noisy, convention)(theta, phi), free)


# ------------------------------------------------------------------- averages


AFFINE_RESOURCES = [
    *(PurePair.from_concurrence(c) for c in (0.0, 0.05, 0.8, 1.0)),
    PurePair(0.6, 0.8),
    *(Werner(p) for p in (0.0, 0.5, 1.0)),
]


@pytest.mark.parametrize("convention", ["paper", "physical"])
@pytest.mark.parametrize("resource", AFFINE_RESOURCES, ids=repr)
def test_affine_coefficients_match_bloch_quadrature(resource, convention):
    # the 2-D quadrature of the pointwise value reads f0 + slope * Re b, whatever Im b is
    f0, slope = average_fts_affine(resource, convention)
    for b in (0.9 + 0.3j, 0.9 - 0.4j, PHYSICAL_B, -0.2 - 0.7j):
        fn = bloch_fidelity_fn(resource, factors_with_b(b), convention)
        assert average_fts_numeric(fn, "quadrature").value == pytest.approx(f0 + slope * b.real, abs=1e-12)
        assert average_fts_analytic(resource, b, convention) == f0 + slope * b.real


def test_affine_slope_is_never_negative():
    # the optimizer's premise: the fidelity's maxima in tau are those of Re b
    grid = np.linspace(0.0, 1.0, 101)
    pairs = [PurePair.from_concurrence(c) for c in grid]
    resources = pairs + [PurePair(p.lam, p.mu) for p in pairs] + [Werner(p) for p in grid]
    for resource in resources:
        for convention in ("paper", "physical"):
            assert average_fts_affine(resource, convention)[1] >= 0.0


def test_average_fts_pure_maximal_noiseless():
    assert average_fts_analytic(PurePair(SQRT_HALF, SQRT_HALF), 1.0) == pytest.approx(1.0, abs=1e-14)


def test_average_fts_pure_free_evolution_cosine():
    for tau in np.linspace(0.0, 4.0 * np.pi, 17):
        b = np.exp(-1j * tau)
        want = 2.0 / 3.0 + np.cos(tau) / 3.0
        assert average_fts_analytic(PurePair(SQRT_HALF, SQRT_HALF), b) == pytest.approx(want, abs=1e-14)


def test_average_fts_pure_published_table_value():
    b = factors_at(NOISELESS, NoiseParams(0.1, 0.01), TWO_PI).b
    pair = PurePair.from_concurrence(0.8)
    got = average_fts_analytic(pair, b)
    assert got == pytest.approx(0.9331232790679895, rel=1e-12)
    assert abs(got - 0.93) <= 0.01


def test_average_fts_werner_values():
    assert average_fts_analytic(Werner(1.0), 1.0) == pytest.approx(1.0, abs=1e-14)
    b = factors_at(NOISELESS, NoiseParams(0.1, 0.02), TWO_PI).b
    f_09 = average_fts_analytic(Werner(0.9), b)
    assert abs(f_09 - 0.95) <= 0.015
    f_05 = average_fts_analytic(Werner(0.5), b)
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
            assert average_fts_analytic(w, b) == pytest.approx(want, rel=1e-12)


def test_average_fts_input_domain_checks():
    # the resource checks its own domain (test_pure_pair_validation, test_werner_validation);
    # the averages check the convention, whatever its case
    for resource in (PurePair(0.6, 0.8), Werner(0.7)):
        for convention in ("Physical", "PAPER", "unit-trace"):
            with pytest.raises(ValueError, match="convention"):
                average_fts_affine(resource, convention)
            with pytest.raises(ValueError, match="convention"):
                average_fts_analytic(resource, 0.5, convention)
    with pytest.raises(TypeError):
        average_fts_affine((0.6, 0.8))


def test_physical_average_coincides_with_paper_for_werner_and_balanced_pairs():
    fac = factors_at(NOISELESS, NoiseParams(0.1, 0.05), 5.0)
    for resource in (PurePair(SQRT_HALF, SQRT_HALF), Werner(0.7)):
        # q = 0 for both: the physical pair is the paper pair, to the bit
        assert average_fts_affine(resource, "physical") == average_fts_affine(resource, "paper")
        paper = average_fts_analytic(resource, fac.b, "paper")
        assert average_fts_analytic(resource, fac.b, "physical") == paper
        quad = average_fts_numeric(bloch_fidelity_fn(resource, fac, "physical"), "quadrature").value
        assert quad == pytest.approx(paper, abs=1e-10)
    # an unbalanced pure pair is where the two conventions part
    pair = PurePair(0.6, 0.8)
    assert average_fts_analytic(pair, fac.b, "physical") != pytest.approx(
        average_fts_analytic(pair, fac.b, "paper"), abs=1e-3)


def test_paper_average_is_the_trace_weighted_physical_average():
    # physical averages the kept state's fidelity; paper weights each input by
    # its branch trace, whose mean is A + B = 1, so it is the success-weighted mean
    theta, quadrature = metrics._quadrature_theta()
    u = 0.5 * (1.0 + np.cos(theta))
    resources = [*(PurePair.from_concurrence(c) for c in (0.1, 0.5, 0.96)), PurePair(0.9, np.sqrt(0.19)),
                 Werner(0.3), Werner(0.9)]
    for resource in resources:
        for b in (1.0, 0.7, -0.4 + 0.2j):
            val, trace = metrics._polar_fidelity_and_trace(resource, b, u)
            assert quadrature(trace).value == pytest.approx(1.0, abs=4e-15)
            weighted = quadrature(val / trace * trace).value
            assert weighted == pytest.approx(average_fts_analytic(resource, b, "paper"), abs=4e-15)


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
        assert average_fts_analytic(PurePair(1.0, 0.0), b, "physical") == 0.5
        for c in (0.1, 0.5, 0.8, 0.99, 1.0):
            pair = PurePair.from_concurrence(c)
            assert average_fts_analytic(pair, b, "physical") == pytest.approx(
                average_fts_analytic(PurePair(pair.lam, pair.mu), b, "physical"), abs=1e-15)


def test_physical_average_series_and_direct_form_meet():
    # the series takes over below q = |lam^2 - mu^2| = 0.2; on both sides of the switch
    # the value agrees with the direct form and with the series alike
    for q_target in (0.2 * (1.0 - 1e-12), 0.2, 0.2 * (1.0 + 1e-12)):
        mu, lam = np.sqrt((1.0 - q_target) / 2.0), np.sqrt((1.0 + q_target) / 2.0)
        q = abs(lam**2 - mu**2)
        direct = (q - (1.0 - q * q) * np.arctanh(q)) / (2.0 * q**3)
        series = sum(q ** (2 * k - 2) / (4 * k * k - 1) for k in range(1, 30))
        got = average_fts_analytic(PurePair(mu, lam), PHYSICAL_B, "physical")
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
        want = average_fts_analytic(pair, fac.b)
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
        want = average_fts_analytic(w, fac.b)
        assert quad.value == pytest.approx(want, abs=1e-8)


def test_montecarlo_within_three_stderr():
    fac = factors_at(NOISELESS, NoiseParams(0.1, 0.05), TWO_PI)
    pair = PurePair.from_concurrence(0.7)
    fn = bloch_fidelity_fn(pair, fac, "paper")
    mc = average_fts_numeric(fn, "montecarlo", samples=100_000, seed=7)
    want = average_fts_analytic(pair, fac.b)
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
        average_fts_numeric(one, "simpson")
    with pytest.raises(ValueError):
        average_fts_numeric(one, "montecarlo", samples=1)


def _run_report(resource: dict) -> dict:
    return run_report(parse_config({
        "resource": resource,
        "bob_noise": {"gamma": 0.1, "lambda_c": 0.01},
        "tau": TWO_PI,
        "input": {"theta": 1.0, "phi": 0.2},
        "seed": 11,
    }))


def test_fidelity_report_conventions():
    # the run report's average_fts block holds one three-way average per convention
    report = _run_report({"kind": "pure", "mu": 0.6, "lambda": 0.8})
    paper, phys = report["average_fts"]["paper"], report["average_fts"]["physical"]
    assert paper["quadrature"] == pytest.approx(paper["analytic"], abs=1e-8)
    assert abs(paper["montecarlo"] - paper["analytic"]) <= 3.0 * paper["montecarlo_stderr"]
    assert phys["analytic"] == pytest.approx(phys["quadrature"], abs=1e-12)
    assert abs(phys["analytic"] - paper["analytic"]) > 1e-4
    assert abs(phys["montecarlo"] - phys["analytic"]) <= 3.0 * phys["montecarlo_stderr"]
    assert 0.0 <= phys["quadrature"] <= 1.0 + 1e-9
    for branch in report["branches"]:
        if branch["retained"]:
            assert 0.0 <= branch["fidelity_physical"] <= 1.0 + 1e-9
    # Werner: conventions coincide and the closed form stays available
    werner = _run_report({"kind": "werner", "p": 0.8})["average_fts"]["physical"]
    assert werner["quadrature"] == pytest.approx(werner["analytic"], abs=1e-8)


@pytest.mark.parametrize("resource", [
    PurePair.from_concurrence(0.0),
    PurePair.from_concurrence(0.05),
    PurePair.from_concurrence(0.8),
    PurePair.from_concurrence(1.0),
    PurePair(mu=0.6, lam=0.8),
    PurePair(mu=0.8, lam=0.6),
    Werner(0.0),
    Werner(0.5),
    Werner(1.0),
], ids=repr)
@pytest.mark.parametrize("b", [0.0, 0.93 + 0.2j, -0.4 + 0.7j])
def test_polar_form_equals_the_branch_element_form(resource, b):
    # value and trace depend on theta alone: several phi at each theta, poles
    # included.  The two forms round differently (sin^2(theta/2) against
    # 1 - cos^2(theta/2), the complex m01 product against Re b): 1.33e-15 at
    # most over 4.9M random points of these resources and factors.
    rng = np.random.default_rng(23)
    theta = np.repeat(np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 40)]), 5)
    phi = rng.uniform(0.0, TWO_PI, theta.size)
    val, trace = metrics._fidelity_and_trace(resource, b, theta, phi)
    polar_val, polar_trace = metrics._polar_fidelity_and_trace(resource, b, np.cos(theta / 2.0) ** 2)
    np.testing.assert_allclose(polar_val, val, rtol=0.0, atol=2e-15)
    np.testing.assert_allclose(polar_trace, trace, rtol=0.0, atol=2e-15)


def test_separable_werner_run_averages_are_one_half():
    # p = 0 leaves a constant 1/2 on the sphere: every average is 1/2 and no spread
    for block in _run_report({"kind": "werner", "p": 0.0})["average_fts"].values():
        for key in ("analytic", "quadrature", "montecarlo"):
            assert block[key] == pytest.approx(0.5, rel=0.0, abs=1e-15)
        assert 0.0 <= block["montecarlo_stderr"] <= 1e-18


@pytest.mark.parametrize("resource,b", [
    (PurePair.from_concurrence(1.0), 0.93 + 0.2j),
    (PurePair(mu=0.6, lam=0.8), 0.93 + 0.2j),
    (Werner(0.8), 0.93 + 0.2j),
    (PurePair(mu=0.8, lam=0.6), 0.0),
    (Werner(0.4), 0.0),
])
def test_average_blocks_match_the_public_averager(resource, b):
    # the polar form on the theta nodes and cos(theta) draws matches the
    # (theta, phi) averager on the same seeded points to rounding
    seed = 19
    fac = factors_with_b(b)
    blocks = _average_blocks(resource, fac, seed)
    for convention in ("paper", "physical"):
        fn = bloch_fidelity_fn(resource, fac, convention)
        quad = average_fts_numeric(fn, "quadrature", seed=seed)
        mc = average_fts_numeric(fn, "montecarlo", seed=seed)
        block = blocks[convention]
        assert block.keys() == {"analytic", "quadrature", "montecarlo", "montecarlo_stderr"}
        assert block["analytic"] == float(average_fts_analytic(resource, b, convention))
        assert block["quadrature"] == pytest.approx(quad.value, rel=0.0, abs=4.5e-16)
        assert block["montecarlo"] == pytest.approx(mc.value, rel=0.0, abs=4.5e-16)
        assert block["montecarlo_stderr"] == pytest.approx(mc.stderr, rel=0.0, abs=1e-18)
    if isinstance(resource, Werner):
        assert blocks["physical"] == blocks["paper"]


@pytest.mark.parametrize("resource", [
    {"kind": "pure", "mu": 0.6, "lambda": 0.8},
    {"kind": "werner", "p": 0.8},
])
def test_run_report_evaluates_each_point_set_once(monkeypatch, resource):
    # the theta nodes, then the draws in blocks of at most _MC_BLOCK, each
    # once and not once per convention, and never the (theta, phi) oracle;
    # every resource's physical value is the ratio, a Werner one over a trace
    # of exactly 1.0
    sizes = {"_polar_fidelity_and_trace": [], "_fidelity_and_trace": [], "_normalized": []}

    def counting(name):
        fn = getattr(metrics, name)

        def counted(*args):
            sizes[name].append(np.size(args[-1]))
            return fn(*args)

        return counted

    for name in sizes:
        monkeypatch.setattr(metrics, name, counting(name))
    _run_report(resource)
    quadrature, *blocks = sizes["_polar_fidelity_and_trace"]
    assert quadrature == 64
    assert sum(blocks) == metrics._MC_SAMPLES == 100_000
    assert max(blocks) <= metrics._MC_BLOCK
    assert sizes["_fidelity_and_trace"] == []
    assert sizes["_normalized"] == sizes["_polar_fidelity_and_trace"]


def _expression_polar(resource, b, u):
    # the polar table as whole-array expressions in the five numbers, a fresh
    # temporary per step: the reference the in-place evaluation must match bit for bit
    r00, r11, r22, r33, z = resource.x_state
    half_s = 0.5 * (r11 + r22)
    v = 1.0 - u
    re_b = complex(b).real
    val = 2.0 * ((r33 - half_s) * u * u + (r00 - half_s) * v * v + 2.0 * z * u * v * re_b + half_s)
    return val, 2.0 * ((r00 + r11) * v + (r22 + r33) * u)


def _per_kind_polar(resource, b, u):
    # the polar table written per resource kind, as before the five numbers
    v = 1.0 - u
    re_b = complex(b).real
    if isinstance(resource, PurePair):
        mu2, lam2, c = resource.mu**2, resource.lam**2, resource.concurrence
        return 2.0 * (lam2 * u * u + mu2 * v * v + c * u * v * re_b), 2.0 * (mu2 * v + lam2 * u)
    p = resource.p
    return 0.5 + 0.5 * p * (2.0 * u - 1.0) ** 2 + 2.0 * p * re_b * u * v, 1.0


def _expression_normalized(val, trace):
    return np.where(trace > 0.0, val / np.where(trace > 0.0, trace, 1.0), np.nan)


def _splitmix64_reference(seed, n):
    # SplitMix64 (Steele, Lea and Flood 2014) in plain Python ints, one value at
    # a time: the seed's 64-bit words, low first, each xor-ed into the state and
    # taken through one step; then n draws (z >> 11) 2^-53
    mask = 2**64 - 1

    def step(state):  # (the next state, its output)
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return state, z ^ (z >> 31)

    state = 0
    for k in range(max(1, -(-seed.bit_length() // 64))):
        state = step(state ^ ((seed >> (64 * k)) & mask))[1]
    draws = []
    for _ in range(n):
        state, z = step(state)
        draws.append((z >> 11) * 2.0**-53)
    return draws


def _expression_averages(resource, b, seed):
    theta, quadrature = metrics._quadrature_theta()
    draws = 2.0 * np.array(_splitmix64_reference(seed, metrics._MC_SAMPLES)) - 1.0

    def montecarlo(vals):
        # each block's np.mean and squared deviations, merged in draw order
        # (Chan, Golub and LeVeque) into the running count, mean and M2
        n, mean, m2 = 0, 0.0, 0.0
        for start in range(0, vals.size, metrics._MC_BLOCK):
            block = vals[start:start + metrics._MC_BLOCK]
            n_b, mean_b = block.size, np.mean(block)
            m2_b = np.sum((block - mean_b) ** 2)
            delta = mean_b - mean
            mean, m2 = mean + delta * (n_b / (n + n_b)), m2 + m2_b + delta * delta * (n * n_b / (n + n_b))
            n += n_b
        stderr = np.sqrt(m2 / (n - 1)) / np.sqrt(n)
        return metrics.NumericAverage(value=float(mean), stderr=float(stderr))

    paper, physical = [], []
    for cos_t, reduce in ((np.cos(theta), quadrature), (draws, montecarlo)):
        val, trace = _expression_polar(resource, b, 0.5 * (1.0 + cos_t))
        paper.append(reduce(val))
        physical.append(reduce(_expression_normalized(val, trace)))
    return {"paper": tuple(paper), "physical": tuple(physical)}


BIT_RESOURCES = [
    PurePair.from_concurrence(0.0),
    PurePair(1.0, 0.0),
    PurePair.from_concurrence(0.3),
    PurePair.from_concurrence(0.05),
    PurePair(0.6, 0.8),
    PurePair(0.8, 0.6),
    PurePair.from_concurrence(1.0),
    Werner(0.0),
    Werner(0.45),
    Werner(1.0),
]


@pytest.mark.parametrize("b", [0.0, 1.0, 0.93 + 0.2j, -0.4 + 0.7j])
@pytest.mark.parametrize("resource", BIT_RESOURCES, ids=repr)
def test_in_place_averages_keep_the_expression_bits(resource, b):
    # every field of both conventions' quadrature and Monte-Carlo averages,
    # exactly; Werner p = 0 has zero spread
    seed = 1000 * BIT_RESOURCES.index(resource) + int(100 * abs(b))
    got = metrics._numeric_averages(resource, factors_with_b(b), seed)
    assert got == _expression_averages(resource, b, seed)


@pytest.mark.parametrize("b", [0.0, 1.0, 0.93 + 0.2j, -0.4 + 0.7j])
@pytest.mark.parametrize("resource", BIT_RESOURCES, ids=repr)
def test_five_number_polar_form_matches_the_per_kind_form(resource, b):
    # on the theta nodes and the cos(theta) draws of a run: a pure pair keeps
    # every bit, a Werner value moves by rounding only and its trace is exactly 1
    theta, _ = metrics._quadrature_theta()
    _, draws, _ = metrics._montecarlo_cos_theta(metrics._MC_SAMPLES, 7)
    for cos_t in (np.cos(theta), draws):
        u = 0.5 * (1.0 + cos_t)
        val, trace = _expression_polar(resource, b, u)
        want_val, want_trace = _per_kind_polar(resource, b, u)
        if isinstance(resource, PurePair):
            assert val.tobytes() == want_val.tobytes()
            assert trace.tobytes() == want_trace.tobytes()
        else:
            np.testing.assert_allclose(val, want_val, rtol=0.0, atol=4.5e-16)
            assert np.all(trace == 1.0)


@pytest.mark.parametrize("resource,empty", [(PurePair(0.0, 1.0), 0.0), (PurePair(1.0, 0.0), 1.0)], ids=repr)
def test_in_place_physical_value_is_nan_where_the_trace_is_zero(resource, empty):
    # mu = 0 leaves no weight at u = 0, lam = 0 none at u = 1
    u = np.array([0.0, 1.0, 0.25, 0.5, 1.0, 0.0, 0.75])
    rows = np.empty((4, u.size))
    rows[0] = u
    val, trace = metrics._polar_fidelity_and_trace(resource, 0.6 - 0.3j, rows[0], *rows[1:])
    physical = metrics._normalized(val, trace, rows[1])
    want_val, want_trace = _expression_polar(resource, 0.6 - 0.3j, u)
    assert rows[0].tobytes() == u.tobytes()
    assert val.tobytes() == want_val.tobytes()
    assert trace.tobytes() == want_trace.tobytes()
    assert physical.tobytes() == _expression_normalized(want_val, want_trace).tobytes()
    assert np.array_equal(np.isnan(physical), u == empty)


def test_seed_fold_starts_at_the_published_splitmix64_output():
    # seed 0 is one step from state 0: SplitMix64's first output, 0xE220A8397B1DCDAF
    assert metrics._seed_state(0) == 0xE220A8397B1DCDAF
    # a seed past 2^64 takes a step per word and does not alias seed mod 2^64
    assert metrics._seed_state(2**64) != metrics._seed_state(0)
    assert metrics._seed_state(2**70 + 3) != metrics._seed_state(3)


@pytest.mark.parametrize("seed", [0, 19, 2**32 - 1, 2**64 - 1, 2**64, 2**70 + 3])
def test_block_draws_are_the_reference_stream(seed):
    # a run draws one block at a time into the same row and continues the stream
    # across blocks; 2 blocks and 37 draws cross two boundaries and end mid-block
    n = 2 * metrics._MC_BLOCK + 37
    want = _splitmix64_reference(seed, 2 * n)
    rows = np.empty((2, metrics._MC_BLOCK))
    got, state = [], metrics._seed_state(seed)
    for start in range(0, n, metrics._MC_BLOCK):
        row = rows[0, :min(metrics._MC_BLOCK, n - start)]
        state = metrics._uniform_draws(state, row, rows[1, :row.size])
        got.extend(row.tolist())
    assert got == want[:n]
    # the oracle's cos(theta) draws are 2r - 1, r comes back from them exactly,
    # and its phi draws are the stream's next n
    state, cos_theta, _ = metrics._montecarlo_cos_theta(n, seed)
    assert cos_theta.tolist() == [2.0 * r - 1.0 for r in want[:n]]
    assert ((cos_theta + 1.0) * 0.5).tolist() == want[:n]
    theta, phi, _ = metrics._bloch_points("montecarlo", n, seed)
    assert phi.tolist() == [TWO_PI * r for r in want[n:]]


@pytest.mark.parametrize("resource,convention", [(PurePair(0.6, 0.8), "paper"), (PurePair(0.6, 0.8), "physical"),
                                                 (Werner(0.8), "paper")], ids=repr)
def test_run_montecarlo_z_scores_are_standard_normal_over_seeds(resource, convention):
    # over 300 seeds a run's Monte-Carlo estimate lies z stderr from the closed
    # form with z ~ N(0, 1): the mean's spread is 0.06 and the sd's 0.04.  The
    # counter without its mixing rounds is a low-discrepancy (Weyl) sequence,
    # whose z-scores spread about 100 times too little.  One round alone
    # already passes here; the reference-stream test pins every round and shift
    fac = factors_with_b(0.93 + 0.2j)
    want = average_fts_analytic(resource, fac.b, convention)
    z = []
    for seed in range(300):
        mc = metrics._numeric_averages(resource, fac, seed)[convention][1]
        z.append((mc.value - want) / mc.stderr)
    assert abs(np.mean(z)) <= 0.2
    assert 0.85 <= np.std(z, ddof=1) <= 1.15


@pytest.mark.parametrize("resource", [PurePair(0.6, 0.8), Werner(0.8)], ids=repr)
def test_numeric_averages_stay_within_one_block(resource):
    # the draws stream through one buffer of four _MC_BLOCK rows plus masks,
    # not four 100k rows (3.2 MB)
    fac = factors_with_b(0.93 + 0.2j)
    metrics._numeric_averages(resource, fac, 5)  # numpy's lazy set-up and the cached nodes
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        metrics._numeric_averages(resource, fac, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 500_000


# ---------------------------------------------------------------- concurrence


def test_concurrence_pure_pair():
    # sqrt amplifies the spurious near-zero eigenvalues of a rank-1 state to
    # sqrt(eps) scale, so the pure case is only accurate to ~1e-7; the
    # program's X-state form is checked for mu < lam, mu > lam and C = 0
    for pair, want in ((PurePair(0.6, 0.8), 0.96), (PurePair(0.8, 0.6), 0.96),
                       (PurePair(0.0, 1.0), 0.0), (PurePair(1.0, 0.0), 0.0)):
        state = resource_state(pair)
        assert concurrence(state) == pytest.approx(want, abs=1e-7)
        assert pair.concurrence == pytest.approx(concurrence(state), abs=1e-7)


def test_concurrence_werner():
    assert concurrence(resource_state(Werner(0.6))) == pytest.approx(0.4, abs=1e-10)


def test_concurrence_separable():
    assert concurrence(DensityOp(np.eye(4) / 4.0)) == 0.0


def test_concurrence_werner_closed_form_grid():
    for p in np.linspace(0.0, 1.0, 21):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        # the eigen-solver oracle and the program's X-state closed form
        for value in (concurrence(resource_state(Werner(p))), Werner(p).concurrence):
            assert value == pytest.approx(want, abs=1e-10)


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
        assert rep.b_max == pytest.approx(2.0 * np.sqrt(rep.m_value), abs=1e-12)
        # the eigen-solver oracle and the program's X-state closed form
        b_max = Werner(p).b_max
        for m_value, violates in ((rep.m_value, rep.violates), ((b_max / 2.0) ** 2, b_max > 2.0)):
            assert m_value == pytest.approx(2.0 * p * p, abs=1e-10)
            assert violates == (2.0 * p * p > 1.0)


def test_chsh_pure_pair_m_value():
    # brute-force correlation matrix gives 1 + C^2; the simple (mu+lam)^2
    # expression overshoots it strictly between the product and Bell points
    for c in np.linspace(0.0, 1.0, 21):
        pair = PurePair.from_concurrence(c)
        rep = chsh(resource_state(pair))
        assert rep.m_value == pytest.approx(1.0 + c * c, abs=1e-10)
        mu_plus_lam_sq = (pair.mu + pair.lam) ** 2
        if 0.0 < c < 1.0 - 1e-9:
            assert mu_plus_lam_sq > rep.m_value + 1e-6
        # the program's X-state B_max, for mu <= lam and for the swapped pair
        for resource in (pair, PurePair(pair.lam, pair.mu)):
            assert resource.b_max == pytest.approx(chsh(resource_state(resource)).b_max, abs=1e-12)


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
