import numpy as np
import pytest

from dfsteleport.metrics import average_fts_numeric, bloch_fidelity_fn
from dfsteleport.noisekernel import NoiseParams, factors_at
from dfsteleport.optimizer import TimingProblem, maximize_timing, objective_fn, sweep
from dfsteleport.protocol import PurePair, Werner

TWO_PI = 2.0 * np.pi
SQRT_HALF = 1.0 / np.sqrt(2.0)


def pure_problem(concurrence, gamma, lam, window):
    return TimingProblem(
        resource=PurePair.from_concurrence(concurrence),
        bob_noise=NoiseParams(gamma=gamma, lambda_c=lam),
        window=window,
    )


def pure_formula(c, gamma, lam, tau):
    return 2.0 / 3.0 + (c / 3.0) * np.cos(tau) * np.exp(-2.0 * gamma * np.log1p((lam * tau) ** 2))


def werner_formula(p, gamma, lam, tau):
    return (p / 3.0) * np.cos(tau) * np.exp(-2.0 * gamma * np.log1p((lam * tau) ** 2)) + p / 6.0 + 0.5


def test_problem_validation():
    with pytest.raises(ValueError):
        pure_problem(0.8, 0.1, 0.05, (3.0, 1.0))
    with pytest.raises(ValueError):
        pure_problem(0.8, 0.1, 0.05, (-1.0, 1.0))
    with pytest.raises(ValueError):
        TimingProblem(PurePair(SQRT_HALF, SQRT_HALF), NoiseParams(0.1, 0.1), (0.0, 1.0), "fancy")


def test_sweep_noiseless_cosine_curve():
    problem = pure_problem(1.0, 0.0, 1.0, (0.0, 2.0 * TWO_PI))
    curve = sweep(problem, 101)
    want = 2.0 / 3.0 + np.cos(curve[:, 0]) / 3.0
    assert np.max(np.abs(curve[:, 1] - want)) <= 1e-13


def test_sweep_matches_receiver_only_formula():
    # proves sender-bath independence of the objective: the curve is a pure
    # function of receiver gamma/lambda and the resource concurrence
    problem = pure_problem(0.8, 0.1, 0.05, (0.0, 4.0 * TWO_PI))
    curve = sweep(problem, 201)
    want = pure_formula(0.8, 0.1, 0.05, curve[:, 0])
    assert np.max(np.abs(curve[:, 1] - want)) <= 1e-12


def test_sweep_published_curve_values():
    problem = pure_problem(0.8, 0.1, 0.05, (0.0, 8.0 * np.pi))
    fn = objective_fn(problem)
    assert fn(TWO_PI) == pytest.approx(0.9283603380630475, rel=1e-12)
    assert fn(6.0 * np.pi) == pytest.approx(0.9014980688992897, rel=1e-12)
    assert fn(TWO_PI) == pytest.approx(0.928, abs=1e-3)
    assert fn(6.0 * np.pi) == pytest.approx(0.901, abs=1e-3)


def test_sweep_werner_stays_within_envelope_bounds():
    p = Werner.from_concurrence(0.8).p
    problem = TimingProblem(
        resource=Werner.from_concurrence(0.8),
        bob_noise=NoiseParams(0.1, 0.02),
        window=(0.0, 4.0 * TWO_PI),
    )
    curve = sweep(problem, 301)
    upper = p / 2.0 + 0.5
    lower = 0.5 + p / 6.0 - p / 3.0
    assert np.all(curve[:, 1] <= upper + 1e-12)
    assert np.all(curve[:, 1] >= lower - 1e-12)


def test_sweep_rejects_single_point():
    with pytest.raises(ValueError):
        sweep(pure_problem(0.8, 0.1, 0.05, (0.0, 1.0)), 1)


def test_maximize_finds_stationary_point_near_two_pi():
    problem = pure_problem(0.8, 0.1, 0.05, (np.pi, 3.0 * np.pi))
    sol = maximize_timing(problem, tol_tau=1e-8)
    assert abs(sol.tau_star - TWO_PI) <= 0.2
    # envelope decay pushes the stationary point slightly before 2*pi
    assert sol.tau_star < TWO_PI
    assert sol.f_star == pytest.approx(pure_formula(0.8, 0.1, 0.05, sol.tau_star), rel=1e-12)


def test_maximize_noiseless_reaches_unity():
    problem = pure_problem(1.0, 0.0, 1.0, (np.pi, 3.0 * np.pi))
    sol = maximize_timing(problem, tol_tau=1e-9)
    assert abs(sol.tau_star - TWO_PI) <= 1e-6
    assert sol.f_star == pytest.approx(1.0, abs=1e-12)


def test_maximize_werner_published_window():
    problem = TimingProblem(
        resource=Werner.from_concurrence(0.8),
        bob_noise=NoiseParams(0.1, 0.02),
        window=(0.0, 4.0 * np.pi),
    )
    sol = maximize_timing(problem, tol_tau=1e-8)
    assert sol.f_star >= 0.9


def test_maximize_dominates_grid_and_collects_maxima():
    problem = pure_problem(0.8, 0.1, 0.2, (0.5, 26.5))
    sol = maximize_timing(problem, tol_tau=1e-8)
    assert sol.f_star >= np.max(sol.grid[:, 1]) - 1e-12
    assert problem.window[0] <= sol.tau_star <= problem.window[1]
    # one interior maximum near each even multiple of pi inside the window
    assert len(sol.local_maxima) == 4
    for n, (tau, _) in enumerate(sol.local_maxima, start=1):
        assert abs(tau - n * TWO_PI) <= 0.2
    values = [f for _, f in sol.local_maxima]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_maximize_idempotent_under_refinement():
    problem = pure_problem(0.8, 0.1, 0.05, (np.pi, 3.0 * np.pi))
    first = maximize_timing(problem, tol_tau=1e-6)
    second = maximize_timing(problem, tol_tau=1e-10)
    assert abs(first.tau_star - second.tau_star) <= 1e-5
    assert second.f_star >= first.f_star - 1e-12


def test_maximize_tie_breaks_toward_smaller_tau():
    # noiseless and maximal: every even multiple of pi reaches exactly one
    problem = pure_problem(1.0, 0.0, 1.0, (np.pi, 5.0 * np.pi))
    sol = maximize_timing(problem, tol_tau=1e-9)
    assert abs(sol.tau_star - TWO_PI) <= 1e-6


def test_monotone_envelope_in_noise_parameters():
    taus = [TWO_PI, 2.0 * TWO_PI]
    for resource in (PurePair.from_concurrence(0.8), Werner.from_concurrence(0.8)):
        for tau in taus:
            vals_gamma = []
            for gamma in (0.05, 0.1, 0.2, 0.4):
                problem = TimingProblem(resource, NoiseParams(gamma, 0.05), (0.1, 20.0))
                vals_gamma.append(objective_fn(problem)(tau))
            assert all(np.diff(vals_gamma) < 0.0)
            vals_lam = []
            for lam in (0.01, 0.05, 0.2, 1.0):
                problem = TimingProblem(resource, NoiseParams(0.1, lam), (0.1, 20.0))
                vals_lam.append(objective_fn(problem)(tau))
            assert all(np.diff(vals_lam) < 0.0)


def test_quadrature_objective_matches_analytic():
    sender = NoiseParams(0.0, 1.0)
    for convention in ("paper", "physical"):
        problem = TimingProblem(PurePair.from_concurrence(0.8), NoiseParams(0.1, 0.05),
                                (np.pi, 3.0 * np.pi), convention)
        analytic = objective_fn(problem)
        for tau in (np.pi, 5.0, TWO_PI):
            fac = factors_at(sender, problem.bob_noise, tau)
            quad = average_fts_numeric(bloch_fidelity_fn(problem.resource, fac, convention), "quadrature").value
            assert quad == pytest.approx(analytic(tau), abs=1e-8)


def test_physical_convention_objective_for_nonmaximal_pure():
    problem = TimingProblem(
        resource=PurePair(0.6, 0.8),
        bob_noise=NoiseParams(0.1, 0.05),
        window=(np.pi, 3.0 * np.pi),
        convention="physical",
    )
    sol = maximize_timing(problem, tol_tau=1e-6)
    assert abs(sol.tau_star - TWO_PI) <= 0.3
    assert sol.f_star <= 1.0 + 1e-9
    paper = maximize_timing(
        TimingProblem(PurePair(0.6, 0.8), NoiseParams(0.1, 0.05), (np.pi, 3.0 * np.pi)),
        tol_tau=1e-6,
    )
    assert sol.f_star <= paper.f_star + 1e-9
