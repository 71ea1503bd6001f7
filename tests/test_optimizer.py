import numpy as np
import pytest
from scipy.optimize import brentq

from dfsteleport.metrics import average_fts_analytic, average_fts_numeric, bloch_fidelity_fn
from dfsteleport.noisekernel import NoiseParams, decay_rate, factors_at, receiver_factor
from dfsteleport import optimizer
from dfsteleport.optimizer import TimingProblem, grid_points, maximize_timing, objective_fn, sweep
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
    curve = np.asarray(sweep(problem, 101))
    want = 2.0 / 3.0 + np.cos(curve[:, 0]) / 3.0
    assert np.max(np.abs(curve[:, 1] - want)) <= 1e-13


def test_sweep_matches_receiver_only_formula():
    # proves sender-bath independence of the objective: the curve is a pure
    # function of receiver gamma/lambda and the resource concurrence
    problem = pure_problem(0.8, 0.1, 0.05, (0.0, 4.0 * TWO_PI))
    curve = np.asarray(sweep(problem, 201))
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
    curve = np.asarray(sweep(problem, 301))
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
    assert sol.f_star >= np.max(np.asarray(sol.grid)[:, 1]) - 1e-12
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


def count_calls(monkeypatch, name, limit=None) -> list:
    """Record the tau of every call of ``optimizer.<name>``; fail past ``limit`` calls."""
    taus = []
    real = getattr(optimizer, name)

    def counted(params, tau, *args):
        taus.append(tau)
        if limit is not None and len(taus) > limit:
            raise AssertionError(f"more than {limit} calls of {name}")
        return real(params, tau, *args)

    monkeypatch.setattr(optimizer, name, counted)
    return taus


def rate_h(bob, tau, method="closed"):
    """h(tau) of the optimizer docstring: d Re b/dtau = -exp(-H) * h."""
    w = bob.omega0 * tau
    return decay_rate(bob, tau, method) * np.cos(w) + bob.omega0 * np.sin(w)


def golden_max(fn, lo, hi, tol):
    """Golden-section search on the fidelity itself, the optimizer's former refinement."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# receivers at T = 0 and T > 0, including a tail where |b| ~ 1e-9 at the maximum
ORACLE_PROBLEMS = [
    TimingProblem(PurePair.from_concurrence(0.8), NoiseParams(0.1, 0.05), (np.pi, 8.0 * np.pi)),
    TimingProblem(PurePair.from_concurrence(1.0), NoiseParams(0.1, 0.5, 1.0), (np.pi, 4.0 * np.pi), "physical"),
    TimingProblem(PurePair(0.6, 0.8), NoiseParams(0.3, 2.0, 0.5), (np.pi, 4.0 * np.pi), "physical"),
    TimingProblem(Werner.from_concurrence(0.8), NoiseParams(0.239, 3.40, 1.61), (4.75, 10.70)),
    TimingProblem(Werner(0.5), NoiseParams(0.05, 0.02, 2.0), (0.0, 6.0 * np.pi)),
    TimingProblem(Werner(0.9), NoiseParams(5.0, 5.0), (np.pi, 4.0 * np.pi)),
    TimingProblem(PurePair.from_concurrence(0.6), NoiseParams(0.2, 0.3, 0.4, omega0=2.0), (1.0, 7.0)),
]


@pytest.mark.parametrize("problem", ORACLE_PROBLEMS)
def test_maximize_reports_sign_changes_of_the_rate(problem):
    tol = 1e-7
    sol = maximize_timing(problem, tol_tau=tol)
    assert sol.local_maxima
    for tau, _ in sol.local_maxima:
        assert rate_h(problem.bob_noise, tau - tol) < 0.0 <= rate_h(problem.bob_noise, tau + tol)
    assert sol.tau_star in problem.window or sol.tau_star in [t for t, _ in sol.local_maxima]


def test_maximize_agrees_with_golden_section_on_the_fidelity():
    # golden-section compares fidelities, so it resolves tau only where they
    # still differ: slope*|b| > 1e-6 keeps its rounding error below 2e-5
    tol = 1e-4
    checked = 0
    for problem in ORACLE_PROBLEMS:
        fn = objective_fn(problem)
        slope = fn(0.0) - float(average_fts_analytic(problem.resource, 0.0, problem.convention))
        for tau, _ in maximize_timing(problem, tol_tau=tol).local_maxima:
            if slope * abs(receiver_factor(problem.bob_noise, tau)) > 1e-6:
                step = optimizer._MAX_GRID_STEP
                assert golden_max(fn, tau - step, tau + step, 1e-9) == pytest.approx(tau, abs=tol)
                checked += 1
    assert checked >= 6


@pytest.mark.parametrize("problem", ORACLE_PROBLEMS[:4])
def test_maximize_roots_match_brentq_on_the_quadrature_rate(problem):
    tol = 1e-7
    sol = maximize_timing(problem, tol_tau=tol)
    for tau, _ in sol.local_maxima:
        root = brentq(lambda t: rate_h(problem.bob_noise, t, "quadrature"), tau - 1e-3, tau + 1e-3, xtol=1e-12)
        assert root == pytest.approx(tau, abs=tol)


def test_maximize_flat_fidelity_reports_the_maxima_of_re_b(monkeypatch):
    # a fully decohered receiver flattens the Werner curve to p/6 + 1/2 within
    # 1e-23, so the earliest candidate, the window start, wins the tie; the
    # maxima are still those of Re b, one per period, found off the grid
    evaluated = count_calls(monkeypatch, "receiver_factor")
    problem = TimingProblem(Werner.from_concurrence(0.8), NoiseParams(5.0, 5.0), (np.pi, 4.0 * np.pi))
    sol = maximize_timing(problem)
    assert sol.tau_star == problem.window[0]
    assert len(sol.local_maxima) == 2
    assert not set(t for t, _ in sol.local_maxima) & set(np.asarray(sol.grid)[:, 0])
    # one receiver factor per grid point, and one per reported maximum
    assert len(evaluated) == grid_points(problem.window, problem.bob_noise.omega0) + len(sol.local_maxima)


def test_maximize_bisects_each_bracket_off_the_grid(monkeypatch):
    evaluated = count_calls(monkeypatch, "receiver_factor")
    problem = pure_problem(0.8, 0.1, 0.05, (np.pi, 3.0 * np.pi))
    sol = maximize_timing(problem)
    assert len(sol.local_maxima) == 1
    assert sol.tau_star == sol.local_maxima[0][0]
    assert sol.tau_star not in set(np.asarray(sol.grid)[:, 0])
    assert len(evaluated) == grid_points(problem.window, problem.bob_noise.omega0) + 1


@pytest.mark.parametrize("resource", [PurePair(0.6, 0.8), Werner(0.7)], ids=repr)
@pytest.mark.parametrize("convention", ["paper", "physical"])
def test_one_coefficient_read_per_problem(monkeypatch, resource, convention):
    # the affine pair is read once per sweep or maximization, not once per tau point,
    # and the curve is the closed-form average at each point bit for bit
    reads = []
    real = optimizer.average_fts_affine

    def counted(*args):
        reads.append(args)
        return real(*args)

    monkeypatch.setattr(optimizer, "average_fts_affine", counted)
    problem = TimingProblem(resource, NoiseParams(0.1, 0.05), (np.pi, 3.0 * np.pi), convention)
    sol = maximize_timing(problem)
    assert reads == [(resource, convention)]
    reads.clear()
    curve = np.asarray(sweep(problem, 301))
    assert reads == [(resource, convention)]
    want = [average_fts_analytic(resource, receiver_factor(problem.bob_noise, t), convention) for t in curve[:, 0]]
    assert curve[:, 1].tolist() == want
    assert np.array_equal(sol.grid, sweep(problem, grid_points(problem.window, problem.bob_noise.omega0)))


def test_maximize_slope_zero_resource_keeps_the_window_start():
    # concurrence 0: the fidelity is 2/3 everywhere, and Re b has one interior maximum
    problem = pure_problem(0.0, 0.1, 0.01, (np.pi, 4.0 * np.pi))
    sol = maximize_timing(problem)
    assert sol.tau_star == np.pi and sol.f_star == 2.0 / 3.0
    assert len(sol.local_maxima) == 1


def test_maximize_ends_at_any_tol_tau(monkeypatch):
    # bisection stops once the midpoint rounds to an end: about 50 halvings of
    # a pi/25 bracket near tau = 2 pi, plus the two ends
    problem = pure_problem(0.8, 0.1, 0.05, (np.pi, 3.0 * np.pi))
    rates = count_calls(monkeypatch, "decay_rate", limit=64)
    sol = maximize_timing(problem, tol_tau=1e-300)
    assert len(sol.local_maxima) == 1
    tau = sol.tau_star
    assert rate_h(problem.bob_noise, tau) == pytest.approx(0.0, abs=1e-14)
    assert len(rates) <= 64


@pytest.mark.parametrize("omega0", [49.5, 75.25])
def test_maximize_grid_follows_the_receiver_frequency(omega0):
    # Re b oscillates in omega0*tau: a pi/50 grid in tau alone misses most of
    # its maxima here, and at omega0 = 75.25 reports the window start
    gamma, lam, lo, hi = 0.1, 0.05, np.pi, 4.0 * np.pi
    problem = TimingProblem(PurePair.from_concurrence(0.8), NoiseParams(gamma, lam, omega0=omega0), (lo, hi))
    sol = maximize_timing(problem)
    tau = np.linspace(lo, hi, 200_001)
    dense_step = tau[1] - tau[0]
    fidelity = 2.0 / 3.0 + 0.8 / 3.0 * np.exp(-2.0 * gamma * np.log1p((lam * tau) ** 2)) * np.cos(omega0 * tau)
    h = 4.0 * gamma * lam**2 * tau / (1.0 + (lam * tau) ** 2) * np.cos(omega0 * tau) + omega0 * np.sin(omega0 * tau)
    rises = tau[1:][(h[:-1] < 0.0) & (h[1:] >= 0.0)]
    # a maximum within one grid step of a window end has no grid bracket; that end is a candidate
    grid_step = (hi - lo) / (grid_points(problem.window, omega0) - 1)
    interior = rises[(rises > lo + grid_step) & (rises < hi - grid_step)]
    found = np.array([t for t, _ in sol.local_maxima])
    assert len(found) == len(interior) > 70
    assert np.max(np.abs(found - interior)) <= 2.0 * dense_step
    assert sol.f_star >= fidelity.max()
    assert abs(sol.tau_star - tau[np.argmax(fidelity)]) <= 2.0 * dense_step


@pytest.mark.parametrize("bob", [NoiseParams(50.0, 50.0), NoiseParams(50.5, 10.0)])
def test_maximize_finds_no_bracket_where_re_b_underflows(bob):
    # exp(-H) underflows past H ~ 745: from the window start on the first
    # receiver, and near tau = 4 on the second, where Re b rises from
    # negative values into exact zeros.  That rise brackets no sign change
    # of h, so nothing is reported, and the earliest of the tied ends wins
    problem = TimingProblem(Werner(0.9), bob, (np.pi, 2.0 * np.pi))
    sol = maximize_timing(problem)
    assert sol.local_maxima == ()
    assert sol.tau_star == np.pi


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
