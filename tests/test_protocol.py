import numpy as np
import pytest

from conftest import brute_force_run, random_bloch, random_pure_pair, random_werner

from dfsteleport import qlinalg
from dfsteleport.channels import alice_factor_matrix
from dfsteleport.noisekernel import DecoherenceFactors, NoiseParams, factors_at
from dfsteleport.protocol import (
    BELL_ORDER,
    BellOutcome,
    PurePair,
    Strategy,
    Werner,
    _BELL_AMPS,
    _CORRECTIONS,
    _check_sender_map,
    analytic_branch_states,
    build_joint,
    classical_bits_for,
    resource_state,
    run_protocol,
    run_with_factors,
)
from dfsteleport.qlinalg import BlochAngles, ContractViolationError, PureKet, tensor

TWO_PI = 2.0 * np.pi
NOISELESS = NoiseParams(gamma=0.0, lambda_c=1.0)
SQRT_HALF = 1.0 / np.sqrt(2.0)


def noisy_factors(rng) -> DecoherenceFactors:
    alice = NoiseParams(rng.uniform(0.0, 1.0), rng.uniform(0.01, 5.0))
    bob = NoiseParams(rng.uniform(0.0, 1.0), rng.uniform(0.01, 5.0))
    return factors_at(alice, bob, rng.uniform(0.0, 4.0 * np.pi))


# ------------------------------------------------------------------- resources


def test_pure_pair_validation():
    with pytest.raises(ValueError):
        PurePair(mu=0.6, lam=0.7)
    with pytest.raises(ValueError):
        PurePair(mu=-0.6, lam=0.8)
    assert PurePair(0.6, 0.8).concurrence == pytest.approx(0.96)
    pair = PurePair.from_concurrence(0.8)
    assert pair.concurrence == pytest.approx(0.8, rel=1e-12)
    assert pair.mu <= pair.lam


def test_werner_validation():
    with pytest.raises(ValueError):
        Werner(p=1.2)
    assert Werner(0.6).concurrence == pytest.approx(0.4)
    assert Werner(0.2).concurrence == 0.0
    assert Werner.from_concurrence(0.8).p == pytest.approx(2.6 / 3.0, rel=1e-14)


def test_x_state_is_the_resource_state_entries():
    # the five numbers every closed form reads, against the density matrix that
    # resource_state builds from the kets and the Bell projector
    rng = np.random.default_rng(39)
    pairs = [random_pure_pair(rng) for _ in range(50)]
    resources = [
        PurePair(0.0, 1.0),
        PurePair(1.0, 0.0),
        *(Werner(p) for p in (0.0, 1.0 / 3.0, 1.0)),
        *pairs,
        *(PurePair(pair.lam, pair.mu) for pair in pairs),
        *(random_werner(rng) for _ in range(100)),
    ]
    corners = np.eye(4, dtype=bool)
    corners[0, 3] = corners[3, 0] = True
    for resource in resources:
        x = resource.x_state
        r00, r11, r22, r33, z = x
        mat = resource_state(resource).mat
        want = [mat[0, 0], mat[1, 1], mat[2, 2], mat[3, 3], mat[0, 3]]
        np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-15)
        assert mat[3, 0] == pytest.approx(z, rel=0.0, abs=1e-15)
        assert np.all(mat[~corners] == 0.0)
        # the premise of the physical pair: exact where s q = 0
        assert r11 + r22 == 0.0 or (r22 + r33) - (r00 + r11) == 0.0


def test_bell_kets_orthonormal():
    for i, a in enumerate(BELL_ORDER):
        for j, b in enumerate(BELL_ORDER):
            overlap = np.vdot(_BELL_AMPS[a], _BELL_AMPS[b])
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)


def test_retained_flags():
    assert not BellOutcome.PHI_PLUS.retained
    assert not BellOutcome.PHI_MINUS.retained
    assert BellOutcome.PSI_PLUS.retained
    assert BellOutcome.PSI_MINUS.retained


# ----------------------------------------------------------------- build_joint


def test_build_joint_theta_zero_balanced_pair():
    rho = build_joint(BlochAngles(theta=0.0), PurePair(SQRT_HALF, SQRT_HALF))
    v = np.zeros(8, dtype=complex)
    v[0] = v[3] = SQRT_HALF
    assert np.allclose(rho.mat, np.outer(v, v.conj()), atol=1e-15)


def test_build_joint_werner_p1_is_bell_product():
    rho = build_joint(BlochAngles(theta=np.pi / 2, phi=0.0), Werner(1.0))
    plus = PureKet(np.array([SQRT_HALF, SQRT_HALF]))
    phi = PureKet(np.array([SQRT_HALF, 0.0, 0.0, SQRT_HALF]))
    want = tensor(plus.projector(), phi.projector())
    assert np.allclose(rho.mat, want.mat, atol=1e-15)


def test_build_joint_werner_p0_is_maximally_mixed_pair():
    ang = BlochAngles(theta=1.1, phi=2.2)
    rho = build_joint(ang, Werner(0.0))
    want = tensor(ang.ket().projector(), resource_state(Werner(0.0)))
    assert np.allclose(rho.mat, want.mat, atol=1e-15)
    assert np.allclose(resource_state(Werner(0.0)).mat, np.eye(4) / 4.0)


# ---------------------------------------------------------------- run_protocol


def test_noiseless_teleportation_is_perfect():
    run = run_protocol(
        BlochAngles(theta=1.0, phi=0.5),
        PurePair(SQRT_HALF, SQRT_HALF),
        NOISELESS,
        NOISELESS,
        TWO_PI,
    )
    for branch in run.branches:
        assert branch.probability == pytest.approx(0.25, abs=1e-14)
        assert branch.fidelity_vs_input == pytest.approx(1.0, abs=1e-12)
        assert branch.fidelity_paper == pytest.approx(1.0, abs=1e-12)
    assert run.classical_bits == pytest.approx(1.5, abs=1e-15)


def test_werner_probabilities_flat_for_any_noise():
    rng = np.random.default_rng(31)
    for _ in range(10):
        run = run_with_factors(random_bloch(rng), random_werner(rng), noisy_factors(rng))
        for branch in run.branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-12)


def test_pure_pair_born_probabilities():
    # exact Born values (|alpha*mu|^2 + |beta*lambda|^2)/2 for the phi pair,
    # (|alpha*lambda|^2 + |beta*mu|^2)/2 for the psi pair
    rng = np.random.default_rng(32)
    for _ in range(10):
        ang, pair = random_bloch(rng), random_pure_pair(rng)
        run = run_with_factors(ang, pair, noisy_factors(rng))
        aa, bb = abs(ang.alpha) ** 2, abs(ang.beta) ** 2
        p_phi = (aa * pair.mu**2 + bb * pair.lam**2) / 2.0
        p_psi = (aa * pair.lam**2 + bb * pair.mu**2) / 2.0
        assert run.branch(BellOutcome.PHI_PLUS).probability == pytest.approx(p_phi, abs=1e-13)
        assert run.branch(BellOutcome.PHI_MINUS).probability == pytest.approx(p_phi, abs=1e-13)
        assert run.branch(BellOutcome.PSI_PLUS).probability == pytest.approx(p_psi, abs=1e-13)
        assert run.branch(BellOutcome.PSI_MINUS).probability == pytest.approx(p_psi, abs=1e-13)
        assert sum(b.probability for b in run.branches) == pytest.approx(1.0, abs=1e-12)


def test_dfs_branches_invariant_under_sender_noise():
    ang = BlochAngles(theta=1.2, phi=0.3)
    pair = PurePair(0.6, 0.8)
    bob = NoiseParams(0.1, 0.01)
    runs = [
        run_protocol(ang, pair, NoiseParams(gamma, 1.0), bob, TWO_PI)
        for gamma in (0.2, 0.9)
    ]
    for outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS):
        a = runs[0].branch(outcome)
        b = runs[1].branch(outcome)
        assert np.max(np.abs(a.bob_conditional.mat - b.bob_conditional.mat)) <= 1e-14
        assert abs(a.fidelity_vs_input - b.fidelity_vs_input) <= 1e-14
        assert abs(a.probability - b.probability) <= 1e-14


def test_psi_minus_output_equals_psi_plus_output():
    rng = np.random.default_rng(33)
    for resource_fn in (random_pure_pair, random_werner):
        for _ in range(20):
            run = run_with_factors(random_bloch(rng), resource_fn(rng), noisy_factors(rng))
            plus = run.branch(BellOutcome.PSI_PLUS)
            minus = run.branch(BellOutcome.PSI_MINUS)
            if plus.degenerate or minus.degenerate:
                continue
            assert np.max(np.abs(plus.bob_output.mat - minus.bob_output.mat)) <= 1e-12


def test_paper_scaled_is_four_probability_times_conditional():
    rng = np.random.default_rng(34)
    for _ in range(20):
        run = run_with_factors(random_bloch(rng), random_pure_pair(rng), noisy_factors(rng))
        for branch in run.branches:
            if branch.degenerate:
                continue
            want = 4.0 * branch.probability * branch.bob_conditional.mat
            assert np.max(np.abs(branch.bob_paper_scaled.mat - want)) <= 1e-12


def test_phi_coherence_scales_with_both_factors():
    ang = BlochAngles(theta=1.0, phi=0.4)
    pair = PurePair(0.6, 0.8)
    fac = factors_at(NoiseParams(0.4, 0.7), NoiseParams(0.3, 0.9), 2.5)
    free = factors_at(NOISELESS, NOISELESS, 2.5)
    noisy_run = run_with_factors(ang, pair, fac)
    free_run = run_with_factors(ang, pair, free)
    ratio = (
        noisy_run.branch(BellOutcome.PHI_PLUS).bob_paper_scaled.mat[0, 1]
        / free_run.branch(BellOutcome.PHI_PLUS).bob_paper_scaled.mat[0, 1]
    )
    assert abs(ratio) == pytest.approx(abs(fac.a * fac.b), rel=1e-12)
    # psi coherence carries only the receiver factor
    ratio_psi = (
        noisy_run.branch(BellOutcome.PSI_PLUS).bob_paper_scaled.mat[0, 1]
        / free_run.branch(BellOutcome.PSI_PLUS).bob_paper_scaled.mat[0, 1]
    )
    assert abs(ratio_psi) == pytest.approx(abs(fac.b), rel=1e-12)


def test_classical_bits_groupings():
    flat = {o: 0.25 for o in BELL_ORDER}
    assert classical_bits_for(flat, Strategy.RETAIN_PSI_ONLY) == 1.5
    assert classical_bits_for(flat, Strategy.RETAIN_ALL) == 2.0
    skew = {
        BellOutcome.PHI_PLUS: 0.5,
        BellOutcome.PHI_MINUS: 0.0,
        BellOutcome.PSI_PLUS: 0.25,
        BellOutcome.PSI_MINUS: 0.25,
    }
    assert classical_bits_for(skew, Strategy.RETAIN_PSI_ONLY) == 1.5


def test_degenerate_branch_flagged_not_divided():
    # product resource (mu=0) with a spin-up input never triggers phi outcomes
    run = run_with_factors(
        BlochAngles(theta=0.0),
        PurePair(mu=0.0, lam=1.0),
        factors_at(NOISELESS, NOISELESS, 1.0),
    )
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS):
        branch = run.branch(outcome)
        assert branch.degenerate
        assert branch.probability == pytest.approx(0.0, abs=1e-15)
        assert branch.bob_conditional is None
        assert branch.bob_output is None
        assert branch.fidelity_vs_input is None
        assert branch.bob_paper_scaled.trace == pytest.approx(0.0, abs=1e-14)
    for outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS):
        assert not run.branch(outcome).degenerate


def test_retained_branches_view():
    rng = np.random.default_rng(35)
    run = run_with_factors(random_bloch(rng), Werner(0.7), noisy_factors(rng))
    assert tuple(b.outcome for b in run.retained_branches) == (
        BellOutcome.PSI_PLUS,
        BellOutcome.PSI_MINUS,
    )
    run_all = run_with_factors(
        random_bloch(rng), Werner(0.7), noisy_factors(rng), Strategy.RETAIN_ALL
    )
    assert len(run_all.retained_branches) == 4


# --------------------------------------------------- analytic branch equality


def test_analytic_werner_cross_relations():
    rng = np.random.default_rng(36)
    for _ in range(50):
        ang, w = random_bloch(rng), random_werner(rng)
        states = analytic_branch_states(ang, w, noisy_factors(rng))
        phi = states[BellOutcome.PHI_PLUS].mat
        psi = states[BellOutcome.PSI_PLUS].mat
        assert psi[0, 0] == pytest.approx(phi[1, 1], abs=1e-15)
        assert psi[1, 1] == pytest.approx(phi[0, 0], abs=1e-15)


def test_brute_force_pipeline_reproduces_analytic_states():
    rng = np.random.default_rng(37)
    worst = 0.0
    for draw in range(500):
        ang = random_bloch(rng)
        resource = random_pure_pair(rng) if draw % 2 == 0 else random_werner(rng)
        fac = noisy_factors(rng)
        run = brute_force_run(ang, resource, fac)
        states = analytic_branch_states(ang, resource, fac)
        for outcome in BELL_ORDER:
            # Werner analytic states are unit trace, which equals the
            # trace-4p scaling at the flat quarter probabilities
            brute = run.branch(outcome).bob_paper_scaled.mat
            want = states[outcome].mat
            worst = max(worst, float(np.max(np.abs(brute - want))))
    assert worst <= 1e-12


def test_balanced_pair_spin_up_input_psi_branch():
    # alpha=1 with the balanced pair: the psi-branch conditional is |down><down|
    # scaled to trace one, independent of every decoherence factor
    fac = factors_at(NoiseParams(0.4, 0.7), NoiseParams(0.3, 0.9), 2.0)
    run = run_with_factors(BlochAngles(theta=0.0), PurePair(SQRT_HALF, SQRT_HALF), fac)
    branch = run.branch(BellOutcome.PSI_PLUS)
    assert branch.probability == pytest.approx(0.25, abs=1e-14)
    assert np.allclose(branch.bob_paper_scaled.mat, np.diag([0.0, 1.0]), atol=1e-14)
    states = analytic_branch_states(BlochAngles(theta=0.0), PurePair(SQRT_HALF, SQRT_HALF), fac)
    assert np.allclose(states[BellOutcome.PSI_PLUS].mat, branch.bob_paper_scaled.mat, atol=1e-14)
    # sigma_x correction maps it back onto the spin-up input
    assert np.allclose(branch.bob_output.mat, np.diag([1.0, 0.0]), atol=1e-13)
    assert branch.fidelity_vs_input == pytest.approx(1.0, abs=1e-13)


def test_corrections_are_unitary():
    for outcome in BELL_ORDER:
        u = np.asarray(_CORRECTIONS[outcome])
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)


def test_run_protocol_rejects_negative_tau():
    with pytest.raises(ValueError):
        run_protocol(BlochAngles(1.0), Werner(0.5), NOISELESS, NOISELESS, -1.0)


def test_run_with_factors_rejects_hand_built_non_physical_factors():
    # a valid factor grid whose eigenvalues include -1.24: the sender's map is
    # not positive, whatever the input (the poles included, where no state
    # built from them is negative)
    fac = DecoherenceFactors(f=1.0, g=-1.0, a=1.0, b=1.0, tau=0.0)
    for theta in (0.0, np.pi / 2.0, np.pi):
        with pytest.raises(ContractViolationError):
            run_with_factors(BlochAngles(theta), PurePair(SQRT_HALF, SQRT_HALF), fac)


def test_run_with_factors_branch_states_are_frozen():
    fac = factors_at(NoiseParams(0.2, 0.3), NoiseParams(0.1, 0.5), 2.0)
    run = run_with_factors(BlochAngles(1.0, 0.4), Werner(0.8), fac, Strategy.RETAIN_ALL)
    for branch in run.branches:
        for state in (branch.bob_paper_scaled, branch.bob_conditional, branch.bob_output):
            with pytest.raises(ValueError):
                state.mat[0, 0] = 0.0


# ---------------------------------------------- closed form against the 8x8 oracle


def _oracle_cases(rng):
    """Random inputs, both resources and strategies, baths at T >= 0 on both wings."""
    for draw in range(400):
        alice = NoiseParams(rng.uniform(0.0, 1.0), rng.uniform(0.01, 5.0), (0.0, rng.uniform(0.05, 3.0))[draw % 2])
        bob = NoiseParams(rng.uniform(0.0, 1.0), rng.uniform(0.01, 5.0), (0.0, rng.uniform(0.05, 3.0))[draw // 2 % 2])
        resource = random_pure_pair(rng) if draw % 4 < 2 else random_werner(rng)
        strategy = (Strategy.RETAIN_PSI_ONLY, Strategy.RETAIN_ALL)[draw // 4 % 2]
        yield random_bloch(rng), resource, factors_at(alice, bob, rng.uniform(0.0, 4.0 * np.pi)), strategy
    # degenerate branches: a pole input with a product pair, or a noiseless run
    fac = factors_at(NoiseParams(0.4, 0.7, 1.0), NoiseParams(0.3, 0.9, 0.5), 2.0)
    for theta in (0.0, np.pi):
        for resource in (PurePair(0.0, 1.0), PurePair(1.0, 0.0), Werner(1.0)):
            for strategy in Strategy:
                yield BlochAngles(theta), resource, fac, strategy
                yield BlochAngles(theta), resource, factors_at(NOISELESS, NOISELESS, 0.0), strategy


def test_closed_form_run_matches_brute_force_oracle():
    rng = np.random.default_rng(38)
    degenerate = 0
    for ang, resource, fac, strategy in _oracle_cases(rng):
        run, oracle = run_with_factors(ang, resource, fac, strategy), brute_force_run(ang, resource, fac, strategy)
        assert run.classical_bits == pytest.approx(oracle.classical_bits, abs=1e-14)
        for got, want in zip(run.branches, oracle.branches):
            assert got.outcome is want.outcome and got.degenerate is want.degenerate
            degenerate += got.degenerate
            assert got.probability == pytest.approx(want.probability, abs=1e-14)
            assert got.fidelity_paper == pytest.approx(want.fidelity_paper, abs=1e-14)
            if want.degenerate:
                assert got.fidelity_vs_input is got.bob_conditional is got.bob_output is None
            else:
                assert got.fidelity_vs_input == pytest.approx(want.fidelity_vs_input, abs=1e-14)
            for name in ("bob_paper_scaled", "bob_conditional", "bob_output"):
                if getattr(want, name) is not None:
                    assert np.max(np.abs(getattr(got, name).mat - getattr(want, name).mat)) <= 1e-14, name
                    assert getattr(got, name).normalized is getattr(want, name).normalized
    assert degenerate >= 20


def test_run_path_does_no_eigen_solve_or_state_check(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the run path re-checked a state")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(qlinalg.DensityOp, "__post_init__", forbidden)
    alice, bob = NoiseParams(0.3, 0.7, 1.0), NoiseParams(0.2, 0.4)
    for resource in (PurePair(0.6, 0.8), Werner(0.7)):
        for strategy in Strategy:
            run_protocol(BlochAngles(1.0, 0.4), resource, alice, bob, 3.0, strategy)
            run_with_factors(BlochAngles(2.0, 5.0), resource, factors_at(alice, bob, 1.5), strategy)
        analytic_branch_states(BlochAngles(0.7, 2.0), resource, factors_at(alice, bob, 2.5))


def test_analytic_branch_states_are_psd_for_any_valid_factors():
    # wrapped without a check: PSD by construction whenever |a|, |b| <= 1
    rng = np.random.default_rng(41)
    for draw in range(2000):
        f, g, a, b = np.sqrt(rng.uniform(0.0, 1.0, 4)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 4))
        fac = DecoherenceFactors(f=f, g=g, a=a, b=b, tau=1.0)
        resource = random_pure_pair(rng) if draw % 2 == 0 else random_werner(rng)
        for state in analytic_branch_states(random_bloch(rng), resource, fac).values():
            assert np.linalg.eigvalsh(state.mat).min() >= -1e-12


# ------------------------------------------------------------ sender-map check


def test_sender_map_check_agrees_with_the_factor_matrix_spectrum():
    rng = np.random.default_rng(39)
    checked = {True: 0, False: 0}
    for _ in range(2000):
        f, g, a = np.sqrt(rng.uniform(0.0, 1.0, 3)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 3))
        fac = DecoherenceFactors(f=f, g=g, a=a, b=0.5, tau=1.0)
        lowest = np.linalg.eigvalsh(alice_factor_matrix(fac).factors).min()
        # the two equal middle rows pin one eigenvalue at 0, so a positive map
        # has its lowest eigenvalue at rounding level
        if -1e-6 < lowest < -1e-12:  # near the tolerance edge
            continue
        positive = bool(lowest >= -1e-12)
        try:
            _check_sender_map(fac)
            accepted = True
        except ContractViolationError:
            accepted = False
        assert accepted is positive
        checked[positive] += 1
    assert min(checked.values()) >= 100


@pytest.mark.parametrize("temperature", (0.0, 0.5, 20.0))
def test_sender_map_check_accepts_every_physical_factor_set(temperature):
    bob = NoiseParams(0.1, 0.5)
    for gamma in (0.0, 1e-8, 0.1, 2.0, 50.0):
        for lam in (0.01, 1.0, 100.0):
            alice = NoiseParams(gamma, lam, temperature)
            for tau in (0.0, 1e-12, 1e-6, 0.3, 6.28, 1e4):
                _check_sender_map(factors_at(alice, bob, tau))
