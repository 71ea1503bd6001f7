import numpy as np
import pytest

from conftest import random_density

from dfsteleport.channels import (
    FactorMatrix,
    alice_factor_matrix,
    apply_channel,
    bob_factor_matrix,
    joint_evolve,
)
from dfsteleport.noisekernel import NoiseParams, cumulative_decay, factors_at
from dfsteleport.qlinalg import DensityOp, PureKet

TWO_PI = 2.0 * np.pi
NOISELESS = NoiseParams(gamma=0.0, lambda_c=1.0)
UNIT2 = FactorMatrix(np.ones((2, 2)))
UNIT4 = FactorMatrix(np.ones((4, 4)))


def factors(alice_gamma=0.1, alice_lam=0.1, bob_gamma=0.1, bob_lam=0.01, tau=TWO_PI, temps=(0.0, 0.0)):
    return factors_at(
        NoiseParams(alice_gamma, alice_lam, temps[0]),
        NoiseParams(bob_gamma, bob_lam, temps[1]),
        tau,
    )


# -------------------------------------------------------------- factor matrix


def test_factor_matrix_validation():
    with pytest.raises(ValueError):
        FactorMatrix(np.array([[1.0, 0.5], [0.4, 1.0]], dtype=complex))  # not conj-symmetric
    with pytest.raises(ValueError):
        FactorMatrix(np.array([[0.9, 0.5], [0.5, 1.0]], dtype=complex))  # diagonal off
    with pytest.raises(ValueError):
        FactorMatrix(np.array([[1.0, 1.2], [1.2, 1.0]], dtype=complex))  # magnitude > 1


def test_alice_factor_matrix_noiseless_at_tau_zero():
    fac = factors_at(NOISELESS, NOISELESS, 0.0)
    fm = alice_factor_matrix(fac)
    assert np.allclose(fm.factors, np.ones((4, 4)), atol=1e-15)


def test_alice_factor_matrix_pattern():
    fac = factors(alice_gamma=0.3, alice_lam=0.7, tau=1.3)
    fm = alice_factor_matrix(fac).factors
    f, g, a = fac.f, fac.g, fac.a
    assert fm[0, 1] == f and fm[0, 2] == f and fm[0, 3] == a
    assert fm[1, 2] == 1.0 and fm[2, 1] == 1.0
    assert fm[1, 3] == np.conj(g) and fm[2, 3] == np.conj(g)
    assert np.allclose(fm, fm.conj().T)
    assert np.allclose(np.diagonal(fm), 1.0)


def test_alice_factor_matrix_exponent_arithmetic():
    # zero-temperature Ohmic exponents: |single flip| = d, |double flip| = d^4
    alice = NoiseParams(0.2, 0.5)
    fac = factors_at(alice, NOISELESS, 2.0)
    d = np.exp(-cumulative_decay(alice, 2.0))
    fm = alice_factor_matrix(fac).factors
    assert abs(fm[0, 1]) == pytest.approx(d, rel=1e-13)
    assert abs(fm[0, 3]) == pytest.approx(d**4, rel=1e-13)


def test_alice_factor_matrix_dfs_entry_is_exactly_one():
    for gamma, lam, temp in [(0.0, 1.0, 0.0), (0.5, 0.05, 0.0), (2.0, 1.0, 1.0)]:
        fac = factors_at(NoiseParams(gamma, lam, temp), NOISELESS, 3.0)
        fm = alice_factor_matrix(fac).factors
        assert fm[1, 2] == 1.0 + 0.0j
        assert fm[2, 1] == 1.0 + 0.0j


def test_bob_factor_matrix_values():
    fac = factors(bob_gamma=0.1, bob_lam=0.01)
    fm = bob_factor_matrix(fac).factors
    assert abs(fm[0, 1]) == pytest.approx(0.9992122965049609, rel=1e-12)
    fac_fast = factors(bob_gamma=0.1, bob_lam=5.0)
    fm_fast = bob_factor_matrix(fac_fast).factors
    assert abs(fm_fast[0, 1]) == pytest.approx(np.exp(-0.2 * np.log1p((10 * np.pi) ** 2)), rel=1e-12)
    assert abs(fm_fast[0, 1]) == pytest.approx(0.251797891450172, rel=1e-12)


# -------------------------------------------------------------- apply_channel


def test_apply_channel_identity_factors():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4)
    out = apply_channel(rho, UNIT4)
    assert np.array_equal(out.mat, rho.mat)


def test_apply_channel_fixes_diagonal_states():
    rho = DensityOp(np.diag([0.5, 0.2, 0.2, 0.1]).astype(complex))
    out = apply_channel(rho, alice_factor_matrix(factors()))
    assert np.array_equal(out.mat, rho.mat)


def test_apply_channel_bell_state_scaling():
    # double-flip coherence of |phi+> picks up the factor a
    fac = factors(alice_gamma=0.4, alice_lam=0.8, tau=1.7)
    phi = PureKet(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)).projector()
    out = apply_channel(phi, alice_factor_matrix(fac))
    assert out.mat[0, 3] == pytest.approx(0.5 * fac.a, abs=1e-15)
    assert out.mat[3, 0] == pytest.approx(0.5 * np.conj(fac.a), abs=1e-15)
    assert out.mat[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert out.mat[3, 3] == pytest.approx(0.5, abs=1e-15)


def test_apply_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(DensityOp(np.eye(2) / 2.0), UNIT4)


def test_apply_channel_preserves_trace_and_populations():
    rng = np.random.default_rng(40)
    fm = alice_factor_matrix(factors(alice_gamma=0.7, alice_lam=2.0, tau=0.9))
    for _ in range(100):
        rho = random_density(rng, 4)
        out = apply_channel(rho, fm)
        assert np.array_equal(np.diagonal(out.mat), np.diagonal(rho.mat))


def test_apply_channel_positivity_random():
    rng = np.random.default_rng(41)
    fms = [
        alice_factor_matrix(factors(alice_gamma=g, alice_lam=l, tau=t))
        for g, l, t in [(0.1, 0.05, TWO_PI), (0.5, 1.0, 1.0), (2.0, 5.0, 3.0), (0.0, 1.0, 0.7)]
    ]
    for i in range(1000):
        rho = random_density(rng, 4)
        out = apply_channel(rho, fms[i % len(fms)])
        assert np.min(np.linalg.eigvalsh(out.mat)) >= -1e-10


def test_alice_channel_is_completely_positive():
    # the Choi matrix of an entrywise map is the factor matrix itself (padded
    # with zeros), so CP reduces to the factor matrix being PSD
    for gamma, lam, temp, tau in [
        (0.1, 0.01, 0.0, TWO_PI),
        (0.5, 0.5, 0.0, 4.0),
        (1.5, 2.0, 1.0, 1.0),
        (0.05, 5.0, 0.5, 10.0),
    ]:
        fac = factors_at(NoiseParams(gamma, lam, temp), NOISELESS, tau)
        fm = alice_factor_matrix(fac)
        assert np.min(np.linalg.eigvalsh(fm.factors)) >= -1e-10
        choi = np.zeros((16, 16), dtype=complex)
        for i in range(4):
            for j in range(4):
                choi[i * 4 + i, j * 4 + j] = fm.factors[i, j]
        assert np.min(np.linalg.eigvalsh(choi)) >= -1e-10


# --------------------------------------------------------------- joint evolve


def test_joint_evolve_identity():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 8)
    out = joint_evolve(rho, UNIT4, UNIT2)
    assert np.array_equal(out.mat, rho.mat)


def test_joint_evolve_order_independence():
    rng = np.random.default_rng(6)
    fac = factors(alice_gamma=0.3, alice_lam=0.4, bob_gamma=0.2, bob_lam=0.6, tau=1.1)
    fa, fb = alice_factor_matrix(fac), bob_factor_matrix(fac)
    alice_embedded = FactorMatrix(np.kron(fa.factors, np.ones((2, 2))))
    bob_embedded = FactorMatrix(np.kron(np.ones((4, 4)), fb.factors))
    for _ in range(20):
        rho = random_density(rng, 8)
        joint = joint_evolve(rho, fa, fb)
        alice_then_bob = apply_channel(apply_channel(rho, alice_embedded), bob_embedded)
        bob_then_alice = apply_channel(apply_channel(rho, bob_embedded), alice_embedded)
        assert np.max(np.abs(joint.mat - alice_then_bob.mat)) <= 1e-15
        assert np.max(np.abs(joint.mat - bob_then_alice.mat)) <= 1e-15


def test_joint_evolve_dfs_block_untouched():
    # up-down/down-up coherences of the sender pair are bit-identical through
    # the sender channel for every receiver index
    rng = np.random.default_rng(8)
    fac = factors(alice_gamma=1.2, alice_lam=0.9, bob_gamma=0.0, bob_lam=1.0, tau=2.2)
    for _ in range(50):
        rho = random_density(rng, 8)
        out = joint_evolve(rho, alice_factor_matrix(fac), bob_factor_matrix(fac))
        got = out.mat.reshape(4, 2, 4, 2)
        want = rho.mat.reshape(4, 2, 4, 2)
        for j in range(2):
            assert np.array_equal(got[1, j, 2, j], want[1, j, 2, j])
            assert np.array_equal(got[2, j, 1, j], want[2, j, 1, j])


def test_joint_evolve_dimension_mismatch():
    with pytest.raises(ValueError):
        joint_evolve(DensityOp(np.eye(4) / 4.0), UNIT4, UNIT2)
