import numpy as np
import pytest

from conftest import random_density, random_hermitian

from dfsteleport.qlinalg import (
    SIGMA_Z,
    BlochAngles,
    ContractViolationError,
    DensityOp,
    PureKet,
    UnsupportedDimensionError,
    eig_hermitian,
    mat_sqrt_psd,
    tensor,
)

UP = PureKet(np.array([1.0, 0.0]))
DOWN = PureKet(np.array([0.0, 1.0]))


def bell_phi_plus() -> PureKet:
    return PureKet(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


# ---------------------------------------------------------------- construction


def test_density_op_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ContractViolationError):
        DensityOp(m)


def test_density_op_rejects_negative_eigenvalue():
    m = np.array([[0.8, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(ContractViolationError):
        DensityOp(m, normalized=False)


def test_density_op_rejects_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        DensityOp(np.eye(3) / 3.0)


def test_density_op_rejects_nan():
    m = np.eye(2, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ContractViolationError):
        DensityOp(m, normalized=False)


def test_pure_ket_requires_normalization():
    with pytest.raises(ContractViolationError):
        PureKet(np.array([1.0, 1.0]))


def test_bloch_angles_range_checks():
    with pytest.raises(ContractViolationError):
        BlochAngles(theta=-0.1)
    with pytest.raises(ContractViolationError):
        BlochAngles(theta=1.0, phi=2.0 * np.pi)
    ang = BlochAngles(theta=np.pi / 3, phi=0.7)
    assert ang.alpha == pytest.approx(np.cos(np.pi / 6))
    assert ang.beta == pytest.approx(np.sin(np.pi / 6) * np.exp(0.7j))


def test_density_mat_is_frozen():
    rho = DensityOp(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.3


def test_derived_states_are_frozen_without_a_recheck():
    # projector and tensor wrap their results unchecked; the arrays are frozen
    # all the same
    pair = bell_phi_plus().projector()
    joint = tensor(DOWN.projector(), pair)
    for state in (pair, joint):
        assert state.normalized
        assert state.trace == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            state.mat[0, 0] = 0.3


def test_projector_rejects_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        PureKet(np.eye(16)[0]).projector()


# --------------------------------------------------------------------- tensor


def test_tensor_identity_case():
    i2 = DensityOp(np.eye(2) / 2.0)
    out = tensor(i2, i2)
    assert np.allclose(out.mat, np.eye(4) / 4.0)


def test_tensor_basis_bookkeeping():
    ket = tensor(UP, DOWN)
    expected = np.zeros(4)
    expected[1] = 1.0
    assert np.allclose(ket.amps, expected)


def test_tensor_joint_projector():
    # input alpha=1 with the balanced pure resource: rank-1 projector onto
    # (|up,up,up> + |up,down,down>)/sqrt(2), basis indices 0 and 3
    chi = PureKet(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    rho = tensor(UP.projector(), chi.projector())
    v = np.zeros(8, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    assert np.allclose(rho.mat, np.outer(v, v.conj()), atol=1e-15)


def test_tensor_rejects_dimension_overflow():
    i4 = DensityOp(np.eye(4) / 4.0)
    with pytest.raises(UnsupportedDimensionError):
        tensor(i4, i4)


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor(UP, DensityOp(np.eye(2) / 2.0))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(7)
    a = random_density(rng, 2, normalized=False)
    b = random_density(rng, 4, normalized=False)
    out = tensor(a, b)
    assert out.trace == pytest.approx(a.trace * b.trace, rel=1e-12)


# ------------------------------------------- tensor against an index-sum trace


def _index_sum_partial_trace(mat: np.ndarray, n: int, keep: list) -> np.ndarray:
    # brute-force oracle: explicit index contraction
    traced = [q for q in range(n) if q not in keep]
    d = 2 ** len(keep)
    out = np.zeros((d, d), dtype=complex)
    for row in range(2**n):
        for col in range(2**n):
            rbits = [(row >> (n - 1 - q)) & 1 for q in range(n)]
            cbits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
            if any(rbits[q] != cbits[q] for q in traced):
                continue
            r_out = sum(rbits[q] << (len(keep) - 1 - i) for i, q in enumerate(keep))
            c_out = sum(cbits[q] << (len(keep) - 1 - i) for i, q in enumerate(keep))
            out[r_out, c_out] += mat[row, col]
    return out


def test_partial_trace_product_state():
    # tracing the last qubit out of a tensor product returns the left factor
    rng = np.random.default_rng(3)
    rho_b = random_density(rng, 2)
    joint = tensor(bell_phi_plus().projector(), rho_b)
    reduced = _index_sum_partial_trace(joint.mat, 3, [0, 1])
    assert np.allclose(reduced, bell_phi_plus().projector().mat, atol=1e-14)


def test_partial_trace_tensor_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_density(rng, 2, normalized=False)
        b = random_density(rng, 4, normalized=False)
        out = _index_sum_partial_trace(tensor(a, b).mat, 3, [0])
        assert np.allclose(out, a.mat * b.trace, atol=1e-12 * max(1.0, b.trace))


# ------------------------------------------------------------------------ eig


def test_eig_sigma_z():
    w, _ = eig_hermitian(SIGMA_Z)
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_maximally_mixed():
    w, _ = eig_hermitian(np.eye(4) / 4.0)
    assert np.allclose(w, 0.25)


def test_eig_werner_correlation_matrix():
    # T = diag(p, -p, p) for the p=0.75 Werner state gives T^T T = 0.5625 * I
    t = np.diag([0.75, -0.75, 0.75])
    w, _ = eig_hermitian(t.T @ t)
    assert np.allclose(w, 0.5625, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_eig_reconstruction_random(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(1000):
        m = random_hermitian(rng, dim)
        w, v = eig_hermitian(m)
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(m @ v - v * w)) <= 1e-10 * max(1.0, np.max(np.abs(w)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10
        assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-10 * max(1.0, np.max(np.abs(w)))


# ----------------------------------------------------------------------- sqrt


def test_mat_sqrt_identity():
    assert np.allclose(mat_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)


def test_mat_sqrt_diagonal():
    out = mat_sqrt_psd(np.diag([4.0, 1.0]).astype(complex))
    assert np.allclose(out, np.diag([2.0, 1.0]), atol=1e-14)


def test_mat_sqrt_werner_state():
    p = 0.5
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = p * np.outer(phi, phi) + (1.0 - p) / 4.0 * np.eye(4)
    root = mat_sqrt_psd(rho)
    assert np.max(np.abs(root @ root - rho)) <= 1e-9
    assert np.max(np.abs(root - root.conj().T)) <= 1e-12
    w, _ = eig_hermitian(root)
    assert w[0] >= -1e-10


def test_mat_sqrt_rejects_indefinite():
    with pytest.raises(ContractViolationError):
        mat_sqrt_psd(np.diag([1.0, -0.5]).astype(complex))


def test_mat_sqrt_random_squares_back():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8):
        for _ in range(20):
            rho = random_density(rng, dim, normalized=False)
            root = mat_sqrt_psd(rho.mat)
            assert np.max(np.abs(root @ root - rho.mat)) <= 1e-9 * max(1.0, rho.trace)
