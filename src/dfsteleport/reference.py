"""Independent oracles: the 8x8 brute-force run and the eigen-solver criteria.

No command imports this module; the tests do.  Each oracle reaches its
number by a different route from the program's closed forms and shares none
of their formulas: it imports only the program's records, enums and
constants and the state type (``DensityOp``) it checks.

``brute_force_run`` is ``protocol.run_with_factors`` the long way.  It builds
the three-qubit state from the input ket and the resource (``build_joint``),
evolves it with both wings' factor matrices, projects it onto each Bell ket
and corrects the receiver's 2x2 block with the matrices of ``CORRECTIONS``.
The sender's common-bath map on two qubits multiplies the initial density
matrix entrywise (a Hadamard product) by

        (  1   f   f   a  )
        ( f*   1   1   g* )
        ( f*   1   1   g* )
        ( a*   g   g   1  )

in the (up-up, up-down, down-up, down-down) ordering; the unit entries on the
(up-down, down-up) coherence are the decoherence-free subspace of the common
bath.  The receiver's local map multiplies its single-qubit coherence by b.
Populations and trace are untouched by construction, and the joint map on the
three-qubit state is the tensor product of the two factor matrices.  The
message entropy is computed here from the oracle's own Born probabilities.

``concurrence`` is Wootters' (PRL 80, 2245, 1998), through the Hermitian form
sqrt(rho) * rho_tilde * sqrt(rho) (same spectrum as rho * rho_tilde,
numerically stabler).  ``chsh`` is the Horodecki criterion (Phys. Lett. A
200, 340, 1995): the two largest eigenvalues of T^T T for the correlation
matrix T_ij = Tr(rho sigma_i x sigma_j); the state violates the CHSH bound
iff their sum exceeds one, with maximal violation 2*sqrt(sum).  Both check
the X-state closed forms ``concurrence`` and ``b_max`` of the resources.

A ``PureKet`` that a caller builds is checked for finiteness and norm; a
projector or tensor product of checked states is wrapped without a second
eigen-solve, like the program's own derived states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .noisekernel import DecoherenceFactors
from .protocol import (
    BELL_ORDER,
    DEGENERATE_PROB,
    PROB_SUM_TOL,
    BellOutcome,
    BranchResult,
    ProtocolRun,
    PurePair,
    ResourceSpec,
    Strategy,
    Werner,
)
from .qlinalg import (
    SUPPORTED_DIMS, BlochAngles, ContractViolationError, DensityOp, UnsupportedDimensionError,
    _as_complex_matrix, _freeze, _unchecked,
)

NORM_TOL = 1e-12
_MAG_TOL = 1e-9
_SYM_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

BELL_AMPS = {
    BellOutcome.PHI_PLUS: (_INV_SQRT2, 0.0, 0.0, _INV_SQRT2),
    BellOutcome.PHI_MINUS: (_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2),
    BellOutcome.PSI_PLUS: (0.0, _INV_SQRT2, _INV_SQRT2, 0.0),
    BellOutcome.PSI_MINUS: (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0),
}

# receiver-side corrections I, Z, X and iY; the phi-minus one matters only for
# RETAIN_ALL runs
CORRECTIONS = {
    BellOutcome.PHI_PLUS: ((1.0, 0.0), (0.0, 1.0)),
    BellOutcome.PHI_MINUS: ((1.0, 0.0), (0.0, -1.0)),
    BellOutcome.PSI_PLUS: ((0.0, 1.0), (1.0, 0.0)),
    BellOutcome.PSI_MINUS: ((0.0, 1.0), (-1.0, 0.0)),
}


@dataclass(frozen=True)
class PureKet:
    """Normalized state vector in the computational basis."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.array(self.amps, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(a)):
            raise ContractViolationError("ket contains NaN or Inf amplitudes")
        if abs(np.linalg.norm(a) - 1.0) > NORM_TOL:
            raise ContractViolationError("ket is not normalized to 1e-12")
        object.__setattr__(self, "amps", _freeze(a))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def projector(self) -> DensityOp:
        if self.dim not in SUPPORTED_DIMS:
            raise UnsupportedDimensionError(f"projector dimension {self.dim} not in {SUPPORTED_DIMS}")
        return _unchecked(np.outer(self.amps, self.amps.conj()))


def ket(angles: BlochAngles) -> PureKet:
    """The input qubit alpha|up> + beta|down> as a ``PureKet``."""
    return PureKet([angles.alpha, angles.beta])


def tensor(a: DensityOp | PureKet, b: DensityOp | PureKet) -> DensityOp | PureKet:
    """Kronecker product of two states of the same kind (left factor varies slowest)."""
    if isinstance(a, DensityOp) and isinstance(b, DensityOp):
        if a.dim * b.dim not in SUPPORTED_DIMS:
            raise UnsupportedDimensionError(
                f"tensor product dimension {a.dim * b.dim} exceeds 8"
            )
        return _unchecked(np.kron(a.mat, b.mat), a.normalized and b.normalized)
    if isinstance(a, PureKet) and isinstance(b, PureKet):
        return PureKet(np.kron(a.amps, b.amps))
    raise TypeError("tensor operands must both be DensityOp or both PureKet")


def eig_hermitian(m: np.ndarray | DensityOp) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    a = m.mat if isinstance(m, DensityOp) else _as_complex_matrix(m)
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ContractViolationError("eig_hermitian requires a Hermitian matrix (tol 1e-10)")
    w, v = np.linalg.eigh(a)
    return w, v


def mat_sqrt_psd(m: np.ndarray | DensityOp) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in [-1e-8, 0) are clipped to zero; anything more negative is a
    contract violation.
    """
    w, v = eig_hermitian(m)
    if w[0] < -1e-8:
        raise ContractViolationError(f"matrix has negative eigenvalue {w[0]!r}")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def resource_state(resource: ResourceSpec) -> DensityOp:
    """Two-qubit density operator of the shared resource, from its kets."""
    if isinstance(resource, PurePair):
        return PureKet([resource.mu, 0.0, 0.0, resource.lam]).projector()
    if isinstance(resource, Werner):
        phi = np.array(BELL_AMPS[BellOutcome.PHI_PLUS], dtype=complex)
        mat = resource.p * np.outer(phi, phi.conj()) + (1.0 - resource.p) / 4.0 * np.eye(4)
        return _unchecked(mat)
    raise TypeError(f"unknown resource spec {resource!r}")


def build_joint(input_state: BlochAngles, resource: ResourceSpec) -> DensityOp:
    """Initial three-qubit state: input qubit (leftmost) times resource pair."""
    return tensor(ket(input_state).projector(), resource_state(resource))


@dataclass(frozen=True)
class FactorMatrix:
    """Grid of coherence multipliers: unit diagonal, conjugate-symmetric, magnitudes <= 1."""

    factors: np.ndarray

    def __post_init__(self):
        m = np.array(self.factors, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"factor matrix must be square, got shape {m.shape}")
        if np.max(np.abs(np.diagonal(m) - 1.0)) > _SYM_TOL:
            raise ValueError("factor matrix diagonal must be 1")
        if np.max(np.abs(m - m.conj().T)) > _SYM_TOL:
            raise ValueError("factor matrix must equal its conjugate transpose")
        if np.max(np.abs(m)) > 1.0 + _MAG_TOL:
            raise ValueError("factor magnitudes must not exceed 1")
        m.flags.writeable = False
        object.__setattr__(self, "factors", m)

    @property
    def dim(self) -> int:
        return self.factors.shape[0]


def alice_factor_matrix(fac: DecoherenceFactors) -> FactorMatrix:
    """Common-bath factor matrix on the sender's two qubits."""
    f, g, a = fac.f, fac.g, fac.a
    m = np.array(
        [
            [1.0, f, f, a],
            [np.conj(f), 1.0, 1.0, np.conj(g)],
            [np.conj(f), 1.0, 1.0, np.conj(g)],
            [np.conj(a), g, g, 1.0],
        ],
        dtype=complex,
    )
    return FactorMatrix(m)


def bob_factor_matrix(fac: DecoherenceFactors) -> FactorMatrix:
    """Local factor matrix on the receiver's qubit."""
    b = fac.b
    return FactorMatrix(np.array([[1.0, b], [np.conj(b), 1.0]], dtype=complex))


def apply_channel(rho: DensityOp, fm: FactorMatrix) -> DensityOp:
    """Entrywise product of state and factor matrix; trace-preserving by construction."""
    if rho.dim != fm.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, factors {fm.dim}")
    return DensityOp(rho.mat * fm.factors, normalized=rho.normalized)


def joint_evolve(rho: DensityOp, alice_fm: FactorMatrix, bob_fm: FactorMatrix) -> DensityOp:
    """Apply the sender map on the first two qubits and the receiver map on the third.

    The two maps commute (both are Hadamard products), so this equals applying
    them sequentially in either order.
    """
    if rho.dim != alice_fm.dim * bob_fm.dim:
        raise ValueError(
            f"dimension mismatch: state {rho.dim}, joint factors {alice_fm.dim * bob_fm.dim}"
        )
    return DensityOp(rho.mat * np.kron(alice_fm.factors, bob_fm.factors), normalized=rho.normalized)


def brute_force_run(
    input_state: BlochAngles,
    resource: ResourceSpec,
    factors: DecoherenceFactors,
    strategy: Strategy = Strategy.RETAIN_PSI_ONLY,
) -> ProtocolRun:
    """``run_with_factors`` the long way: evolve, project and correct the 8x8 state.

    The three-qubit state is evolved with both wings' factor matrices (a
    checked ``DensityOp``, so a non-positive map raises), projected onto each
    Bell ket with an einsum, and corrected with the 2x2 matrices of
    ``CORRECTIONS``.  The message entropy is the Shannon entropy of the
    projections' traces, with the two phi outcomes one "discard" message
    under the discard strategy.  Shares no formula with the closed form.
    """
    joint = build_joint(input_state, resource)
    evolved = joint_evolve(joint, alice_factor_matrix(factors), bob_factor_matrix(factors))
    rho = evolved.mat.reshape(4, 2, 4, 2)
    psi_in = ket(input_state).amps

    branches = []
    messages: Dict[object, float] = {}
    for outcome in BELL_ORDER:
        bell = np.asarray(BELL_AMPS[outcome], dtype=complex)
        unnorm = np.einsum("i,ijkl,k->jl", bell.conj(), rho, bell)
        prob = float(np.trace(unnorm).real)
        discarded = strategy is Strategy.RETAIN_PSI_ONLY and outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
        message = "discard" if discarded else outcome
        messages[message] = messages.get(message, 0.0) + prob
        correction = np.asarray(CORRECTIONS[outcome], dtype=complex)
        corrected_scaled = correction @ (4.0 * unnorm) @ correction.conj().T
        fidelity_paper = float(np.real(psi_in.conj() @ corrected_scaled @ psi_in))
        degenerate = prob <= DEGENERATE_PROB
        output = None if degenerate else _unchecked(corrected_scaled / (4.0 * prob))
        branches.append(
            BranchResult(
                outcome=outcome,
                probability=prob,
                bob_paper_scaled=_unchecked(4.0 * unnorm, normalized=False),
                bob_conditional=None if degenerate else _unchecked(unnorm / prob),
                bob_output=output,
                fidelity_vs_input=None if degenerate else float(np.real(psi_in.conj() @ output.mat @ psi_in)),
                fidelity_paper=fidelity_paper,
                degenerate=degenerate,
            )
        )
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ContractViolationError(f"branch probabilities sum to {total!r}")
    return ProtocolRun(
        input=input_state,
        resource=resource,
        factors=factors,
        strategy=strategy,
        branches=tuple(branches),
        classical_bits=sum(-p * math.log2(p) for p in messages.values() if p > 0.0),
    )


def concurrence(rho: DensityOp) -> float:
    """Wootters concurrence of a two-qubit state."""
    if rho.dim != 4:
        raise ValueError("concurrence requires a two-qubit state")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    rho_tilde = yy @ rho.mat.conj() @ yy
    root = mat_sqrt_psd(rho)
    w, _ = eig_hermitian(root @ rho_tilde @ root)
    lam = np.sqrt(np.clip(w, 0.0, None))
    return float(max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4]))


@dataclass(frozen=True)
class NonlocalityReport:
    t_matrix: np.ndarray
    m_value: float
    b_max: float
    violates: bool


def chsh(rho: DensityOp) -> NonlocalityReport:
    """Correlation-matrix CHSH criterion for a two-qubit state."""
    if rho.dim != 4:
        raise ValueError("chsh requires a two-qubit state")
    t = np.empty((3, 3), dtype=float)
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            t[i, j] = float(np.real(np.trace(rho.mat @ np.kron(si, sj))))
    u, _ = eig_hermitian(t.T @ t)
    m_value = float(u[-1] + u[-2])
    t.flags.writeable = False
    return NonlocalityReport(
        t_matrix=t,
        m_value=m_value,
        b_max=float(2.0 * np.sqrt(max(0.0, m_value))),
        violates=bool(m_value > 1.0),
    )
