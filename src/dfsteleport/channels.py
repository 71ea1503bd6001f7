"""Solved dephasing channels as element-wise factor multiplication.

Both wings' master equations are diagonal in the computational basis, so each
channel is fully described by a matrix of coherence multipliers applied
entrywise (a Hadamard product).  The sender's common-bath map on two qubits
multiplies the initial density matrix by

        (  1   f   f   a  )
        ( f*   1   1   g* )
        ( f*   1   1   g* )
        ( a*   g   g   1  )

in the (up-up, up-down, down-up, down-down) ordering; the unit entries on the
(up-down, down-up) coherence are the decoherence-free subspace of the common
bath.  The receiver's local map multiplies the single-qubit coherence by b.
Populations and trace are untouched by construction, and the joint map on the
three-qubit state is the tensor product of the two factor matrices.  The run
path never builds that 8x8 state: ``protocol`` uses closed-form branch states,
and this module supports the brute-force pipeline that checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noisekernel import DecoherenceFactors
from .qlinalg import DensityOp

_MAG_TOL = 1e-9
_SYM_TOL = 1e-12


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
