"""Shared random-state helpers and the brute-force protocol oracle of the test suite."""

from __future__ import annotations

from typing import Dict

import numpy as np

from dfsteleport.channels import alice_factor_matrix, bob_factor_matrix, joint_evolve
from dfsteleport.noisekernel import DecoherenceFactors
from dfsteleport.protocol import (
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
    _BELL_AMPS,
    _CORRECTIONS,
    build_joint,
    classical_bits_for,
)
from dfsteleport.qlinalg import BlochAngles, ContractViolationError, DensityOp, _unchecked


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, dim: int, normalized: bool = True) -> DensityOp:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    if normalized:
        m = m / np.trace(m).real
        return DensityOp(m)
    return DensityOp(m, normalized=False)


def random_bloch(rng: np.random.Generator) -> BlochAngles:
    return BlochAngles(
        theta=float(np.arccos(rng.uniform(-1.0, 1.0))),
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


def random_pure_pair(rng: np.random.Generator) -> PurePair:
    mu = float(np.sqrt(rng.uniform(0.0, 1.0)))
    return PurePair(mu=mu, lam=float(np.sqrt(max(0.0, 1.0 - mu * mu))))


def random_werner(rng: np.random.Generator) -> Werner:
    return Werner(p=float(rng.uniform(0.0, 1.0)))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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
    ``_CORRECTIONS``.  Shares no branch formula with the closed form.
    """
    joint = build_joint(input_state, resource)
    evolved = joint_evolve(joint, alice_factor_matrix(factors), bob_factor_matrix(factors))
    rho = evolved.mat.reshape(4, 2, 4, 2)
    psi_in = input_state.ket().amps

    branches = []
    probabilities: Dict[BellOutcome, float] = {}
    for outcome in BELL_ORDER:
        bell = np.asarray(_BELL_AMPS[outcome], dtype=complex)
        unnorm = np.einsum("i,ijkl,k->jl", bell.conj(), rho, bell)
        prob = float(np.trace(unnorm).real)
        probabilities[outcome] = prob
        correction = np.asarray(_CORRECTIONS[outcome], dtype=complex)
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
    total = sum(probabilities.values())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ContractViolationError(f"branch probabilities sum to {total!r}")
    return ProtocolRun(
        input=input_state,
        resource=resource,
        factors=factors,
        strategy=strategy,
        branches=tuple(branches),
        classical_bits=classical_bits_for(probabilities, strategy),
    )
