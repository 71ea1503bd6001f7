"""End-to-end teleportation run under two-wing dephasing.

Pipeline: assemble the three-qubit state (input qubit times shared resource),
evolve it to the measurement instant with the common-bath and local factor
matrices, project the sender's pair onto the Bell basis, apply the receiver's
conditioned correction, and report per-branch data plus the classical
communication cost.

Two bookkeeping conventions coexist for the conditional receiver states.  The
physical one normalizes each branch to unit trace and weights it by its exact
Born probability.  The published closed forms instead quote every branch with
trace equal to four times its probability (so a branch trace exceeds one for a
non-maximal pure resource); those matrices are kept verbatim in
``bob_paper_scaled``.  For a non-maximal pure resource the exact Born
probability (|alpha*mu|^2 + |beta*lambda|^2)/2 differs from the flat one
quarter per branch that the scaled convention suggests; both numbers are
exposed rather than reconciled.

The discard strategy keeps only the psi branches, whose conditional states are
exactly independent of the sender's bath (the common-bath factor matrix is
unity on the up-down/down-up subspace); the phi branches accumulate the
product of both wings' factors.  The standard keep-everything protocol remains
available as a baseline through ``Strategy.RETAIN_ALL``.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .channels import alice_factor_matrix, bob_factor_matrix, joint_evolve
from .noisekernel import DecoherenceFactors, NoiseParams, factors_at
from .qlinalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochAngles,
    ContractViolationError,
    DensityOp,
    PureKet,
    _unchecked,
    tensor,
)

DEGENERATE_PROB = 1e-14
PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PurePair:
    """Pure entangled resource mu|up,up> + lam|down,down> with real mu, lam >= 0."""

    mu: float
    lam: float

    def __post_init__(self):
        if self.mu < 0.0 or self.lam < 0.0:
            raise ValueError("mu and lam must be >= 0")
        if abs(self.mu**2 + self.lam**2 - 1.0) > 1e-12:
            raise ValueError(f"mu^2 + lam^2 = {self.mu ** 2 + self.lam ** 2!r}, expected 1")

    @property
    def concurrence(self) -> float:
        return 2.0 * self.mu * self.lam

    @classmethod
    def from_concurrence(cls, c: float) -> "PurePair":
        """Smaller-weight-first pair with concurrence 2*mu*lam = c."""
        if not (0.0 <= c <= 1.0):
            raise ValueError(f"concurrence must be in [0, 1], got {c!r}")
        root = math.sqrt(max(0.0, 1.0 - c * c))
        return cls(mu=math.sqrt((1.0 - root) / 2.0), lam=math.sqrt((1.0 + root) / 2.0))


@dataclass(frozen=True)
class Werner:
    """Werner-type resource p|phi+><phi+| + (1-p)/4 * I; entangled iff p > 1/3."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")

    @property
    def concurrence(self) -> float:
        return max(0.0, (3.0 * self.p - 1.0) / 2.0)

    @classmethod
    def from_concurrence(cls, c: float) -> "Werner":
        if not (0.0 <= c <= 1.0):
            raise ValueError(f"concurrence must be in [0, 1], got {c!r}")
        return cls(p=(2.0 * c + 1.0) / 3.0)


ResourceSpec = Union[PurePair, Werner]


class BellOutcome(enum.Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"

    @property
    def retained(self) -> bool:
        """True for the discard strategy's kept (sender-noise-free) branches."""
        return self in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS)


BELL_ORDER = (
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_BELL_AMPS = {
    BellOutcome.PHI_PLUS: np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex),
    BellOutcome.PHI_MINUS: np.array([_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2], dtype=complex),
    BellOutcome.PSI_PLUS: np.array([0.0, _INV_SQRT2, _INV_SQRT2, 0.0], dtype=complex),
    BellOutcome.PSI_MINUS: np.array([0.0, _INV_SQRT2, -_INV_SQRT2, 0.0], dtype=complex),
}

# receiver-side corrections; the phi-minus one matters only for RETAIN_ALL runs
_CORRECTIONS = {
    BellOutcome.PHI_PLUS: np.eye(2, dtype=complex),
    BellOutcome.PHI_MINUS: SIGMA_Z,
    BellOutcome.PSI_PLUS: SIGMA_X,
    BellOutcome.PSI_MINUS: 1j * SIGMA_Y,
}


class Strategy(enum.Enum):
    RETAIN_PSI_ONLY = "retain-psi"
    RETAIN_ALL = "retain-all"


@dataclass(frozen=True)
class BranchResult:
    """One Bell-measurement outcome.

    ``probability`` is the exact Born value.  ``bob_paper_scaled`` has trace
    4*probability and is always defined; the normalized ``bob_conditional``,
    the corrected ``bob_output`` and ``fidelity_vs_input`` are None on a
    degenerate (zero-probability) branch.
    """

    outcome: BellOutcome
    probability: float
    bob_paper_scaled: DensityOp
    bob_conditional: Optional[DensityOp]
    bob_output: Optional[DensityOp]
    fidelity_vs_input: Optional[float]
    fidelity_paper: float
    degenerate: bool

    @property
    def retained(self) -> bool:
        return self.outcome.retained


@dataclass(frozen=True)
class ProtocolRun:
    input: BlochAngles
    resource: ResourceSpec
    factors: DecoherenceFactors
    strategy: Strategy
    branches: Tuple[BranchResult, BranchResult, BranchResult, BranchResult]
    classical_bits: float
    alice_noise: Optional[NoiseParams] = None
    bob_noise: Optional[NoiseParams] = None
    tau: Optional[float] = None

    def branch(self, outcome: BellOutcome) -> BranchResult:
        return self.branches[BELL_ORDER.index(outcome)]

    @property
    def retained_branches(self) -> Tuple[BranchResult, ...]:
        if self.strategy is Strategy.RETAIN_ALL:
            return self.branches
        return tuple(b for b in self.branches if b.retained)


def resource_state(resource: ResourceSpec) -> DensityOp:
    """Two-qubit density operator of the shared resource."""
    if isinstance(resource, PurePair):
        ket = PureKet(np.array([resource.mu, 0.0, 0.0, resource.lam], dtype=complex))
        return ket.projector()
    if isinstance(resource, Werner):
        phi = _BELL_AMPS[BellOutcome.PHI_PLUS]
        mat = resource.p * np.outer(phi, phi.conj()) + (1.0 - resource.p) / 4.0 * np.eye(4)
        return _unchecked(mat)
    raise TypeError(f"unknown resource spec {resource!r}")


def build_joint(input_state: BlochAngles, resource: ResourceSpec) -> DensityOp:
    """Initial three-qubit state: input qubit (leftmost) times resource pair."""
    rho_in = input_state.ket().projector()
    return tensor(rho_in, resource_state(resource))


def _entropy_bits(probs) -> float:
    h = 0.0
    for p in probs:
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def classical_bits_for(probabilities: Dict[BellOutcome, float], strategy: Strategy) -> float:
    """Shannon entropy of the message distribution the sender must convey.

    Under the discard strategy both phi outcomes collapse into one "discard"
    message, giving 1.5 bits at uniform branch probabilities.
    """
    if strategy is Strategy.RETAIN_PSI_ONLY:
        grouped = (
            probabilities[BellOutcome.PHI_PLUS] + probabilities[BellOutcome.PHI_MINUS],
            probabilities[BellOutcome.PSI_PLUS],
            probabilities[BellOutcome.PSI_MINUS],
        )
    else:
        grouped = tuple(probabilities[o] for o in BELL_ORDER)
    return _entropy_bits(grouped)


def run_with_factors(
    input_state: BlochAngles,
    resource: ResourceSpec,
    factors: DecoherenceFactors,
    strategy: Strategy = Strategy.RETAIN_PSI_ONLY,
) -> ProtocolRun:
    """Full pipeline with the decoherence factors supplied directly.

    The evolved three-qubit state is the one checked value of a run: it is
    where caller-supplied factors first meet a state.  The branch states are
    projections of it and are wrapped without a re-check.
    """
    joint = build_joint(input_state, resource)
    evolved = joint_evolve(joint, alice_factor_matrix(factors), bob_factor_matrix(factors))
    rho = evolved.mat.reshape(4, 2, 4, 2)
    psi_in = input_state.ket().amps

    branches = []
    probabilities: Dict[BellOutcome, float] = {}
    for outcome in BELL_ORDER:
        bell = _BELL_AMPS[outcome]
        unnorm = np.einsum("i,ijkl,k->jl", bell.conj(), rho, bell)
        prob = float(np.trace(unnorm).real)
        probabilities[outcome] = prob
        paper_scaled = _unchecked(4.0 * unnorm, normalized=False)
        correction = _CORRECTIONS[outcome]
        corrected_scaled = correction @ (4.0 * unnorm) @ correction.conj().T
        fidelity_paper = float(np.real(psi_in.conj() @ corrected_scaled @ psi_in))
        if prob > DEGENERATE_PROB:
            conditional = _unchecked(unnorm / prob)
            output = _unchecked(corrected_scaled / (4.0 * prob))
            fidelity = float(np.real(psi_in.conj() @ output.mat @ psi_in))
        else:
            conditional = None
            output = None
            fidelity = None
        branches.append(
            BranchResult(
                outcome=outcome,
                probability=prob,
                bob_paper_scaled=paper_scaled,
                bob_conditional=conditional,
                bob_output=output,
                fidelity_vs_input=fidelity,
                fidelity_paper=fidelity_paper,
                degenerate=prob <= DEGENERATE_PROB,
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


def run_protocol(
    input_state: BlochAngles,
    resource: ResourceSpec,
    alice_noise: NoiseParams,
    bob_noise: NoiseParams,
    tau: float,
    strategy: Strategy = Strategy.RETAIN_PSI_ONLY,
) -> ProtocolRun:
    """Teleportation run with factors computed from the two wings' baths."""
    factors = factors_at(alice_noise, bob_noise, tau)
    run = run_with_factors(input_state, resource, factors, strategy)
    return dataclasses.replace(run, alice_noise=alice_noise, bob_noise=bob_noise, tau=tau)


def _branch_elements(resource: ResourceSpec, alpha, beta, coherence):
    """``(m00, m11, m01)`` of the psi-plus receiver state before correction.

    Amplitudes may be scalars or arrays.  ``coherence`` is the receiver's
    factor b alone: the common bath leaves the up-down/down-up block the psi
    outcomes project onto untouched.  The phi-plus state is the same table
    with the amplitudes swapped and coherence a*b.  The minus outcomes negate
    m01.  Pure resource: trace 4p; Werner resource: unit trace.
    """
    if isinstance(resource, PurePair):
        mu, lam = resource.mu, resource.lam
        return (
            2.0 * mu**2 * np.abs(beta) ** 2,
            2.0 * lam**2 * np.abs(alpha) ** 2,
            2.0 * mu * lam * np.conj(alpha) * beta * coherence,
        )
    if isinstance(resource, Werner):
        p = resource.p
        pop = 0.5 + 0.5 * p * (np.abs(alpha) ** 2 - np.abs(beta) ** 2)
        return 1.0 - pop, pop, p * np.conj(alpha) * beta * coherence
    raise TypeError(f"unknown resource spec {resource!r}")


def analytic_branch_states(
    input_state: BlochAngles,
    resource: ResourceSpec,
    factors: DecoherenceFactors,
) -> Dict[BellOutcome, DensityOp]:
    """Closed-form conditional receiver states for each Bell outcome.

    Pure resource: the published trace-4p convention.  Werner resource: unit
    trace (the flat quarter probability makes the two conventions coincide).
    """
    alpha, beta = input_state.alpha, input_state.beta
    phi = _branch_elements(resource, beta, alpha, factors.a * factors.b)
    psi = _branch_elements(resource, alpha, beta, factors.b)
    out: Dict[BellOutcome, DensityOp] = {}
    signs = (1.0, -1.0, 1.0, -1.0)
    for outcome, (m00, m11, m01), sign in zip(BELL_ORDER, (phi, phi, psi, psi), signs):
        m = np.array([[m00, sign * m01], [sign * np.conj(m01), m11]], dtype=complex)
        out[outcome] = DensityOp(m, normalized=isinstance(resource, Werner))
    return out
