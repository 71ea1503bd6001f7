"""End-to-end teleportation run under two-wing dephasing.

Each Bell outcome leaves the receiver in a 2x2 state known in closed form
(``_branch_elements``): the psi states carry only the receiver's factor b,
the phi states carry a*b, the sender's double-flip factor times b, and the
minus outcomes negate the coherence.  A run reads its four branch states from
that table, applies the receiver's conditioned correction as a permutation of
their elements, and reports per-branch data plus the classical communication
cost.  The three-qubit pipeline these states come from (the initial state,
both wings' factor matrices, a Bell projection) is the brute-force oracle
``reference.brute_force_run``; no run builds it.

Both resources are two-qubit X-states with rho_12 = 0: their density matrix
is nonzero only on the diagonal and the anti-diagonal, so each closed form reads
a resource through five numbers alone, the populations r00, r11, r22, r33 and
the coherence z = rho_03 (``x_state``).  The branch table is written once in
them; ``reference.resource_state`` builds the same matrix from the kets and
the Bell projector instead, as the independent oracle.

Two bookkeeping conventions coexist for the conditional receiver states.  The
physical one normalizes each branch to unit trace and weights it by its exact
Born probability.  The published closed forms instead quote every branch with
trace equal to four times its probability (so a branch trace exceeds one for a
non-maximal pure resource); those matrices are kept verbatim in
``bob_paper_scaled``.  For a non-maximal pure resource the exact Born
probability (|alpha*mu|^2 + |beta*lambda|^2)/2 differs from the flat one
quarter per branch that the scaled convention suggests; both numbers are
exposed rather than reconciled.  A Werner branch's Born probability is that
flat quarter, so its trace-4p state is the unit-trace one.

The discard strategy keeps only the psi branches, whose conditional states are
exactly independent of the sender's bath (the common-bath factor matrix is
unity on the up-down/down-up subspace); the phi branches accumulate the
product of both wings' factors.  The standard keep-everything protocol of
Bennett et al. (PRL 70, 1895, 1993) remains available as a baseline through
``Strategy.RETAIN_ALL``.

The resource records and the branch table are plain Python; the functions
that build ``DensityOp`` states import numpy where they use it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .noisekernel import DecoherenceFactors, NoiseParams, factors_at
from .qlinalg import PSD_TOL, BlochAngles, ContractViolationError, DensityOp, _unchecked

DEGENERATE_PROB = 1e-14
PROB_SUM_TOL = 1e-12

# (r00, r11, r22, r33, z): the populations and the coherence rho_03 of a resource
# whose density matrix is nonzero only on its diagonal and anti-diagonal, with rho_12 = 0
XState = Tuple[float, float, float, float, float]


class _XStateResource:
    """Entanglement and nonlocality read from a resource's ``x_state`` alone (z real)."""

    @property
    def concurrence(self) -> float:
        """Wootters' concurrence of the X-state, 2*max(0, |z| - sqrt(r11*r22))."""
        r00, r11, r22, r33, z = self.x_state
        return 2.0 * max(0.0, abs(z) - math.sqrt(r11 * r22))

    @property
    def b_max(self) -> float:
        """Horodecki's maximal CHSH value 2*sqrt(sum of the two largest squares in
        T = diag(2z, -2z, r00 - r11 - r22 + r33)); the state violates CHSH iff it exceeds 2."""
        r00, r11, r22, r33, z = self.x_state
        t = (2.0 * z) ** 2
        return 2.0 * math.sqrt(t + max(t, (r00 - r11 - r22 + r33) ** 2))


@dataclass(frozen=True)
class PurePair(_XStateResource):
    """Pure entangled resource mu|up,up> + lam|down,down> with real mu, lam >= 0."""

    mu: float
    lam: float

    def __post_init__(self):
        # checked before squaring: a float ** 2 past ~1.3e154 raises OverflowError
        if not (0.0 <= self.mu <= 1.0 and 0.0 <= self.lam <= 1.0):
            raise ValueError(f"mu and lam must be in [0, 1], got {self.mu!r} and {self.lam!r}")
        if abs(self.mu**2 + self.lam**2 - 1.0) > 1e-12:
            raise ValueError(f"mu^2 + lam^2 = {self.mu ** 2 + self.lam ** 2!r}, expected 1")

    @property
    def x_state(self) -> XState:
        return self.mu**2, 0.0, 0.0, self.lam**2, self.mu * self.lam

    @classmethod
    def from_concurrence(cls, c: float) -> "PurePair":
        """Smaller-weight-first pair with concurrence 2*mu*lam = c."""
        if not (0.0 <= c <= 1.0):
            raise ValueError(f"concurrence must be in [0, 1], got {c!r}")
        root = math.sqrt(max(0.0, 1.0 - c * c))
        return cls(mu=math.sqrt((1.0 - root) / 2.0), lam=math.sqrt((1.0 + root) / 2.0))


@dataclass(frozen=True)
class Werner(_XStateResource):
    """Werner-type resource p|phi+><phi+| + (1-p)/4 * I; entangled iff p > 1/3."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")

    @property
    def x_state(self) -> XState:
        # written so that r00 + r11 and r22 + r33 are exactly 1/2
        q = (1.0 - self.p) / 4.0
        return 0.5 - q, q, q, 0.5 - q, self.p / 2.0

    @classmethod
    def from_concurrence(cls, c: float) -> "Werner":
        if not (0.0 <= c <= 1.0):
            raise ValueError(f"concurrence must be in [0, 1], got {c!r}")
        return cls(p=(2.0 * c + 1.0) / 3.0)


ResourceSpec = Union[PurePair, Werner]


def _x_state(resource: ResourceSpec) -> XState:
    """The resource's ``x_state``; a TypeError for anything but a resource record."""
    if not isinstance(resource, (PurePair, Werner)):
        raise TypeError(f"unknown resource spec {resource!r}")
    return resource.x_state


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

    def branch(self, outcome: BellOutcome) -> BranchResult:
        return self.branches[BELL_ORDER.index(outcome)]

    @property
    def retained_branches(self) -> Tuple[BranchResult, ...]:
        if self.strategy is Strategy.RETAIN_ALL:
            return self.branches
        return tuple(b for b in self.branches if b.retained)


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


def _check_sender_map(factors: DecoherenceFactors) -> None:
    """Raise unless the sender's common-bath map is positive, whatever the input.

    The map multiplies entrywise by the 4x4 factor matrix of
    ``reference.alice_factor_matrix``, so it is positive iff that matrix is
    PSD (Schur product theorem).  Its two middle rows are equal, so this holds
    iff [[1, f, a], [f*, 1, g*], [a*, g, 1]] is PSD; with a unit diagonal and
    magnitudes <= 1 that is its determinant being >= 0.  Factors from one bath
    give (1 - x)^2 (1 - x^2) with x = exp(-2G), never negative.
    """
    f, g, a = complex(factors.f), complex(factors.g), complex(factors.a)
    det = 1.0 - abs(f) ** 2 - abs(g) ** 2 - abs(a) ** 2 + 2.0 * (f * g.conjugate() * a.conjugate()).real
    if det < -PSD_TOL:
        raise ContractViolationError(f"sender factors f, g, a give a non-positive map (determinant {det!r})")


def run_with_factors(
    input_state: BlochAngles,
    resource: ResourceSpec,
    factors: DecoherenceFactors,
    strategy: Strategy = Strategy.RETAIN_PSI_ONLY,
) -> ProtocolRun:
    """Teleportation run with the decoherence factors supplied directly.

    Every branch state is a closed form (``_paper_scaled_elements``), with
    probability (m00 + m11)/4.  The receiver's corrections I, Z, X and iY
    (``reference.CORRECTIONS``) only permute its elements: I and Z give
    (m00, m11, m01), X and iY give (m11, m00, conj m01), so the corrected plus and minus outputs coincide.
    The caller's factors are checked once, by ``_check_sender_map``; the
    states built from them are wrapped without a re-check.
    """
    import numpy as np

    _check_sender_map(factors)
    alpha, beta = input_state.alpha, input_state.beta
    weight_up, weight_down = abs(alpha) ** 2, abs(beta) ** 2
    branches = []
    probabilities: Dict[BellOutcome, float] = {}
    for outcome, sign, m00, m11, m01 in _paper_scaled_elements(input_state, resource, factors):
        prob = (m00 + m11) / 4.0
        probabilities[outcome] = prob
        paper_scaled = np.array([[m00, sign * m01], [sign * m01.conjugate(), m11]])
        c00, c11, c01 = (m11, m00, m01.conjugate()) if outcome.retained else (m00, m11, m01)
        fidelity_paper = weight_up * c00 + weight_down * c11 + 2.0 * (alpha.conjugate() * c01 * beta).real
        degenerate = prob <= DEGENERATE_PROB
        if degenerate:
            conditional = output = fidelity = None
        else:
            conditional = _unchecked(paper_scaled / (4.0 * prob))
            output = _unchecked(np.array([[c00, c01], [c01.conjugate(), c11]]) / (4.0 * prob))
            fidelity = fidelity_paper / (4.0 * prob)
        branches.append(
            BranchResult(
                outcome=outcome,
                probability=prob,
                bob_paper_scaled=_unchecked(paper_scaled, normalized=False),
                bob_conditional=conditional,
                bob_output=output,
                fidelity_vs_input=fidelity,
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


def run_protocol(
    input_state: BlochAngles,
    resource: ResourceSpec,
    alice_noise: NoiseParams,
    bob_noise: NoiseParams,
    tau: float,
    strategy: Strategy = Strategy.RETAIN_PSI_ONLY,
) -> ProtocolRun:
    """Teleportation run with factors computed from the two wings' baths.

    The run keeps the factors, not the baths; ``factors.tau`` is the
    measurement instant.
    """
    return run_with_factors(input_state, resource, factors_at(alice_noise, bob_noise, tau), strategy)


def _branch_elements(resource: ResourceSpec, alpha, beta, coherence):
    """``(m00, m11, m01)`` of the psi-plus receiver state before correction.

    Amplitudes may be scalars or arrays.  ``coherence`` is the receiver's
    factor b alone: the common bath leaves the up-down/down-up block the psi
    outcomes project onto untouched.  The phi-plus state is the same table
    with the amplitudes swapped and coherence a*b.  The minus outcomes negate
    m01.  The trace is 4p for every resource; a Werner branch has trace 1
    because its Born probability is a flat 1/4.
    """
    import numpy as np

    r00, r11, r22, r33, z = _x_state(resource)
    weight_up, weight_down = np.abs(alpha) ** 2, np.abs(beta) ** 2
    return (
        2.0 * (weight_up * r22 + weight_down * r00),
        2.0 * (weight_up * r33 + weight_down * r11),
        2.0 * z * np.conj(alpha) * beta * coherence,
    )


def _paper_scaled_elements(input_state: BlochAngles, resource: ResourceSpec, factors: DecoherenceFactors):
    """``(outcome, sign, m00, m11, m01)`` per Bell outcome in ``BELL_ORDER``.

    The outcome's paper-scaled receiver state has populations m00, m11 and
    coherence sign*m01: psi states read ``_branch_elements`` with coherence b,
    phi states with the amplitudes swapped and coherence a*b, and the minus
    outcomes negate m01.
    """
    alpha, beta = input_state.alpha, input_state.beta
    phi = _branch_elements(resource, beta, alpha, factors.a * factors.b)
    psi = _branch_elements(resource, alpha, beta, factors.b)
    for outcome, sign, (m00, m11, m01) in zip(BELL_ORDER, (1.0, -1.0, 1.0, -1.0), (phi, phi, psi, psi)):
        yield outcome, sign, float(m00), float(m11), complex(m01)


def analytic_branch_states(
    input_state: BlochAngles,
    resource: ResourceSpec,
    factors: DecoherenceFactors,
) -> Dict[BellOutcome, DensityOp]:
    """Closed-form conditional receiver states for each Bell outcome.

    The published trace-4p convention for every resource (a Werner branch's
    flat quarter probability gives it unit trace).  The states are PSD by
    construction for any valid factors (|a|, |b| <= 1), so they are wrapped
    without an eigen-check.
    """
    import numpy as np

    out: Dict[BellOutcome, DensityOp] = {}
    for outcome, sign, m00, m11, m01 in _paper_scaled_elements(input_state, resource, factors):
        m = np.array([[m00, sign * m01], [sign * m01.conjugate(), m11]])
        out[outcome] = _unchecked(m, normalized=False)
    return out
