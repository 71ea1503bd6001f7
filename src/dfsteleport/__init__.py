"""Qubit teleportation under two-wing non-Markovian dephasing.

Simulates the discard-strategy teleportation protocol: the sender's two qubits
share a common dephasing bath, the receiver's qubit sits in its own local
bath, and only the Bell outcomes protected by the common bath's
decoherence-free subspace are kept.  The toolkit reads each outcome's receiver
state from its closed form (the exact three-qubit evolution serves as its
brute-force check), evaluates pointwise and Bloch-averaged teleportation
fidelities, entanglement (concurrence) and CHSH nonlocality of the resource,
and optimizes the sender's measurement timing against the receiver's noise
parameters.
"""

__version__ = "0.1.0"

from .channels import FactorMatrix, alice_factor_matrix, apply_channel, bob_factor_matrix, joint_evolve
from .metrics import (
    NonlocalityReport,
    average_fts_affine,
    average_fts_analytic,
    average_fts_numeric,
    bloch_fidelity_fn,
    chsh,
    concurrence,
)
from .noisekernel import (
    DecoherenceFactors,
    NoiseParams,
    NumericAccuracyError,
    cumulative_decay,
    decay_rate,
    factors_at,
    phase_integral,
    receiver_factor,
)
from .optimizer import TimingProblem, TimingSolution, maximize_timing, sweep
from .protocol import (
    BellOutcome,
    BranchResult,
    ProtocolRun,
    PurePair,
    Strategy,
    Werner,
    analytic_branch_states,
    build_joint,
    resource_state,
    run_protocol,
    run_with_factors,
)
from .qlinalg import (
    BlochAngles,
    ContractViolationError,
    DensityOp,
    PureKet,
    UnsupportedDimensionError,
    eig_hermitian,
    mat_sqrt_psd,
    tensor,
)

__all__ = [
    "__version__",
    "BlochAngles", "ContractViolationError", "DensityOp", "PureKet",
    "UnsupportedDimensionError", "eig_hermitian", "mat_sqrt_psd", "tensor",
    "DecoherenceFactors", "NoiseParams", "NumericAccuracyError",
    "cumulative_decay", "decay_rate", "factors_at", "phase_integral",
    "receiver_factor",
    "FactorMatrix", "alice_factor_matrix", "apply_channel",
    "bob_factor_matrix", "joint_evolve",
    "BellOutcome", "BranchResult", "ProtocolRun", "PurePair", "Strategy",
    "Werner", "analytic_branch_states", "build_joint", "resource_state",
    "run_protocol", "run_with_factors",
    "NonlocalityReport", "average_fts_affine", "average_fts_analytic",
    "average_fts_numeric", "bloch_fidelity_fn", "chsh", "concurrence",
    "TimingProblem", "TimingSolution", "maximize_timing", "sweep",
]
