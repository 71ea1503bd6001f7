"""Qubit teleportation under two-wing non-Markovian dephasing.

Simulates the discard-strategy teleportation protocol: the sender's two qubits
share a common dephasing bath, the receiver's qubit sits in its own local
bath, and only the Bell outcomes protected by the common bath's
decoherence-free subspace are kept.  The toolkit reads each outcome's receiver
state from its closed form, evaluates pointwise and Bloch-averaged
teleportation fidelities, and optimizes the sender's measurement timing
against the receiver's noise parameters.

The package exports the simulator's names only.  The oracles that check it
are in ``reference``, which no command imports: the 8x8 brute-force run
(``brute_force_run``, with ``build_joint``, ``resource_state`` and the factor
matrices it evolves through), Wootters concurrence and the CHSH criterion
(``concurrence``, ``chsh``) and the linear algebra behind them.  The numeric
Bloch averages (``metrics.bloch_fidelity_fn``, ``metrics.average_fts_numeric``)
and ``protocol.analytic_branch_states`` remain in their modules.

Array code imports numpy where it uses it: building a ``DensityOp`` (the
branch states of ``run_protocol``) or ``run``'s numeric averages.  Importing
the package or its CLI, or any command but ``run``, loads no numpy;
``reference``, which no command imports, loads it at import.
"""

__version__ = "0.1.0"

from .metrics import average_fts_affine, average_fts_analytic
from .noisekernel import (
    DecoherenceFactors,
    NoiseParams,
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
    run_protocol,
    run_with_factors,
)
from .qlinalg import BlochAngles, ContractViolationError, DensityOp, UnsupportedDimensionError

__all__ = [
    "__version__",
    "BlochAngles", "ContractViolationError", "DensityOp", "UnsupportedDimensionError",
    "DecoherenceFactors", "NoiseParams", "cumulative_decay", "decay_rate",
    "factors_at", "phase_integral", "receiver_factor",
    "BellOutcome", "BranchResult", "ProtocolRun", "PurePair", "Strategy",
    "Werner", "run_protocol", "run_with_factors",
    "average_fts_affine", "average_fts_analytic",
    "TimingProblem", "TimingSolution", "maximize_timing", "sweep",
]
