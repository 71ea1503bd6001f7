"""Qubit teleportation under two-wing non-Markovian dephasing.

Simulates the discard-strategy teleportation protocol: the sender's two qubits
share a common dephasing bath, the receiver's qubit sits in its own local
bath, and only the Bell outcomes protected by the common bath's
decoherence-free subspace are kept.  The toolkit reads each outcome's receiver
state from its closed form, evaluates pointwise and Bloch-averaged
teleportation fidelities, and optimizes the sender's measurement timing
against the receiver's noise parameters.

The package exports the simulator's names only.  The oracles that check it
are imported from their own modules: the 8x8 brute-force pipeline
(``channels``; ``protocol.build_joint``, ``resource_state`` and
``analytic_branch_states``), Wootters concurrence and the CHSH criterion
(``metrics.concurrence``, ``metrics.chsh``), the numeric Bloch averages
(``metrics.bloch_fidelity_fn``, ``metrics.average_fts_numeric``) and the
linear algebra behind them (``qlinalg``).

Every command but ``run`` reads scalar closed forms only, so importing the
package or its CLI loads no numpy.  The array states (``DensityOp``, the
branch states of ``run_protocol``), ``run``'s numeric averages and the
oracles import it on first use.
"""

__version__ = "0.1.0"

from .bloch import BlochAngles, ContractViolationError
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


def __getattr__(name: str):
    # the names whose module loads numpy resolve on first use (PEP 562)
    if name not in ("DensityOp", "UnsupportedDimensionError"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import qlinalg

    value = globals()[name] = getattr(qlinalg, name)
    return value


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
