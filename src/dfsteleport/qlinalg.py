"""The input's Bloch angles and the array state the program returns, a density operator.

A ``DensityOp`` is a dense complex operator on 1-3 qubits.  States live in
the computational product basis ordered binary-ascending with spin-up mapped
to bit 0, so for two qubits the rows/columns are (up-up, up-down, down-up,
down-down).  All structural checks use ``HERMITICITY_TOL`` (1e-12) and the
positivity check uses ``PSD_TOL`` (1e-10); these are comfortable for double
precision at the 8x8 sizes handled here.

Values are validated once, where they enter the package: a ``DensityOp`` that
a caller builds runs every structural and spectral check.  A state the
package derives from checked states through a map that preserves
Hermiticity, trace and positivity (a closed-form branch state, or an
oracle's projector or tensor product) is wrapped by ``_unchecked`` without a
second eigen-solve.  Values are immutable either way (the wrapped arrays are
frozen), so everything in this module is safe to share across parallel
workers.  The kets, the Paulis and the eigen-solvers of the oracles are in
``reference``.

The input qubit's ``BlochAngles`` and ``ContractViolationError`` are plain
``math``/``cmath`` records.  Like every array function of the package, the
functions here import numpy where they use it, so importing this module, or
a command that reads only scalar closed forms, loads no numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10

SUPPORTED_DIMS = (2, 4, 8)


class ContractViolationError(ValueError):
    """Input violates a documented precondition (non-Hermitian, non-PSD, ...)."""


class UnsupportedDimensionError(ValueError):
    """Operand or result dimension outside the supported set {2, 4, 8}."""


@dataclass(frozen=True)
class BlochAngles:
    """Bloch-sphere angles of a single-qubit pure state.

    The amplitudes are ``alpha = cos(theta/2)`` on spin-up and
    ``beta = sin(theta/2) * exp(i*phi)`` on spin-down.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise ContractViolationError(f"theta={self.theta!r} outside [0, pi]")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ContractViolationError(f"phi={self.phi!r} outside [0, 2*pi)")

    @property
    def alpha(self) -> complex:
        return complex(math.cos(self.theta / 2.0))

    @property
    def beta(self) -> complex:
        return math.sin(self.theta / 2.0) * cmath.exp(1j * self.phi)


def _as_complex_matrix(mat: np.ndarray | Iterable) -> np.ndarray:
    import numpy as np

    m = np.array(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractViolationError("matrix contains NaN or Inf entries")
    return m


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DensityOp:
    """Hermitian positive-semidefinite operator on 1-3 qubits.

    ``normalized`` marks unit trace; conditional states kept in the
    trace-equals-four-times-probability bookkeeping convention are stored with
    ``normalized=False``.
    """

    mat: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        import numpy as np

        m = _as_complex_matrix(self.mat)
        if m.shape[0] not in SUPPORTED_DIMS:
            raise UnsupportedDimensionError(
                f"density operator dimension {m.shape[0]} not in {SUPPORTED_DIMS}"
            )
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ContractViolationError("density operator is not Hermitian to 1e-12")
        tr = np.trace(m)
        if abs(tr.imag) > HERMITICITY_TOL * max(1.0, abs(tr.real)):
            raise ContractViolationError("density operator trace is not real")
        if self.normalized and abs(tr.real - 1.0) > 1e-9:
            raise ContractViolationError(f"state flagged normalized has trace {tr.real!r}")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) < -PSD_TOL:
            raise ContractViolationError("density operator has eigenvalue below -1e-10")
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(self.mat.trace().real)


def _unchecked(mat: np.ndarray, normalized: bool = True) -> DensityOp:
    """Frozen ``DensityOp`` around a matrix derived from checked states; no re-check."""
    import numpy as np

    rho = object.__new__(DensityOp)
    object.__setattr__(rho, "mat", _freeze(np.asarray(mat, dtype=complex)))
    object.__setattr__(rho, "normalized", normalized)
    return rho
