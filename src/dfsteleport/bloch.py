"""The input qubit's Bloch angles, and the error a broken precondition raises.

Both are plain ``math``/``cmath`` records, so a command that reads an input
state or checks a contract loads no numpy.  ``qlinalg`` re-exports them next
to the array states they feed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


class ContractViolationError(ValueError):
    """Input violates a documented precondition (non-Hermitian, non-PSD, ...)."""


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

    def ket(self):
        """The state as a ``qlinalg.PureKet``."""
        from .qlinalg import PureKet

        return PureKet([self.alpha, self.beta])
