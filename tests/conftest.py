"""Shared random-state helpers of the test suite."""

from __future__ import annotations

import numpy as np

from dfsteleport.protocol import PurePair, Werner
from dfsteleport.qlinalg import BlochAngles, DensityOp


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

