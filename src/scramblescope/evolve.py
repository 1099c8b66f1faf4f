"""Exact unitary time evolution through a cached eigendecomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qhilbert import HermitianOperator, StateVector, eigensystem


@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of a Hamiltonian, reused across a whole time grid."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int

    def __post_init__(self):
        v = np.asarray(self.eigenvectors, dtype=complex)
        w = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "eigenvalues", w)
        if v.shape != (self.dim, self.dim) or w.shape != (self.dim,):
            raise ValueError("eigendecomposition shapes do not match dim")
        gram = v.conj().T @ v
        if not np.max(np.abs(gram - np.eye(self.dim))) <= 1e-8:  # NaN fails it
            raise ValueError("eigenvectors are not orthonormal")


def make_propagator(h: HermitianOperator) -> Propagator:
    return Propagator(*eigensystem(h), h.dim)


def evolve(p: Propagator, psi0: StateVector, t: float) -> StateVector:
    """Return exp(-iHt) |psi0> computed in the eigenbasis."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    if psi0.dim != p.dim:
        raise ValueError(f"state dim {psi0.dim} does not match propagator dim {p.dim}")
    # (psi^* V)^* = V^dag psi, without materialising V^dag.
    coeffs = (psi0.amplitudes.conj() @ p.eigenvectors).conj()
    coeffs *= np.exp(-1j * p.eigenvalues * t)
    amps = p.eigenvectors @ coeffs
    return StateVector(psi0.n_sites, amps)
