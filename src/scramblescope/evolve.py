"""Exact unitary time evolution inside the sector of H that the states reach.

H is block-diagonal over the connected components of its nonzero pattern,
so exp(-iHt) never moves weight from one component to another. A
propagator diagonalises only the components that hold its initial states'
support (the PXP constrained space, an S^z sector) and evolves inside them;
built without states, it covers the whole space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qhilbert import HermitianOperator, StateVector, eigensystem


@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of H on one invariant sector, reused across a time grid.

    `sector` holds the basis indices that the eigenvectors' rows stand for;
    it defaults to the whole dim-dimensional space, in order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int
    sector: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.eigenvectors, dtype=complex)
        w = np.asarray(self.eigenvalues, dtype=float)
        sector = np.arange(self.dim) if self.sector is None else np.asarray(self.sector, dtype=np.intp)
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "sector", sector)
        n = sector.size
        if not (
            sector.ndim == 1 and n and 0 <= sector.min() and sector.max() < self.dim
            and np.unique(sector).size == n
        ):
            raise ValueError("sector must hold distinct basis indices below dim")
        if v.shape != (n, n) or w.shape != (n,):
            raise ValueError("eigendecomposition shapes do not match the sector")
        gram = v.conj().T @ v
        if not np.max(np.abs(gram - np.eye(n))) <= 1e-8:  # NaN fails it
            raise ValueError("eigenvectors are not orthonormal")


def _components(h: HermitianOperator, states) -> list[np.ndarray]:
    """Basis indices of each component of H's nonzero pattern that holds
    some state's support, found by one breadth-first search per state."""
    coupled = h.matrix != 0
    coupled |= coupled.T
    seen = np.zeros(h.dim, dtype=bool)
    blocks = []
    for psi in states:
        frontier = (psi.amplitudes != 0) & ~seen
        block = frontier.copy()
        while frontier.any():
            frontier = coupled[frontier].any(axis=0) & ~block
            block |= frontier
        if block.any():
            seen |= block
            blocks.append(np.flatnonzero(block))
    return blocks


def make_propagator(h: HermitianOperator, *states: StateVector) -> Propagator:
    """Propagator on the sector the states reach; the whole space without states.

    Each component is diagonalised on its own, so the eigenvectors are
    block-diagonal in the sector's order.
    """
    dim = h.dim
    if any(psi.dim != dim for psi in states):
        raise ValueError(f"state dims do not match Hamiltonian dim {dim}")
    blocks = _components(h, states) if states else [np.arange(dim)]
    parts = [
        eigensystem(h if b.size == dim else HermitianOperator(b.size, h.matrix[np.ix_(b, b)]))
        for b in blocks
    ]
    if len(parts) == 1:
        w, v = parts[0]
    else:
        w = np.concatenate([wb for wb, _ in parts])
        v = np.zeros((w.size, w.size), dtype=complex)
        lo = 0
        for _, vb in parts:
            v[lo:lo + len(vb), lo:lo + len(vb)] = vb
            lo += len(vb)
    return Propagator(w, v, dim, np.concatenate(blocks))


def evolve(p: Propagator, psi0: StateVector, t: float) -> StateVector:
    """Return exp(-iHt) |psi0> computed in the sector's eigenbasis."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    if psi0.dim != p.dim:
        raise ValueError(f"state dim {psi0.dim} does not match propagator dim {p.dim}")
    inside = psi0.amplitudes[p.sector]
    if np.count_nonzero(inside) != np.count_nonzero(psi0.amplitudes):
        raise ValueError("state has weight outside the propagator's sector")
    # (psi^* V)^* = V^dag psi, without materialising V^dag.
    coeffs = (inside.conj() @ p.eigenvectors).conj()
    coeffs *= np.exp(-1j * p.eigenvalues * t)
    amps = np.zeros(p.dim, dtype=complex)
    amps[p.sector] = p.eigenvectors @ coeffs
    return StateVector(psi0.n_sites, amps)
