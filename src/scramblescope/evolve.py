"""Exact unitary time evolution inside the sector of H that the states reach.

H is block-diagonal over the connected components of its nonzero pattern,
so exp(-iHt) never moves weight from one component to another. A
propagator diagonalises only the components that hold its initial states'
support (the PXP constrained space, an S^z sector) and evolves each one on
its own; built without states, it is one block covering the whole space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ChainHamiltonian
from .qhilbert import StateVector


@dataclass(frozen=True)
class Propagator:
    """Eigendecomposition of H on each reachable block, reused across a time grid.

    `blocks` holds one (basis indices, eigenvalues, eigenvector columns)
    triple per block, the last two as `np.linalg.eigh` returns them for H
    restricted to those indices.
    """

    dim: int
    blocks: tuple


def make_propagator(h: ChainHamiltonian, *states: StateVector) -> Propagator:
    """Propagator on the blocks the states reach; the whole space without states."""
    dim = h.dim
    if any(psi.dim != dim for psi in states):
        raise ValueError(f"state dims do not match Hamiltonian dim {dim}")
    blocks = h.sectors(states) if states else [np.arange(dim)]
    return Propagator(dim, tuple((b, *np.linalg.eigh(h.block(b))) for b in blocks))


def evolve(p: Propagator, psi0: StateVector, t: float) -> StateVector:
    """Return exp(-iHt) |psi0>, computed block by block in H's eigenbasis."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    if psi0.dim != p.dim:
        raise ValueError(f"state dim {psi0.dim} does not match propagator dim {p.dim}")
    amps = np.zeros(p.dim, dtype=complex)
    held = 0
    for index, w, v in p.blocks:
        inside = psi0.amplitudes[index]
        weight = np.count_nonzero(inside)
        if not weight:
            continue
        held += weight
        # (psi^* V)^* = V^dag psi, without materialising V^dag.
        coeffs = (inside.conj() @ v).conj()
        coeffs *= np.exp(-1j * w * t)
        amps[index] = v @ coeffs
    if held != np.count_nonzero(psi0.amplitudes):
        raise ValueError("state has weight outside the propagator's sector")
    return StateVector(psi0.n_sites, amps)
