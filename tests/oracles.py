"""Independent judges for the tests: slow, direct forms of what the package computes.

Nothing here runs in a command. Each judge is written from the definition,
term by term or densely, so that the package's fast paths can be checked
against it; only public `scramblescope` names are imported.
"""

import numpy as np

from scramblescope.qhilbert import (
    NORM_ATOL,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SiteSubset,
    StateVector,
)
from scramblescope.shadows import BASIS_X, BASIS_Y, BASIS_Z

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)  # indexed by the basis codes X, Y, Z


def bit_of(index: int, site: int, n_sites: int) -> int:
    """Bit of a basis index at a given site (site 0 = most significant)."""
    return (index >> (n_sites - 1 - site)) & 1


def complement(subset: SiteSubset, n_sites: int) -> SiteSubset:
    """The chain sites outside a subset."""
    return SiteSubset(i for i in range(n_sites) if i not in subset.indices)


def dense(h) -> np.ndarray:
    """The whole 2^L x 2^L matrix of a chain Hamiltonian."""
    return h.block(np.arange(h.dim))


def kron_embed(local_ops, n_sites: int) -> np.ndarray:
    """Kronecker-embed single-site 2x2 Hermitian operators into the full chain.

    local_ops is an iterable of (site, 2x2 matrix) pairs; identity is used on
    every unlisted site. Site 0 is the leftmost Kronecker factor.
    """
    ops = {}
    for site, op in local_ops:
        site = int(site)
        if site < 0 or site >= n_sites:
            raise ValueError(f"site {site} out of range for {n_sites} sites")
        if site in ops:
            raise ValueError(f"duplicate site {site} in local operator list")
        m = np.asarray(op, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("local operators must be 2x2")
        ops[site] = m
    full = np.ones((1, 1), dtype=complex)
    for site in range(n_sites):
        full = np.kron(full, ops.get(site, PAULI_I))
    return full


def apply_local_unitary(state: StateVector, site: int, u) -> StateVector:
    """Apply a single-site unitary, leaving all other sites untouched."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("local unitary must be 2x2")
    if not np.max(np.abs(u @ u.conj().T - PAULI_I)) <= NORM_ATOL:
        raise ValueError("matrix is not unitary")
    n = state.n_sites
    if site < 0 or site >= n:
        raise ValueError(f"site {site} out of range")
    shaped = state.amplitudes.reshape(2 ** site, 2, 2 ** (n - site - 1))
    return StateVector(n, np.einsum("ab,ibj->iaj", u, shaped).reshape(-1))


def dense_snapshot(bases, outcomes) -> np.ndarray:
    """Full tensor-product snapshot matrix (exponential size).

    The factor of one site is 3|b><b| - I for the measured eigenstate |b> of
    the Pauli sigma_basis, that is (I + 3 (-1)^bit sigma_basis) / 2: bit 0 is
    the +1 eigenstate.
    """
    m = np.ones((1, 1), dtype=complex)
    for basis, bit in zip(bases, outcomes):
        m = np.kron(m, (PAULI_I + 3.0 * (-1) ** int(bit) * _PAULIS[int(basis)]) / 2.0)
    return m


def kernel_value(basis1: int, bit1: int, basis2: int, bit2: int) -> float:
    """Trace inner product of two single-site snapshot factors."""
    for b in (basis1, basis2):
        if b not in (BASIS_X, BASIS_Y, BASIS_Z):
            raise ValueError(f"invalid basis code {b}")
    for o in (bit1, bit2):
        if o not in (0, 1):
            raise ValueError(f"invalid outcome bit {o}")
    if basis1 != basis2:
        return 0.5
    return 5.0 if bit1 == bit2 else -4.0


def pair_kernel(x, i: int, y, j: int, subset: SiteSubset) -> float:
    """Product over the subset sites of the kernel between snapshot i of
    shadow set x and snapshot j of shadow set y."""
    if x.n_sites != y.n_sites:
        raise ValueError("snapshots come from different chain lengths")
    subset.validate_for(x.n_sites)
    value = 1.0
    for site in subset:
        value *= kernel_value(*divmod(int(x.codes[i, site]), 2), *divmod(int(y.codes[j, site]), 2))
    return value


def median_of_means(samples, K: int) -> float:
    """Median of K in-order batch means; K=1 reduces to the plain mean."""
    samples = np.asarray(samples, dtype=float)
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > len(samples):
        raise ValueError(f"K={K} exceeds {len(samples)} samples")
    usable = (len(samples) // K) * K
    means = samples[:usable].reshape(K, -1).mean(axis=1)
    return float(np.median(means))


def mixing_gain(e, f) -> float:
    """f of an ensemble's average state minus the average of f over its two
    members: with f = q2_purity this is chi2 from the mixture's own matrix."""
    return f(e.average) - (0.5 * f(e.first) + 0.5 * f(e.second))
