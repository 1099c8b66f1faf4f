"""Hilbert-space primitives for chains of qubits.

Conventions used throughout the package: site 0 is the leftmost chain site
and the most significant bit of a computational-basis index; bit value 0
means spin up, i.e. the +1 eigenstate of sigma_z.

All matrices are dense. Hamiltonians are refused above 13 sites
(`models.MAX_DENSE_SITES`): at 14 sites one complex128 matrix takes 4 GiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
EIG_ATOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PHASE_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)


def _as_complex_array(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def bit_of(index: int, site: int, n_sites: int) -> int:
    """Bit of a basis index at a given site (site 0 = most significant)."""
    return (index >> (n_sites - 1 - site)) & 1


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of an n_sites-qubit chain."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex_array(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.shape[0] != 2 ** self.n_sites:
            raise ValueError(
                f"amplitude array of length {amps.shape} does not match "
                f"2**{self.n_sites} basis states"
            )
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_sites


def basis_state(n_sites: int, bits: Sequence[int]) -> StateVector:
    """Computational basis state from per-site bits (0 = up)."""
    if len(bits) != n_sites:
        raise ValueError("need one bit per site")
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        index = (index << 1) | b
    amps = np.zeros(2 ** n_sites, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_sites, amps)


@dataclass(frozen=True)
class SiteSubset:
    """Strictly increasing collection of chain site indices."""

    indices: tuple

    def __init__(self, indices: Iterable[int]):
        idx = tuple(int(i) for i in indices)
        if len(idx) == 0:
            raise ValueError("subset must contain at least one site")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"site indices must be strictly increasing: {idx}")
        if idx[0] < 0:
            raise ValueError("site indices must be non-negative")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def validate_for(self, n_sites: int) -> None:
        if self.indices[-1] >= n_sites:
            raise ValueError(
                f"site {self.indices[-1]} out of range for {n_sites}-site chain"
            )

    def complement(self, n_sites: int) -> "SiteSubset":
        self.validate_for(n_sites)
        rest = [i for i in range(n_sites) if i not in self.indices]
        if not rest:
            raise ValueError("complement of the full chain is empty")
        return SiteSubset(rest)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on a subsystem."""

    dim: int
    matrix: np.ndarray
    site_labels: tuple = ()

    def __post_init__(self):
        m = _as_complex_array(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "site_labels", tuple(self.site_labels))
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {m.shape} does not match dim {self.dim}")
        if np.max(np.abs(m - m.conj().T)) > HERM_ATOL:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > HERM_ATOL:
            raise ValueError(f"density matrix trace {tr} != 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < -EIG_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {w[0]}")


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator on a dim-dimensional space."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_array(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {m.shape} does not match dim {self.dim}")
        if np.max(np.abs(m - m.conj().T)) > HERM_ATOL:
            raise ValueError("operator is not Hermitian")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a density operator, sorted in descending order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty 1-D array")
        if np.any(np.diff(v) > 0):
            raise ValueError("spectrum must be sorted in descending order")
        if v[-1] < -EIG_ATOL or v[0] > 1.0 + EIG_ATOL:
            raise ValueError(f"eigenvalues outside [0, 1]: {v}")
        if abs(v.sum() - 1.0) > 1e-8:
            raise ValueError(f"spectrum sums to {v.sum()}, expected 1")

    def __len__(self) -> int:
        return len(self.values)


def spectrum_of(rho: DensityOperator) -> Spectrum:
    w = np.linalg.eigvalsh(rho.matrix)
    w = np.clip(w[::-1], 0.0, None)
    return Spectrum(w)


def kron_embed(local_ops, n_sites: int) -> HermitianOperator:
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
        m = _as_complex_array(op)
        if m.shape != (2, 2):
            raise ValueError("local operators must be 2x2")
        ops[site] = m
    full = np.ones((1, 1), dtype=complex)
    for site in range(n_sites):
        full = np.kron(full, ops.get(site, PAULI_I))
    return HermitianOperator(2 ** n_sites, full)


def apply_local_unitary(state: StateVector, site: int, u) -> StateVector:
    """Apply a single-site unitary, leaving all other sites untouched."""
    u = _as_complex_array(u)
    if u.shape != (2, 2):
        raise ValueError("local unitary must be 2x2")
    if np.max(np.abs(u @ u.conj().T - PAULI_I)) > NORM_ATOL:
        raise ValueError("matrix is not unitary")
    n = state.n_sites
    if site < 0 or site >= n:
        raise ValueError(f"site {site} out of range")
    amps = _apply_local_unitary_raw(state.amplitudes, n, site, u)
    return StateVector(n, amps)


def _apply_local_unitary_raw(amps: np.ndarray, n: int, site: int, u: np.ndarray) -> np.ndarray:
    shaped = amps.reshape(2 ** site, 2, 2 ** (n - site - 1))
    return np.einsum("ab,ibj->iaj", u, shaped).reshape(-1)


def partial_trace(state: StateVector, keep: SiteSubset) -> DensityOperator:
    """Reduced density matrix of a pure state on the kept sites."""
    keep.validate_for(state.n_sites)
    n = state.n_sites
    kept = list(keep.indices)
    traced = [i for i in range(n) if i not in keep.indices]
    tensor = state.amplitudes.reshape((2,) * n)
    mat = tensor.transpose(kept + traced).reshape(2 ** len(kept), -1)
    rho = mat @ mat.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(2 ** len(kept), rho, tuple(kept))


def purity(rho: DensityOperator) -> float:
    """Tr(rho^2) via the squared Frobenius norm (Hermitian shortcut)."""
    return float(np.sum(np.abs(rho.matrix) ** 2))


def eigensystem(h: HermitianOperator):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""
    w, v = np.linalg.eigh(h.matrix)
    return w[::-1].copy(), v[:, ::-1].copy()


def born_sample(state: StateVector, rng: np.random.Generator) -> np.ndarray:
    """Draw one computational-basis outcome with Born-rule probabilities."""
    return _born_sample_raw(state.amplitudes, state.n_sites, rng)


def _born_sample_raw(amps: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    probs = np.abs(amps) ** 2
    cum = np.cumsum(probs)
    index = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    index = min(index, len(amps) - 1)
    return np.array([(index >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)
