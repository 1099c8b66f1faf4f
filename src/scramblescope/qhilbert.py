"""Hilbert-space primitives for chains of qubits.

Conventions used throughout the package: site 0 is the leftmost chain site
and the most significant bit of a computational-basis index; bit value 0
means spin up, i.e. the +1 eigenstate of sigma_z.

All matrices are dense. Hamiltonians are refused above 13 sites
(`models.MAX_DENSE_SITES`): at 14 sites one complex128 matrix takes 4 GiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        if not abs(norm - 1.0) <= NORM_ATOL:  # written so that NaN fails it
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


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on a subsystem.

    Its spectrum is built at construction, and building it is the
    positivity check.
    """

    dim: int
    matrix: np.ndarray
    spectrum: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_complex_array(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {m.shape} does not match dim {self.dim}")
        if not abs(m - m.conj().T).max() <= HERM_ATOL:  # NaN fails it
            raise ValueError("density matrix is not Hermitian")
        tr = m.trace().real
        if not abs(tr - 1.0) <= HERM_ATOL:
            raise ValueError(f"density matrix trace {tr} != 1")
        object.__setattr__(self, "spectrum", Spectrum(np.linalg.eigvalsh(m)[::-1]))


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
        if not abs(m - m.conj().T).max() <= HERM_ATOL:
            raise ValueError("operator is not Hermitian")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a density operator, sorted in descending order.

    Values below -EIG_ATOL are refused; the round-off above it that lies
    below 0 is clipped to 0.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spectrum must be a nonempty 1-D array")
        total = v.sum()
        if not math.isfinite(total):  # any nan or inf entry makes the sum non-finite
            raise ValueError(f"spectrum has non-finite values: {v}")
        if (v[1:] > v[:-1]).any():
            raise ValueError("spectrum must be sorted in descending order")
        if v[-1] < -EIG_ATOL or v[0] > 1.0 + EIG_ATOL:
            raise ValueError(f"eigenvalues outside [0, 1]: {v}")
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"spectrum sums to {total}, expected 1")
        object.__setattr__(self, "values", np.maximum(v, 0.0))


def partial_trace(state: StateVector, keep: SiteSubset) -> DensityOperator:
    """Reduced density matrix of a pure state on the kept sites."""
    keep.validate_for(state.n_sites)
    n, kept = state.n_sites, keep.indices
    order = kept + tuple(i for i in range(n) if i not in kept)
    d = 2 ** len(kept)
    mat = state.amplitudes.reshape((2,) * n).transpose(order).reshape(d, -1)
    rho = mat @ mat.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(d, rho)


def purity(rho: DensityOperator) -> float:
    """Tr(rho^2) via the squared Frobenius norm (Hermitian shortcut)."""
    return float((abs(rho.matrix) ** 2).sum())

