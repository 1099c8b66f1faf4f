"""Hilbert-space primitives for chains of qubits.

Conventions used throughout the package: site 0 is the leftmost chain site
and the most significant bit of a computational-basis index; bit value 0
means spin up, i.e. the +1 eigenstate of sigma_z.

States and reduced density matrices are dense arrays; Hamiltonians are
term lists (`models.ChainHamiltonian`). Chains are refused above 13 sites
(`models.MAX_DENSE_SITES`): at 14 sites the whole-space block of a TFIM or
MFIM chain takes 4 GiB of complex128. Reduced states are refused above
MAX_REDUCED_SITES.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of an n_sites-qubit chain."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
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
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {m.shape} does not match dim {self.dim}")
        check_density(m)
        object.__setattr__(self, "spectrum", Spectrum(np.linalg.eigvalsh(m)[::-1]))


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
        values = _check_spectra(v)
        if (v[1:] > v[:-1]).any():
            raise ValueError("spectrum must be sorted in descending order")
        object.__setattr__(self, "values", values)


def _check_spectra(v: np.ndarray) -> np.ndarray:
    """Refuse any spectrum in the (..., d) stack v that is not finite, has a
    value outside [-EIG_ATOL, 1 + EIG_ATOL] or does not sum to 1; return the
    stack with the round-off below 0 clipped to 0."""
    total = v.sum(axis=-1)
    if not np.isfinite(total).all():  # any nan or inf entry makes its sum non-finite
        raise ValueError(f"spectrum has non-finite values: {v}")
    if v.min() < -EIG_ATOL or v.max() > 1.0 + EIG_ATOL:
        raise ValueError(f"eigenvalues outside [0, 1]: {v}")
    if (abs(total - 1.0) > 1e-8).any():
        raise ValueError(f"spectrum sums to {total}, expected 1")
    return np.maximum(v, 0.0)


def check_density(m: np.ndarray) -> None:
    """Refuse a (..., d, d) stack holding a matrix that is not Hermitian or
    not of unit trace."""
    if not abs(m - m.conj().swapaxes(-1, -2)).max() <= HERM_ATOL:  # NaN fails it
        raise ValueError("operator is not Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if not (abs(tr - 1.0) <= HERM_ATOL).all():
        raise ValueError(f"density matrix trace {tr} != 1")


def density_spectra(m: np.ndarray) -> np.ndarray:
    """Checked spectra of a (..., d, d) stack that passed check_density: one
    stacked eigvalsh, each row sorted in descending order and clipped at 0,
    as a DensityOperator's spectrum is."""
    return _check_spectra(np.linalg.eigvalsh(m)[..., ::-1])


# Most sites of a reduced density matrix: a whole-chain grid peaked at 425 MiB
# RSS for 11 sites and 1.6 GiB for 12, so 13 would need about 6 GiB.
MAX_REDUCED_SITES = 12


def check_reduced_sites(k: int) -> None:
    """Refuse a reduced state above MAX_REDUCED_SITES, before it is built."""
    if k > MAX_REDUCED_SITES:
        raise ValueError(f"a {k}-site reduced state exceeds the limit of {MAX_REDUCED_SITES} sites")


def reduced_offsets(n_sites: int, sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis-index offsets that gather each (d_A, d_B) reshape of a state.

    For an (S, k) array of kept sites, one subset per row, returns the
    offsets (S, d_A) of every bit pattern on the kept sites and (S, d_B) of
    every pattern on the other sites, the first site of each most
    significant: amplitude kept[j, a] + rest[j, b] is entry (a, b) of
    subset j's reshape.
    """
    S, k = sites.shape
    outside = np.ones((S, n_sites), dtype=bool)
    outside[np.arange(S)[:, None], sites] = False
    rest = np.nonzero(outside)[1].reshape(S, n_sites - k)

    def offsets(chosen):
        m = chosen.shape[1]
        bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
        return (1 << (n_sites - 1 - chosen)) @ bits.T

    return offsets(sites), offsets(rest)


def reduced_matrices(m: np.ndarray) -> np.ndarray:
    """M M^dag for each (d_A, d_B) reshape M of a pure state in a
    (..., d_A, d_B) stack, made exactly Hermitian: the reduced density
    matrices on the kept sites."""
    rho = m @ m.conj().swapaxes(-1, -2)
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def partial_trace(state: StateVector, keep: SiteSubset) -> DensityOperator:
    """Reduced density matrix of a pure state on the kept sites."""
    keep.validate_for(state.n_sites)
    n, kept = state.n_sites, keep.indices
    check_reduced_sites(len(kept))
    order = kept + tuple(i for i in range(n) if i not in kept)
    d = 2 ** len(kept)
    mat = state.amplitudes.reshape((2,) * n).transpose(order).reshape(d, -1)
    return DensityOperator(d, reduced_matrices(mat))


def purities(m: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of each matrix of a (..., d, d) stack via the squared
    Frobenius norm (Hermitian shortcut)."""
    return (abs(m.reshape(*m.shape[:-2], -1)) ** 2).sum(axis=-1)


def purity(rho: DensityOperator) -> float:
    """Tr(rho^2) via the squared Frobenius norm (Hermitian shortcut)."""
    return float(purities(rho.matrix))
