"""Simulated classical-shadow pipeline with single-qubit Pauli measurements.

A snapshot stores, per site, which Pauli basis was measured (X/Y/Z) and the
outcome bit, packed into one code basis*2 + bit. Subsystem purities and
cross-state overlaps are estimated from the three-valued lookup kernel
{5, -4, 1/2} between snapshot pairs, robustly aggregated by median-of-means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .infotheory import chi2_from_purities
from .qhilbert import HADAMARD, PAULI_I, PHASE_S, SiteSubset, StateVector

BASIS_X, BASIS_Y, BASIS_Z = 0, 1, 2

# Largest shadow array budget, in bytes. A shadow-curve time point peaks while
# it samples the second state: the first state's uint8 codes, the second's
# uint8 bases and outcomes, and one float64 uniform and one float64 target per
# snapshot. Budgeted at 8 bytes per snapshot and site plus 16 per snapshot;
# tracemalloc over two TFIM time points saw 35.6 bytes per snapshot at L=6
# (400,000 to 1,600,000 shots) and 25.1 at L=2 (200,000 to 800,000). A batch
# of B snapshots holds one float64 B x B kernel matrix per measured site, and
# up to five more for the running product and its indices.
MAX_SHADOW_BYTES = 2 ** 31

# int64 basis draws per chunk of sample_shadow_set (512 KiB).
_DRAW_CHUNK = 2 ** 16

# Rotation applied before a computational-basis measurement so that the
# outcome projects onto the chosen Pauli eigenbasis.
_BASIS_ROTATIONS = np.array([
    HADAMARD,                       # X
    HADAMARD @ PHASE_S.conj().T,    # Y
    PAULI_I,                        # Z
])

# Amplitudes one sampling chunk holds (4 MiB): 2**18 // 2**n snapshots of n sites.
_SAMPLE_AMPLITUDES = 2 ** 18


def _born_outcomes(state: StateVector, bases, uniforms) -> np.ndarray:
    """Measure sites one after another; one row of (M, n) bits per uniform.

    Row i rotates site s by _BASIS_ROTATIONS[bases[i, s]] and keeps the half
    its target (uniform times total weight) falls in, less the weights it
    passes, never a zero-weight half: the CDF-inversion index, with no division.
    """
    out = np.empty((len(uniforms), state.n_sites), dtype=np.uint8)
    step = max(1, _SAMPLE_AMPLITUDES >> state.n_sites)
    cuts = range(step, len(uniforms), step)
    targets = uniforms * np.sum(np.abs(state.amplitudes) ** 2)
    for b, target, o in zip(np.split(bases, cuts), np.split(targets, cuts), np.split(out, cuts)):
        amps = np.broadcast_to(state.amplitudes, (len(b), state.dim))
        for site in range(state.n_sites):
            halves = _BASIS_ROTATIONS[b[:, site]] @ amps.reshape(len(b), 2, -1)
            w = np.sum(np.abs(halves) ** 2, axis=2)
            o[:, site] = bit = (target >= w[:, 0]) & (w[:, 1] > 0)
            target = np.where(bit, target - w[:, 0], target)
            amps = halves[np.arange(len(b)), bit.astype(np.intp)]
    return out


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


# 6x6 table indexed by the packed code basis*2 + bit.
_KERNEL_TABLE = np.array(
    [
        [kernel_value(c1 // 2, c1 % 2, c2 // 2, c2 % 2) for c2 in range(6)]
        for c1 in range(6)
    ]
)


@dataclass(frozen=True)
class ShadowSet:
    """Ordered snapshots from one source state: an (M, n_sites) uint8 array
    of per-site codes basis*2 + bit."""

    codes: np.ndarray

    def __post_init__(self):
        # Checked before the uint8 cast, which wraps.
        c = np.asarray(self.codes)
        if c.ndim != 2 or np.any((c < 0) | (c > 5)):
            raise ValueError("snapshot codes must be an (M, n_sites) array with values 0..5")
        object.__setattr__(self, "codes", c.astype(np.uint8, copy=False))

    @property
    def n_sites(self) -> int:
        return self.codes.shape[1]

    def __len__(self) -> int:
        return self.codes.shape[0]


@dataclass(frozen=True)
class MoMConfig:
    """Median-of-means batching: n_batches batches of batch_size snapshots."""

    n_batches: int
    batch_size: int

    def __post_init__(self):
        # The same-set U-statistic pairs distinct snapshots of one batch.
        if self.n_batches < 1 or self.batch_size < 2:
            raise ValueError(
                "need at least 1 batch of at least 2 snapshots, got "
                f"{self.n_batches} batches of {self.batch_size}"
            )


def sample_shadow_set(state: StateVector, n_snapshots: int, rng: np.random.Generator) -> ShadowSet:
    n = state.n_sites
    # Row chunks of int64 draws fill the uint8 array; the generator's stream
    # is the same as one (n_snapshots, n) draw.
    bases = np.empty((n_snapshots, n), dtype=np.uint8)
    step = max(1, _DRAW_CHUNK // n)
    for rows in np.split(bases, range(step, n_snapshots, step)):
        rows[...] = rng.integers(0, 3, size=rows.shape)
    outcomes = _born_outcomes(state, bases, rng.random(n_snapshots))
    # Packed in place: the bases become the codes basis*2 + bit.
    bases *= 2
    bases += outcomes
    return ShadowSet(bases)


def check_shadow_memory(n_sites: int, n_snapshots: int, mom: MoMConfig, kernel_sites: int) -> None:
    """Refuse a shadow budget whose arrays would exceed MAX_SHADOW_BYTES."""
    codes = n_snapshots * (8 * n_sites + 16)
    kernels = 8 * mom.batch_size ** 2 * (kernel_sites + 5)
    if max(codes, kernels) > MAX_SHADOW_BYTES:
        raise ValueError(
            f"{n_snapshots} snapshots of {n_sites} sites in batches of {mom.batch_size} "
            f"need {max(codes, kernels) / 2 ** 30:.3g} GiB, above the shadow memory "
            f"limit of {MAX_SHADOW_BYTES / 2 ** 30:g} GiB"
        )


def _kernel_medians(
    codes_a: np.ndarray,
    codes_b: np.ndarray,
    subsets: Sequence[SiteSubset],
    mom: MoMConfig,
    same_set: bool,
) -> np.ndarray:
    """Median over batches of each subset's mean snapshot-pair kernel.

    Within a batch the kernel of a subset is the elementwise product of the
    single-site B x B kernel matrices, each formed once per batch and shared
    by every subset. With same_set the two code arrays are one shadow set and
    the diagonal (a snapshot paired with itself) is left out, which makes the
    batch mean an unbiased U-statistic of Tr(rho_A^2); otherwise the batch
    mean estimates the overlap Tr(rho1_A rho2_A).
    """
    sites = sorted({site for s in subsets for site in s})
    nb = mom.batch_size
    means = np.empty((len(subsets), mom.n_batches))
    for k in range(mom.n_batches):
        a, b = codes_a[k * nb : (k + 1) * nb], codes_b[k * nb : (k + 1) * nb]
        kern = {s: _KERNEL_TABLE[a[:, s][:, None], b[:, s][None, :]] for s in sites}
        for j, subset in enumerate(subsets):
            g = None
            for site in subset:
                g = kern[site] if g is None else g * kern[site]
            if same_set:
                means[j, k] = (g.sum() - np.trace(g)) / (nb * (nb - 1))
            else:
                means[j, k] = g.mean()
    return np.median(means, axis=1)


@dataclass(frozen=True)
class Chi2Estimate:
    """Plug-in chi2 estimate plus its three raw (unclamped) purity components."""

    value: float
    purity1: float
    purity2: float
    overlap: float


def chi2_estimate_many(
    shadows1: ShadowSet,
    shadows2: ShadowSet,
    subsets: Sequence[SiteSubset],
    mom: MoMConfig,
) -> list[Chi2Estimate]:
    """Estimate chi2 on each subset from the two purities and the cross overlap.

    Per-site kernel matrices are formed once per batch and shared by every
    subset. Purities are clamped to [2^-|A|, 1] before the logarithm, so the
    plug-in value can carry a small bias; the raw components are reported
    alongside.
    """
    if shadows1.n_sites != shadows2.n_sites:
        raise ValueError("shadow sets come from different chain lengths")
    for subset in subsets:
        subset.validate_for(shadows1.n_sites)
    if mom.n_batches * mom.batch_size > min(len(shadows1), len(shadows2)):
        raise ValueError(
            f"{mom.n_batches} batches of {mom.batch_size} exceed the "
            f"{len(shadows1)} and {len(shadows2)} available snapshots"
        )
    c1, c2 = shadows1.codes, shadows2.codes
    p1 = _kernel_medians(c1, c1, subsets, mom, same_set=True).tolist()
    p2 = _kernel_medians(c2, c2, subsets, mom, same_set=True).tolist()
    ov = _kernel_medians(c1, c2, subsets, mom, same_set=False).tolist()
    return [
        Chi2Estimate(
            value=chi2_from_purities(a, b, (a + b + 2.0 * o) / 4.0, 2 ** len(subset)),
            purity1=a,
            purity2=b,
            overlap=o,
        )
        for subset, a, b, o in zip(subsets, p1, p2, ov)
    ]
