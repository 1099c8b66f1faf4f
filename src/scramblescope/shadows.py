"""Simulated classical-shadow pipeline with single-qubit Pauli measurements.

A snapshot stores, per site, which Pauli basis was measured (X/Y/Z) and the
outcome bit, packed into one code basis*2 + bit. Subsystem purities and
cross-state overlaps are estimated from the single-site kernel {5, -4, 1/2}
between snapshot pairs, robustly aggregated by median-of-means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .infotheory import chi2_from_purities
from .qhilbert import HADAMARD, PAULI_I, PHASE_S, SiteSubset, StateVector

BASIS_X, BASIS_Y, BASIS_Z = 0, 1, 2

# Largest shadow array budget, in bytes; check_shadow_memory refuses a run
# whose largest term exceeds it. A shadow-curve time point samples the second
# state while it holds the first state's uint8 codes, the second's uint8 bases
# and outcomes, and one float64 uniform and one float64 target per snapshot:
# budgeted at 8 bytes per snapshot and site plus 16 per snapshot (tracemalloc
# saw 35.6 bytes per snapshot at L=6 and 25.1 at L=2). The estimator holds
# one histogram chunk, which peaked at 41 bytes per entry, budgeted at 48 for
# the one unit that can outgrow _HISTOGRAM_ENTRIES; a subset size that takes
# the B x B order holds one float64 B x B kernel matrix per measured site, and
# up to five more for the running product. Fixed-size chunks are far below the
# budget: the sampler's (68 bytes per amplitude at most, 17 MiB) and a
# histogram chunk of several units (at most 12 MiB).
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

# Amplitudes one sampling chunk's prefix table holds (4 MiB); a chunk has at
# most a quarter as many rows.
_SAMPLE_AMPLITUDES = 2 ** 18


def _born_outcomes(state: StateVector, bases, uniforms) -> np.ndarray:
    """Measure sites one after another; one row of (M, n) bits per uniform.

    Row i rotates site s by _BASIS_ROTATIONS[bases[i, s]] and keeps the half
    its target (uniform times total weight) falls in, less the weights it
    passes, never a zero-weight half: the CDF-inversion index, with no division.
    The vector in front of site s depends only on the row's codes before s, so
    each distinct (prefix, basis) key is rotated and halved once, and its two
    half-weights are gathered back to the rows that share it.
    """
    n = state.n_sites
    out = np.empty((len(uniforms), n), dtype=np.uint8)
    # Each row holds about four amplitudes' bytes of keys, weights and targets,
    # and site s at most min(rows, 3 * 6**s) keys of 2**(n - s) amplitudes.
    step = max(1, _SAMPLE_AMPLITUDES >> 2)
    for s in range(n):
        if 3 * 6**s << (n - s) > _SAMPLE_AMPLITUDES:
            step = max(1, min(step, _SAMPLE_AMPLITUDES >> (n - s)))
            break
    cuts = range(step, len(uniforms), step)
    targets = uniforms * np.sum(np.abs(state.amplitudes) ** 2)
    for b, target, o in zip(np.split(bases, cuts), np.split(targets, cuts), np.split(out, cuts)):
        table, prefix = state.amplitudes[None], np.zeros(len(b), dtype=np.intp)
        for site in range(n):
            half = 2 ** (n - site - 1)
            keys, row = np.unique(prefix * 3 + b[:, site], return_inverse=True)
            halves = _BASIS_ROTATIONS[keys % 3] @ table[keys // 3].reshape(-1, 2, half)
            w = np.sum(np.abs(halves) ** 2, axis=2)[row]
            o[:, site] = bit = (target >= w[:, 0]) & (w[:, 1] > 0)
            target = np.where(bit, target - w[:, 0], target)
            picks, prefix = np.unique(row * 2 + bit, return_inverse=True)
            table = halves.reshape(-1, half)[picks]
    return out


# Integer factors w(c) = (1, 3 s e_basis), s = +1 for bit 0 and -1 for bit 1,
# one row per code: the kernel of two codes is w(c) . w(c') / 2.
_KERNEL_FACTORS = np.array([
    [1, 3, 0, 0], [1, -3, 0, 0],    # X
    [1, 0, 3, 0], [1, 0, -3, 0],    # Y
    [1, 0, 0, 3], [1, 0, 0, -3],    # Z
])

# Code-tuple histogram entries one estimator chunk holds: (subset, batch)
# units of B tuple indices and 6**|A| counts each.
_HISTOGRAM_ENTRIES = 2 ** 18


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


def _histogram_order(subset_size: int, batch_size: int) -> bool:
    """Whether a subset's batch pair sums come from its 6**|A| code-tuple
    histogram rather than from B x B kernel matrices. At 6**|A| = B**2 / 4
    the histogram measured 1.4 to 4 times faster for |A| = 3..6, and at
    6**|A| = 0.4 B**2 about as fast."""
    return 4 * 6 ** subset_size <= batch_size ** 2


def check_shadow_memory(n_sites: int, n_snapshots: int, mom: MoMConfig, *subset_sizes: int) -> None:
    """Refuse a shadow budget whose arrays would exceed MAX_SHADOW_BYTES, for
    an estimator handed subsets of the given sizes."""
    b = mom.batch_size
    need = [n_snapshots * (8 * n_sites + 16)]
    for k in subset_sizes:
        if _histogram_order(k, b):
            need.append(48 * (b + 6 ** k))
        else:
            need.append(8 * b ** 2 * (n_sites + 5))
    if max(need) > MAX_SHADOW_BYTES:
        raise ValueError(
            f"{n_snapshots} snapshots of {n_sites} sites in batches of {b} "
            f"need {max(need) / 2 ** 30:.3g} GiB, above the shadow memory "
            f"limit of {MAX_SHADOW_BYTES / 2 ** 30:g} GiB"
        )


def _histogram_sums(
    codes1: np.ndarray, codes2: np.ndarray, subsets: Sequence[SiteSubset], mom: MoMConfig
) -> np.ndarray:
    """(3, subsets, batches) pair sums T11, T22 and T12 on subsets of one
    size k, from histograms of the batches' code tuples.

    Over a batch, S = sum_i (x)_{s in A} w(c_is) is the histogram of the
    6**k tuples contracted with _KERNEL_FACTORS on each axis, an integer
    vector, and the pair sum of the kernel is S.S / 2**k.
    """
    k, batches, b = len(subsets[0]), mom.n_batches, mom.batch_size
    cols = np.array([s.indices for s in subsets])
    place = 6 ** np.arange(k - 1, -1, -1)
    units = len(subsets) * batches
    sums = np.empty((3, units))
    # A unit is one (subset, batch) pair: B tuple indices and 6**k counts.
    step = max(1, _HISTOGRAM_ENTRIES // (b + 6 ** k))
    for start in range(0, units, step):
        j, batch = np.divmod(np.arange(start, min(start + step, units)), batches)
        rows = (batch * b)[:, None, None] + np.arange(b)[:, None]
        offsets = (np.arange(len(j)) * 6 ** k)[:, None]
        s1, s2 = (
            _tuple_sums(c[rows, cols[j][:, None, :]] @ place + offsets, k)
            for c in (codes1, codes2)
        )
        sums[:, start : start + len(j)] = (
            (s1 * s1).sum(axis=1), (s2 * s2).sum(axis=1), (s1 * s2).sum(axis=1)
        )
    return sums.reshape(3, len(subsets), batches) / 2 ** k


def _tuple_sums(index: np.ndarray, k: int) -> np.ndarray:
    """(units, 4**k) sums S from a (units, B) array of offset tuple indices."""
    units = len(index)
    counts = np.bincount(index.ravel(), minlength=units * 6 ** k)
    s = counts.reshape(units, *(6,) * k).astype(np.float64)
    for _ in range(k):
        s = np.tensordot(s, _KERNEL_FACTORS, axes=(1, 0))
    return s.reshape(units, -1)


def _pair_sums(
    codes1: np.ndarray, codes2: np.ndarray, subsets: Sequence[SiteSubset], mom: MoMConfig
) -> np.ndarray:
    """(3, subsets, batches) pair sums T11, T22 and T12, from B x B matrices.

    Within a batch the kernel of a subset is the elementwise running product
    of the single-site B x B kernel matrices, each formed once per batch and
    pair of sets and shared by every subset.
    """
    sites = sorted({site for s in subsets for site in s})
    b = mom.batch_size
    sums = np.empty((3, len(subsets), mom.n_batches))
    for i, (x, y) in enumerate(((codes1, codes1), (codes2, codes2), (codes1, codes2))):
        for k in range(mom.n_batches):
            xk, yk = x[k * b : (k + 1) * b], y[k * b : (k + 1) * b]
            kern = {s: _KERNEL_FACTORS[xk[:, s]] @ _KERNEL_FACTORS[yk[:, s]].T / 2 for s in sites}
            for j, subset in enumerate(subsets):
                sums[i, j, k] = math.prod(kern[site] for site in subset).sum()
    return sums


def _kernel_medians(
    codes1: np.ndarray, codes2: np.ndarray, subsets: Sequence[SiteSubset], mom: MoMConfig
) -> np.ndarray:
    """(3, subsets) medians over batches of purity1, purity2 and overlap.

    One estimator, the kernel summed over all B**2 snapshot pairs of a
    batch, in two evaluation orders: each size of subset takes the histogram
    or the B x B order, whichever _histogram_order finds cheaper. Every sum
    is an exact dyadic value while B**2 * 10**|A| < 2**53, so both orders
    give the same bits. A snapshot paired with itself adds 5**|A|; leaving
    out those B self-pairs makes the purity mean an unbiased U-statistic of
    Tr(rho_A^2), and the overlap is the mean over all pairs.
    """
    b = mom.batch_size
    sums = np.empty((3, len(subsets), mom.n_batches))
    for k in sorted({len(s) for s in subsets}):
        js = [j for j, s in enumerate(subsets) if len(s) == k]
        order = _histogram_sums if _histogram_order(k, b) else _pair_sums
        sums[:, js] = order(codes1, codes2, [subsets[j] for j in js], mom)
    self_pairs = b * 5 ** np.array([len(s) for s in subsets])[:, None]
    means = np.concatenate([(sums[:2] - self_pairs) / (b * (b - 1)), sums[2:] / (b * b)])
    return np.median(means, axis=2)


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

    Each subset size takes the cheaper of the estimator's two evaluation
    orders, which give the same bits. Purities are clamped to [2^-|A|, 1]
    before the logarithm, so the plug-in value can carry a small bias; the
    raw components are reported alongside.
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
    p1, p2, ov = _kernel_medians(shadows1.codes, shadows2.codes, subsets, mom).tolist()
    return [
        Chi2Estimate(
            value=chi2_from_purities(a, b, (a + b + 2.0 * o) / 4.0, 2 ** len(subset)),
            purity1=a,
            purity2=b,
            overlap=o,
        )
        for subset, a, b, o in zip(subsets, p1, p2, ov)
    ]
