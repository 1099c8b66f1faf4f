"""Experiment orchestration: two-member ensembles swept over time and space.

A scenario fixes a model, a single-site flip perturbation of the model's
product state, a subsystem size, and a time grid. The exact grids and the
shadow-estimated curves below are the data behind the package's heatmap and
tracking experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .evolve import evolve, make_propagator
from .infotheory import SUBENTROPY_NODES, chi2_from_purities, entropies, pair_gain, subentropies
from .models import ModelSpec, build_hamiltonian
from .qhilbert import (
    DensityOperator,
    SiteSubset,
    StateVector,
    basis_state,
    check_density,
    check_reduced_sites,
    density_spectra,
    purities,
    reduced_matrices,
    reduced_offsets,
)
from .seeding import substream_rng
from .shadows import MoMConfig, check_shadow_memory, chi2_estimate_many, sample_shadow_set

METRIC_NAMES = ("chi2", "holevo", "chi_q")
POLICIES = ("windows_containing_x", "all_subsets")


def default_perturbation_site(kind: str, n_sites: int) -> int:
    """Center site, stepped down to the nearest active site for PXP."""
    site = n_sites // 2
    if kind == "PXP" and site % 2 == 1:
        site -= 1
    return site


@dataclass(frozen=True)
class ScrambleScenario:
    """The model, its flipped site, the subsystem size and the time grid."""

    model: ModelSpec
    perturbation_site: int
    subsystem_size: int
    time_grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float)
        object.__setattr__(self, "time_grid", grid)
        L = self.model.n_sites
        if not 0 <= self.perturbation_site < L:
            raise ValueError(f"perturbation site {self.perturbation_site} out of range")
        if self.model.kind == "PXP" and _initial_bits("PXP", L)[self.perturbation_site] != 0:
            raise ValueError(
                "PXP perturbation must de-excite an active (spin-up) site; "
                f"site {self.perturbation_site} is inactive and the flip would "
                "exit the blockade-respecting subspace"
            )
        if not 1 <= self.subsystem_size <= L:
            raise ValueError(f"subsystem size {self.subsystem_size} is not in [1, {L}]")
        check_reduced_sites(self.subsystem_size)
        # Written so that NaN fails them.
        if grid.ndim != 1 or grid.size == 0 or not grid[0] >= 0:
            raise ValueError("time grid must be 1-D and start at t >= 0")
        if not np.all(np.isfinite(grid)):
            raise ValueError("time grid must be finite")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("time grid must be strictly increasing")

    def scenario_echo(self) -> dict:
        """Plain-JSON description for result manifests."""
        d = {
            "model": self.model.kind,
            "n_sites": self.model.n_sites,
            "couplings": dict(self.model.couplings),
            "perturbation_site": self.perturbation_site,
            "subsystem_size": self.subsystem_size,
            "time_grid": [float(t) for t in self.time_grid],
        }
        if self.model.disorder is not None:
            d["disorder"] = self.model.disorder.echo()
        return d


def check_grid_choices(metrics, policy: str) -> None:
    """Refuse metrics or a subset policy that exact_metric_grid cannot run."""
    metrics = tuple(metrics)
    if policy not in POLICIES:
        raise ValueError(f"unknown subset policy {policy!r}")
    if not metrics:
        raise ValueError("no metrics requested")
    if any(m not in METRIC_NAMES for m in metrics):
        raise ValueError(f"unknown metric in {metrics}")
    if len(set(metrics)) != len(metrics):
        raise ValueError(f"duplicate metric in {metrics}")


@dataclass(frozen=True)
class GridResult:
    """Metric values on the (metric, time, site) grid."""

    values: np.ndarray
    metrics: tuple
    time_grid: np.ndarray
    sites: tuple


def _initial_bits(kind: str, n_sites: int) -> list[int]:
    """The model's product state: Neel for PXP and MBL, all spins up otherwise."""
    if kind in ("PXP", "MBL"):
        return [i % 2 for i in range(n_sites)]
    return [0] * n_sites


def prepare_ensemble(s: ScrambleScenario) -> tuple[StateVector, StateVector]:
    """The model's product state and its single-site flip."""
    return _flip_pair(_initial_bits(s.model.kind, s.model.n_sites), s.perturbation_site)


def _flip_pair(bits, site: int) -> tuple[StateVector, StateVector]:
    """Basis product state and its flip at one site."""
    flipped = list(bits)
    flipped[site] ^= 1
    return basis_state(len(bits), bits), basis_state(len(bits), flipped)


def _trajectory(h, pair, time_grid):
    """Yield the evolved pair (psi1, psi2) at each time, from one propagator
    on the sector of h that the pair reaches."""
    prop = make_propagator(h, *pair)
    for t in time_grid:
        yield evolve(prop, pair[0], t), evolve(prop, pair[1], t)


def qualifying_subsets(L: int, k: int, policy: str) -> list[SiteSubset]:
    """Distinct size-k subsets of an L-site chain that the policy sweeps over."""
    if policy == "windows_containing_x":
        return [SiteSubset(range(x0, x0 + k)) for x0 in range(L - k + 1)]
    if policy == "all_subsets":
        return [SiteSubset(c) for c in itertools.combinations(range(L), k)]
    raise ValueError(f"unknown subset policy {policy!r}")


def exact_chi2_pair(rho1: DensityOperator | np.ndarray, rho2: DensityOperator | np.ndarray):
    """chi2 of an equal-weight pair, from its two purities and their overlap.

    Takes two DensityOperators, or two (..., d, d) stacks of density
    matrices of one shape, and gives a float for one pair or an array of the
    stacks' leading shape. A stack is checked as a DensityOperator is,
    Hermitian with unit trace, but not for positivity, which needs its
    spectrum: chi2 reads only the purities and the overlap.
    """
    m1, m2 = (_checked_matrices(rho) for rho in (rho1, rho2))
    if m1.shape != m2.shape:
        raise ValueError(f"density matrix shapes {m1.shape} and {m2.shape} differ")
    d = m1.shape[-1]
    p1, p2 = purities(m1), purities(m2)
    # each (1, d^2) @ (d^2, 1) product rounds as np.vdot of the two matrices does
    overlap = (m1.reshape(*m1.shape[:-2], 1, d * d).conj() @ m2.reshape(*m2.shape[:-2], d * d, 1)).real
    p_mix = (p1 + p2 + 2.0 * overlap[..., 0, 0]) / 4.0
    # math.log per value: a vectorised np.log may round differently
    purity_triples = zip(p1.ravel().tolist(), p2.ravel().tolist(), p_mix.ravel().tolist())
    chi2 = [chi2_from_purities(a, b, mix, d) for a, b, mix in purity_triples]
    return chi2[0] if p1.ndim == 0 else np.reshape(chi2, p1.shape)


def _checked_matrices(rho: DensityOperator | np.ndarray) -> np.ndarray:
    """The matrix of a DensityOperator, or a (..., d, d) stack that passes
    check_density."""
    if isinstance(rho, DensityOperator):
        return rho.matrix
    m = np.asarray(rho, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"an array of shape {m.shape} is not a stack of square matrices")
    check_density(m)
    return m


# Most bytes that one chunk of subsets may take in _exact_metrics, which
# measures at least one subset per chunk however large it is. The 45 two-site
# subsets of an L=10 chain fit in one chunk.
_CHUNK_BYTES = 8 << 20


def _subset_bytes(n_sites: int, d: int, metrics) -> int:
    """Bytes that one subset adds to a chunk, at most: its gather index and
    both gathered states with their conjugates (72 bytes per amplitude),
    twelve complex d x d matrices for its three reduced states and the
    temporaries of checking and solving them, and chi_q's two (3, d, nodes)
    integrand arrays."""
    return 72 * 2**n_sites + 16 * 12 * d * d + ("chi_q" in metrics) * 2 * 8 * 3 * d * SUBENTROPY_NODES


def _subset_offsets(n_sites: int, subsets) -> tuple[np.ndarray, np.ndarray]:
    """reduced_offsets of same-size subsets of an n_sites chain. An
    experiment builds them once and hands them to _exact_metrics at every
    time point."""
    sites = np.array([s.indices for s in subsets])
    if sites.ndim != 2:
        raise ValueError("the subsets must share one size")
    if sites.max() >= n_sites:
        raise ValueError(f"site {sites.max()} out of range for {n_sites}-site chain")
    check_reduced_sites(sites.shape[1])
    return reduced_offsets(n_sites, sites)


def _stacked_metrics(amplitudes: np.ndarray, kept: np.ndarray, rest: np.ndarray, metrics) -> np.ndarray:
    """(metric, subset) exact values from a (2, 2^n) stack of the pair's
    amplitudes and the subsets' reduced_offsets. Both members' reduced
    states, and their average when a spectral metric needs it, are formed,
    checked and solved as one stack."""
    rho = reduced_matrices(np.take(amplitudes, kept[:, :, None] + rest[:, None, :], axis=-1))
    values = {}
    if "chi2" in metrics:
        values["chi2"] = exact_chi2_pair(rho[0], rho[1])  # which checks both members' stacks
    else:
        check_density(rho)
    if "holevo" in metrics or "chi_q" in metrics:
        # the average of two stacks that passed check_density passes it too
        rho = np.concatenate([rho, (0.5 * rho[0] + 0.5 * rho[1])[None]])
    spectra = density_spectra(rho)
    if "holevo" in metrics:
        values["holevo"] = pair_gain(entropies(spectra))
    if "chi_q" in metrics:
        values["chi_q"] = pair_gain(subentropies(spectra))
    return np.array([values[m] for m in metrics])


def _exact_metrics(pair, offsets, metrics=("chi2",)) -> np.ndarray:
    """(metric, subset) exact values on each subset's pair of reduced states.

    offsets are the subsets' _subset_offsets. The subsets are measured in
    chunks of at most _CHUNK_BYTES, one stack per chunk.
    """
    kept, rest = offsets
    step = max(1, _CHUNK_BYTES // _subset_bytes(pair[0].n_sites, kept.shape[1], metrics))
    amplitudes = np.array([psi.amplitudes for psi in pair])
    chunks = [
        _stacked_metrics(amplitudes, kept[lo : lo + step], rest[lo : lo + step], metrics)
        for lo in range(0, len(kept), step)
    ]
    return np.concatenate(chunks, axis=1)


def exact_metric_grid(
    s: ScrambleScenario, metrics=("chi2",), policy: str = "windows_containing_x"
) -> GridResult:
    """Evaluate the metrics on the full (time x site) grid.

    With the windows policy, the value at site x is the maximum over all
    contiguous subsystem windows containing x; with all_subsets, a single
    column holds the global maximum over every size-L_A subset.
    """
    metrics = tuple(metrics)
    check_grid_choices(metrics, policy)
    states = _trajectory(build_hamiltonian(s.model), prepare_ensemble(s), s.time_grid)
    L = s.model.n_sites
    subsets = qualifying_subsets(L, s.subsystem_size, policy)
    sites = tuple(range(L)) if policy == "windows_containing_x" else (0,)
    # owner[j, c]: whether subset j takes part in column c's maximum
    owner = np.array([[policy == "all_subsets" or x in sub.indices for x in sites] for sub in subsets])
    offsets = _subset_offsets(L, subsets)
    values = np.zeros((len(metrics), len(s.time_grid), len(sites)))
    for ti, pair in enumerate(states):
        vals = _exact_metrics(pair, offsets, metrics)
        values[:, ti] = np.where(owner, vals[:, :, None], -np.inf).max(axis=1)
    values = np.maximum(values, 0.0)
    return GridResult(
        values=values,
        metrics=metrics,
        time_grid=s.time_grid,
        sites=sites,
    )


def shadow_metric_curve(
    s: ScrambleScenario, shots: int, mom: MoMConfig, subsystem_sizes=None, *, seed: int = 0
) -> list[dict]:
    """Shadow-estimated and exact maximal chi2 along the time grid.

    At each time a fresh pair of shots-snapshot shadow sets is generated,
    and mom's batches take the first of them; each requested subsystem size
    reuses the same sets, as the protocol allows. Every snapshot is drawn
    from a substream of seed. Rows carry (t, L_A, chi2_shadow, chi2_exact).
    """
    if mom.n_batches * mom.batch_size > shots:
        raise ValueError(f"{mom.n_batches} batches of {mom.batch_size} exceed {shots} shots")
    if subsystem_sizes is None:
        subsystem_sizes = (s.subsystem_size,)
    if len(subsystem_sizes) == 0:
        raise ValueError("no subsystem sizes requested")
    for k in subsystem_sizes:
        replace(s, subsystem_size=k)  # the scenario refuses a size that it cannot hold
    subsets_by_size = [
        (k, qualifying_subsets(s.model.n_sites, k, "all_subsets")) for k in subsystem_sizes
    ]
    check_shadow_memory(s.model.n_sites, shots, mom, *subsystem_sizes)
    offsets_by_size = [_subset_offsets(s.model.n_sites, subsets) for _, subsets in subsets_by_size]
    states = _trajectory(build_hamiltonian(s.model), prepare_ensemble(s), s.time_grid)
    rows = []
    for ti, (t, pair) in enumerate(zip(s.time_grid, states)):
        set1, set2 = (
            sample_shadow_set(psi, shots, substream_rng(seed, f"shadow:{label}", ti))
            for psi, label in zip(pair, ("state1", "state2"))
        )
        for (k, subsets), offsets in zip(subsets_by_size, offsets_by_size):
            ests = chi2_estimate_many(set1, set2, subsets, mom)
            exact = float(_exact_metrics(pair, offsets).max())
            rows.append(
                {
                    "t": float(t),
                    "L_A": int(k),
                    "chi2_shadow": max(e.value for e in ests),
                    "chi2_exact": max(exact, 0.0),
                }
            )
        del set1, set2  # so that the next time point samples without them
    return rows


def _cage_window(cage: SiteSubset, site: int, size: int) -> SiteSubset:
    """Contiguous window of the given size inside the cage containing site."""
    lo, hi = cage.indices[0], cage.indices[-1]
    if size > len(cage):
        raise ValueError("subsystem larger than the cage")
    start = min(max(site - size // 2, lo), hi - size + 1)
    return SiteSubset(range(start, start + size))


def mbl_cage_compare(
    cage_sites: SiteSubset,
    s: ScrambleScenario,
    boundary_coupling_scale: float = 1.0,
) -> list[dict]:
    """chi2 on a cage-interior subsystem: full chain vs. isolated cage.

    The isolated cage reuses the full chain's disorder fields restricted to
    the cage sites. boundary_coupling_scale rescales both exchange couplings
    on the bonds crossing the cage boundary of the full chain; 0 severs them
    (exact decoupling control).
    """
    # Read from `models` on each call, so that a rebinding of
    # `models.build_mbl` (perfbench's tracer wraps it) is seen here.
    from .models import build_mbl

    if s.model.kind != "MBL":
        raise ValueError("cage comparison is defined for the MBL model")
    L_full = s.model.n_sites
    cage_sites.validate_for(L_full)
    idx = cage_sites.indices
    if any(b - a != 1 for a, b in zip(idx, idx[1:])):
        raise ValueError("cage must be contiguous")
    if s.perturbation_site not in idx:
        raise ValueError("cage must contain the perturbation site")
    window = _cage_window(cage_sites, s.perturbation_site, s.subsystem_size)
    disorder = s.model.disorder
    bond_scale = np.ones(L_full - 1)
    if idx[0] > 0:
        bond_scale[idx[0] - 1] = boundary_coupling_scale
    if idx[-1] < L_full - 1:
        bond_scale[idx[-1]] = boundary_coupling_scale
    c = s.model.couplings
    h_full = build_mbl(L_full, disorder=disorder, bond_scale=bond_scale, **c)
    cage_disorder = replace(disorder, fields=disorder.fields[list(idx)])
    h_cage = build_mbl(len(idx), disorder=cage_disorder, **c)
    bits = _initial_bits(s.model.kind, L_full)
    cage_pair = _flip_pair([bits[i] for i in idx], idx.index(s.perturbation_site))
    window_rel = SiteSubset(idx.index(x) for x in window)
    full_offsets, cage_offsets = _subset_offsets(L_full, [window]), _subset_offsets(len(idx), [window_rel])
    full = _trajectory(h_full, prepare_ensemble(s), s.time_grid)
    cage = _trajectory(h_cage, cage_pair, s.time_grid)
    return [
        {
            "t": float(t),
            "chi2_full": float(_exact_metrics(in_chain, full_offsets)[0, 0]),
            "chi2_cage": float(_exact_metrics(isolated, cage_offsets)[0, 0]),
        }
        for t, in_chain, isolated in zip(s.time_grid, full, cage)
    ]
