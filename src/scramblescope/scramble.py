"""Experiment orchestration: two-member ensembles swept over time and space.

A scenario fixes a model, an initial product state, a single-site flip
perturbation, a subsystem size, and a time grid. The exact grids and the
shadow-estimated curves below are the data behind the package's heatmap and
tracking experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__ as _version
from .evolve import evolve, make_propagator
from .infotheory import Ensemble, chi2_from_purities, chi_q, holevo_chi
from .models import ModelSpec, build_hamiltonian
from .qhilbert import (
    DensityOperator,
    SiteSubset,
    StateVector,
    basis_state,
    partial_trace,
    purity,
)
from .seeding import substream_rng
from .shadows import MoMConfig, check_shadow_memory, chi2_estimate_many, sample_shadow_set

METRIC_NAMES = ("chi2", "holevo", "chi_q")
POLICIES = ("windows_containing_x", "all_subsets")
# Most subsets the all_subsets policy enumerates. A ModelSpec refuses a chain
# above the 13-site dense limit, where C(13, 6) = 1716 subsets is the most of
# any size; the cap holds the enumeration bounded should that limit be raised.
SUBSET_CAP = 20000
# Longest time grid a command builds. Its float64 times take 0.8 MB; each
# time point then costs one evolution and one output row per subset and metric.
MAX_TIME_STEPS = 100_000


def default_perturbation_site(kind: str, n_sites: int) -> int:
    """Center site, stepped down to the nearest active site for PXP."""
    site = n_sites // 2
    if kind == "PXP" and site % 2 == 1:
        site -= 1
    return site


@dataclass(frozen=True)
class ScrambleScenario:
    """Full description of one scrambling experiment."""

    model: ModelSpec
    initial_kind: str
    perturbation_site: int
    subsystem_size: int
    time_grid: np.ndarray
    subset_policy: str = "windows_containing_x"
    metrics: tuple = ("chi2",)
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "metrics", tuple(self.metrics))
        grid = np.asarray(self.time_grid, dtype=float)
        object.__setattr__(self, "time_grid", grid)
        L = self.model.n_sites
        if self.initial_kind not in ("polarized", "neel"):
            raise ValueError(f"unknown initial state kind {self.initial_kind!r}")
        if not 0 <= self.perturbation_site < L:
            raise ValueError(f"perturbation site {self.perturbation_site} out of range")
        if self.model.kind == "PXP":
            if self.initial_kind != "neel":
                raise ValueError("PXP scenarios must start from the Neel state")
            if _initial_bits("neel", L)[self.perturbation_site] != 0:
                raise ValueError(
                    "PXP perturbation must de-excite an active (spin-up) site; "
                    f"site {self.perturbation_site} is inactive and the flip would "
                    "exit the blockade-respecting subspace"
                )
        if not 1 <= self.subsystem_size <= L:
            raise ValueError(f"subsystem size {self.subsystem_size} out of range")
        if self.subset_policy not in POLICIES:
            raise ValueError(f"unknown subset policy {self.subset_policy!r}")
        if not self.metrics:
            raise ValueError("scenario requests no metrics")
        if any(m not in METRIC_NAMES for m in self.metrics):
            raise ValueError(f"unknown metric in {self.metrics}")
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError(f"duplicate metric in {self.metrics}")
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
            "initial_kind": self.initial_kind,
            "perturbation_site": self.perturbation_site,
            "subsystem_size": self.subsystem_size,
            "subset_policy": self.subset_policy,
            "metrics": list(self.metrics),
            "time_grid": [float(t) for t in self.time_grid],
            "master_seed": self.master_seed,
            "units": "nats",
            "version": _version,
        }
        if self.model.disorder is not None:
            d["disorder"] = self.model.disorder.echo()
        return d


@dataclass(frozen=True)
class GridResult:
    """Metric values on the (metric, time, site) grid."""

    values: np.ndarray
    metrics: tuple
    time_grid: np.ndarray
    sites: tuple


def _initial_bits(kind: str, n_sites: int) -> list[int]:
    if kind == "polarized":
        return [0] * n_sites
    return [i % 2 for i in range(n_sites)]


def prepare_ensemble(s: ScrambleScenario) -> tuple[StateVector, StateVector]:
    """Unperturbed product state and its single-site flip."""
    return _flip_pair(_initial_bits(s.initial_kind, s.model.n_sites), s.perturbation_site)


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


def qualifying_subsets(s: ScrambleScenario) -> list[SiteSubset]:
    """Distinct subsets the scenario's policy sweeps over."""
    L, k = s.model.n_sites, s.subsystem_size
    if s.subset_policy == "windows_containing_x":
        subsets = [SiteSubset(range(x0, x0 + k)) for x0 in range(L - k + 1)]
    else:
        count = math.comb(L, k)
        if count > SUBSET_CAP:
            raise RuntimeError(f"{count} subsets of size {k} exceed the cap {SUBSET_CAP}")
        subsets = [SiteSubset(c) for c in itertools.combinations(range(L), k)]
    return subsets


def exact_chi2_pair(rho1: DensityOperator, rho2: DensityOperator) -> float:
    p1, p2 = purity(rho1), purity(rho2)
    overlap = np.vdot(rho1.matrix, rho2.matrix).real
    return chi2_from_purities(p1, p2, (p1 + p2 + 2.0 * overlap) / 4.0, rho1.dim)


def _subset_metrics(pair, subset: SiteSubset, metrics) -> dict:
    rho1 = partial_trace(pair[0], subset)
    rho2 = partial_trace(pair[1], subset)
    out = {}
    if "chi2" in metrics:
        out["chi2"] = exact_chi2_pair(rho1, rho2)
    if "holevo" in metrics or "chi_q" in metrics:
        ens = Ensemble(rho1, rho2)
        if "holevo" in metrics:
            out["holevo"] = holevo_chi(ens)
        if "chi_q" in metrics:
            out["chi_q"] = chi_q(ens)
    return out


def exact_metric_grid(s: ScrambleScenario) -> GridResult:
    """Evaluate the requested metrics on the full (time x site) grid.

    With the windows policy, the value at site x is the maximum over all
    contiguous subsystem windows containing x; with all_subsets, a single
    column holds the global maximum over every size-L_A subset.
    """
    states = _trajectory(build_hamiltonian(s.model), prepare_ensemble(s), s.time_grid)
    subsets = qualifying_subsets(s)
    L = s.model.n_sites
    if s.subset_policy == "windows_containing_x":
        sites = tuple(range(L))
        owners = [
            [j for j, sub in enumerate(subsets) if x in sub.indices] for x in range(L)
        ]
    else:
        sites = (0,)
        owners = [list(range(len(subsets)))]
    values = np.zeros((len(s.metrics), len(s.time_grid), len(sites)))
    for ti, pair in enumerate(states):
        per_subset = [_subset_metrics(pair, sub, s.metrics) for sub in subsets]
        for mi, metric in enumerate(s.metrics):
            vals = np.array([pm[metric] for pm in per_subset])
            for ci, owner in enumerate(owners):
                values[mi, ti, ci] = np.max(vals[owner])
    values = np.maximum(values, 0.0)
    return GridResult(
        values=values,
        metrics=s.metrics,
        time_grid=s.time_grid,
        sites=sites,
    )


def shadow_metric_curve(
    s: ScrambleScenario, shots: int, mom: MoMConfig, subsystem_sizes=None
) -> list[dict]:
    """Shadow-estimated and exact maximal chi2 along the time grid.

    At each time a fresh pair of shots-snapshot shadow sets is generated,
    and mom's batches take the first of them; each requested subsystem size
    reuses the same sets, as the protocol allows. Rows carry
    (t, L_A, chi2_shadow, chi2_exact).
    """
    if mom.n_batches * mom.batch_size > shots:
        raise ValueError(f"{mom.n_batches} batches of {mom.batch_size} exceed {shots} shots")
    if subsystem_sizes is None:
        subsystem_sizes = (s.subsystem_size,)
    subsets_by_size = [
        (k, qualifying_subsets(replace(s, subsystem_size=k, subset_policy="all_subsets")))
        for k in subsystem_sizes
    ]
    check_shadow_memory(s.model.n_sites, shots, mom, *subsystem_sizes)
    states = _trajectory(build_hamiltonian(s.model), prepare_ensemble(s), s.time_grid)
    rows = []
    for ti, (t, pair) in enumerate(zip(s.time_grid, states)):
        set1, set2 = (
            sample_shadow_set(psi, shots, substream_rng(s.master_seed, f"shadow:{label}", ti))
            for psi, label in zip(pair, ("state1", "state2"))
        )
        for k, subsets in subsets_by_size:
            ests = chi2_estimate_many(set1, set2, subsets, mom)
            exact = max(_subset_metrics(pair, sub, ("chi2",))["chi2"] for sub in subsets)
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
    bits = _initial_bits(s.initial_kind, L_full)
    cage_pair = _flip_pair([bits[i] for i in idx], idx.index(s.perturbation_site))
    window = _cage_window(cage_sites, s.perturbation_site, s.subsystem_size)
    window_rel = SiteSubset(idx.index(x) for x in window)
    full = _trajectory(h_full, prepare_ensemble(s), s.time_grid)
    cage = _trajectory(h_cage, cage_pair, s.time_grid)
    return [
        {
            "t": float(t),
            "chi2_full": _subset_metrics(in_chain, window, ("chi2",))["chi2"],
            "chi2_cage": _subset_metrics(isolated, window_rel, ("chi2",))["chi2"],
        }
        for t, in_chain, isolated in zip(s.time_grid, full, cage)
    ]
