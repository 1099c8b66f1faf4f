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
from .infotheory import Ensemble, chi2_from_purities, chi_q, holevo_chi
from .models import ModelSpec, build_hamiltonian
from .qhilbert import (
    DensityOperator,
    SiteSubset,
    StateVector,
    basis_state,
    check_reduced_sites,
    partial_trace,
    purity,
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


def exact_chi2_pair(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """chi2 of an equal-weight pair, from its two purities and their overlap."""
    p1, p2 = purity(rho1), purity(rho2)
    overlap = np.vdot(rho1.matrix, rho2.matrix).real
    return chi2_from_purities(p1, p2, (p1 + p2 + 2.0 * overlap) / 4.0, rho1.dim)


def _exact_metrics(pair, subsets, metrics=("chi2",)) -> np.ndarray:
    """(metric, subset) exact values on each subset's pair of reduced states."""
    out = np.empty((len(metrics), len(subsets)))
    for j, subset in enumerate(subsets):
        rho1, rho2 = partial_trace(pair[0], subset), partial_trace(pair[1], subset)
        ens = Ensemble(rho1, rho2) if "holevo" in metrics or "chi_q" in metrics else None
        out[:, j] = [
            exact_chi2_pair(rho1, rho2) if m == "chi2"
            else holevo_chi(ens) if m == "holevo"
            else chi_q(ens)
            for m in metrics
        ]
    return out


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
    values = np.zeros((len(metrics), len(s.time_grid), len(sites)))
    for ti, pair in enumerate(states):
        vals = _exact_metrics(pair, subsets, metrics)
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
    states = _trajectory(build_hamiltonian(s.model), prepare_ensemble(s), s.time_grid)
    rows = []
    for ti, (t, pair) in enumerate(zip(s.time_grid, states)):
        set1, set2 = (
            sample_shadow_set(psi, shots, substream_rng(seed, f"shadow:{label}", ti))
            for psi, label in zip(pair, ("state1", "state2"))
        )
        for k, subsets in subsets_by_size:
            ests = chi2_estimate_many(set1, set2, subsets, mom)
            exact = float(_exact_metrics(pair, subsets).max())
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
    full = _trajectory(h_full, prepare_ensemble(s), s.time_grid)
    cage = _trajectory(h_cage, cage_pair, s.time_grid)
    return [
        {
            "t": float(t),
            "chi2_full": float(_exact_metrics(in_chain, [window])[0, 0]),
            "chi2_cage": float(_exact_metrics(isolated, [window_rel])[0, 0]),
        }
        for t, in_chain, isolated in zip(s.time_grid, full, cage)
    ]
