"""Scenario orchestration: anchors, symmetries, policies, cage comparison."""

import math
import tracemalloc

import numpy as np
import pytest

from scramblescope import cli, models, scramble
from scramblescope.evolve import evolve, make_propagator
from scramblescope.infotheory import Ensemble, chi_q, holevo_chi, q2_purity
from scramblescope.models import (
    DisorderRealization,
    ModelSpec,
    build_hamiltonian,
    build_mbl,
    draw_disorder,
)
from scramblescope.qhilbert import PAULI_X, SiteSubset, StateVector, basis_state, partial_trace
from scramblescope.shadows import MoMConfig
from scramblescope.scramble import (
    ScrambleScenario,
    default_perturbation_site,
    exact_chi2_pair,
    exact_metric_grid,
    mbl_cage_compare,
    prepare_ensemble,
    qualifying_subsets,
    shadow_metric_curve,
)

from oracles import apply_local_unitary, mixing_gain

LN_4_3 = math.log(4.0 / 3.0)


def scenario(kind="TFIM", L=6, site=None, size=2, times=(0.0,), **kw):
    dis = draw_disorder(L) if kind == "MBL" else None
    model = ModelSpec(kind=kind, n_sites=L, couplings={}, disorder=dis)
    if site is None:
        site = default_perturbation_site(kind, L)
    return ScrambleScenario(
        model=model,
        perturbation_site=site,
        subsystem_size=size,
        time_grid=np.asarray(times, dtype=float),
    )


class TestScenarioValidation:
    def test_rejects_bad_site(self):
        with pytest.raises(ValueError):
            scenario(site=9)

    def test_pxp_rejects_inactive_site(self):
        with pytest.raises(ValueError, match="inactive"):
            scenario(kind="PXP", L=6, site=3)

    @pytest.mark.parametrize(
        "run",
        [exact_metric_grid, lambda s: mbl_cage_compare(SiteSubset(range(13)), s)],
        ids=["exact_metric_grid", "mbl_cage_compare"],
    )
    def test_refuses_subsystem_above_reduced_limit_before_building(self, monkeypatch, run):
        def must_not_build(*a, **k):
            raise AssertionError("built H before the subsystem size was checked")

        monkeypatch.setattr(scramble, "build_hamiltonian", must_not_build)
        monkeypatch.setattr(models, "build_mbl", must_not_build)
        with pytest.raises(ValueError, match="a 13-site reduced state exceeds the limit of 12 sites"):
            run(scenario(kind="MBL", L=13, site=6, size=13))

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            scenario(times=(1.0, 0.5))

    @pytest.mark.parametrize("times", [(0.0, np.inf), (0.0, 1.0, np.inf)])
    def test_rejects_infinite_grid(self, times):
        # refused when the scenario is built, before any Hamiltonian is diagonalised
        with pytest.raises(ValueError, match="finite"):
            scenario(times=times)

    def test_echo_is_json_ready(self):
        import json

        echo = scenario(kind="MBL").scenario_echo()
        json.dumps(echo)
        # units and version are the manifest's; the state follows the model
        assert echo.keys() == {
            "model", "n_sites", "couplings", "perturbation_site", "subsystem_size",
            "time_grid", "disorder",
        }


class TestDefaults:
    def test_time_grid(self):
        # the grid the CLI builds from its default tmax and steps
        cfg = cli.RunConfig(command="grid", model="tfim", length=4)
        g = cli._scenario(cfg, "TFIM").time_grid
        assert g[0] == 0.0 and g[-1] == 30.0 and len(g) == 301

    def test_pxp_site_is_active(self):
        assert default_perturbation_site("PXP", 10) == 4
        assert default_perturbation_site("PXP", 8) == 4
        assert default_perturbation_site("TFIM", 10) == 5


class TestPrepareEnsemble:
    def test_states_differ_by_one_flip(self):
        psi1, psi2 = prepare_ensemble(scenario())
        assert abs(np.vdot(psi1.amplitudes, psi2.amplitudes)) < 1e-14

    def test_flip_is_pauli_x_on_the_site(self):
        bits = [0, 1, 1, 0, 1]
        for site in range(len(bits)):
            psi, flipped = scramble._flip_pair(bits, site)
            want = apply_local_unitary(psi, site, PAULI_X).amplitudes
            assert np.array_equal(flipped.amplitudes, want)
            assert np.array_equal(psi.amplitudes, basis_state(5, bits).amplitudes)


class TestQualifyingSubsets:
    def test_windows_are_contiguous(self):
        subs = qualifying_subsets(5, 2, "windows_containing_x")
        assert [s.indices for s in subs] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_all_subsets_count(self):
        subs = qualifying_subsets(5, 2, "all_subsets")
        assert len(subs) == 10

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown subset policy 'nearest'"):
            qualifying_subsets(5, 2, "nearest")


class TestExactGrid:
    def test_t0_anchor_all_models(self):
        for kind, L in (("TFIM", 6), ("MFIM", 6), ("PXP", 8), ("MBL", 6)):
            s = scenario(kind=kind, L=L)
            g = exact_metric_grid(s)
            x = s.perturbation_site
            near = {x - 1, x, x + 1}
            for c in range(L):
                v = g.values[0, 0, c]
                if c in near:
                    assert abs(v - LN_4_3) < 1e-10, (kind, c)
                else:
                    assert abs(v) < 1e-10, (kind, c)

    @pytest.mark.parametrize("kind", ["TFIM", "PXP"])
    def test_window_column_is_the_max_over_windows_containing_the_site(self, kind):
        L, size, times = 6, 2, (0.0, 0.7, 2.5)
        s = scenario(kind=kind, L=L, size=size, times=times)
        g = exact_metric_grid(s)
        pair = prepare_ensemble(s)
        p = make_propagator(build_hamiltonian(s.model), *pair)
        for ti, t in enumerate(times):
            psi1, psi2 = (evolve(p, psi, t) for psi in pair)
            for x in range(L):
                starts = range(max(x - size + 1, 0), min(x, L - size) + 1)
                windows = [SiteSubset(range(x0, x0 + size)) for x0 in starts]
                want = max(exact_chi2_pair(partial_trace(psi1, w), partial_trace(psi2, w)) for w in windows)
                assert g.values[0, ti, x] == max(want, 0.0), (t, x)

    def test_mirror_symmetry_tfim(self):
        # odd chain, central perturbation: the reflection x -> L-1-x is an
        # exact symmetry of the uniform-coupling chain
        L = 9
        s = scenario(kind="TFIM", L=L, site=4, times=(0.0, 1.0, 2.5))
        g = exact_metric_grid(s)
        for ti in range(3):
            row = g.values[0, ti]
            assert np.max(np.abs(row - row[::-1])) < 1e-9

    def test_all_metrics_reported_nonnegative(self):
        s = scenario(kind="TFIM", L=5, times=(0.7,))
        g = exact_metric_grid(s, metrics=("chi2", "holevo", "chi_q"))
        assert g.values.shape == (3, 1, 5)
        assert np.min(g.values) >= 0.0

    def test_holevo_bounds_chi2_and_chi_q(self):
        s = scenario(kind="TFIM", L=5, times=(0.9,))
        g = exact_metric_grid(s, metrics=("chi2", "holevo", "chi_q"))
        chi2_row, holevo_row, chiq_row = g.values[:, 0, :]
        assert np.all(chi2_row <= holevo_row + 1e-9)
        assert np.all(chiq_row <= holevo_row + 1e-9)

    def test_three_eigensolves_per_time_and_subset(self, monkeypatch):
        # one per reduced state and one for their average, shared by all
        # metrics; a call on a (..., d, d) stack solves prod(...) matrices
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda m: solved.append(math.prod(np.shape(m)[:-2])) or eigvalsh(m)
        )
        s = scenario(kind="TFIM", L=4, times=(0.0, 0.5, 1.0))
        exact_metric_grid(s, metrics=("chi2", "holevo", "chi_q"))
        assert sum(solved) == 3 * len(s.time_grid) * len(qualifying_subsets(4, 2, "windows_containing_x"))

    def test_all_subsets_single_column(self):
        s = scenario(kind="TFIM", L=5, times=(0.0,))
        g = exact_metric_grid(s, policy="all_subsets")
        assert g.values.shape == (1, 1, 1)
        assert abs(g.values[0, 0, 0] - LN_4_3) < 1e-10

    @pytest.fixture
    def no_build(self, monkeypatch):
        def must_not_build(model):
            raise AssertionError("built H before the metrics and policy were checked")

        monkeypatch.setattr(scramble, "build_hamiltonian", must_not_build)

    def test_rejects_bad_policy(self, no_build):
        with pytest.raises(ValueError, match="unknown subset policy 'nearest'"):
            exact_metric_grid(scenario(), policy="nearest")

    def test_rejects_bad_metric(self, no_build):
        with pytest.raises(ValueError, match="unknown metric"):
            exact_metric_grid(scenario(), metrics=("renyi",))
        with pytest.raises(ValueError, match="duplicate"):
            exact_metric_grid(scenario(), metrics=("chi2", "chi2"))
        with pytest.raises(ValueError, match="no metrics"):
            exact_metric_grid(scenario(), metrics=())


class TestExactChi2Pair:
    def test_matches_ensemble_route(self):
        from scramblescope.qhilbert import partial_trace

        s = scenario(kind="TFIM", L=5, times=(1.3,))
        psi1, psi2 = prepare_ensemble(s)
        from scramblescope.evolve import evolve, make_propagator
        from scramblescope.models import build_hamiltonian

        p = make_propagator(build_hamiltonian(s.model))
        a, b = evolve(p, psi1, 1.3), evolve(p, psi2, 1.3)
        sub = SiteSubset([1, 2])
        r1, r2 = partial_trace(a, sub), partial_trace(b, sub)
        direct = exact_chi2_pair(r1, r2)
        via_ensemble = mixing_gain(Ensemble(r1, r2), q2_purity)
        assert abs(direct - via_ensemble) < 1e-12


class TestShadowCurve:
    def test_tracks_exact_small_case(self):
        s = scenario(kind="TFIM", L=4, size=2, times=(0.0, 1.0))
        rows = shadow_metric_curve(s, 1500, MoMConfig(10, 150), seed=5)
        assert len(rows) == 2
        for r in rows:
            assert abs(r["chi2_shadow"] - r["chi2_exact"]) < 0.15

    def test_deterministic(self):
        s = scenario(kind="TFIM", L=4, size=1, times=(0.5,))
        a = shadow_metric_curve(s, 400, MoMConfig(10, 40), seed=9)
        b = shadow_metric_curve(s, 400, MoMConfig(10, 40), seed=9)
        assert a == b

    def test_refuses_batches_past_the_shots_before_sampling(self, monkeypatch):
        def must_not_sample(*a, **k):
            raise AssertionError("sampled before the batches were checked")

        monkeypatch.setattr(scramble, "sample_shadow_set", must_not_sample)
        with pytest.raises(ValueError, match="10 batches of 400 exceed 3000 shots"):
            shadow_metric_curve(scenario(kind="TFIM", L=4), 3000, MoMConfig(10, 400))

    @pytest.mark.parametrize(
        "L, sizes, message",
        [
            (4, (5,), r"subsystem size 5 is not in \[1, 4\]"),
            (4, (2, 0), r"subsystem size 0 is not in \[1, 4\]"),
            (13, (13,), "a 13-site reduced state exceeds the limit of 12 sites"),
            (4, (), "no subsystem sizes requested"),
        ],
    )
    def test_refuses_sizes_before_building(self, monkeypatch, L, sizes, message):
        def must_not_run(*a, **k):
            raise AssertionError("built H or sampled before the sizes were checked")

        monkeypatch.setattr(scramble, "build_hamiltonian", must_not_run)
        monkeypatch.setattr(scramble, "sample_shadow_set", must_not_run)
        with pytest.raises(ValueError, match=message):
            shadow_metric_curve(scenario(kind="TFIM", L=L), 200, MoMConfig(10, 20), subsystem_sizes=sizes)


class TestMblCage:
    def test_decoupled_control_identical(self):
        L = 6
        s = scenario(kind="MBL", L=L, site=2, size=2, times=(0.0, 2.0, 5.0))
        cage = SiteSubset([1, 2, 3])
        rows = mbl_cage_compare(cage, s, boundary_coupling_scale=0.0)
        for r in rows:
            assert abs(r["chi2_full"] - r["chi2_cage"]) < 1e-8

    def test_full_coupling_differs_eventually(self):
        L = 6
        s = scenario(kind="MBL", L=L, site=2, size=2, times=(0.0, 10.0, 20.0))
        cage = SiteSubset([1, 2, 3])
        rows = mbl_cage_compare(cage, s, boundary_coupling_scale=1.0)
        diffs = [abs(r["chi2_full"] - r["chi2_cage"]) for r in rows]
        assert diffs[0] < 1e-10  # identical at t=0
        assert max(diffs) > 1e-6  # leakage is visible at late times

    def test_couplings_reach_both_chains(self):
        L, couplings = 6, {"J_perp": 0.6, "J_z": 1.7}
        dis = draw_disorder(L)
        s = ScrambleScenario(
            model=ModelSpec(kind="MBL", n_sites=L, couplings=couplings, disorder=dis),
            perturbation_site=2,
            subsystem_size=2,
            time_grid=np.array([0.0, 1.5, 4.0]),
        )
        cage = SiteSubset([1, 2, 3])
        rows = mbl_cage_compare(cage, s, boundary_coupling_scale=0.5)
        bond_scale = np.array([0.5, 1.0, 1.0, 0.5, 1.0])
        h_full = build_mbl(L, disorder=dis, bond_scale=bond_scale, **couplings)
        cage_dis = DisorderRealization(dis.fields[1:4], dis.seed, dis.width)
        h_cage = build_mbl(3, disorder=cage_dis, **couplings)
        full_pair = prepare_ensemble(s)
        cage_pair = (basis_state(3, [1, 0, 1]), basis_state(3, [1, 1, 1]))
        p_full, p_cage = make_propagator(h_full, *full_pair), make_propagator(h_cage, *cage_pair)
        for r, t in zip(rows, s.time_grid):
            full = [partial_trace(evolve(p_full, psi, t), SiteSubset([1, 2])) for psi in full_pair]
            iso = [partial_trace(evolve(p_cage, psi, t), SiteSubset([0, 1])) for psi in cage_pair]
            assert r["chi2_full"] == exact_chi2_pair(*full)
            assert r["chi2_cage"] == exact_chi2_pair(*iso)

    def test_rejects_noncontiguous_cage(self):
        s = scenario(kind="MBL", L=6, site=2)
        with pytest.raises(ValueError):
            mbl_cage_compare(SiteSubset([1, 3, 4]), s)

    def test_rejects_cage_missing_site(self):
        s = scenario(kind="MBL", L=6, site=0)
        with pytest.raises(ValueError):
            mbl_cage_compare(SiteSubset([2, 3, 4]), s)

    def test_rejects_window_larger_than_cage_before_building(self, monkeypatch):
        def must_not_build(*args, **kwargs):
            raise AssertionError("built H before the window was checked")

        monkeypatch.setattr(models, "build_mbl", must_not_build)
        s = scenario(kind="MBL", L=8, site=4, size=3)
        with pytest.raises(ValueError, match="subsystem larger than the cage"):
            mbl_cage_compare(SiteSubset([4, 5]), s)

    def test_window_fits_every_cage(self):
        # every contiguous cage of a chain of up to 8 sites, every site and size
        for lo in range(8):
            for hi in range(lo, 8):
                cage = SiteSubset(range(lo, hi + 1))
                for site in cage:
                    for size in range(1, len(cage) + 1):
                        window = scramble._cage_window(cage, site, size).indices
                        assert len(window) == size and site in window
                        assert lo <= window[0] and window[-1] <= hi


class TestSectorRoute:
    @pytest.mark.parametrize("kind", ["PXP", "MBL"])
    def test_metrics_match_full_space_route(self, kind):
        s = scenario(kind=kind, L=10, size=2)
        h, pair = build_hamiltonian(s.model), prepare_ensemble(s)
        sector, full = make_propagator(h, *pair), make_propagator(h)
        assert sum(index.size for index, _, _ in sector.blocks) < h.dim

        def metrics(p, t, subset):
            rho1, rho2 = (partial_trace(evolve(p, psi, t), subset) for psi in pair)
            ens = Ensemble(rho1, rho2)
            return np.array([exact_chi2_pair(rho1, rho2), holevo_chi(ens), chi_q(ens)])

        for t in np.linspace(0.0, 30.0, 7):
            for subset in qualifying_subsets(10, 2, "all_subsets"):
                diff = metrics(sector, t, subset) - metrics(full, t, subset)
                assert np.max(np.abs(diff)) <= 1e-12


class TestStackedExactLayer:
    """_exact_metrics measures a time point's subsets as stacks; each value
    must equal, bit for bit, the per-pair route through the validated types."""

    @staticmethod
    def per_pair(pair, subsets):
        out = []
        for subset in subsets:
            rho1, rho2 = (partial_trace(psi, subset) for psi in pair)
            ens = Ensemble(rho1, rho2)
            out.append([exact_chi2_pair(rho1, rho2), holevo_chi(ens), chi_q(ens)])
        return np.array(out).T

    @pytest.mark.parametrize("policy", ["windows_containing_x", "all_subsets"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["TFIM", "PXP", "MBL"])
    def test_equals_the_per_pair_route_bitwise(self, monkeypatch, kind, size, policy):
        s = scenario(kind=kind, L=8, size=size)
        subsets = qualifying_subsets(8, size, policy)
        # five subsets per chunk: every case spans several chunks and a remainder
        d = 2**size
        budget = 5 * scramble._subset_bytes(8, d, scramble.METRIC_NAMES) + 1
        monkeypatch.setattr(scramble, "_CHUNK_BYTES", budget)
        chunks = []
        stacked = scramble._stacked_metrics
        monkeypatch.setattr(
            scramble, "_stacked_metrics", lambda a, k, r, m: chunks.append(len(k)) or stacked(a, k, r, m)
        )
        offsets = scramble._subset_offsets(8, subsets)
        states = scramble._trajectory(build_hamiltonian(s.model), prepare_ensemble(s), (0.0, 1.7, 9.0))
        for pair in states:
            want = self.per_pair(pair, subsets)
            chunks.clear()
            got = scramble._exact_metrics(pair, offsets, scramble.METRIC_NAMES)
            assert got.tobytes() == want.tobytes()
            assert len(chunks) > 1 and chunks[:-1] == [5] * (len(chunks) - 1) and 0 < chunks[-1] < 5
            chi2_only = scramble._exact_metrics(pair, offsets)
            assert chi2_only.tobytes() == want[:1].tobytes()

    def test_a_chi2_only_stack_refuses_a_member_with_a_negative_eigenvalue(self, monkeypatch):
        # one reduced state is swapped for a Hermitian, unit-trace matrix with
        # eigenvalue -0.1: chi2 alone does not read the spectrum, yet it is checked
        rng = np.random.default_rng(4)
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        bad = u @ np.diag([0.6, 0.3, 0.2, -0.1]) @ u.conj().T
        formed = scramble.reduced_matrices

        def with_bad_member(m):
            rho = formed(m)
            rho[1, 2] = 0.5 * (bad + bad.conj().T)
            return rho

        monkeypatch.setattr(scramble, "reduced_matrices", with_bad_member)
        pair = prepare_ensemble(scenario(kind="TFIM", L=6))
        amplitudes = np.array([psi.amplitudes for psi in pair])
        offsets = scramble._subset_offsets(6, qualifying_subsets(6, 2, "windows_containing_x"))
        with pytest.raises(ValueError, match="eigenvalues outside"):
            scramble._stacked_metrics(amplitudes, *offsets, ("chi2",))

    def test_memory_of_every_six_site_subset_at_twelve_sites_stays_in_the_chunk_budget(self):
        # 924 subsets: measured as one stack, they peak at 1.0 GiB
        rng = np.random.default_rng(12)
        amps = rng.normal(size=(2, 2**12)) + 1j * rng.normal(size=(2, 2**12))
        pair = [StateVector(12, a / np.linalg.norm(a)) for a in amps]
        offsets = scramble._subset_offsets(12, qualifying_subsets(12, 6, "all_subsets"))
        tracemalloc.start()
        try:
            scramble._exact_metrics(pair, offsets, scramble.METRIC_NAMES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scramble._CHUNK_BYTES
