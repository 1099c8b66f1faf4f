"""Exact time evolution checked against a dense matrix-exponential oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from scramblescope.evolve import evolve, make_propagator
from scramblescope.models import build_mbl, build_mfim, build_pxp, build_tfim, draw_disorder
from scramblescope.qhilbert import StateVector, basis_state

from oracles import dense

BUILDERS = {
    "TFIM": build_tfim,
    "MFIM": build_mfim,
    "PXP": build_pxp,
    "MBL": lambda L: build_mbl(L, disorder=draw_disorder(L, seed=42)),
}


def random_state(n_sites, rng):
    amps = rng.normal(size=2**n_sites) + 1j * rng.normal(size=2**n_sites)
    return StateVector(n_sites, amps / np.linalg.norm(amps))


def sector(p):
    """Basis indices of every block of a propagator, in block order."""
    return np.concatenate([index for index, _, _ in p.blocks])


class TestMakePropagator:
    def test_orthonormal_eigenvectors(self):
        p = make_propagator(build_tfim(4))
        for _, w, v in p.blocks:
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - np.eye(w.size))) < 1e-10


class TestEvolve:
    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(2)
        mbl = build_mbl(4, disorder=draw_disorder(4))
        for h in (build_tfim(4), build_pxp(4), build_mfim(4), mbl):
            p = make_propagator(h)
            psi0 = random_state(4, rng)
            for t in (0.3, 1.7, 12.0):
                got = evolve(p, psi0, t).amplitudes
                want = expm(-1j * dense(h) * t) @ psi0.amplitudes
                assert np.max(np.abs(got - want)) < 1e-9

    def test_t_zero_is_identity(self):
        p = make_propagator(build_tfim(3))
        psi0 = random_state(3, np.random.default_rng(1))
        assert np.max(np.abs(evolve(p, psi0, 0.0).amplitudes - psi0.amplitudes)) < 1e-12

    def test_composition(self):
        p = make_propagator(build_tfim(3))
        psi0 = random_state(3, np.random.default_rng(4))
        one = evolve(p, evolve(p, psi0, 1.2), 0.8).amplitudes
        two = evolve(p, psi0, 2.0).amplitudes
        assert np.max(np.abs(one - two)) < 1e-11

    def test_norm_preserved_long_times(self):
        p = make_propagator(build_tfim(5))
        psi0 = random_state(5, np.random.default_rng(8))
        psi = evolve(p, psi0, 1000.0)
        assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-10

    def test_energy_conserved(self):
        h = build_tfim(4)
        p = make_propagator(h)
        psi0 = random_state(4, np.random.default_rng(6))
        e0 = np.vdot(psi0.amplitudes, dense(h) @ psi0.amplitudes).real
        psi = evolve(p, psi0, 7.3)
        e1 = np.vdot(psi.amplitudes, dense(h) @ psi.amplitudes).real
        assert abs(e0 - e1) < 1e-9

    def test_rejects_nonfinite_time(self):
        p = make_propagator(build_tfim(2))
        with pytest.raises(ValueError):
            evolve(p, basis_state(2, [0, 0]), float("nan"))

    def test_rejects_dim_mismatch(self):
        p = make_propagator(build_tfim(2))
        with pytest.raises(ValueError):
            evolve(p, basis_state(3, [0, 0, 0]), 1.0)


def neel_pair(L, site):
    bits = [i % 2 for i in range(L)]
    flipped = list(bits)
    flipped[site] ^= 1
    return basis_state(L, bits), basis_state(L, flipped)


class TestSector:
    @pytest.mark.parametrize(
        "kind, site, sizes",
        # PXP: the 144 blockade-respecting states of 10 open sites (a Fibonacci
        # number); MBL: the S^z sectors of the Neel state and of its flip.
        [("PXP", 4, (144, 144, 144)), ("MBL", 5, (252, 210, 462))],
    )
    def test_neel_pair_sectors_at_ten_sites(self, kind, site, sizes):
        h = BUILDERS[kind](10)
        pair = neel_pair(10, site)
        got = tuple(sector(make_propagator(h, *states)).size for states in (pair[:1], pair[1:], pair))
        assert got == sizes

    def test_without_states_covers_the_whole_space(self):
        p = make_propagator(build_tfim(3))
        assert len(p.blocks) == 1 and np.array_equal(sector(p), np.arange(8))

    def test_evolve_refuses_state_outside_sector(self):
        h = BUILDERS["MBL"](4)
        p = make_propagator(h, basis_state(4, [0, 1, 0, 1]))
        # half its weight in the S^z sector of 0101, half in another
        amps = basis_state(4, [0, 1, 1, 0]).amplitudes + basis_state(4, [0, 0, 0, 1]).amplitudes
        outside = StateVector(4, amps / np.sqrt(2))
        with pytest.raises(ValueError, match="outside"):
            evolve(p, outside, 1.0)
        evolve(make_propagator(h), outside, 1.0)

    def test_superposition_across_two_blocks_matches_expm(self):
        h = BUILDERS["MBL"](6)
        pair = neel_pair(6, 3)
        p = make_propagator(h, *pair)
        assert len(p.blocks) == 2  # the two S^z sectors
        psi0 = StateVector(6, (pair[0].amplitudes + pair[1].amplitudes) / np.sqrt(2))
        for t in (0.4, 3.1, 25.0):
            want = expm(-1j * dense(h) * t) @ psi0.amplitudes
            assert np.max(np.abs(evolve(p, psi0, t).amplitudes - want)) <= 1e-12

    @pytest.mark.parametrize("kind, site", [("PXP", 4), ("MBL", 5)])
    def test_blocks_equal_the_dense_sum_bitwise(self, kind, site):
        h = BUILDERS[kind](10)
        full = dense(h)
        for index, _, _ in make_propagator(h, *neel_pair(10, site)).blocks:
            assert h.block(index).tobytes() == full[np.ix_(index, index)].tobytes()

    def test_pxp_propagator_at_twelve_sites_builds_no_whole_space_matrix(self):
        # the Neel pair reaches 377 states; a 4096 x 4096 complex H takes 256 MiB
        pair = neel_pair(12, 6)
        tracemalloc.start()
        try:
            make_propagator(build_pxp(12), *pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rejects_state_of_other_dim(self):
        with pytest.raises(ValueError):
            make_propagator(build_tfim(3), basis_state(2, [0, 0]))

    @pytest.mark.parametrize(
        "h",
        [
            build_pxp(8),
            BUILDERS["MBL"](8),
            build_tfim(8),
            # no term hops: each state is its own block
            build_mbl(8, J_perp=0.0, disorder=draw_disorder(8, seed=42)),
        ],
        ids=["PXP", "MBL", "TFIM", "MBL-no-hops"],
    )
    def test_sectors_are_the_connected_components_of_the_dense_pattern(self, h):
        _, label = connected_components(dense(h) != 0, directed=False)
        pair = neel_pair(8, 4)
        want, taken = [], set()
        for psi in pair:
            parts = set(label[np.flatnonzero(psi.amplitudes)]) - taken
            taken |= parts
            if parts:
                want.append(np.flatnonzero(np.isin(label, list(parts))))
        got = h.sectors(pair)
        assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


@given(st.sampled_from(sorted(BUILDERS)), st.integers(3, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_sector_is_closed_and_matches_full_space(kind, L, data):
    h = BUILDERS[kind](L)
    index = st.integers(0, 2**L - 1)
    pair = [StateVector(L, np.eye(2**L)[data.draw(index)]) for _ in range(2)]
    p = make_propagator(h, *pair)
    reached = sector(p)
    rest = np.setdiff1d(np.arange(2**L), reached)
    assert not np.any(dense(h)[np.ix_(reached, rest)])
    assert not np.any(dense(h)[np.ix_(rest, reached)])
    full = make_propagator(h)
    for t in (0.0, 0.9, 17.0):
        for psi in pair:
            diff = evolve(p, psi, t).amplitudes - evolve(full, psi, t).amplitudes
            assert np.max(np.abs(diff)) <= 1e-12
