"""Tests for the Hilbert-space primitives, checked against dense oracles."""

import numpy as np
import pytest

from scramblescope import qhilbert, shadows
from scramblescope.qhilbert import (
    EIG_ATOL,
    DensityOperator,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    HADAMARD,
    SiteSubset,
    Spectrum,
    StateVector,
    basis_state,
    partial_trace,
    purity,
)

from oracles import apply_local_unitary, bit_of, complement, kron_embed


def random_state(n_sites, rng):
    amps = rng.normal(size=2**n_sites) + 1j * rng.normal(size=2**n_sites)
    return StateVector(n_sites, amps / np.linalg.norm(amps))


def oracle_partial_trace(state, keep):
    """Independent partial trace: loop over kept/traced index pairs."""
    n = state.n_sites
    kept = list(keep.indices)
    traced = [i for i in range(n) if i not in kept]
    dk = 2 ** len(kept)
    rho = np.zeros((dk, dk), dtype=complex)
    for a in range(2**n):
        for b in range(2**n):
            if all(bit_of(a, t, n) == bit_of(b, t, n) for t in traced):
                ia = sum(bit_of(a, s, n) << (len(kept) - 1 - j) for j, s in enumerate(kept))
                ib = sum(bit_of(b, s, n) << (len(kept) - 1 - j) for j, s in enumerate(kept))
                rho[ia, ib] += state.amplitudes[a] * np.conj(state.amplitudes[b])
    return rho


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, [1.0, 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, [1.0, 0.0])

    def test_dim(self):
        assert basis_state(3, [0, 0, 0]).dim == 8


class TestBasisState:
    def test_site0_is_msb(self):
        # flipping site 0 moves the amplitude by half the dimension
        psi = basis_state(3, [1, 0, 0])
        assert psi.amplitudes[4] == 1.0

    def test_all_bits(self):
        psi = basis_state(3, [1, 0, 1])
        assert psi.amplitudes[5] == 1.0

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            basis_state(2, [0, 2])
        with pytest.raises(ValueError):
            basis_state(2, [0])


class TestSiteSubset:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SiteSubset([2, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SiteSubset([1, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SiteSubset([])

    def test_complement(self):
        assert complement(SiteSubset([0, 2]), 4).indices == (1, 3)

    def test_validate_range(self):
        with pytest.raises(ValueError):
            SiteSubset([3]).validate_for(3)


class TestDensityOperator:
    def test_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DensityOperator(2, m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(2, np.eye(2))

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            DensityOperator(2, m)


class TestSpectrum:
    def test_rejects_ascending(self):
        with pytest.raises(ValueError):
            Spectrum([0.3, 0.7])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Spectrum([0.5, 0.4])

    @pytest.mark.parametrize("vals", [[np.nan], [np.nan, 0.5]])
    def test_rejects_non_finite(self, vals):
        with pytest.raises(ValueError):
            Spectrum(vals)

    def test_density_operator_spectrum_matches_eigvalsh(self):
        rng = np.random.default_rng(13)
        for d in (2, 4, 8):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = g @ g.conj().T
            rho = DensityOperator(d, m / np.trace(m).real)
            want = np.linalg.eigvalsh(rho.matrix)[::-1]
            assert np.max(np.abs(rho.spectrum.values - want)) < 1e-14

    def test_spectrum_of_maximally_mixed(self):
        rho = DensityOperator(4, np.eye(4) / 4)
        assert np.allclose(rho.spectrum.values, 0.25)

    def test_clips_round_off_below_zero(self):
        tiny = 0.5 * EIG_ATOL
        spec = Spectrum([0.5 + tiny, 0.5 + tiny, -tiny, -EIG_ATOL])
        assert spec.values.tolist() == [0.5 + tiny, 0.5 + tiny, 0.0, 0.0]
        with pytest.raises(ValueError):
            Spectrum([0.5 + 2 * EIG_ATOL, 0.5 + EIG_ATOL, -3 * EIG_ATOL])


class TestKronEmbed:
    def test_matches_manual_kron(self):
        got = kron_embed([(0, PAULI_Z), (2, PAULI_X)], 3)
        want = np.kron(np.kron(PAULI_Z, PAULI_I), PAULI_X)
        assert np.array_equal(got, want)

    def test_identity_default(self):
        got = kron_embed([], 2)
        assert np.array_equal(got, np.eye(4))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            kron_embed([(2, PAULI_X)], 2)

    def test_rejects_duplicate_site(self):
        with pytest.raises(ValueError):
            kron_embed([(0, PAULI_X), (0, PAULI_Z)], 2)


class TestApplyLocalUnitary:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for site in range(4):
            psi = random_state(4, rng)
            got = apply_local_unitary(psi, site, HADAMARD)
            dense = kron_embed([(site, HADAMARD)], 4)
            assert np.allclose(got.amplitudes, dense @ psi.amplitudes, atol=1e-12)

    def test_flip_matches_basis_state(self):
        psi = apply_local_unitary(basis_state(3, [0, 0, 0]), 1, PAULI_X)
        assert np.allclose(psi.amplitudes, basis_state(3, [0, 1, 0]).amplitudes)

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            apply_local_unitary(basis_state(1, [0]), 0, [[1, 0], [0, 2]])


class TestPartialTrace:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for keep in ([0], [2], [0, 3], [1, 2], [0, 1, 3]):
            psi = random_state(4, rng)
            got = partial_trace(psi, SiteSubset(keep)).matrix
            want = oracle_partial_trace(psi, SiteSubset(keep))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_product_state_is_pure(self):
        psi = basis_state(4, [0, 1, 1, 0])
        rho = partial_trace(psi, SiteSubset([1, 2]))
        assert abs(purity(rho) - 1.0) < 1e-12

    def test_bell_pair_is_maximally_mixed(self):
        amps = np.zeros(4)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        rho = partial_trace(StateVector(2, amps), SiteSubset([0]))
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_complementary_purities_match(self):
        rng = np.random.default_rng(3)
        psi = random_state(5, rng)
        keep = SiteSubset([0, 2])
        p_a = purity(partial_trace(psi, keep))
        p_b = purity(partial_trace(psi, complement(keep, 5)))
        assert abs(p_a - p_b) < 1e-12


class TestReducedSizeLimit:
    def test_limit_is_twelve_sites(self):
        qhilbert.check_reduced_sites(12)
        with pytest.raises(ValueError, match="13-site reduced state exceeds the limit of 12"):
            qhilbert.check_reduced_sites(13)

    def test_partial_trace_checks_before_it_builds(self, monkeypatch):
        monkeypatch.setattr(qhilbert, "MAX_REDUCED_SITES", 2)
        psi = StateVector(3, np.full(8, 8 ** -0.5))
        assert partial_trace(psi, SiteSubset([0, 2])).dim == 4
        with pytest.raises(ValueError, match="3-site reduced state"):
            partial_trace(psi, SiteSubset([0, 1, 2]))


class TestPurity:
    def test_equals_trace_of_square(self):
        rng = np.random.default_rng(5)
        psi = random_state(4, rng)
        rho = partial_trace(psi, SiteSubset([0, 1]))
        want = float(np.trace(rho.matrix @ rho.matrix).real)
        assert abs(purity(rho) - want) < 1e-13


def z_outcomes(psi, uniforms):
    """Computational-basis outcomes of the Born sampler, one row per uniform."""
    bases = np.full((len(uniforms), psi.n_sites), shadows.BASIS_Z, dtype=np.uint8)
    return shadows._born_outcomes(psi, bases, uniforms)


class TestBornSample:
    def test_deterministic_state(self):
        psi = basis_state(3, [1, 0, 1])
        out = z_outcomes(psi, np.random.default_rng(0).random(1))
        assert list(out[0]) == [1, 0, 1]

    def test_frequencies_match_born_rule(self):
        # |+> on one qubit: outcome 1 with probability 1/2
        amps = np.array([1.0, 1.0]) / np.sqrt(2)
        psi = StateVector(1, amps)
        rng = np.random.default_rng(123)
        n = 20000
        ones = int(z_outcomes(psi, rng.random(n)).sum())
        # 5-sigma band around the binomial mean
        assert abs(ones - n / 2) < 5 * np.sqrt(n * 0.25)

    def test_biased_state_frequencies(self):
        amps = np.array([np.sqrt(0.9), np.sqrt(0.1)])
        psi = StateVector(1, amps)
        rng = np.random.default_rng(321)
        n = 20000
        ones = int(z_outcomes(psi, rng.random(n)).sum())
        assert abs(ones - n * 0.1) < 5 * np.sqrt(n * 0.09)
