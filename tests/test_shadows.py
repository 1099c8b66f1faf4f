"""Shadow pipeline: kernel oracle, estimator statistics, robustness."""

import itertools

import numpy as np
import pytest

from scramblescope import shadows as shadows_module
from scramblescope.qhilbert import (
    HADAMARD,
    PAULI_I,
    PHASE_S,
    SiteSubset,
    StateVector,
    basis_state,
    partial_trace,
    purity,
)
from scramblescope.shadows import (
    BASIS_X,
    BASIS_Y,
    BASIS_Z,
    MAX_SHADOW_BYTES,
    Chi2Estimate,
    MoMConfig,
    ShadowSet,
    check_shadow_memory,
    chi2_estimate_many,
    sample_shadow_set,
)

from oracles import apply_local_unitary, dense_snapshot, kernel_value, median_of_means, pair_kernel


def random_state(n_sites, rng):
    amps = rng.normal(size=2**n_sites) + 1j * rng.normal(size=2**n_sites)
    return StateVector(n_sites, amps / np.linalg.norm(amps))


def brute_force_median(x, y, sub, mom):
    """Median over batches of the mean pair_kernel over each batch's snapshot
    pairs: i != j within one set, all pairs across two."""
    means = []
    for k in range(mom.n_batches):
        batch = range(k * mom.batch_size, (k + 1) * mom.batch_size)
        means.append(np.mean([
            pair_kernel(x, i, y, j, sub) for i in batch for j in batch if not (x is y and i == j)
        ]))
    return np.median(means)


class TestKernel:
    def test_all_36_pairs_match_dense_oracle(self):
        # oracle: build both single-site snapshot matrices densely and trace
        for b1, o1, b2, o2 in itertools.product(range(3), range(2), repeat=2):
            s1 = dense_snapshot([b1], [o1])
            s2 = dense_snapshot([b2], [o2])
            dense = float(np.trace(s1 @ s2).real)
            assert abs(kernel_value(b1, o1, b2, o2) - dense) < 1e-12

    def test_factors_give_the_kernel_of_every_code_pair(self):
        # the estimator's one form of the kernel, checked once here
        want = [[kernel_value(*divmod(c1, 2), *divmod(c2, 2)) for c2 in range(6)] for c1 in range(6)]
        f = shadows_module._KERNEL_FACTORS
        assert np.array_equal(f @ f.T / 2, want)

    def test_alphabet_is_three_valued(self):
        vals = {
            kernel_value(b1, o1, b2, o2)
            for b1, o1, b2, o2 in itertools.product(range(3), range(2), repeat=2)
        }
        assert vals == {5.0, -4.0, 0.5}

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            kernel_value(3, 0, 0, 0)
        with pytest.raises(ValueError):
            kernel_value(0, 2, 0, 0)

    def test_records_reject_codes_before_the_uint8_cast(self):
        # 6 is one past the largest code; 258 and 261 would wrap to 2 and 5
        for code in (-1, 6, 7, 258, 261):
            with pytest.raises(ValueError):
                ShadowSet(np.array([[0, code]]))
        for shape in ((3,), (2, 2, 2)):
            with pytest.raises(ValueError):
                ShadowSet(np.zeros(shape, dtype=np.uint8))
        s = ShadowSet(np.arange(6).reshape(2, 3))
        assert s.codes.dtype == np.uint8 and s.codes.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert len(s) == 2 and s.n_sites == 3

    def test_pair_kernel_is_sitewise_product(self):
        bases = np.array([[BASIS_X, BASIS_Z, BASIS_Y], [BASIS_X, BASIS_Z, BASIS_Z]])
        s = ShadowSet(2 * bases + np.array([[0, 1, 0], [0, 1, 1]]))
        sub = SiteSubset([0, 1, 2])
        assert pair_kernel(s, 0, s, 1, sub) == 5.0 * 5.0 * 0.5

    def test_dense_matrix_unit_trace(self):
        assert abs(np.trace(dense_snapshot([BASIS_X, BASIS_Y], [1, 0])) - 1.0) < 1e-12


def forced_outcomes(psi, bases, uniforms):
    """Born-sampler outcomes for given rows of Pauli basis codes."""
    bases = np.asarray(bases, dtype=np.uint8)
    return shadows_module._born_outcomes(psi, bases, np.asarray(uniforms))


def split(shadows):
    """A shadow set's (bases, outcomes) arrays, unpacked from its codes."""
    return np.divmod(shadows.codes, 2)


class TestSnapshotSampling:
    def test_z_basis_outcomes_follow_state(self):
        psi = basis_state(3, [1, 0, 1])
        out = forced_outcomes(psi, [[BASIS_Z] * 3], np.random.default_rng(0).random(1))
        assert list(out[0]) == [1, 0, 1]

    def test_x_basis_on_plus_state(self):
        amps = np.ones(2) / np.sqrt(2)
        psi = StateVector(1, amps)
        uniforms = [np.random.default_rng(i).random() for i in range(20)]
        out = forced_outcomes(psi, [[BASIS_X]] * 20, uniforms)
        assert np.all(out == 0)  # |+> always lands on the + outcome

    def test_snapshot_mean_reconstructs_state(self):
        # average dense snapshot over many samples approaches the pure state
        rng = np.random.default_rng(42)
        psi = random_state(2, rng)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        acc = np.zeros((4, 4), dtype=complex)
        m = 30000
        shadows = sample_shadow_set(psi, m, rng)
        for i in range(m):
            acc += dense_snapshot(*np.divmod(shadows.codes[i], 2))
        err = np.max(np.abs(acc / m - rho))
        assert err < 0.05

    def test_shadow_set_shapes(self):
        psi = basis_state(4, [0, 1, 0, 1])
        s = sample_shadow_set(psi, 17, np.random.default_rng(1))
        assert len(s) == 17 and s.n_sites == 4 and s.codes.shape == (17, 4)


# Reference rotations into the X, Y and Z eigenbases.
REFERENCE_ROTATIONS = (HADAMARD, HADAMARD @ PHASE_S.conj().T, PAULI_I)


def reference_outcome(state, bases, u):
    """Rotate every site, then invert the cumulative Born distribution."""
    for site, b in enumerate(bases):
        state = apply_local_unitary(state, site, REFERENCE_ROTATIONS[b])
    cum = np.cumsum(np.abs(state.amplitudes) ** 2)
    index = int(np.searchsorted(cum, u * cum[-1], side="right"))
    n = state.n_sites
    return [(index >> (n - 1 - i)) & 1 for i in range(n)]


def sparse_state(n, rng):
    """Random state with about half its amplitudes set to zero."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps[rng.random(2**n) < 0.5] = 0.0
    amps[rng.integers(2**n)] = 1.0
    return StateVector(n, amps / np.linalg.norm(amps))


class _FixedUniform:
    """Generator stand-in whose uniforms all equal one value."""

    def __init__(self, seed, u):
        self._rng, self._u = np.random.default_rng(seed), u

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size):
        return np.full(size, self._u)


class TestSequentialSampler:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_shadow_set_matches_reference(self, n):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            psi = (random_state if seed % 2 else sparse_state)(n, rng)
            shadows = sample_shadow_set(psi, 4, np.random.default_rng([n, seed]))
            draws = np.random.default_rng([n, seed])
            bases, uniforms = draws.integers(0, 3, size=(4, n)), draws.random(4)
            got_bases, outcomes = split(shadows)
            assert np.array_equal(got_bases, bases)
            for row, u in enumerate(uniforms):
                assert list(outcomes[row]) == reference_outcome(psi, bases[row], u)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_forced_bases_and_born_sample_match_reference(self, n):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            psi = (random_state if seed % 2 else sparse_state)(n, rng)
            forced = rng.integers(0, 3, size=n)
            u = np.random.default_rng([n, seed]).random()
            out = forced_outcomes(psi, [forced, [BASIS_Z] * n], [u, u])
            assert list(out[0]) == reference_outcome(psi, forced, u)
            assert list(out[1]) == reference_outcome(psi, [BASIS_Z] * n, u)

    def test_chunks_do_not_change_the_draws(self, monkeypatch):
        psi = random_state(5, np.random.default_rng(3))
        whole = sample_shadow_set(psi, 50, np.random.default_rng(4))
        monkeypatch.setattr(shadows_module, "_SAMPLE_AMPLITUDES", 7 * 2**5)
        chunked = sample_shadow_set(psi, 50, np.random.default_rng(4))
        assert np.array_equal(whole.codes, chunked.codes)

    def test_prefix_sharing_at_criterion_scale_matches_reference(self, monkeypatch):
        # 1000 snapshots at L=10 share site 3's 648 (prefix, basis) keys; a
        # table bound of 2**15 amplitudes then splits them into chunks of 256.
        psi = random_state(10, np.random.default_rng(31))
        draws = np.random.default_rng(32)
        bases, uniforms = draws.integers(0, 3, size=(1000, 10)), draws.random(1000)
        want = np.array([reference_outcome(psi, bases[i], u) for i, u in enumerate(uniforms)])
        unique, rows = np.unique, []

        def counting_unique(a, **kwargs):
            rows.append(len(a))
            return unique(a, **kwargs)

        monkeypatch.setattr(shadows_module.np, "unique", counting_unique)
        assert np.array_equal(forced_outcomes(psi, bases, uniforms), want)
        assert max(rows) == 1000
        rows.clear()
        monkeypatch.setattr(shadows_module, "_SAMPLE_AMPLITUDES", 2**15)
        assert np.array_equal(forced_outcomes(psi, bases, uniforms), want)
        assert max(rows) == 256 and len(rows) == 4 * 2 * 10

    @pytest.mark.parametrize("n, m", [(1, 9), (3, 10), (5, 23), (6, 1)])
    def test_basis_chunks_keep_the_stream(self, monkeypatch, n, m):
        # rows of 7 // n snapshots per draw: several chunks, the last one short
        monkeypatch.setattr("scramblescope.shadows._DRAW_CHUNK", 7)
        for seed in range(50):
            psi = random_state(n, np.random.default_rng(seed))
            got = sample_shadow_set(psi, m, np.random.default_rng(seed))
            draws = np.random.default_rng(seed)
            bases, uniforms = draws.integers(0, 3, size=(m, n)), draws.random(m)
            got_bases, outcomes = split(got)
            assert got.codes.dtype == np.uint8 and np.array_equal(got_bases, bases)
            for row, u in enumerate(uniforms):
                assert list(outcomes[row]) == reference_outcome(psi, bases[row], u)

    # The ends of [0, 1): 0 itself and the largest double below 1.
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_never_picks_a_zero_weight_half(self, u):
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            psi = sparse_state(int(rng.integers(1, 7)), rng)
            out = forced_outcomes(psi, [[BASIS_Z] * psi.n_sites], [u])
            index = int("".join(str(b) for b in out[0]), 2)
            assert psi.amplitudes[index] != 0
            bases, outcomes = split(sample_shadow_set(psi, 1, _FixedUniform(seed, u)))
            rotated = psi
            for site, b in enumerate(bases[0]):
                rotated = apply_local_unitary(rotated, site, REFERENCE_ROTATIONS[b])
            index = int("".join(str(b) for b in outcomes[0]), 2)
            assert abs(rotated.amplitudes[index]) > 0


class TestMedianOfMeans:
    def test_k1_is_plain_mean(self):
        x = np.arange(10.0)
        assert median_of_means(x, 1) == np.mean(x)

    def test_in_order_batches(self):
        # batches [1,1],[1,1],[100,100] -> median of (1,1,100) = 1
        x = np.array([1.0, 1, 1, 1, 100, 100])
        assert median_of_means(x, 3) == 1.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0], 3)

    def test_outlier_robustness(self):
        # a corrupted contiguous run (5% of the data, x100) lands in one
        # in-order batch, which the median discards; the mean does not
        rng = np.random.default_rng(5)
        clean = rng.normal(loc=1.0, size=10000)
        corrupted = clean.copy()
        corrupted[:500] *= 100.0
        mom_err = abs(median_of_means(corrupted, 20) - 1.0)
        mean_err = abs(np.mean(corrupted) - 1.0)
        clean_err = abs(median_of_means(clean, 20) - 1.0)
        assert mom_err < 3 * clean_err
        assert mean_err > 10 * abs(np.mean(clean) - 1.0)


class TestPurityEstimate:
    def test_unbiased_plain_mean(self):
        rng = np.random.default_rng(7)
        psi = random_state(3, rng)
        sub = SiteSubset([0, 2])
        true_p = purity(partial_trace(psi, sub))
        ests = []
        for i in range(40):
            s = sample_shadow_set(psi, 500, np.random.default_rng(1000 + i))
            ests.append(chi2_estimate_many(s, s, [sub], MoMConfig(1, 500))[0].purity1)
        se = np.std(ests, ddof=1) / np.sqrt(len(ests))
        assert abs(np.mean(ests) - true_p) < 4 * se


class TestOverlapEstimate:
    def test_unbiased_plain_mean(self):
        rng = np.random.default_rng(8)
        psi1, psi2 = random_state(3, rng), random_state(3, rng)
        sub = SiteSubset([1, 2])
        r1, r2 = partial_trace(psi1, sub), partial_trace(psi2, sub)
        true_ov = float(np.trace(r1.matrix @ r2.matrix).real)
        ests = []
        for i in range(40):
            a = sample_shadow_set(psi1, 500, np.random.default_rng(2000 + i))
            b = sample_shadow_set(psi2, 500, np.random.default_rng(3000 + i))
            ests.append(chi2_estimate_many(a, b, [sub], MoMConfig(1, 500))[0].overlap)
        se = np.std(ests, ddof=1) / np.sqrt(len(ests))
        assert abs(np.mean(ests) - true_ov) < 4 * se


class TestChi2Estimate:
    def test_identical_states_near_zero(self):
        rng = np.random.default_rng(9)
        psi = random_state(4, rng)
        a = sample_shadow_set(psi, 2000, np.random.default_rng(1))
        b = sample_shadow_set(psi, 2000, np.random.default_rng(2))
        (est,) = chi2_estimate_many(a, b, [SiteSubset([1])], MoMConfig(10, 200))
        assert abs(est.value) < 0.05

    def test_orthogonal_product_states_anchor(self):
        psi1 = basis_state(2, [0, 0])
        psi2 = basis_state(2, [1, 0])
        a = sample_shadow_set(psi1, 4000, np.random.default_rng(3))
        b = sample_shadow_set(psi2, 4000, np.random.default_rng(4))
        (est,) = chi2_estimate_many(a, b, [SiteSubset([0])], MoMConfig(10, 400))
        assert abs(est.value - np.log(4 / 3)) < 0.05

    def test_many_matches_pair_kernel_oracle(self):
        # Brute force: the mean of pair_kernel over each batch's snapshot
        # pairs (i != j within one set, all pairs across sets), then the
        # median over batches. The two snapshots past the batches are unused.
        rng = np.random.default_rng(21)
        psi1, psi2 = random_state(4, rng), random_state(4, rng)
        a = sample_shadow_set(psi1, 23, np.random.default_rng(22))
        b = sample_shadow_set(psi2, 23, np.random.default_rng(23))
        mom = MoMConfig(3, 7)
        subsets = [
            SiteSubset(c) for k in (1, 2, 3) for c in itertools.combinations(range(4), k)
        ]

        def oracle(x, y, sub, same_set):
            means = []
            for k in range(mom.n_batches):
                batch = range(k * mom.batch_size, (k + 1) * mom.batch_size)
                means.append(np.mean([
                    pair_kernel(x, i, y, j, sub)
                    for i in batch for j in batch if not (same_set and i == j)
                ]))
            return np.median(means)

        ests = chi2_estimate_many(a, b, subsets, mom)
        assert len(ests) == len(subsets) == 14
        for sub, est in zip(subsets, ests):
            assert abs(est.purity1 - oracle(a, a, sub, True)) <= 1e-12
            assert abs(est.purity2 - oracle(b, b, sub, True)) <= 1e-12
            assert abs(est.overlap - oracle(a, b, sub, False)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_both_orders_give_the_same_bits(self, k):
        # Both orders return the (3, subsets, batches) pair sums T11, T22, T12.
        rng = np.random.default_rng(40 + k)
        a = sample_shadow_set(random_state(5, rng), 63, np.random.default_rng(41))
        b = sample_shadow_set(random_state(5, rng), 63, np.random.default_rng(42))
        subsets = [SiteSubset(c) for c in itertools.combinations(range(5), k)]
        mom = MoMConfig(3, 20)
        histogram = shadows_module._histogram_sums(a.codes, b.codes, subsets, mom)
        pairs = shadows_module._pair_sums(a.codes, b.codes, subsets, mom)
        assert histogram.shape == (3, len(subsets), 3)
        assert np.array_equal(histogram, pairs)

    def test_mixed_sizes_match_pair_kernel_oracle_in_both_orders(self, monkeypatch):
        # In batches of 20 the cost rule takes the histogram for two sites and
        # the B x B order for three, so one call with sizes 1..3 uses both.
        rule = shadows_module._histogram_order
        assert rule(2, 20) and not rule(3, 20)
        rng = np.random.default_rng(51)
        a = sample_shadow_set(random_state(5, rng), 41, np.random.default_rng(52))
        b = sample_shadow_set(random_state(5, rng), 41, np.random.default_rng(53))
        mom = MoMConfig(2, 20)
        subsets = [SiteSubset(c) for k in (1, 2, 3) for c in itertools.combinations(range(5), k)]
        want = np.array([
            [brute_force_median(x, y, sub, mom) for x, y in ((a, a), (b, b), (a, b))]
            for sub in subsets
        ])
        for order in (rule, lambda *_: True, lambda *_: False):
            monkeypatch.setattr(shadows_module, "_histogram_order", order)
            ests = chi2_estimate_many(a, b, subsets, mom)
            got = np.array([[e.purity1, e.purity2, e.overlap] for e in ests])
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_histogram_chunks_split_and_keep_the_bits(self, monkeypatch):
        # A bound of 300 entries holds five two-site units (20 tuple indices
        # and 36 counts each) and one three-site unit (20 and 216); a
        # four-site unit (20 and 1296) alone exceeds it and is one chunk.
        rng = np.random.default_rng(61)
        a = sample_shadow_set(random_state(5, rng), 60, np.random.default_rng(62))
        b = sample_shadow_set(random_state(5, rng), 60, np.random.default_rng(63))
        subsets = [SiteSubset(c) for k in (2, 3, 4) for c in itertools.combinations(range(5), k)]
        monkeypatch.setattr(shadows_module, "_histogram_order", lambda *_: True)
        whole = chi2_estimate_many(a, b, subsets, MoMConfig(3, 20))
        bincount, held = np.bincount, []

        def counting_bincount(index, minlength):
            held.append((index.size, minlength))
            return bincount(index, minlength=minlength)

        monkeypatch.setattr(shadows_module, "_HISTOGRAM_ENTRIES", 300)
        monkeypatch.setattr(shadows_module.np, "bincount", counting_bincount)
        chunked = chi2_estimate_many(a, b, subsets, MoMConfig(3, 20))
        assert chunked == whole
        # (tuple indices, counts) per call, for each set of each chunk
        assert sorted(set(held)) == [(20, 216), (20, 1296), (100, 180)]
        assert len(held) == 2 * (30 // 5 + 30 + 15)

    def test_components_reported(self):
        est = Chi2Estimate(0.1, 0.9, 0.8, 0.5)
        assert est.purity1 == 0.9 and est.overlap == 0.5


class TestEstimatorRefusals:
    def test_refuses_different_chain_lengths(self):
        a = sample_shadow_set(basis_state(2, [0, 0]), 10, np.random.default_rng(0))
        b = sample_shadow_set(basis_state(3, [0, 0, 0]), 10, np.random.default_rng(1))
        with pytest.raises(ValueError, match="chain lengths"):
            chi2_estimate_many(a, b, [SiteSubset([0])], MoMConfig(2, 5))

    def test_refuses_subset_past_the_chain(self):
        s = sample_shadow_set(basis_state(2, [0, 0]), 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="out of range"):
            chi2_estimate_many(s, s, [SiteSubset([0]), SiteSubset([1, 2])], MoMConfig(2, 5))

    @pytest.mark.parametrize("sizes", [(10, 12), (12, 10)], ids=["set1-short", "set2-short"])
    def test_refuses_budget_larger_than_either_set(self, sizes):
        a, b = (
            sample_shadow_set(basis_state(2, [0, 0]), m, np.random.default_rng(m))
            for m in sizes
        )
        with pytest.raises(ValueError, match="exceed"):
            chi2_estimate_many(a, b, [SiteSubset([0])], MoMConfig(6, 2))

    def test_memory_budget_counts_the_per_snapshot_floats(self):
        # a two-site snapshot is budgeted 32 bytes: 8 per site, plus its
        # float64 uniform and target
        fits = MAX_SHADOW_BYTES // 32
        check_shadow_memory(2, fits, MoMConfig(1, 2), 1)
        with pytest.raises(ValueError, match="memory limit"):
            check_shadow_memory(2, fits + 1, MoMConfig(1, 2), 1)

    def test_memory_budget_drops_the_kernel_term_in_histogram_order(self):
        # Three-site subsets in one batch of 7000 take the histogram order:
        # the B x B kernel term, 8 * 7000**2 * (10 + 5) bytes, is not held.
        check_shadow_memory(10, 7000, MoMConfig(1, 7000), 3)
        with pytest.raises(ValueError, match="memory limit"):
            check_shadow_memory(10, 7000, MoMConfig(1, 7000), 10)

    def test_memory_budget_refuses_a_histogram_unit_above_the_limit(self):
        # One batch of 400000 takes the histogram order for 12 sites, but one
        # unit's 6**12 counts alone exceed the limit; 9 sites fit.
        assert shadows_module._histogram_order(12, 400_000)
        check_shadow_memory(14, 400_000, MoMConfig(1, 400_000), 9)
        with pytest.raises(ValueError, match="memory limit"):
            check_shadow_memory(14, 400_000, MoMConfig(1, 400_000), 9, 12)

    @pytest.mark.parametrize("n_batches, batch_size", [(1, 1), (0, 5)])
    def test_mom_refuses_bad_batching(self, n_batches, batch_size):
        # a batch of one snapshot has no distinct pair for the purity
        with pytest.raises(ValueError, match="at least 2 snapshots"):
            MoMConfig(n_batches, batch_size)

    @pytest.mark.parametrize("n_batches, batch_size", [(2.5, 10), (2, 10.0)])
    def test_mom_refuses_counts_that_are_not_whole_numbers(self, n_batches, batch_size):
        # 2.5 batches used to pass here and fail in the estimator, after sampling
        with pytest.raises(ValueError, match="whole numbers"):
            MoMConfig(n_batches, batch_size)
