"""Information metrics: closed-form anchors, independent oracles, properties."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import logm
from scipy.stats import unitary_group

import scramblescope
from scramblescope.infotheory import (
    _SUB_INV_S,
    _SUB_LOG1P_INV_S,
    _SUB_W,
    Ensemble,
    _haar_unitaries,
    _mixing_gain,
    chi2,
    chi2_from_purities,
    chi_q,
    haar_moment_mc,
    holevo_chi,
    q2_contour,
    q2_from_purity_value,
    q2_purity,
    q2_spectral,
    random_density,
    random_spectrum,
    subentropy,
    von_neumann,
)
from scramblescope.qhilbert import DensityOperator, Spectrum


def pure_density(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityOperator(len(v), np.outer(v, v.conj()))


def subentropy_one_spectrum(vals):
    """The subentropy trapezoid sum for a single spectrum, with no stacking."""
    lam = vals / vals.sum()
    d = _SUB_LOG1P_INV_S - np.log1p(np.outer(lam, _SUB_INV_S)).sum(axis=0)
    return 0.0 - float(np.expm1(d) @ _SUB_W)


def subentropy_float_formula(vals):
    """Direct float evaluation of the spectral product formula (oracle)."""
    total = 0.0
    for k, lk in enumerate(vals):
        prod = 1.0
        for l, ll in enumerate(vals):
            if l != k:
                prod *= lk / (lk - ll)
        total -= lk * math.log(lk) * prod
    return total


def subentropy_extrapolation_oracle(vals, eps):
    """Spread degenerate values by +-eps steps and Richardson-extrapolate."""

    def spread(e):
        out = list(vals)
        i = 0
        while i < len(out):
            j = i
            while j + 1 < len(out) and abs(out[j + 1] - out[i]) < 1e-9:
                j += 1
            m = j - i + 1
            if m > 1:
                center = sum(vals[i : j + 1]) / m
                for q in range(m):
                    out[i + q] = center + e * (m - 1 - 2 * q)
            i = j + 1
        return out

    f1 = subentropy_float_formula(spread(eps))
    f2 = subentropy_float_formula(spread(eps / 2))
    return (4 * f2 - f1) / 3


class TestEnsemble:
    def test_average(self):
        e = Ensemble(pure_density([1, 0]), pure_density([0, 1]))
        assert np.allclose(e.average.matrix, np.eye(2) / 2)

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            Ensemble(pure_density([1, 0]), pure_density([0, 0, 1]))


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert abs(von_neumann(pure_density([1, 1j]))) < 1e-12

    def test_maximally_mixed(self):
        rho = DensityOperator(4, np.eye(4) / 4)
        assert abs(von_neumann(rho) - math.log(4)) < 1e-12

    def test_matches_matrix_log_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho = random_density(4, rng)
            want = float(-np.trace(rho.matrix @ logm(rho.matrix)).real)
            assert abs(von_neumann(rho) - want) < 1e-9


class TestHolevo:
    def test_orthogonal_pure_pair(self):
        e = Ensemble(pure_density([1, 0]), pure_density([0, 1]))
        assert abs(holevo_chi(e) - math.log(2)) < 1e-12

    def test_identical_members_zero(self):
        rho = random_density(4, np.random.default_rng(1))
        e = Ensemble(rho, rho)
        assert abs(holevo_chi(e)) < 1e-10


class TestSubentropy:
    def test_half_half_anchor(self):
        # the (1/2, 1/2) spectrum evaluates to ln 2 - 1/2 = 0.193147...
        got = subentropy(Spectrum([0.5, 0.5]))
        assert abs(got - (math.log(2) - 0.5)) < 1e-12
        assert abs(got - 0.193147) < 1e-6

    def test_pure_state_zero(self):
        assert subentropy(Spectrum([1.0])) == 0.0
        assert abs(subentropy(Spectrum([1.0, 0.0]))) < 1e-12

    def test_nondegenerate_matches_float_formula(self):
        vals = [0.6, 0.3, 0.1]
        assert abs(subentropy(Spectrum(vals)) - subentropy_float_formula(vals)) < 1e-12

    def test_degenerate_matches_extrapolation_oracle(self):
        for vals in ([1 / 3] * 3, [0.25] * 4, [0.4, 0.4, 0.2], [0.3, 0.3, 0.3, 0.1]):
            got = subentropy(Spectrum(sorted(vals, reverse=True)))
            want = subentropy_extrapolation_oracle(sorted(vals, reverse=True), 1e-4)
            assert abs(got - want) < 1e-6

    def test_near_degenerate_continuity(self):
        d = 1e-10
        got = subentropy(Spectrum([0.5 + d, 0.5 - d]))
        assert abs(got - (math.log(2) - 0.5)) < 1e-8

    def test_cluster_of_tiny_eigenvalues(self):
        got = subentropy(Spectrum([1 - 4e-12, 2e-12, 2e-12]))
        assert math.isfinite(got) and got >= 0.0

    def test_matches_high_precision_divided_difference(self):
        # -sum_k l_k^n ln l_k / prod_{l != k} (l_k - l_l), in 60 digits
        rng = np.random.default_rng(14)
        for _ in range(100):
            spec = random_spectrum(int(rng.integers(2, 17)), rng)
            with mpmath.workdps(60):
                lam = [mpmath.mpf(float(v)) for v in spec.values]
                n = len(lam)
                want = -sum(
                    lk**n * mpmath.log(lk) / mpmath.fprod(lk - ll for ll in lam if ll != lk)
                    for lk in lam
                )
            assert abs(subentropy(spec) - float(want)) < 1e-12

    def test_below_von_neumann(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rho = random_density(int(rng.integers(2, 7)), rng)
            assert subentropy(rho.spectrum) <= von_neumann(rho) + 1e-10


class TestChiQ:
    def test_orthogonal_pure_pair(self):
        e = Ensemble(pure_density([1, 0]), pure_density([0, 1]))
        assert abs(chi_q(e) - (math.log(2) - 0.5)) < 1e-12

    def test_identical_members_zero(self):
        rho = random_density(3, np.random.default_rng(3))
        e = Ensemble(rho, rho)
        assert abs(chi_q(e)) < 1e-9

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_one_pass_equals_per_member_form(self, d):
        # chi_q takes its three spectra in one pass and subentropy is its
        # one-row case; both must keep the bits of one integral per spectrum.
        rng = np.random.default_rng(d)
        members = [random_density(d, rng) for _ in range(5)]
        members.append(pure_density(rng.normal(size=d) + 1j * rng.normal(size=d)))
        members.append(DensityOperator(d, np.eye(d) / d))
        doubled = np.repeat(rng.dirichlet(np.ones(max(d // 2, 1))), 2)[:d]
        members.append(DensityOperator(d, np.diag(doubled / doubled.sum())))  # degenerate
        for a, b in itertools.combinations(members, 2):
            e = Ensemble(a, b)
            assert chi_q(e) == _mixing_gain(e, lambda rho: subentropy(rho.spectrum))
        for rho in members:
            assert subentropy(rho.spectrum) == subentropy_one_spectrum(rho.spectrum.values)


class TestQ2:
    def test_pure_state(self):
        assert abs(q2_from_purity_value(1.0)) < 1e-15

    def test_maximally_mixed_qubit(self):
        assert abs(q2_from_purity_value(0.5) - math.log(4 / 3)) < 1e-15

    def test_spectral_identity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            spec = random_spectrum(int(rng.integers(2, 9)), rng)
            ref = q2_from_purity_value(float(np.sum(spec.values**2)))
            assert abs(q2_spectral(spec) - ref) < 1e-8

    def test_spectral_identity_degenerate(self):
        for vals in ([0.5, 0.5], [0.25] * 4, [0.4, 0.4, 0.1, 0.1], [1 / 8] * 8, [1 / 16] * 16):
            spec = Spectrum(sorted(vals, reverse=True))
            ref = q2_from_purity_value(float(np.sum(np.array(vals) ** 2)))
            assert abs(q2_spectral(spec) - ref) < 1e-8

    def test_spectral_identity_near_degenerate(self):
        for gap in (1e-7, 1e-10, 1e-13):
            vals = sorted([0.3 + gap, 0.3, 0.25, 0.15 - gap], reverse=True)
            spec = Spectrum(vals)
            ref = q2_from_purity_value(float(np.sum(np.array(vals) ** 2)))
            assert abs(q2_spectral(spec) - ref) < 1e-8

    def test_spectral_identity_large_spectra(self):
        rng = np.random.default_rng(15)
        specs = [random_spectrum(int(rng.integers(9, 65)), rng) for _ in range(200)]
        specs += [random_density(64, rng).spectrum for _ in range(20)]
        for spec in specs:
            ref = q2_from_purity_value(float(np.sum(spec.values**2)))
            assert abs(q2_spectral(spec) - ref) < 1e-12

    def test_spectral_matches_high_precision_expansion(self):
        # -ln sum_i l_i^{n+1} / prod_{j != i} (l_i - l_j), in 60 digits
        rng = np.random.default_rng(16)
        for _ in range(100):
            spec = random_spectrum(int(rng.integers(2, 17)), rng)
            with mpmath.workdps(60):
                lam = [mpmath.mpf(float(v)) for v in spec.values]
                n = len(lam)
                total = sum(
                    li ** (n + 1) / mpmath.fprod(li - lj for lj in lam if lj != li)
                    for li in lam
                )
                want = -mpmath.log(total)
            assert abs(q2_spectral(spec) - float(want)) < 1e-12

    def test_spectral_runs_without_mpmath(self):
        src = str(Path(scramblescope.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys; sys.modules['mpmath'] = None; "
            "from scramblescope.infotheory import q2_spectral; "
            "from scramblescope.qhilbert import Spectrum; "
            "print(repr(q2_spectral(Spectrum([0.25] * 4))))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert abs(float(out.stdout) - math.log(8 / 5)) < 1e-15

    def test_contour_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            spec = random_spectrum(int(rng.integers(2, 9)), rng)
            ref = q2_from_purity_value(float(np.sum(spec.values**2)))
            assert abs(q2_contour(spec, 2.0, 256) - ref) < 1e-6

    def test_contour_converges_with_nodes(self):
        spec = Spectrum([0.6, 0.25, 0.15])
        ref = q2_from_purity_value(float(np.sum(spec.values**2)))
        errs = [abs(q2_contour(spec, 2.0, n) - ref) for n in (64, 128, 256)]
        assert errs[2] <= errs[0] + 1e-12

    def test_contour_rejects_small_radius(self):
        with pytest.raises(ValueError):
            q2_contour(Spectrum([0.9, 0.1]), radius=0.5)

    def test_contour_rejects_few_nodes(self):
        with pytest.raises(ValueError):
            q2_contour(Spectrum([0.9, 0.1]), n_nodes=16)

    def test_purity_route_matches(self):
        rho = random_density(5, np.random.default_rng(6))
        ref = q2_purity(rho)
        assert abs(q2_spectral(rho.spectrum) - ref) < 1e-8


class TestChi2:
    def test_orthogonal_pure_pair_anchor(self):
        e = Ensemble(pure_density([1, 0]), pure_density([0, 1]))
        assert abs(chi2(e) - math.log(4 / 3)) < 1e-12

    def test_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = int(rng.integers(2, 9))
            e = Ensemble(random_density(d, rng), random_density(d, rng))
            assert chi2(e) >= -1e-10

    def test_concavity_of_q2(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            d = int(rng.integers(2, 9))
            a, b = random_density(d, rng), random_density(d, rng)
            lam = float(rng.uniform())
            mix = DensityOperator(d, lam * a.matrix + (1 - lam) * b.matrix)
            gap = lam * q2_purity(a) + (1 - lam) * q2_purity(b) - q2_purity(mix)
            assert gap < 1e-12


class TestChi2FromPurities:
    def test_matches_ensemble_chi2(self):
        rng = np.random.default_rng(11)
        for d in (2, 4, 8):
            a, b = random_density(d, rng), random_density(d, rng)
            mix = DensityOperator(d, (a.matrix + b.matrix) / 2)
            pa, pb, pm = (float(np.sum(np.abs(r.matrix) ** 2)) for r in (a, b, mix))
            want = chi2(Ensemble(a, b))
            assert abs(chi2_from_purities(pa, pb, pm, d) - want) < 1e-12

    def test_clamps_to_physical_range(self):
        # an estimate above 1 reads as a pure state, one below 1/d as maximally mixed
        assert chi2_from_purities(1.3, 1.0, 0.2, 4) == chi2_from_purities(1.0, 1.0, 0.25, 4)
        assert chi2_from_purities(1.0, 1.0, 0.5, 2) == pytest.approx(math.log(4 / 3))


class TestHaarUnitaries:
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("m", [1, 3, 4096])
    def test_same_draws_as_scipy_unitary_group(self, d, m):
        got = _haar_unitaries(d, m, np.random.default_rng(12))
        want = unitary_group.rvs(d, size=m, random_state=np.random.default_rng(12))
        assert np.array_equal(got, want.reshape(m, d, d))


class TestHaarMoments:
    def test_moments_match_closed_forms(self):
        rng = np.random.default_rng(9)
        for d in (2, 4):
            rho = random_density(d, rng)
            m = haar_moment_mc(rho, 20000, rng)
            p = float(np.sum(np.abs(rho.matrix) ** 2))
            assert abs(m.marginal - (p + 1) / (d + 1)) < 4 * m.marginal_se
            assert abs(m.pure - 2 / (d + 1)) < 4 * m.pure_se

    def test_rejects_small_sample(self):
        rho = random_density(2, np.random.default_rng(10))
        with pytest.raises(ValueError):
            haar_moment_mc(rho, 10, np.random.default_rng(0))


class TestRandomInputs:
    def test_random_density_valid(self):
        rng = np.random.default_rng(11)
        rho = random_density(6, rng)
        w = np.linalg.eigvalsh(rho.matrix)
        assert abs(np.sum(w) - 1) < 1e-10
        assert np.sum(w > 1e-10) == 6

    def test_random_spectrum_valid(self):
        rng = np.random.default_rng(12)
        s = random_spectrum(5, rng)
        assert abs(np.sum(s.values) - 1) < 1e-10
        assert np.all(np.diff(s.values) <= 0)
