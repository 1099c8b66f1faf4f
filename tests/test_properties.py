"""Property-based invariants over randomized inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scramblescope.infotheory import (
    q2_from_purity_value,
    q2_purity,
    q2_spectral,
    random_density,
    subentropy,
    von_neumann,
)
from scramblescope.qhilbert import (
    SiteSubset,
    Spectrum,
    StateVector,
    partial_trace,
    purity,
)
from scramblescope.scramble import exact_chi2_pair

from oracles import complement, median_of_means


def simplex(draw, n):
    raw = [draw(st.floats(0.01, 1.0)) for _ in range(n)]
    total = sum(raw)
    return sorted((x / total for x in raw), reverse=True)


@st.composite
def spectra(draw):
    n = draw(st.integers(2, 8))
    return Spectrum(simplex(draw, n))


@st.composite
def seeds(draw):
    return draw(st.integers(0, 2**32 - 1))


@given(spectra())
@settings(max_examples=60, deadline=None)
def test_q2_spectral_matches_purity(spec):
    ref = q2_from_purity_value(float(np.sum(spec.values**2)))
    assert abs(q2_spectral(spec) - ref) < 1e-8


@given(spectra())
@settings(max_examples=60, deadline=None)
def test_subentropy_nonnegative_and_bounded(spec):
    q = subentropy(spec)
    # 0 <= Q <= ln(n) (it is below the Shannon entropy of the spectrum)
    shannon = float(-np.sum(spec.values * np.log(np.maximum(spec.values, 1e-300))))
    assert -1e-10 <= q <= shannon + 1e-10


@given(seeds(), st.integers(1, 3), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_q2_concave_and_chi2_nonnegative(seed, log2d, lam):
    rng = np.random.default_rng(seed)
    d = 2**log2d
    a, b = random_density(d, rng), random_density(d, rng)
    mix_m = lam * a.matrix + (1 - lam) * b.matrix
    from scramblescope.qhilbert import DensityOperator

    mix = DensityOperator(d, mix_m)
    assert lam * q2_purity(a) + (1 - lam) * q2_purity(b) - q2_purity(mix) < 1e-12
    assert exact_chi2_pair(a, b) >= -1e-10


@given(seeds())
@settings(max_examples=30, deadline=None)
def test_subentropy_below_von_neumann(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(int(rng.integers(2, 7)), rng)
    assert subentropy(rho.spectrum) <= von_neumann(rho) + 1e-9


@given(seeds(), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_complementary_purities_equal(seed, keep_mask):
    rng = np.random.default_rng(seed)
    n = 5
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi = StateVector(n, amps / np.linalg.norm(amps))
    keep = SiteSubset(sorted({keep_mask % n, (keep_mask * 2 + 1) % n}))
    p_a = purity(partial_trace(psi, keep))
    p_b = purity(partial_trace(psi, complement(keep, n)))
    assert abs(p_a - p_b) < 1e-10


@given(st.lists(st.floats(-100, 100), min_size=4, max_size=200), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_median_of_means_within_range(samples, k):
    if k > len(samples):
        return
    v = median_of_means(samples, k)
    assert min(samples) - 1e-9 <= v <= max(samples) + 1e-9
