"""The independent reference against analytic values and dense constructions."""

import math
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

import reference as ref

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1j], [1j, 0.0]])
Z = np.diag([1.0, -1.0])
DOWN = np.diag([0.0, 1.0])  # projector onto bit 1, spin down


def dense(ops: dict, n: int) -> np.ndarray:
    return reduce(np.kron, [ops.get(i, I2) for i in range(n)])


def test_pxp_matches_projector_form():
    n = 6
    h = sum(dense({i - 1: DOWN, i: X, i + 1: DOWN}, n) for i in range(1, n - 1))
    h = h + dense({0: X, 1: DOWN}, n) + dense({n - 2: DOWN, n - 1: X}, n)
    assert np.abs(ref.pxp_hamiltonian(n).toarray() - h).max() < 1e-14


def test_mbl_matches_spin_operator_form():
    fields = ref.disorder_fields(5, 8.0, 42)
    n = len(fields)
    s = [X / 2, Y / 2, Z / 2]
    h = sum(dense({i: a, i + 1: a}, n) for i in range(n - 1) for a in s)
    h = h + sum(f * dense({i: Z / 2}, n) for i, f in enumerate(fields))
    assert np.abs(ref.hamiltonian(ref.mbl_terms(fields), n).toarray() - h).max() < 1e-14


def test_disorder_fields_are_seeded_and_bounded():
    a = ref.disorder_fields(11, 8.0, 42)
    assert np.array_equal(a, ref.disorder_fields(11, 8.0, 42))
    assert np.all(np.abs(a) <= 8.0) and not np.array_equal(a, ref.disorder_fields(11, 8.0, 43))


def test_neel_pair_bits():
    psi1, psi2 = ref.neel_pair(4, 2)
    assert np.flatnonzero(psi1).tolist() == [0b0101]
    assert np.flatnonzero(psi2).tolist() == [0b0111]


def test_evolve_matches_dense_expm():
    h = ref.pxp_hamiltonian(5)
    psi, _ = ref.neel_pair(5, 2)
    want = scipy.linalg.expm(-1j * 2.7 * h.toarray()) @ psi
    assert np.abs(ref.evolve(h, psi, 2.7) - want).max() < 1e-12


def test_reduced_state_of_product_state():
    a = np.array([1.0, 1j]) / math.sqrt(2)
    b = np.array([0.6, 0.8])
    c = np.array([1.0, 0.0])
    psi = reduce(np.kron, [a, b, c])
    rho = ref.reduced_state(psi, 3, [2, 0])
    want = np.kron(np.outer(a, a.conj()), np.outer(c, c.conj()))
    assert np.abs(rho - want).max() < 1e-15


@pytest.mark.parametrize("n_sites,flip,subset", [(10, 4, (4, 5)), (10, 4, (1, 4)), (11, 5, (4, 5))])
def test_anchor_values_at_t0(n_sites, flip, subset):
    psi1, psi2 = ref.neel_pair(n_sites, flip)
    r1 = ref.reduced_state(psi1, n_sites, subset)
    r2 = ref.reduced_state(psi2, n_sites, subset)
    assert abs(ref.chi2(r1, r2) - math.log(4 / 3)) < 1e-14
    assert abs(ref.holevo(r1, r2) - math.log(2)) < 1e-14
    assert abs(ref.chi_q(r1, r2) - (math.log(2) - 0.5)) < 1e-12


def test_anchor_values_vanish_off_the_flip():
    psi1, psi2 = ref.neel_pair(8, 4)
    r1, r2 = (ref.reduced_state(p, 8, (0, 1)) for p in (psi1, psi2))
    assert abs(ref.chi2(r1, r2)) < 1e-15 and abs(ref.holevo(r1, r2)) < 1e-15
    assert abs(ref.chi_q(r1, r2)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_subentropy_of_maximally_mixed_state(n):
    want = math.log(n) - sum(1 / k for k in range(2, n + 1))
    assert abs(ref.subentropy(np.eye(n) / n) - want) < 1e-12


def test_subentropy_of_pure_state_is_zero():
    assert abs(ref.subentropy(np.diag([1.0, 0.0, 0.0, 0.0]))) < 1e-14


def test_subentropy_matches_divided_difference_for_distinct_spectrum():
    lam = np.array([0.5, 0.3, 0.15, 0.05])
    want = -sum(
        lam[k] ** 4 * math.log(lam[k]) / np.prod([lam[k] - lam[j] for j in range(4) if j != k])
        for k in range(4)
    )
    assert abs(ref.subentropy(np.diag(lam)) - want) < 1e-12
