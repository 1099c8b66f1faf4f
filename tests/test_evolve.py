"""Exact time evolution checked against a dense matrix-exponential oracle."""

import numpy as np
import pytest
from scipy.linalg import expm

from scramblescope.evolve import Propagator, evolve, make_propagator
from scramblescope.models import build_mbl, build_mfim, build_pxp, build_tfim, draw_disorder
from scramblescope.qhilbert import StateVector, basis_state


def random_state(n_sites, rng):
    amps = rng.normal(size=2**n_sites) + 1j * rng.normal(size=2**n_sites)
    return StateVector(n_sites, amps / np.linalg.norm(amps))


class TestMakePropagator:
    def test_orthonormal_eigenvectors(self):
        p = make_propagator(build_tfim(4))
        gram = p.eigenvectors.conj().T @ p.eigenvectors
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            Propagator(np.zeros(2), np.ones((2, 2)), 2)


class TestEvolve:
    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(2)
        mbl = build_mbl(4, disorder=draw_disorder(4))
        for h in (build_tfim(4), build_pxp(4), build_mfim(4), mbl):
            p = make_propagator(h)
            psi0 = random_state(4, rng)
            for t in (0.3, 1.7, 12.0):
                got = evolve(p, psi0, t).amplitudes
                want = expm(-1j * h.matrix * t) @ psi0.amplitudes
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
        e0 = np.vdot(psi0.amplitudes, h.matrix @ psi0.amplitudes).real
        psi = evolve(p, psi0, 7.3)
        e1 = np.vdot(psi.amplitudes, h.matrix @ psi.amplitudes).real
        assert abs(e0 - e1) < 1e-9

    def test_rejects_nonfinite_time(self):
        p = make_propagator(build_tfim(2))
        with pytest.raises(ValueError):
            evolve(p, basis_state(2, [0, 0]), float("nan"))

    def test_rejects_dim_mismatch(self):
        p = make_propagator(build_tfim(2))
        with pytest.raises(ValueError):
            evolve(p, basis_state(3, [0, 0, 0]), 1.0)
