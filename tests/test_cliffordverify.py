"""Clifford enumeration, 2-design identities, and sampled purity inversion."""

import itertools

import numpy as np
import pytest

from scramblescope.cliffordverify import (
    _phase_key,
    clifford_convergence_experiment,
    enumerate_c1,
    purity_from_basis_sampling,
    random_clifford_circuit,
    summarize_convergence,
)
from scramblescope.infotheory import random_density
from scramblescope.models import ModelSpec
from scramblescope.qhilbert import PAULI_X, PAULI_Y, PAULI_Z
from scramblescope.scramble import ScrambleScenario


class TestEnumerateC1:
    def test_24_distinct_elements(self):
        elems = enumerate_c1()
        assert len(elems) == 24
        for a, b in itertools.combinations(elems, 2):
            # equal up to phase exactly when |Tr(a^dag b)| = 2
            assert abs(np.trace(a.conj().T @ b)) < 2 - 1e-9

    def test_all_unitary(self):
        for e in enumerate_c1():
            assert np.max(np.abs(e @ e.conj().T - np.eye(2))) < 1e-12

    def test_permutes_pauli_axes(self):
        # every element maps each Pauli to +-another Pauli under conjugation
        paulis = [PAULI_X, PAULI_Y, PAULI_Z]
        for e in enumerate_c1():
            for p in paulis:
                q = e @ p @ e.conj().T
                hits = [
                    np.max(np.abs(q - sgn * r)) < 1e-9
                    for r in paulis
                    for sgn in (1, -1)
                ]
                assert any(hits)

    def test_second_moment_matches_haar_twirl(self):
        # 2-design identity: the basis-averaged doubled projector equals the
        # Haar value d * (I + SWAP) / (d (d + 1)) for d = 2
        d = 2
        swap = np.eye(4)[[0, 2, 1, 3]]
        acc = np.zeros((4, 4), dtype=complex)
        for e in enumerate_c1():
            for b in range(d):
                ket = e.conj().T[:, b]
                proj = np.outer(ket, ket.conj())
                acc += np.kron(proj, proj)
        acc /= 24
        want = d * (np.eye(4) + swap) / (d * (d + 1))
        assert np.max(np.abs(acc - want)) < 1e-12


class StubRng:
    """Stands in for a Generator: records each integers(high) call and answers
    it from a script of draws."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.highs = []

    def integers(self, high):
        self.highs.append(high)
        return self.draws.pop(0)


class TestRandomClifford:
    def test_one_draw_decodes_core_and_local_pair(self):
        rng = StubRng([0, 11519, 576 + 24 * 5 + 7])
        assert np.max(np.abs(random_clifford_circuit(rng) - np.eye(4))) < 1e-12
        assert rng.highs == [11520]
        c1 = enumerate_c1()
        swap = np.eye(4)[[0, 2, 1, 3]]
        want = np.kron(c1[23], c1[23]) @ swap
        assert np.max(np.abs(random_clifford_circuit(rng) - want)) < 1e-12
        # core 1 is CNOT after the identity mixer; pair 5 * 24 + 7 is C1[5] x C1[7]
        cnot = np.eye(4)[[0, 1, 3, 2]]
        want = np.kron(c1[5], c1[7]) @ cnot
        assert np.max(np.abs(random_clifford_circuit(rng) - want)) < 1e-12
        assert rng.highs == [11520] * 3 and not rng.draws

    def test_draw_is_read_only(self):
        # every draw is a view of one cached table, which a caller must not edit
        u = random_clifford_circuit(np.random.default_rng(0))
        with pytest.raises(ValueError):
            u[0, 0] = 2.0
        assert not random_clifford_circuit(np.random.default_rng(1)).flags.writeable


class TestPurityInversion:
    def test_exact_with_full_group(self):
        rng = np.random.default_rng(1)
        c1 = enumerate_c1()
        for _ in range(25):
            rho = random_density(2, rng)
            p = float(np.sum(np.abs(rho.matrix) ** 2))
            assert abs(purity_from_basis_sampling(rho, c1) - p) < 1e-12

    def test_exact_with_full_c2(self):
        rng = StubRng(range(11520))
        c2 = np.stack([random_clifford_circuit(rng) for _ in range(11520)])
        assert np.max(np.abs(c2 @ c2.conj().transpose(0, 2, 1) - np.eye(4))) < 1e-12
        assert len({_phase_key(u) for u in c2}) == 11520
        rng = np.random.default_rng(2)
        for _ in range(25):
            rho = random_density(4, rng)
            p = float(np.sum(np.abs(rho.matrix) ** 2))
            assert abs(purity_from_basis_sampling(rho, c2) - p) < 1e-12

    def test_rejects_empty(self):
        rho = random_density(2, np.random.default_rng(3))
        with pytest.raises(ValueError):
            purity_from_basis_sampling(rho, [])

    def test_equals_per_unitary_loop(self):
        rng = np.random.default_rng(4)
        rho = random_density(4, rng)
        us = [random_clifford_circuit(rng) for _ in range(37)]
        acc = 0.0
        for u in us:
            probs = np.einsum("ja,ab,jb->j", u, rho.matrix, u.conj(), optimize=True).real
            acc += float(np.sum(probs ** 2))
        want = 5 * (acc / len(us)) - 1.0
        assert purity_from_basis_sampling(rho, us) == want
        assert purity_from_basis_sampling(rho, np.stack(us)) == want

    @pytest.mark.parametrize("shape", [(3, 2, 2), (3, 4, 2), (4, 4)])
    def test_rejects_wrong_stack_shape(self, shape):
        rho = random_density(4, np.random.default_rng(5))
        with pytest.raises(ValueError, match="shape"):
            purity_from_basis_sampling(rho, np.zeros(shape, dtype=complex))


class TestConvergenceExperiment:
    def _scenario(self, size):
        return ScrambleScenario(
            model=ModelSpec(kind="PXP", n_sites=6),
            perturbation_site=2,
            subsystem_size=size,
            time_grid=np.array([0.0, 1.5]),
        )

    def test_variance_shrinks_with_n(self):
        rows = clifford_convergence_experiment(self._scenario(1), [10, 200], 5)
        summary = summarize_convergence(rows)
        by_key = {(r["t"], r["N"]): r for r in summary}
        for t in (0.0, 1.5):
            assert by_key[(t, 10)]["chi2_std"] > by_key[(t, 200)]["chi2_std"]

    def test_n200_tracks_exact(self):
        rows = clifford_convergence_experiment(self._scenario(2), [200], 3)
        for r in rows:
            assert abs(r["chi2_est"] - r["chi2_exact"]) < 0.15

    def test_deterministic(self):
        a = clifford_convergence_experiment(self._scenario(1), [10], 2)
        b = clifford_convergence_experiment(self._scenario(1), [10], 2)
        assert a == b

    def test_rejects_duplicate_sample_counts(self):
        with pytest.raises(ValueError, match="duplicate"):
            clifford_convergence_experiment(self._scenario(1), [10, 10], 2)

    def test_rejects_non_pxp(self):
        s = ScrambleScenario(
            model=ModelSpec(kind="TFIM", n_sites=4),
            perturbation_site=2,
            subsystem_size=1,
            time_grid=np.array([0.0]),
        )
        with pytest.raises(ValueError):
            clifford_convergence_experiment(s, [10], 1)
