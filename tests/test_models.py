"""Hamiltonian builders checked against term-by-term dense oracles."""

import json

import numpy as np
import pytest

from scramblescope.models import (
    DisorderRealization,
    MFIM_G_DEFAULT,
    MFIM_H_DEFAULT,
    MAX_DENSE_SITES,
    ModelSpec,
    PXP_PROJECTOR,
    build_hamiltonian,
    build_mbl,
    build_mfim,
    build_pxp,
    build_tfim,
    draw_disorder,
)
from scramblescope.qhilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
)

from oracles import bit_of, kron_embed


class TestTFIM:
    def test_term_by_term_oracle(self):
        L, J, g = 4, 1.0, 0.6
        want = np.zeros((16, 16), dtype=complex)
        for i in range(L - 1):
            want += J * kron_embed([(i, PAULI_Z), (i + 1, PAULI_Z)], L).matrix
        for i in range(L):
            want += g * kron_embed([(i, PAULI_X)], L).matrix
        got = build_tfim(L, J, g).matrix
        assert np.max(np.abs(got - want)) < 1e-14

    def test_l2_spectrum_analytic(self):
        # H = Z Z + g(X I + I X); eigenvalues from the characteristic
        # polynomial worked out by hand: in the |00>,|01>,|10>,|11> basis the
        # matrix couples (00,11) and (01,10) into two 2x2 blocks after the
        # symmetric/antisymmetric split, giving +-sqrt(1+4g^2) and +-1.
        g = 0.6
        w = np.linalg.eigvalsh(build_tfim(2, 1.0, g).matrix)
        want = np.sort([np.sqrt(1 + 4 * g * g), -np.sqrt(1 + 4 * g * g), 1.0, -1.0])
        assert np.allclose(w, want, atol=1e-12)

    def test_g_zero_is_classical(self):
        h = build_tfim(3, 1.0, 0.0).matrix
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-14

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            build_tfim(1)

    def test_refuses_chain_above_dense_limit(self):
        # Refused before allocating: 14 sites would need 4 GiB for H alone.
        with pytest.raises(ValueError, match="dense limit"):
            build_tfim(14)


class TestMFIM:
    def test_difference_from_tfim_is_bulk_field(self):
        L = 5
        diff = build_mfim(L).matrix - build_tfim(L, 1.0, MFIM_G_DEFAULT).matrix
        want = np.zeros_like(diff)
        for i in range(1, L - 1):
            want += MFIM_H_DEFAULT * kron_embed([(i, PAULI_Z)], L).matrix
        assert np.max(np.abs(diff - want)) < 1e-13

    def test_default_couplings_values(self):
        assert abs(MFIM_G_DEFAULT - (np.sqrt(5) + 5) / 8) < 1e-15
        assert abs(MFIM_H_DEFAULT - (np.sqrt(5) + 1) / 4) < 1e-15

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            build_mfim(2)


class TestMBL:
    def test_term_by_term_oracle(self):
        L = 4
        dis = draw_disorder(L, W=8.0, seed=42)
        sx, sy, sz = PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2
        want = np.zeros((16, 16), dtype=complex)
        for i in range(L - 1):
            want += kron_embed([(i, sx), (i + 1, sx)], L).matrix
            want += kron_embed([(i, sy), (i + 1, sy)], L).matrix
            want += kron_embed([(i, sz), (i + 1, sz)], L).matrix
        for i in range(L):
            want += dis.fields[i] * kron_embed([(i, sz)], L).matrix
        got = build_mbl(L, disorder=dis).matrix
        assert np.max(np.abs(got - want)) < 1e-12

    def test_disorder_reproducible(self):
        a = draw_disorder(6, W=8.0, seed=42)
        b = draw_disorder(6, W=8.0, seed=42)
        assert np.array_equal(a.fields, b.fields)
        assert np.any(draw_disorder(6, seed=43).fields != a.fields)

    def test_disorder_within_width(self):
        dis = draw_disorder(200, W=8.0, seed=1)
        assert np.all(np.abs(dis.fields) <= 8.0)

    def test_disorder_json_roundtrip(self):
        dis = draw_disorder(5, W=8.0, seed=42)
        record = dis.echo()
        assert json.loads(json.dumps(record)) == record == {
            "fields": dis.fields.tolist(), "seed": 42, "generator_id": "pcg64", "W": 8.0,
        }

    def test_bond_scale_severs_chain(self):
        # zeroing bond 1 must make H block-additive across the cut
        L = 4
        dis = draw_disorder(L, seed=2)
        scale = np.array([1.0, 0.0, 1.0])
        h = build_mbl(L, disorder=dis, bond_scale=scale).matrix
        left = build_mbl(
            2,
            disorder=DisorderRealization(dis.fields[:2], 2, 8.0),
        ).matrix
        right = build_mbl(
            2,
            disorder=DisorderRealization(dis.fields[2:], 2, 8.0),
        ).matrix
        want = np.kron(left, np.eye(4)) + np.kron(np.eye(4), right)
        assert np.max(np.abs(h - want)) < 1e-12

    def test_requires_disorder(self):
        with pytest.raises(ValueError):
            build_mbl(4)
        with pytest.raises(ValueError):
            build_mbl(4, disorder=draw_disorder(3))


class TestPXP:
    def test_term_by_term_oracle(self):
        L = 5
        want = np.zeros((32, 32), dtype=complex)
        for i in range(1, L - 1):
            ops = [(i - 1, PXP_PROJECTOR), (i, PAULI_X), (i + 1, PXP_PROJECTOR)]
            want += kron_embed(ops, L).matrix
        want += kron_embed([(0, PAULI_X), (1, PXP_PROJECTOR)], L).matrix
        want += kron_embed([(L - 2, PXP_PROJECTOR), (L - 1, PAULI_X)], L).matrix
        got = build_pxp(L).matrix
        assert np.max(np.abs(got - want)) < 1e-14

    def test_preserves_blockade_subspace(self):
        # no matrix element connects a constrained state to a state with two
        # adjacent excited (bit 0) sites
        L = 6
        h = build_pxp(L).matrix

        def valid(idx):
            bits = [bit_of(idx, s, L) for s in range(L)]
            return all(not (a == 0 and b == 0) for a, b in zip(bits, bits[1:]))

        good = [i for i in range(2**L) if valid(i)]
        bad = [i for i in range(2**L) if not valid(i)]
        assert np.max(np.abs(h[np.ix_(bad, good)])) == 0.0


class TestModelSpec:
    def test_dispatch_matches_builders(self):
        dis = draw_disorder(4)
        cases = [
            (ModelSpec("TFIM", 4), build_tfim(4)),
            (ModelSpec("MFIM", 4), build_mfim(4)),
            (ModelSpec("PXP", 4), build_pxp(4)),
            (ModelSpec("MBL", 4, disorder=dis), build_mbl(4, disorder=dis)),
        ]
        for spec, want in cases:
            assert np.array_equal(build_hamiltonian(spec).matrix, want.matrix)

    def test_coupling_overrides(self):
        spec = ModelSpec("TFIM", 3, couplings={"J": 2.0, "g": 0.1})
        assert np.array_equal(
            build_hamiltonian(spec).matrix, build_tfim(3, 2.0, 0.1).matrix
        )
        dis = draw_disorder(4)
        cases = [
            (ModelSpec("MFIM", 4, couplings={"J": -1.0, "g": -0.25, "h": -0.1}),
             build_mfim(4, J=-1.0, g=-0.25, h=-0.1)),
            (ModelSpec("MFIM", 4, couplings={"h": 0.0}), build_mfim(4, h=0.0)),
            (ModelSpec("MBL", 4, couplings={"J_perp": 0.5, "J_z": 2.0}, disorder=dis),
             build_mbl(4, J_perp=0.5, J_z=2.0, disorder=dis)),
        ]
        for spec, want in cases:
            assert np.array_equal(build_hamiltonian(spec).matrix, want.matrix)

    @pytest.mark.parametrize(
        "kind,couplings",
        [("TFIM", {"G": 0.1}), ("TFIM", {"h": 0.3}), ("PXP", {"J": 5.0}), ("MBL", {"J": 2.0})],
    )
    def test_rejects_coupling_the_builder_does_not_take(self, kind, couplings):
        dis = draw_disorder(4) if kind == "MBL" else None
        spec = ModelSpec(kind, 4, couplings=couplings, disorder=dis)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build_hamiltonian(spec)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec("XXZ", 4)

    @pytest.mark.parametrize(
        "kind, builder, short", [("TFIM", build_tfim, 1), ("MFIM", build_mfim, 2), ("PXP", build_pxp, 2)]
    )
    def test_spec_and_builder_refuse_the_same_short_chain(self, kind, builder, short):
        # the spec refuses first, so a CLI run ends in a usage error
        message = f"{kind} needs L >= {short + 1}"
        with pytest.raises(ValueError, match=message):
            ModelSpec(kind, short)
        with pytest.raises(ValueError, match=message):
            builder(short)

    @pytest.mark.parametrize("kind", ["TFIM", "MFIM", "PXP", "MBL"])
    def test_spec_refuses_chain_above_dense_limit(self, kind):
        # refused before anything of size L is built, for library callers too
        with pytest.raises(ValueError, match="dense limit"):
            ModelSpec(kind, MAX_DENSE_SITES + 1)

    def test_mbl_requires_matching_disorder(self):
        with pytest.raises(ValueError):
            ModelSpec("MBL", 4)
        with pytest.raises(ValueError):
            ModelSpec("MBL", 4, disorder=draw_disorder(3))


def _pxp_terms(L):
    p = PXP_PROJECTOR
    terms = [(1.0, [(i - 1, p), (i, PAULI_X), (i + 1, p)]) for i in range(1, L - 1)]
    return terms + [(1.0, [(0, PAULI_X), (1, p)]), (1.0, [(L - 2, p), (L - 1, PAULI_X)])]


def _mbl_terms(L, fields, scale):
    sx, sy, sz = PAULI_X / 2.0, PAULI_Y / 2.0, PAULI_Z / 2.0
    terms = []
    for i in range(L - 1):
        terms += [(scale[i] * 0.7, [(i, s), (i + 1, s)]) for s in (sx, sy)]
        terms.append((scale[i] * 1.3, [(i, sz), (i + 1, sz)]))
    return terms + [(fields[i], [(i, sz)]) for i in range(L)]


def _ising_terms(L, J, g, h=0.0):
    terms = [(J, [(i, PAULI_Z), (i + 1, PAULI_Z)]) for i in range(L - 1)]
    terms += [(g, [(i, PAULI_X)]) for i in range(L)]
    if h:
        terms += [(h, [(i, PAULI_Z)]) for i in range(1, L - 1)]
    return terms


_L = 6
_DIS = draw_disorder(_L, seed=7)
_SCALE = np.array([1.0, 0.5, 0.0, 2.0, 1.0])


@pytest.mark.parametrize(
    "got, terms",
    [
        (lambda: build_tfim(_L, 0.7, 1.3), _ising_terms(_L, 0.7, 1.3)),
        (lambda: build_mfim(_L), _ising_terms(_L, 1.0, MFIM_G_DEFAULT, MFIM_H_DEFAULT)),
        (
            lambda: build_mbl(_L, J_perp=0.7, J_z=1.3, disorder=_DIS, bond_scale=_SCALE),
            _mbl_terms(_L, _DIS.fields, _SCALE),
        ),
        (lambda: build_pxp(_L), _pxp_terms(_L)),
    ],
    ids=["tfim", "mfim", "mbl-bond-scale", "pxp"],
)
def test_builders_equal_kron_embed_sum_exactly(got, terms):
    # the builders add the same terms in the same order as this dense sum
    want = np.zeros((2**_L, 2**_L), dtype=complex)
    for coef, ops in terms:
        want += coef * kron_embed(ops, _L).matrix
    assert np.array_equal(got().matrix, want)
