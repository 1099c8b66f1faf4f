"""Builders for the four spin-chain Hamiltonians studied by this package.

All chains are open. TFIM and MFIM use Pauli operators, the disordered
Heisenberg (MBL) chain uses spin-1/2 operators S = sigma/2, and the PXP
chain projects flips onto blockade-respecting neighbors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .qhilbert import HermitianOperator, PAULI_X, PAULI_Y, PAULI_Z

MFIM_G_DEFAULT = (math.sqrt(5.0) + 5.0) / 8.0
MFIM_H_DEFAULT = (math.sqrt(5.0) + 1.0) / 4.0
MBL_W_DEFAULT = 8.0
MBL_SEED_DEFAULT = 42

# Projector onto spin down (sigma_z = -1), the state that admits a neighbor flip.
PXP_PROJECTOR = (np.eye(2, dtype=complex) - PAULI_Z) / 2.0

# Largest chain held as a dense matrix. At 14 sites H alone takes 4 GiB of
# complex128, and diagonalising it holds several matrices of that size.
MAX_DENSE_SITES = 13

# Shortest chain of each kind: MFIM's longitudinal field skips both edge
# sites and PXP projects both edges, so each needs a bulk site between them.
MIN_SITES = {"TFIM": 2, "MFIM": 3, "PXP": 3, "MBL": 2}


def _check_length(kind: str, L: int) -> None:
    if L < MIN_SITES[kind]:
        raise ValueError(f"{kind} needs L >= {MIN_SITES[kind]}, got {L}")


def check_dense_length(L: int) -> None:
    """Refuse a chain above MAX_DENSE_SITES, before anything of size L is built."""
    if L > MAX_DENSE_SITES:
        raise ValueError(
            f"an L={L} chain exceeds the dense limit of {MAX_DENSE_SITES} sites"
        )


@dataclass(frozen=True)
class DisorderRealization:
    """One draw of on-site disorder fields, from numpy's PCG64 generator."""

    fields: np.ndarray
    seed: int
    width: float

    def __post_init__(self):
        f = np.asarray(self.fields, dtype=float)
        object.__setattr__(self, "fields", f)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("disorder fields must be a nonempty 1-D array")
        if not np.all(np.abs(f) <= self.width + 1e-12):  # NaN fails it
            raise ValueError("disorder field outside [-W, W]")

    def echo(self) -> dict:
        """Plain-JSON record for result manifests."""
        return {
            "fields": [float(x) for x in self.fields],
            "seed": int(self.seed),
            "generator_id": "pcg64",
            "W": float(self.width),
        }


def draw_disorder(
    L: int,
    W: float = MBL_W_DEFAULT,
    seed: int = MBL_SEED_DEFAULT,
) -> DisorderRealization:
    """Draw L i.i.d. uniform fields on [-W, W], reproducible from the seed."""
    if not 0 < W < math.inf:
        raise ValueError(f"disorder width W must be positive and finite, got {W}")
    rng = np.random.default_rng(seed)
    fields = rng.uniform(-W, W, size=L)
    return DisorderRealization(fields=fields, seed=seed, width=W)


@dataclass(frozen=True)
class ModelSpec:
    """Tagged description of one model instance."""

    kind: str
    n_sites: int
    couplings: dict = field(default_factory=dict)
    disorder: DisorderRealization | None = None

    def __post_init__(self):
        if self.kind not in MIN_SITES:
            raise ValueError(f"unknown model kind {self.kind!r}")
        _check_length(self.kind, self.n_sites)
        check_dense_length(self.n_sites)
        for k, v in self.couplings.items():
            if not math.isfinite(float(v)):
                raise ValueError(f"coupling {k} is not finite")
        if self.kind == "MBL":
            if self.disorder is None:
                raise ValueError("MBL model requires a disorder realization")
            if len(self.disorder.fields) != self.n_sites:
                raise ValueError("disorder length does not match chain length")


def _chain_sum(L: int, terms) -> HermitianOperator:
    """Dense sum of terms (coef, [(site, 2x2 op), ...]) on an L-site chain.

    Sites within a term increase, and every unlisted site carries the
    identity. A term therefore only connects basis states that agree on its
    unlisted sites: its 2^k x 2^k local matrix is added at row base|r and
    column base|c for every setting `base` of the unlisted bits, where r and
    c set the term's own bits (site 0 is the most significant bit).
    """
    check_dense_length(L)
    dim = 2 ** L
    h = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    for coef, ops in terms:
        offsets = np.zeros(1, dtype=np.int64)
        for site, _ in ops:
            offsets = (offsets[:, None] + [0, 1 << (L - 1 - site)]).reshape(-1)
        base = index[(index & offsets[-1]) == 0]
        rows = base[:, None] + offsets
        local = functools.reduce(np.kron, (op for _, op in ops))
        h[rows[:, :, None], rows[:, None, :]] += coef * local
    return HermitianOperator(dim, h)


def _tfim_terms(L: int, J: float, g: float) -> list:
    zz = [(J, [(i, PAULI_Z), (i + 1, PAULI_Z)]) for i in range(L - 1)]
    return zz + [(g, [(i, PAULI_X)]) for i in range(L)]


def build_tfim(L: int, J: float = 1.0, g: float = 0.6) -> HermitianOperator:
    """Transverse-field Ising chain: J sum_z z + g sum_x, open boundaries."""
    _check_length("TFIM", L)
    return _chain_sum(L, _tfim_terms(L, J, g))


def build_mfim(
    L: int,
    J: float = 1.0,
    g: float = MFIM_G_DEFAULT,
    h: float = MFIM_H_DEFAULT,
) -> HermitianOperator:
    """Mixed-field Ising chain; the longitudinal field skips both edge sites."""
    _check_length("MFIM", L)
    fields = [(h, [(i, PAULI_Z)]) for i in range(1, L - 1)]
    return _chain_sum(L, _tfim_terms(L, J, g) + fields)


def build_mbl(
    L: int,
    J_perp: float = 1.0,
    J_z: float = 1.0,
    disorder: DisorderRealization | None = None,
    bond_scale: np.ndarray | None = None,
) -> HermitianOperator:
    """Disordered Heisenberg chain with S = sigma/2 operators.

    bond_scale optionally rescales both exchange couplings bond by bond
    (length L-1); used to sever selected bonds for decoupling controls.
    """
    if disorder is None:
        raise ValueError("MBL builder requires a disorder realization")
    if len(disorder.fields) != L:
        raise ValueError(
            f"disorder has {len(disorder.fields)} fields for an L={L} chain"
        )
    if bond_scale is None:
        bond_scale = np.ones(L - 1)
    bond_scale = np.asarray(bond_scale, dtype=float)
    if bond_scale.shape != (L - 1,):
        raise ValueError("bond_scale must have one entry per bond")
    sx, sy, sz = PAULI_X / 2.0, PAULI_Y / 2.0, PAULI_Z / 2.0
    terms = []
    for i in range(L - 1):
        s = bond_scale[i]
        terms += [
            (s * J_perp, [(i, sx), (i + 1, sx)]),
            (s * J_perp, [(i, sy), (i + 1, sy)]),
            (s * J_z, [(i, sz), (i + 1, sz)]),
        ]
    terms += [(disorder.fields[i], [(i, sz)]) for i in range(L)]
    return _chain_sum(L, terms)


def build_pxp(L: int) -> HermitianOperator:
    """Blockade-constrained flip chain: sum_i P_{i-1} X_i P_{i+1}.

    The open boundary is projected: the edge terms are X_0 P_1 and
    P_{L-2} X_{L-1}.
    """
    _check_length("PXP", L)
    p = PXP_PROJECTOR
    terms = [(1.0, [(i - 1, p), (i, PAULI_X), (i + 1, p)]) for i in range(1, L - 1)]
    terms += [(1.0, [(0, PAULI_X), (1, p)]), (1.0, [(L - 2, p), (L - 1, PAULI_X)])]
    return _chain_sum(L, terms)


def build_hamiltonian(spec: ModelSpec) -> HermitianOperator:
    """Build the spec's chain; its couplings are the builder's keyword arguments."""
    c = spec.couplings
    if spec.kind == "TFIM":
        return build_tfim(spec.n_sites, **c)
    if spec.kind == "MFIM":
        return build_mfim(spec.n_sites, **c)
    if spec.kind == "MBL":
        return build_mbl(spec.n_sites, disorder=spec.disorder, **c)
    return build_pxp(spec.n_sites, **c)
