"""Finite Clifford sampling as a stand-in for the Haar average behind chi2.

The Clifford groups C1 (24 elements) and C2 (11,520, up to phase) are unitary
2-designs, so averaging over either in full makes the purity inversion exact;
one- and two-site subsystems draw uniformly from C1 and C2. Probabilities are
computed exactly from the density matrix so that only unitary-sampling error
is visible.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .infotheory import Ensemble, basis_moments, chi2_from_purities
from .models import build_hamiltonian
from .qhilbert import DensityOperator, HADAMARD, PAULI_I, PHASE_S, SiteSubset, partial_trace
from .scramble import ScrambleScenario, _cage_window, _trajectory, exact_chi2_pair, prepare_ensemble
from .seeding import substream_rng

_PHASE_TOL = 1e-10


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    flat = u.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) > _PHASE_TOL)]
    return u / (pivot / abs(pivot))


def _phase_key(u: np.ndarray) -> tuple:
    c = np.round(_phase_canonical(u), 9) + 0.0  # normalize -0.0
    return tuple(c.reshape(-1).real) + tuple(c.reshape(-1).imag)


def enumerate_c1() -> list[np.ndarray]:
    """All 24 single-qubit Clifford matrices, generated as words in {H, S}."""
    seen = {_phase_key(PAULI_I): PAULI_I.copy()}
    frontier = [PAULI_I.copy()]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (HADAMARD, PHASE_S):
                w = g @ u
                key = _phase_key(w)
                if key not in seen:
                    seen[key] = w
                    nxt.append(w)
        frontier = nxt
    elements = list(seen.values())
    if len(elements) != 24:
        raise ArithmeticError(f"Clifford enumeration found {len(elements)} elements")
    return elements


@cache
def _c2_table() -> np.ndarray:
    """All of C2 as a read-only (11520, 4, 4) stack: row 576*core + pair is the
    local pair C1[pair // 24] x C1[pair % 24] after class core `core`.

    The 20 class cores (Corcoles et al., PRA 87, 030301 (2013)) are the
    identity; CNOT, then iSWAP, after each of the 9 products {I, R, R^2} x
    {I, R, R^2}, where R = H S has order 3 up to phase; and SWAP.
    """
    r = HADAMARD @ PHASE_S
    powers = [PAULI_I, r, r @ r]
    mixers = [np.kron(a, b) for a in powers for b in powers]
    cnot = np.eye(4)[[0, 1, 3, 2]]  # control on site 0, the most significant bit
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
    swap = np.eye(4)[[0, 2, 1, 3]]
    cores = [np.eye(4, dtype=complex)] + [g @ m for g in (cnot, iswap) for m in mixers] + [swap]
    c1 = enumerate_c1()
    pairs = np.array([np.kron(a, b) for a in c1 for b in c1])
    table = (pairs[None] @ np.array(cores)[:, None]).reshape(11520, 4, 4)
    table.flags.writeable = False
    return table


def random_clifford_circuit(rng: np.random.Generator) -> np.ndarray:
    """One uniform draw from C2, the 11,520 two-qubit Cliffords up to phase:
    local Cliffords around a CNOT, iSWAP or SWAP core (see _c2_table).

    The draw is a read-only row of the cached table.
    """
    return _c2_table()[int(rng.integers(11520))]


def purity_from_basis_sampling(rho_A: DensityOperator, unitaries) -> float:
    """Invert the averaged squared outcome probabilities into Tr(rho^2).

    For each unitary the exact outcome distribution P(j) = <j|U rho U^dag|j>
    is computed; the ensemble average of sum_j P(j)^2 equals
    (Tr rho^2 + 1)/(d + 1) for any 2-design, so purity = (d+1) avg - 1.
    """
    d = rho_A.dim
    stack = np.asarray(unitaries, dtype=complex)
    if stack.size == 0:
        raise ValueError("need at least one unitary")
    if stack.shape[1:] != (d, d):
        raise ValueError(f"unitary stack shape {stack.shape} does not match dim {d}")
    moments = basis_moments(rho_A, stack)
    # cumsum adds in order, a plain running total on every Python version;
    # sum() compensates from Python 3.12 on and np.sum adds pairwise, and
    # either would change the last digits of clifford_verify.csv.
    return (d + 1) * (float(np.cumsum(moments)[-1]) / len(stack)) - 1.0


def clifford_convergence_experiment(
    s: ScrambleScenario,
    sample_counts,
    n_trials: int,
    seed: int = 0,
) -> list[dict]:
    """Sampled-chi2 convergence table for the scar-model scenario.

    For each time, trial and sample count N, the three subsystem purities are
    reconstructed from N sampled unitaries (uniform over the 24 elements of C1
    for one-site subsystems, over the 11,520 of C2 for two-site ones), then
    combined into chi2. Every draw comes from a substream of seed. Rows:
    (t, L_A, N, trial, chi2_est, chi2_exact).
    """
    if s.model.kind != "PXP":
        raise ValueError("the convergence experiment targets the PXP scenario")
    if s.subsystem_size not in (1, 2):
        raise ValueError("sampled subsystems of size 1 or 2 only")
    if len(set(sample_counts)) != len(sample_counts):
        raise ValueError(f"duplicate sample counts in {sample_counts}")
    # the perturbation site and, at size 2, its right neighbour, shifted inside the chain
    size = s.subsystem_size
    subset = _cage_window(SiteSubset(range(s.model.n_sites)), s.perturbation_site + size // 2, size)
    d = 2 ** size
    states = _trajectory(build_hamiltonian(s.model), prepare_ensemble(s), s.time_grid)
    c1 = np.array(enumerate_c1()) if s.subsystem_size == 1 else None
    rows = []
    for ti, (t, (psi1, psi2)) in enumerate(zip(s.time_grid, states)):
        rho1 = partial_trace(psi1, subset)
        rho2 = partial_trace(psi2, subset)
        mix = Ensemble(rho1, rho2).average
        exact = max(exact_chi2_pair(rho1, rho2), 0.0)
        for n_samples in sample_counts:
            for trial in range(n_trials):
                rng = substream_rng(seed, f"clifford:t={ti}:N={n_samples}", trial)
                if s.subsystem_size == 1:
                    unitaries = c1[rng.integers(0, 24, size=n_samples)]
                else:
                    unitaries = np.array([random_clifford_circuit(rng) for _ in range(n_samples)])
                p1 = purity_from_basis_sampling(rho1, unitaries)
                p2 = purity_from_basis_sampling(rho2, unitaries)
                pm = purity_from_basis_sampling(mix, unitaries)
                rows.append(
                    {
                        "t": float(t),
                        "L_A": len(subset),
                        "N": int(n_samples),
                        "trial": trial,
                        "chi2_est": chi2_from_purities(p1, p2, pm, d),
                        "chi2_exact": exact,
                    }
                )
    return rows


def summarize_convergence(rows) -> list[dict]:
    """Aggregate the experiment table into per-(t, N) mean and std."""
    groups = {}
    for r in rows:
        groups.setdefault((r["t"], r["L_A"], r["N"]), []).append(r)
    out = []
    for (t, la, n), group in sorted(groups.items()):
        vals = [r["chi2_est"] for r in group]
        out.append(
            {
                "t": t,
                "L_A": la,
                "N": n,
                "chi2_mean": float(np.mean(vals)),
                "chi2_std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                "chi2_exact": group[0]["chi2_exact"],
            }
        )
    return out
