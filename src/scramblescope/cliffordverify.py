"""Finite Clifford sampling as a stand-in for the Haar average behind chi2.

The single-qubit Clifford group (24 elements, a 2-design) makes the purity
inversion exact when averaged in full; random Hadamard/Phase/CNOT circuits
provide the two-qubit ensemble. Probabilities are computed exactly from the
density matrix so that only unitary-sampling error is visible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .infotheory import basis_moments, chi2_from_purities
from .models import build_hamiltonian
from .qhilbert import DensityOperator, HADAMARD, PAULI_I, PHASE_S, SiteSubset, partial_trace
from .scramble import ScrambleScenario, _trajectory, exact_chi2_pair, prepare_ensemble
from .seeding import substream_rng

_PHASE_TOL = 1e-10

# Gates per random two-qubit circuit in the convergence experiment.
CIRCUIT_DEPTH = 50


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


def same_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    return np.max(np.abs(_phase_canonical(a) - _phase_canonical(b))) < atol


_GATE_MATS = {"H": HADAMARD, "S": PHASE_S}


@lru_cache(maxsize=64)
def _gate_unitary(name: str, sites: tuple, n_qubits: int) -> np.ndarray:
    """Dense matrix of one gate; cached, so the shared array is read-only."""
    dim = 2 ** n_qubits
    if name in _GATE_MATS:
        u = np.ones((1, 1), dtype=complex)
        for q in range(n_qubits):
            u = np.kron(u, _GATE_MATS[name] if q == sites[0] else PAULI_I)
    else:
        control, target = sites
        u = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            cbit = (b >> (n_qubits - 1 - control)) & 1
            out = b ^ (cbit << (n_qubits - 1 - target))
            u[out, b] = 1.0
    u.setflags(write=False)
    return u


def random_clifford_circuit(n_qubits: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """Dense unitary of depth gates over {H, S, CNOT}, each drawn uniformly.

    Each gate multiplies the running product from the left, as it is drawn.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    names = ("H", "S", "CNOT") if n_qubits >= 2 else ("H", "S")
    u = np.eye(2 ** n_qubits, dtype=complex)
    for _ in range(depth):
        name = names[rng.integers(len(names))]
        if name == "CNOT":
            control = int(rng.integers(n_qubits))
            target = int(rng.integers(n_qubits - 1))
            if target >= control:
                target += 1
            sites = (control, target)
        else:
            sites = (int(rng.integers(n_qubits)),)
        u = _gate_unitary(name, sites, n_qubits) @ u
    return u


def purity_from_basis_sampling(rho_A: DensityOperator, unitaries) -> float:
    """Invert the averaged squared outcome probabilities into Tr(rho^2).

    For each unitary the exact outcome distribution P(j) = <j|U rho U^dag|j>
    is computed; the ensemble average of sum_j P(j)^2 equals
    (Tr rho^2 + 1)/(d + 1) for any 2-design, so purity = (d+1) avg - 1.
    """
    d = rho_A.dim
    stack = np.asarray(list(unitaries), dtype=complex)
    if stack.size == 0:
        raise ValueError("need at least one unitary")
    if stack.shape[1:] != (d, d):
        raise ValueError(f"unitary stack shape {stack.shape} does not match dim {d}")
    moments = basis_moments(rho_A, stack)
    # cumsum adds in order, a plain running total on every Python version;
    # sum() compensates from Python 3.12 on and np.sum adds pairwise, and
    # either would change the last digits of clifford_verify.csv.
    return (d + 1) * (float(np.cumsum(moments)[-1]) / len(stack)) - 1.0


def _scenario_subsystem(s: ScrambleScenario) -> SiteSubset:
    site, L = s.perturbation_site, s.model.n_sites
    if s.subsystem_size == 1:
        return SiteSubset([site])
    if site + 1 < L:
        return SiteSubset([site, site + 1])
    return SiteSubset([site - 1, site])


def clifford_convergence_experiment(
    s: ScrambleScenario,
    sample_counts,
    n_trials: int,
) -> list[dict]:
    """Sampled-chi2 convergence table for the scar-model scenario.

    For each time, trial and sample count N, the three subsystem purities are
    reconstructed from N sampled unitaries (uniform over the 24 Cliffords for
    one-site subsystems, fresh CIRCUIT_DEPTH-gate circuits for two-site
    ones), then combined into chi2. Rows: (t, L_A, N, trial, chi2_est,
    chi2_exact).
    """
    if s.model.kind != "PXP":
        raise ValueError("the convergence experiment targets the PXP scenario")
    if s.subsystem_size not in (1, 2):
        raise ValueError("sampled subsystems of size 1 or 2 only")
    if len(set(sample_counts)) != len(sample_counts):
        raise ValueError(f"duplicate sample counts in {sample_counts}")
    subset = _scenario_subsystem(s)
    d = 2 ** len(subset)
    states = _trajectory(build_hamiltonian(s.model), prepare_ensemble(s), s.time_grid)
    c1 = enumerate_c1() if s.subsystem_size == 1 else None
    rows = []
    for ti, (t, (psi1, psi2)) in enumerate(zip(s.time_grid, states)):
        rho1 = partial_trace(psi1, subset)
        rho2 = partial_trace(psi2, subset)
        mix = DensityOperator(d, (rho1.matrix + rho2.matrix) / 2.0)
        exact = max(exact_chi2_pair(rho1, rho2), 0.0)
        for n_samples in sample_counts:
            for trial in range(n_trials):
                rng = substream_rng(
                    s.master_seed, f"clifford:t={ti}:N={n_samples}", trial
                )
                if s.subsystem_size == 1:
                    idx = rng.integers(0, 24, size=n_samples)
                    unitaries = [c1[i] for i in idx]
                else:
                    unitaries = [
                        random_clifford_circuit(2, CIRCUIT_DEPTH, rng) for _ in range(n_samples)
                    ]
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
    keys = sorted({(r["t"], r["L_A"], r["N"]) for r in rows})
    out = []
    for t, la, n in keys:
        vals = [r["chi2_est"] for r in rows if (r["t"], r["L_A"], r["N"]) == (t, la, n)]
        exact = next(
            r["chi2_exact"] for r in rows if (r["t"], r["L_A"], r["N"]) == (t, la, n)
        )
        out.append(
            {
                "t": t,
                "L_A": la,
                "N": n,
                "chi2_mean": float(np.mean(vals)),
                "chi2_std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                "chi2_exact": exact,
            }
        )
    return out
