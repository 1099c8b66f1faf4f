"""Independent reference for the benchmark's correctness checks.

Nothing here imports scramblescope. Hamiltonians are sums of Pauli strings
built with scipy.sparse, states are evolved with expm_multiply, reduced
states come from einsum, and the three metrics are computed from purities
(chi2), eigenvalues (holevo) and an integral form of the subentropy (chi_q).

Conventions match the CLI's documented ones: site 0 is the leftmost
Kronecker factor and the most significant bit of a basis index, and bit 0
is spin up, the +1 eigenstate of sigma_z. All values are in nats.
"""

from __future__ import annotations

import itertools
import math
import string

import numpy as np
import scipy.integrate
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

_PAULI = {
    "I": sp.identity(2, dtype=complex, format="csr"),
    "X": sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": sp.csr_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex)),
}


def pauli_string(ops: dict, n_sites: int) -> sp.csr_matrix:
    """Sparse operator of a Pauli string {site: 'X'|'Y'|'Z'} on n_sites."""
    m = sp.identity(1, dtype=complex, format="csr")
    for site in range(n_sites):
        m = sp.kron(m, _PAULI[ops.get(site, "I")], format="csr")
    return m


def hamiltonian(terms, n_sites: int) -> sp.csr_matrix:
    """Sum of (coefficient, Pauli string) terms."""
    h = sp.csr_matrix((2**n_sites, 2**n_sites), dtype=complex)
    for coeff, ops in terms:
        h = h + coeff * pauli_string(ops, n_sites)
    return h


def pxp_terms(n_sites: int) -> list:
    """Open PXP chain with one-sided projected edge terms.

    P = (1 - Z)/2 projects onto spin down, so each P_{i-1} X_i P_{i+1}
    expands to (X_i - Z_{i-1} X_i - X_i Z_{i+1} + Z_{i-1} X_i Z_{i+1}) / 4,
    and the edge terms X_0 P_1 and P_{L-2} X_{L-1} to (X - ZX) / 2.
    """
    terms = []
    for i in range(1, n_sites - 1):
        terms += [
            (0.25, {i: "X"}),
            (-0.25, {i - 1: "Z", i: "X"}),
            (-0.25, {i: "X", i + 1: "Z"}),
            (0.25, {i - 1: "Z", i: "X", i + 1: "Z"}),
        ]
    last = n_sites - 1
    terms += [
        (0.5, {0: "X"}),
        (-0.5, {0: "X", 1: "Z"}),
        (0.5, {last: "X"}),
        (-0.5, {last - 1: "Z", last: "X"}),
    ]
    return terms


def mbl_terms(fields) -> list:
    """Disordered Heisenberg chain with S = sigma/2 and unit couplings."""
    n = len(fields)
    terms = []
    for i in range(n - 1):
        for p in "XYZ":
            terms.append((0.25, {i: p, i + 1: p}))
    for i, h in enumerate(fields):
        terms.append((0.5 * float(h), {i: "Z"}))
    return terms


def disorder_fields(n_sites: int, width: float, seed: int) -> np.ndarray:
    """Uniform fields on [-W, W] from numpy's default PCG64 stream."""
    return np.random.default_rng(seed).uniform(-width, width, size=n_sites)


def basis_vector(bits) -> np.ndarray:
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    psi = np.zeros(2 ** len(bits), dtype=complex)
    psi[index] = 1.0
    return psi


def neel_pair(n_sites: int, flip_site: int) -> tuple[np.ndarray, np.ndarray]:
    """Neel state (site 0 up) and the same state with one spin flipped."""
    bits = [i % 2 for i in range(n_sites)]
    flipped = list(bits)
    flipped[flip_site] ^= 1
    return basis_vector(bits), basis_vector(flipped)


def evolve(h: sp.csr_matrix, psi0: np.ndarray, t: float) -> np.ndarray:
    return expm_multiply(-1j * float(t) * h, psi0)


def reduced_state(psi: np.ndarray, n_sites: int, keep) -> np.ndarray:
    """Reduced density matrix on the kept sites, in ascending site order."""
    keep = sorted(keep)
    letters = string.ascii_letters
    ket = [letters[i] for i in range(n_sites)]
    bra = list(ket)
    for j, site in enumerate(keep):
        bra[site] = letters[n_sites + j]
    out = "".join(ket[s] for s in keep) + "".join(bra[s] for s in keep)
    tensor = psi.reshape((2,) * n_sites)
    rho = np.einsum(f"{''.join(ket)},{''.join(bra)}->{out}", tensor, tensor.conj())
    d = 2 ** len(keep)
    return rho.reshape(d, d)


def q2(purity: float) -> float:
    return math.log(2.0 / (1.0 + purity))


def chi2(rho1: np.ndarray, rho2: np.ndarray) -> float:
    def pur(r):
        return float(np.sum(np.abs(r) ** 2))

    mix = (rho1 + rho2) / 2.0
    return q2(pur(mix)) - 0.5 * (q2(pur(rho1)) + q2(pur(rho2)))


def entropy(rho: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def holevo(rho1: np.ndarray, rho2: np.ndarray) -> float:
    return entropy((rho1 + rho2) / 2.0) - 0.5 * (entropy(rho1) + entropy(rho2))


def subentropy(rho: np.ndarray) -> float:
    """Subentropy from an integral that needs no eigenvalue gaps.

    Q = -f[l_1..l_n] for f(x) = x^n ln x (a divided difference). Writing
    ln x = int_0^inf (1/(1+s) - 1/(x+s)) ds and taking the divided
    difference under the integral gives, for unit trace,
        Q = -int_0^inf g(s) ds,  g(s) = prod_j s / (l_j + s) - s / (1 + s),
    a smooth integrand that is O(1/s^2), so degenerate and zero eigenvalues
    need no special handling. The tail s > 1 is integrated in v = 1/s.
    """
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    lam = lam / lam.sum()

    def head(s):
        return float(np.prod(s / (lam + s))) - s / (1.0 + s) if s > 0.0 else 0.0

    def tail(v):
        # g(1/v) / v^2, with the O(v^2) difference taken in log space.
        if v == 0.0:
            return (float(np.sum(lam**2)) - 1.0) / 2.0
        d = math.log1p(v) - float(np.sum(np.log1p(lam * v)))
        return math.expm1(d) / (1.0 + v) / v**2

    quad = scipy.integrate.quad
    a, _ = quad(head, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    b, _ = quad(tail, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    return -(a + b)


def chi_q(rho1: np.ndarray, rho2: np.ndarray) -> float:
    return subentropy((rho1 + rho2) / 2.0) - 0.5 * (subentropy(rho1) + subentropy(rho2))


METRICS = {"chi2": chi2, "holevo": holevo, "chi_q": chi_q}


def pxp_hamiltonian(n_sites: int) -> sp.csr_matrix:
    return hamiltonian(pxp_terms(n_sites), n_sites)


def max_over_subsets(psi1, psi2, n_sites: int, size: int, metrics) -> dict:
    """Each metric maximised over every size-`size` subset, floored at 0."""
    best = {m: 0.0 for m in metrics}
    for subset in itertools.combinations(range(n_sites), size):
        r1 = reduced_state(psi1, n_sites, subset)
        r2 = reduced_state(psi2, n_sites, subset)
        for m in metrics:
            best[m] = max(best[m], METRICS[m](r1, r2))
    return best


def pair_chi2(psi1, psi2, n_sites: int, subset) -> float:
    return chi2(reduced_state(psi1, n_sites, subset), reduced_state(psi2, n_sites, subset))
