"""Entropy-like information metrics on equal-weight pairs of density operators.

Everything is reported in nats. The Q2 measure ln(2 / (1 + Tr rho^2)) is
implemented three ways (purity, spectral expansion, contour quadrature);
the purity form is the cheap, stable route and the other two exist as
independent cross-checks of the same quantity. The spectral expansion is
evaluated as a divided-difference recurrence and chi_q's subentropy as one
integral; neither divides by eigenvalue gaps, so degenerate and zero
eigenvalues need no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qhilbert import DensityOperator, Spectrum, purity

# Trapezoid rule in u = ln s for the subentropy integral: step 1/4 on
# [-40, 40]. The integrand decays like e^{-|u|} at both ends, and its poles
# lie at distance pi from the real u axis, so the rule converges fast; a step
# of 1/2 loses ~3e-12. The weights fold in ds = s du and the s/(1+s) factor.
_SUB_S = np.exp(np.arange(-160, 161) / 4.0)
_SUB_INV_S = 1.0 / _SUB_S
_SUB_LOG1P_INV_S = np.log1p(_SUB_INV_S)
_SUB_W = 0.25 * _SUB_S * _SUB_S / (1.0 + _SUB_S)
_SUB_W[[0, -1]] /= 2.0


@dataclass(frozen=True)
class Ensemble:
    """Equal-weight pair of density operators on a common space."""

    first: DensityOperator
    second: DensityOperator
    average: DensityOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.first.dim != self.second.dim:
            raise ValueError("both ensemble members must share one dimension")
        avg = 0.5 * self.first.matrix + 0.5 * self.second.matrix
        object.__setattr__(self, "average", DensityOperator(self.first.dim, avg))


def _mixing_gain(e: Ensemble, f) -> float:
    """f of the average state minus the average of f over the two members."""
    return f(e.average) - (0.5 * f(e.first) + 0.5 * f(e.second))


def von_neumann(rho: DensityOperator) -> float:
    """-Tr(rho ln rho) in nats, with the 0 ln 0 := 0 convention."""
    w = rho.spectrum.values
    nz = w[w > 0.0]
    return float(-(nz * np.log(nz)).sum())


def holevo_chi(e: Ensemble) -> float:
    """Entropy of the average state minus the average member entropy."""
    return _mixing_gain(e, von_neumann)


# ---------------------------------------------------------------------------
# Subentropy and the Q2 routes; the eigenvalue formulas are evaluated in
# gap-free forms (an integral and a divided-difference recurrence).


def _subentropies(values: np.ndarray) -> list[float]:
    """Subentropy of each row of a (k, d) stack of spectra.

    All rows share one log1p/expm1 pass; each row then takes its own dot
    product with the weights, since a stacked matrix-vector product may
    round differently from the single-row one.
    """
    lam = values / values.sum(axis=1, keepdims=True)
    d = _SUB_LOG1P_INV_S - np.log1p(lam[:, :, None] * _SUB_INV_S).sum(axis=1)
    return [0.0 - float(g @ _SUB_W) for g in np.expm1(d)]  # a pure state gives +0.0


def subentropy(spec: Spectrum) -> float:
    """Spectral lower bound on accessible information, in nats.

    Q = -sum_k l_k^n ln l_k / prod_{j != k} (l_k - l_j) equals, for a unit
    trace spectrum, -int_0^inf g(s) ds with
        g(s) = prod_j s / (l_j + s) - s / (1 + s),
    which has no eigenvalue gaps in it. The integral is a trapezoid sum in
    u = ln s, with g(s) = s/(1+s) expm1(log1p(1/s) - sum_j log1p(l_j/s)).
    """
    return _subentropies(spec.values[None])[0]


def chi_q(e: Ensemble) -> float:
    """Subentropy of the average state minus the average member subentropy."""
    avg, first, second = _subentropies(
        np.array([rho.spectrum.values for rho in (e.average, e.first, e.second)])
    )
    return avg - (0.5 * first + 0.5 * second)


def q2_from_purity_value(p: float) -> float:
    return math.log(2.0 / (1.0 + p))


def q2_purity(rho: DensityOperator) -> float:
    """Randomized-basis information measure ln(2 / (1 + Tr rho^2))."""
    return q2_from_purity_value(purity(rho))


def q2_spectral(spec: Spectrum) -> float:
    """Same measure via the eigenvalue expansion sum_i l_i^{n+1} / prod gaps.

    The expansion is the divided difference of x^{n+1} at the n eigenvalues,
    which by Opitz's formula is the top-right entry of Z^{n+1} for
    Z = diag(l) plus a unit superdiagonal. Carrying the first row of Z^k
    through n+1 steps adds only non-negative terms and has no gaps in it, so
    degenerate and zero eigenvalues need no special case.
    """
    lam = spec.values
    row = np.zeros_like(lam)
    row[0] = 1.0
    for _ in range(len(lam) + 1):
        row[1:] = row[1:] * lam[1:] + row[:-1]
        row[0] *= lam[0]
    return -math.log(row[-1])


def q2_contour(spec: Spectrum, radius: float = 2.0, n_nodes: int = 256) -> float:
    """Same measure via trapezoid quadrature of the contour representation."""
    if n_nodes < 64:
        raise ValueError("need at least 64 quadrature nodes")
    vals = np.asarray(spec.values, dtype=float)
    if radius <= np.max(vals):
        raise ValueError(
            f"contour radius {radius} must exceed the largest eigenvalue {np.max(vals)}"
        )
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    z = radius * np.exp(1j * theta)
    integrand = z ** 2 / np.prod(1.0 - vals[:, None] / z[None, :], axis=0)
    val = float(np.mean(integrand).real)
    return -math.log(val)


def chi2(e: Ensemble) -> float:
    """Gain of the Q2 measure from mixing the ensemble (always >= 0)."""
    return _mixing_gain(e, q2_purity)


def chi2_from_purities(p1: float, p2: float, p_mix: float, d: int) -> float:
    """chi2 of an equal-weight pair from its two purities and its mixture's.

    Each purity is clamped to its physical range [1/d, 1] first, so that
    estimated purities that stray outside it still give a finite value.
    """

    def q2(p):
        return q2_from_purity_value(min(max(p, 1.0 / d), 1.0))

    return q2(p_mix) - 0.5 * (q2(p1) + q2(p2))


def random_density(d: int, rng: np.random.Generator) -> DensityOperator:
    """Random mixed state from a normalized square Ginibre matrix G G^dag."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityOperator(d, m)


def random_spectrum(n: int, rng: np.random.Generator) -> Spectrum:
    """Random point on the probability simplex, sorted descending."""
    v = rng.dirichlet(np.ones(n))
    return Spectrum(np.sort(v)[::-1])


# ---------------------------------------------------------------------------
# Monte-Carlo check of the Haar moment formulas behind Q2.


@dataclass(frozen=True)
class HaarMoments:
    """Monte-Carlo estimates of the two Haar basis moments, with errors."""

    marginal: float
    marginal_se: float
    pure: float
    pure_se: float


def _haar_unitaries(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m Haar-random d x d unitaries: QR of complex Ginibre matrices, with
    R's diagonal phases moved into Q so the distribution is exactly Haar.

    The draws equal scipy.stats.unitary_group.rvs(d, m) for the same rng.
    """
    z = 1 / math.sqrt(2) * (rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d)))
    q, r = np.linalg.qr(z)
    diag = r.diagonal(axis1=-2, axis2=-1)
    q *= (diag / abs(diag))[..., np.newaxis, :]
    return q


# The contraction order einsum's optimize=True picks for basis_moments at every
# stack shape: U rho first, then that with conj(U). Passing it skips the search.
_BASIS_MOMENTS_PATH = ["einsum_path", (0, 1), (0, 1)]


def basis_moments(rho: DensityOperator, unitaries: np.ndarray) -> np.ndarray:
    """sum_j P(j)^2 with P(j) = <j|U rho U^dag|j>, for each U of an (N, d, d) stack.

    The measured basis vectors are the rows of each unitary.
    """
    u = unitaries
    probs = np.einsum(
        "nja,ab,njb->nj", u, rho.matrix, u.conj(), optimize=_BASIS_MOMENTS_PATH
    ).real
    return np.sum(probs ** 2, axis=1)


# Haar unitaries drawn and contracted per batch in haar_moment_mc.
_HAAR_CHUNK = 4096

# Fewest Haar samples haar_moment_mc accepts for a stable estimate.
HAAR_MIN_SAMPLES = 1000
# Most Haar samples a command asks haar_moment_mc for. Each d takes about
# 1.5 (d=2) and 3.5 (d=4) us and 16 bytes of stored moments per sample, so
# the cap costs about 50 s and 160 MB.
MAX_HAAR_SAMPLES = 10_000_000


def haar_moment_mc(
    rho: DensityOperator,
    n_samples: int,
    rng: np.random.Generator,
) -> HaarMoments:
    """Sample Haar-random orthonormal bases and estimate both probability moments.

    Bases come from QR-orthonormalized complex Gaussian matrices. The
    "marginal" moment is sum_j <a_j|rho|a_j>^2, whose Haar mean is
    (Tr rho^2 + 1)/(d + 1); the "pure" moment is sum_j |<a_j|psi>|^4 for a
    fixed pure reference state, whose Haar mean is 2/(d + 1).
    """
    if n_samples < HAAR_MIN_SAMPLES:
        raise ValueError(f"need at least {HAAR_MIN_SAMPLES} samples for a stable estimate")
    d = rho.dim
    w, v = np.linalg.eigh(rho.matrix)
    psi = v[:, -1]  # any fixed pure state works; Haar averaging erases the choice
    marg = np.empty(n_samples)
    pure = np.empty(n_samples)
    done = 0
    while done < n_samples:
        m = min(_HAAR_CHUNK, n_samples - done)
        u = _haar_unitaries(d, m, rng)
        marg[done : done + m] = basis_moments(rho, u)
        amp = u @ psi
        pure[done : done + m] = np.sum(np.abs(amp) ** 4, axis=1)
        done += m
    return HaarMoments(
        marginal=float(np.mean(marg)),
        marginal_se=float(np.std(marg, ddof=1) / np.sqrt(n_samples)),
        pure=float(np.mean(pure)),
        pure_se=float(np.std(pure, ddof=1) / np.sqrt(n_samples)),
    )
