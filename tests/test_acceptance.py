"""Acceptance gate: one test per release criterion, each printing a verdict.

Regression constants marked "frozen" were measured once on the reference
build and pinned; exact (non-stochastic) quantities use analytic tolerances.
"""

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np

from scramblescope.cliffordverify import (
    clifford_convergence_experiment,
    enumerate_c1,
    purity_from_basis_sampling,
    random_clifford_circuit,
    summarize_convergence,
)
from scramblescope.infotheory import (
    haar_moment_mc,
    q2_contour,
    q2_from_purity_value,
    q2_purity,
    q2_spectral,
    random_density,
    random_spectrum,
)
from scramblescope.models import ModelSpec, draw_disorder
from scramblescope.qhilbert import (
    DensityOperator,
    SiteSubset,
    StateVector,
    partial_trace,
    purity,
)
from scramblescope.scramble import (
    ScrambleScenario,
    exact_chi2_pair,
    exact_metric_grid,
    mbl_cage_compare,
    shadow_metric_curve,
)
from scramblescope.seeding import substream_rng
from scramblescope.shadows import (
    MoMConfig,
    chi2_estimate_many,
    sample_shadow_set,
)

from oracles import dense_snapshot, kernel_value, median_of_means

LN_4_3 = math.log(4.0 / 3.0)


def verdict(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_q2_identity_suite():
    rng = substream_rng(1, "acceptance:identities")
    start = time.time()
    worst_spec = worst_cont = 0.0
    for _ in range(1000):
        spec = random_spectrum(int(rng.integers(2, 9)), rng)
        ref = q2_from_purity_value(float(np.sum(spec.values**2)))
        worst_spec = max(worst_spec, abs(q2_spectral(spec) - ref))
        worst_cont = max(worst_cont, abs(q2_contour(spec, 2.0, 256) - ref))
    elapsed = time.time() - start
    ok = worst_spec < 1e-8 and worst_cont < 1e-6 and elapsed < 5.0
    verdict(
        1,
        ok,
        f"1000 spectra: |spectral-purity|max={worst_spec:.2e} (<1e-8), "
        f"|contour-purity|max={worst_cont:.2e} (<1e-6), {elapsed:.1f}s (<5s)",
    )


def test_criterion_2_concavity_suite():
    rng = substream_rng(2, "acceptance:concavity")
    start = time.time()
    worst_gap = -np.inf
    min_chi2 = np.inf
    for d in (2, 4, 8):
        for _ in range(10000 // 3 + 1):
            a, b = random_density(d, rng), random_density(d, rng)
            lam = float(rng.uniform())
            mix = DensityOperator(d, lam * a.matrix + (1 - lam) * b.matrix)
            gap = lam * q2_purity(a) + (1 - lam) * q2_purity(b) - q2_purity(mix)
            worst_gap = max(worst_gap, gap)
            min_chi2 = min(min_chi2, exact_chi2_pair(a, b))
    elapsed = time.time() - start
    ok = worst_gap < 1e-12 and min_chi2 >= -1e-10 and elapsed < 10.0
    verdict(
        2,
        ok,
        f"10^4 triples at d in {{2,4,8}}: max violation={worst_gap:.2e} (<1e-12), "
        f"min chi2={min_chi2:.2e} (>=-1e-10), {elapsed:.1f}s (<10s)",
    )


def test_criterion_3_haar_moment_mc():
    rng = substream_rng(3, "acceptance:haar")
    start = time.time()
    details = []
    ok = True
    for d in (2, 4):
        rho = random_density(d, rng)
        m = haar_moment_mc(rho, 100000, rng)
        p = float(np.sum(np.abs(rho.matrix) ** 2))
        dev_marg = abs(m.marginal - (p + 1) / (d + 1)) / m.marginal_se
        dev_pure = abs(m.pure - 2 / (d + 1)) / m.pure_se
        ok = ok and dev_marg < 3 and dev_pure < 3
        details.append(f"d={d}: {dev_marg:.2f} SE, {dev_pure:.2f} SE")
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    verdict(3, ok, f"10^5 Haar bases, both moments within 3 SE ({'; '.join(details)}), {elapsed:.1f}s (<30s)")


def test_criterion_4_kernel_exactness():
    start = time.time()
    worst = 0.0
    values = set()
    for b1, o1, b2, o2 in itertools.product(range(3), range(2), repeat=2):
        dense = float(np.trace(dense_snapshot([b1], [o1]) @ dense_snapshot([b2], [o2])).real)
        k = kernel_value(b1, o1, b2, o2)
        values.add(k)
        worst = max(worst, abs(k - dense))
    elapsed = time.time() - start
    ok = worst < 1e-12 and values == {5.0, -4.0, 0.5} and elapsed < 1.0
    verdict(
        4,
        ok,
        f"36 pairs vs dense oracle: max dev={worst:.1e}, alphabet={sorted(values)}, "
        f"{elapsed:.2f}s (<1s)",
    )


def test_criterion_5_shadow_purity_unbiasedness():
    start = time.time()
    rng0 = substream_rng(5, "acceptance:state")
    amps = rng0.normal(size=16) + 1j * rng0.normal(size=16)
    psi = StateVector(4, amps / np.linalg.norm(amps))
    ok = True
    details = []
    for subset in (SiteSubset([1]), SiteSubset([1, 2])):
        true_p = purity(partial_trace(psi, subset))
        ests = []
        for i in range(50):
            shadows = sample_shadow_set(psi, 1000, substream_rng(5, "acceptance:run", i))
            # a single batch keeps the U-statistic estimator exactly unbiased
            (est,) = chi2_estimate_many(shadows, shadows, [subset], MoMConfig(1, 1000))
            ests.append(est.purity1)
        se = float(np.std(ests, ddof=1) / np.sqrt(len(ests)))
        dev = abs(float(np.mean(ests)) - true_p) / se
        ok = ok and dev < 3
        details.append(f"|A|={len(subset)}: {dev:.2f} SE")
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    verdict(5, ok, f"grand mean of 50x1000-shot estimates ({'; '.join(details)}), {elapsed:.0f}s (<120s)")


def test_criterion_6_clifford_design():
    start = time.time()
    # exactness of full-group averaging over C1, then over C2 (every draw index)
    rng = substream_rng(6, "acceptance:rho")
    draws = iter(range(11520))
    every = SimpleNamespace(integers=lambda high: next(draws))
    c2 = np.stack([random_clifford_circuit(every) for _ in range(11520)])
    worst = {}
    for d, group in ((2, enumerate_c1()), (4, c2)):
        worst[d] = 0.0
        for _ in range(50):
            rho = random_density(d, rng)
            p = float(np.sum(np.abs(rho.matrix) ** 2))
            worst[d] = max(worst[d], abs(purity_from_basis_sampling(rho, group) - p))
    exact_ok = max(worst.values()) < 1e-12
    # sampled convergence on the 10-site scar chain
    grid = np.linspace(0.0, 10.0, 6)
    mad_ok = std_ok = True
    details = [f"full-group dev C1={worst[2]:.1e}, C2={worst[4]:.1e}"]
    for size in (1, 2):
        s = ScrambleScenario(
            model=ModelSpec(kind="PXP", n_sites=10),
            perturbation_site=4,
            subsystem_size=size,
            time_grid=grid,
        )
        rows = clifford_convergence_experiment(s, [10, 200], 5, seed=0)
        summ = summarize_convergence(rows)
        mad = float(np.mean([abs(r["chi2_est"] - r["chi2_exact"]) for r in rows if r["N"] == 200]))
        mad_ok = mad_ok and mad < 0.05
        for t in grid:
            s10 = next(x["chi2_std"] for x in summ if (x["t"], x["N"]) == (t, 10))
            s200 = next(x["chi2_std"] for x in summ if (x["t"], x["N"]) == (t, 200))
            std_ok = std_ok and s10 > s200
        details.append(f"L_A={size} MAD(N=200)={mad:.4f}")
    elapsed = time.time() - start
    ok = exact_ok and mad_ok and std_ok and elapsed < 300.0
    verdict(
        6,
        ok,
        f"{'; '.join(details)} (<0.05), std(N=10)>std(N=200) at all points: {std_ok}, "
        f"{elapsed:.0f}s (<300s)",
    )


def test_criterion_7_t0_anchor():
    start = time.time()
    ok = True
    details = []
    for kind, L in (("TFIM", 10), ("MFIM", 10), ("PXP", 10), ("MBL", 10)):
        dis = draw_disorder(L) if kind == "MBL" else None
        site = 4 if kind == "PXP" else 5
        s = ScrambleScenario(
            model=ModelSpec(kind=kind, n_sites=L, disorder=dis),
            perturbation_site=site,
            subsystem_size=2,
            time_grid=np.array([0.0]),
        )
        g = exact_metric_grid(s)
        worst_in = worst_out = 0.0
        for x in range(L):
            v = g.values[0, 0, x]
            if abs(x - site) <= 1:  # some window containing x includes the site
                worst_in = max(worst_in, abs(v - LN_4_3))
            else:
                worst_out = max(worst_out, abs(v))
        ok = ok and worst_in < 1e-10 and worst_out < 1e-10
        details.append(f"{kind}: in={worst_in:.1e}, out={worst_out:.1e}")
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    verdict(7, ok, f"ln(4/3) anchor at t=0 ({'; '.join(details)}), {elapsed:.1f}s (<10s)")


def test_criterion_8_shadow_curve_tracking():
    start = time.time()
    s = ScrambleScenario(
        model=ModelSpec(kind="PXP", n_sites=10),
        perturbation_site=4,
        subsystem_size=3,
        time_grid=np.linspace(0.0, 30.0, 20),
    )
    rows = shadow_metric_curve(s, 3000, MoMConfig(10, 300), subsystem_sizes=(1, 2, 3), seed=0)
    ok = True
    details = []
    for k in (1, 2, 3):
        devs = [r["chi2_shadow"] - r["chi2_exact"] for r in rows if r["L_A"] == k]
        rms = float(np.sqrt(np.mean(np.square(devs))))
        ok = ok and rms < 0.1
        details.append(f"L_A={k}: RMS={rms:.4f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    verdict(8, ok, f"3000-shot curve vs exact over 20 times ({'; '.join(details)}, <0.1 nats), {elapsed:.0f}s (<600s)")


def test_criterion_9_dynamical_phenomenology():
    start = time.time()
    notes = []
    # (a) ballistic front in the uniform Ising chain
    s_front = ScrambleScenario(
        model=ModelSpec(kind="TFIM", n_sites=10),
        perturbation_site=5,
        subsystem_size=2,
        time_grid=np.linspace(0.0, 15.0, 151),
    )
    vals = exact_metric_grid(s_front).values[0]
    theta = 0.02  # frozen threshold
    arrivals = []
    for dist in (1, 2, 3, 4):
        col = vals[:, 5 + dist]
        hit = int(np.argmax(col > theta))
        arrivals.append(float(s_front.time_grid[hit]) if col[hit] > theta else np.inf)
    monotone = all(a <= b for a, b in zip(arrivals, arrivals[1:]))
    dists = np.array([1.0, 2.0, 3.0, 4.0])
    arr = np.array(arrivals)
    coef = np.polyfit(dists, arr, 1)
    resid = arr - np.polyval(coef, dists)
    r2 = float(1 - np.sum(resid**2) / np.sum((arr - arr.mean()) ** 2))
    front_ok = monotone and r2 > 0.9
    notes.append(f"front arrivals={arrivals}, R^2={r2:.3f} (>0.9)")

    # (b) scar revivals: global max over all two-site subsets
    s_rev = ScrambleScenario(
        model=ModelSpec(kind="PXP", n_sites=10),
        perturbation_site=4,
        subsystem_size=2,
        time_grid=np.linspace(0.0, 30.0, 301),
    )
    curve = exact_metric_grid(s_rev, policy="all_subsets").values[0, :, 0]
    thr = 0.5 * curve[0]
    peaks = [
        i
        for i in range(1, len(curve) - 1)
        if curve[i] > thr and curve[i] >= curve[i - 1] and curve[i] > curve[i + 1]
    ]
    revivals_ok = len(peaks) >= 3
    notes.append(f"revivals above 50% of chi2(0): {len(peaks)} (>=3)")

    # (c) localization: distant sites stay below the frozen envelope
    dis = draw_disorder(10)
    s_mbl = ScrambleScenario(
        model=ModelSpec(kind="MBL", n_sites=10, disorder=dis),
        perturbation_site=5,
        subsystem_size=2,
        time_grid=np.linspace(0.0, 30.0, 151),
    )
    gm = exact_metric_grid(s_mbl).values[0]
    far = [x for x in range(10) if abs(x - 5) >= 3]
    max_far = float(np.max(gm[:, far]))
    envelope = 0.20  # frozen: measured 0.1900 on the reference build
    mbl_ok = max_far < envelope
    notes.append(f"MBL far-field max={max_far:.4f} (<{envelope})")

    # (d) cage comparison: shared disorder, early-time agreement + exact control
    cage = SiteSubset([4, 5, 6])
    s_cage = ScrambleScenario(
        model=ModelSpec(kind="MBL", n_sites=10, disorder=dis),
        perturbation_site=5,
        subsystem_size=2,
        time_grid=np.linspace(0.0, 30.0, 61),
    )
    coupled = mbl_cage_compare(cage, s_cage, boundary_coupling_scale=1.0)
    cut = mbl_cage_compare(cage, s_cage, boundary_coupling_scale=0.0)
    early = [abs(r["chi2_full"] - r["chi2_cage"]) for r in coupled if r["t"] <= 5.0]
    early_tol = 0.05  # frozen: measured 0.0252 on the reference build
    cage_ok = max(early) < early_tol
    control = max(abs(r["chi2_full"] - r["chi2_cage"]) for r in cut)
    control_ok = control < 1e-8
    notes.append(
        f"cage early-time max diff={max(early):.4f} (<{early_tol}), "
        f"decoupled control={control:.1e} (<1e-8)"
    )

    elapsed = time.time() - start
    ok = front_ok and revivals_ok and mbl_ok and cage_ok and control_ok and elapsed < 900.0
    verdict(9, ok, "; ".join(notes) + f"; {elapsed:.0f}s (<900s)")


def test_dynamical_confinement_regression():
    """A longitudinal field confines the chi2 front of the ferromagnetic MFIM.

    Flip at the centre of a polarized L=10 chain (J=-1, g=-0.25); windows of
    two sites. Without a field the front reaches distance 4; a field h slows
    it, and at h=-0.2 it never arrives by t=20 while the far field shrinks.
    """
    theta = 0.02
    far = [x for x in range(10) if abs(x - 5) >= 3]
    arrivals, far_max = [], []
    for h in (0.0, -0.1, -0.2):
        s = ScrambleScenario(
            model=ModelSpec(kind="MFIM", n_sites=10, couplings={"J": -1.0, "g": -0.25, "h": h}),
            perturbation_site=5,
            subsystem_size=2,
            time_grid=np.linspace(0.0, 20.0, 101),
        )
        vals = exact_metric_grid(s).values[0]
        col = vals[:, 5 + 4]
        hit = int(np.argmax(col > theta))
        arrivals.append(float(s.time_grid[hit]) if col[hit] > theta else np.inf)
        far_max.append(float(np.max(vals[:, far])))
    # frozen: measured distance-4 arrivals t = 6.4, 7.8 and none, and
    # far-field maxima 0.1328, 0.0900 and 0.0411 on the reference build
    front_ok = arrivals[0] <= 7.0 and arrivals[0] < arrivals[1] <= 9.0 and arrivals[2] == np.inf
    far_ok = far_max[0] > 0.11 and far_max[0] > far_max[1] > far_max[2] and far_max[2] < 0.06
    detail = f"distance-4 arrivals={arrivals}, far-field max={[round(f, 4) for f in far_max]}"
    print(f"[confinement] {'PASS' if front_ok and far_ok else 'FAIL'}: {detail}")
    assert front_ok and far_ok, detail


def test_criterion_10_median_of_means_robustness():
    start = time.time()
    rng = substream_rng(10, "acceptance:mom")
    clean = rng.normal(loc=1.0, size=10000)
    corrupted = clean.copy()
    corrupted[:500] *= 100.0  # 5% of the data, one corrupted run
    clean_err = abs(median_of_means(clean, 20) - 1.0)
    clean_mean_err = abs(float(np.mean(clean)) - 1.0)
    mom_err = abs(median_of_means(corrupted, 20) - 1.0)
    mean_err = abs(float(np.mean(corrupted)) - 1.0)
    elapsed = time.time() - start
    ok = mom_err < 3 * clean_err and mean_err > 10 * clean_mean_err and elapsed < 5.0
    verdict(
        10,
        ok,
        f"MoM err={mom_err:.4f} vs clean {clean_err:.4f} (<3x); "
        f"mean err={mean_err:.3f} vs clean {clean_mean_err:.4f} (>10x); {elapsed:.1f}s (<5s)",
    )
