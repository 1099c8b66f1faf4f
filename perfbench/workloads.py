"""The four benchmark workloads: CLI configs, reference values and checks.

Each workload is one CLI command run from a JSON config. The program's own
seeds are fixed (master seed 0; disorder seed 42, W = 8 for MBL), so every
run times the same computation. The benchmark's --seed picks the times at
which outputs are compared with the independent reference.

A check returns a list of failure messages; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.signal import find_peaks

import reference as ref

LN_4_3 = math.log(4.0 / 3.0)
LN_2 = math.log(2.0)
EXACT_TOL = 1e-9
ANCHOR_TOL = 1e-10
REFERENCE_TIMES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    outputs: tuple
    reference: Callable  # (config, seed) -> dict
    check: Callable  # (config, out_dir, reference dict) -> list[str]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        parsed = {}
        for key, value in row.items():
            try:
                parsed[key] = float(value)
            except ValueError:
                parsed[key] = value
        out.append(parsed)
    return out


def check_manifest(out_dir: Path, outputs) -> list[str]:
    """Every output exists and matches the SHA-256 the manifest records."""
    path = out_dir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    recorded = json.loads(path.read_text()).get("outputs", {})
    errors = []
    for name in outputs:
        f = out_dir / name
        if not f.is_file():
            errors.append(f"{name} missing")
        elif recorded.get(name) != hashlib.sha256(f.read_bytes()).hexdigest():
            errors.append(f"{name} does not match its manifest hash")
    return errors


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: {got!r} vs {want!r} (|diff| {abs(got - want):.3g} > {tol:g})"]


def _times_match(label: str, got, want) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9:
        return [f"{label}: time column differs from the configured grid"]
    return []


def seeded_times(n_times: int, seed: int) -> list[int]:
    """REFERENCE_TIMES distinct time indices after t = 0, chosen by seed."""
    k = min(REFERENCE_TIMES, n_times - 1)
    return sorted(random.Random(seed).sample(range(1, n_times), k))


def count_revivals(times, series, threshold: float, min_gap: float = 1.0) -> int:
    """Peaks after t = 0 above threshold; peaks closer than min_gap count once."""
    dt = times[1] - times[0]
    peaks, _ = find_peaks(series, height=threshold, distance=max(1, math.ceil(min_gap / dt)))
    return len(peaks)


# ---------------------------------------------------------------------------
# exact-grid: exact chi2 / holevo / chi_q maxima over all 2-site subsets.

GRID_METRICS = ("chi2", "holevo", "chi_q")


def _pxp_flip_site(n_sites: int) -> int:
    site = n_sites // 2
    return site - 1 if site % 2 == 1 else site


def grid_reference(cfg: dict, seed: int) -> dict:
    L, k = cfg["length"], cfg["subsystem_size"]
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"])
    h = ref.pxp_hamiltonian(L)
    psi1, psi2 = ref.neel_pair(L, _pxp_flip_site(L))
    values = {}
    for ti in seeded_times(len(times), seed):
        a, b = ref.evolve(h, psi1, times[ti]), ref.evolve(h, psi2, times[ti])
        values[ti] = ref.max_over_subsets(a, b, L, k, GRID_METRICS)
    return values


def grid_check(cfg: dict, out_dir: Path, reference: dict) -> list[str]:
    rows = read_csv(out_dir / "grid.csv")
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"])
    series = {}
    for m in GRID_METRICS:
        mrows = [r for r in rows if r["metric"] == m]
        if len(mrows) != len(times):
            return [f"grid.csv has {len(mrows)} {m} rows, expected {len(times)}"]
        series[m] = np.array([r["value"] for r in mrows])
        errors = _times_match(f"grid {m}", [r["t"] for r in mrows], times)
        if errors:
            return errors
    c2, hv, cq = series["chi2"], series["holevo"], series["chi_q"]
    errors = []
    errors += _close("chi2(t=0)", c2[0], LN_4_3, ANCHOR_TOL)
    errors += _close("holevo(t=0)", hv[0], LN_2, ANCHOR_TOL)
    errors += _close("chi_q(t=0)", cq[0], LN_2 - 0.5, ANCHOR_TOL)
    bad = np.flatnonzero(
        (c2 < -EXACT_TOL) | (c2 > hv + EXACT_TOL) | (hv > LN_2 + EXACT_TOL) | (cq > hv + EXACT_TOL)
    )
    if bad.size:
        errors.append(
            f"0 <= chi2 <= holevo <= ln 2 and chi_q <= holevo fail at {bad.size} times, first t={times[bad[0]]:g}"
        )
    revivals = count_revivals(times, c2, c2[0] / 2.0)
    if revivals < 3:
        errors.append(f"{revivals} chi2 revivals above chi2(0)/2, expected at least 3")
    for ti, want in reference.items():
        for m in GRID_METRICS:
            errors += _close(f"{m}(t={times[ti]:g}) vs reference", series[m][ti], want[m], EXACT_TOL)
    return errors


# ---------------------------------------------------------------------------
# shadow-curve: shadow-estimated vs exact maximal chi2 over all 3-site subsets.


def shadow_reference(cfg: dict, seed: int) -> dict:
    L, k = cfg["length"], cfg["subsystem_size"]
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"])
    h = ref.pxp_hamiltonian(L)
    psi1, psi2 = ref.neel_pair(L, _pxp_flip_site(L))
    return {
        ti: ref.max_over_subsets(ref.evolve(h, psi1, t), ref.evolve(h, psi2, t), L, k, ("chi2",))["chi2"]
        for ti, t in enumerate(times)
    }


SHADOW_RMS_LIMIT = 0.1


def shadow_check(cfg: dict, out_dir: Path, reference: dict) -> list[str]:
    rows = read_csv(out_dir / "shadow_curve.csv")
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"])
    if len(rows) != len(times):
        return [f"shadow_curve.csv has {len(rows)} rows, expected {len(times)}"]
    errors = _times_match("shadow curve", [r["t"] for r in rows], times)
    if any(r["L_A"] != cfg["subsystem_size"] for r in rows):
        errors.append("shadow curve reports the wrong subsystem size")
    for ti, want in reference.items():
        errors += _close(f"chi2_exact(t={times[ti]:g}) vs reference", rows[ti]["chi2_exact"], want, EXACT_TOL)
    diff = np.array([r["chi2_shadow"] - r["chi2_exact"] for r in rows])
    rms = float(np.sqrt(np.mean(diff**2)))
    if not rms < SHADOW_RMS_LIMIT:
        errors.append(f"shadow RMS error {rms:.4g} nats, limit {SHADOW_RMS_LIMIT}")
    return errors


# ---------------------------------------------------------------------------
# clifford-verify: sampled-Clifford chi2 on the 2-site subsystem at the flip.


def clifford_reference(cfg: dict, seed: int) -> dict:
    L = cfg["length"]
    site = _pxp_flip_site(L)
    subset = (site, site + 1) if site + 1 < L else (site - 1, site)
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"])
    h = ref.pxp_hamiltonian(L)
    psi1, psi2 = ref.neel_pair(L, site)
    return {
        ti: max(ref.pair_chi2(ref.evolve(h, psi1, t), ref.evolve(h, psi2, t), L, subset), 0.0)
        for ti, t in enumerate(times)
    }


CLIFFORD_MAD_LIMIT = 0.05


def clifford_check(cfg: dict, out_dir: Path, reference: dict) -> list[str]:
    rows = read_csv(out_dir / "clifford_verify.csv")
    summary = read_csv(out_dir / "clifford_summary.csv")
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"])
    counts, trials = cfg["sample_counts"], cfg["trials"]
    if len(rows) != len(times) * len(counts) * trials:
        return [f"clifford_verify.csv has {len(rows)} rows"]
    errors = []
    by_key = {}
    for r in rows:
        by_key.setdefault((r["t"], r["N"]), []).append(r)
    seen_times = sorted({r["t"] for r in rows})
    errors += _times_match("clifford", seen_times, times)
    if errors:
        return errors
    index = {t: ti for ti, t in enumerate(seen_times)}
    bad = [r for r in rows if abs(r["chi2_exact"] - reference[index[r["t"]]]) > EXACT_TOL]
    if bad:
        errors.append(f"chi2_exact vs reference differs by more than {EXACT_TOL:g} in {len(bad)} rows")
    big, small = max(counts), min(counts)
    mad = float(np.mean([abs(r["chi2_est"] - r["chi2_exact"]) for r in rows if r["N"] == big]))
    if not mad < CLIFFORD_MAD_LIMIT:
        errors.append(f"mean |chi2_est - chi2_exact| at N={big} is {mad:.4g}, limit {CLIFFORD_MAD_LIMIT}")

    def pooled_std(n):
        variances = [np.var([r["chi2_est"] for r in by_key[(t, n)]], ddof=1) for t in seen_times]
        return float(np.sqrt(np.mean(variances)))

    if not pooled_std(small) > pooled_std(big):
        errors.append(f"trial spread at N={small} does not exceed the spread at N={big}")
    for s in summary:
        ests = [r["chi2_est"] for r in by_key.get((s["t"], s["N"]), [])]
        if len(ests) != trials:
            errors.append(f"summary row t={s['t']:g} N={s['N']:g} has no matching trials")
        else:
            errors += _close(f"summary mean t={s['t']:g} N={s['N']:g}", s["chi2_mean"], float(np.mean(ests)), 1e-9)
    if len(summary) != len(times) * len(counts):
        errors.append(f"clifford_summary.csv has {len(summary)} rows")
    return errors


# ---------------------------------------------------------------------------
# mbl-cage: chi2 on a 2-site window, full MBL chain vs the isolated cage.


def _cage_geometry(cfg: dict):
    L, size, cage_len = cfg["length"], cfg["subsystem_size"], cfg["cage_length"]
    site = L // 2
    cage = list(range(site - cage_len // 2, site - cage_len // 2 + cage_len))
    start = min(max(site - size // 2, cage[0]), cage[-1] - size + 1)
    window = list(range(start, start + size))
    return site, cage, window


def mbl_reference(cfg: dict, seed: int) -> dict:
    L = cfg["length"]
    site, cage, window = _cage_geometry(cfg)
    fields = ref.disorder_fields(L, cfg["disorder_width"], cfg["disorder_seed"])
    h_full = ref.hamiltonian(ref.mbl_terms(fields), L)
    h_cage = ref.hamiltonian(ref.mbl_terms(fields[cage]), len(cage))
    f1, f2 = ref.neel_pair(L, site)
    bits = [i % 2 for i in cage]
    c1 = ref.basis_vector(bits)
    bits[cage.index(site)] ^= 1
    c2 = ref.basis_vector(bits)
    rel = [cage.index(x) for x in window]
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"])
    values = {}
    for ti in seeded_times(len(times), seed):
        t = times[ti]
        values[ti] = {
            "chi2_full": ref.pair_chi2(ref.evolve(h_full, f1, t), ref.evolve(h_full, f2, t), L, window),
            "chi2_cage": ref.pair_chi2(ref.evolve(h_cage, c1, t), ref.evolve(h_cage, c2, t), len(cage), rel),
        }
    return values


CAGE_EARLY_T = 5.0
CAGE_EARLY_LIMIT = 0.05


def mbl_check(cfg: dict, out_dir: Path, reference: dict) -> list[str]:
    rows = read_csv(out_dir / "mbl_cage.csv")
    times = np.linspace(0.0, cfg["tmax"], cfg["steps"])
    if len(rows) != len(times):
        return [f"mbl_cage.csv has {len(rows)} rows, expected {len(times)}"]
    errors = _times_match("mbl cage", [r["t"] for r in rows], times)
    for col in ("chi2_full", "chi2_cage"):
        errors += _close(f"{col}(t=0)", rows[0][col], LN_4_3, ANCHOR_TOL)
    for ti, want in reference.items():
        for col in ("chi2_full", "chi2_cage"):
            errors += _close(f"{col}(t={times[ti]:g}) vs reference", rows[ti][col], want[col], EXACT_TOL)
    early = [abs(r["chi2_full"] - r["chi2_cage"]) for r in rows if r["t"] <= CAGE_EARLY_T + 1e-12]
    if max(early) >= CAGE_EARLY_LIMIT:
        errors.append(f"|full - cage| reaches {max(early):.4g} for t <= {CAGE_EARLY_T:g}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-grid",
            command="grid",
            config={
                "model": "pxp", "length": 10, "subsystem_size": 2, "policy": "all_subsets",
                "metrics": list(GRID_METRICS), "tmax": 30.0, "steps": 101, "seed": 0,
            },
            outputs=("grid.csv",),
            reference=grid_reference,
            check=grid_check,
        ),
        Workload(
            name="shadow-curve",
            command="shadow-curve",
            config={
                "model": "pxp", "length": 10, "subsystem_size": 3, "shots": 1500,
                "batches": 10, "tmax": 4.0, "steps": 3, "seed": 0,
            },
            outputs=("shadow_curve.csv",),
            reference=shadow_reference,
            check=shadow_check,
        ),
        Workload(
            name="clifford-verify",
            command="clifford-verify",
            config={
                "length": 10, "subsystem_size": 2, "sample_counts": [10, 200], "trials": 3,
                "tmax": 10.0, "steps": 2, "seed": 0,
            },
            outputs=("clifford_verify.csv", "clifford_summary.csv"),
            reference=clifford_reference,
            check=clifford_check,
        ),
        Workload(
            name="mbl-cage",
            command="mbl-cage",
            config={
                "length": 10, "subsystem_size": 2, "cage_length": 3, "tmax": 30.0, "steps": 61,
                "seed": 0, "disorder_seed": 42, "disorder_width": 8.0,
            },
            outputs=("mbl_cage.csv",),
            reference=mbl_reference,
            check=mbl_check,
        ),
    )
}
