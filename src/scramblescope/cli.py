"""Command-line front end: config parsing, dispatch, deterministic output.

Commands: grid, shadow-curve, clifford-verify, mbl-cage, identity-suite.
Values may come from a JSON config file and/or flags; flags win. Every run
writes its data files plus a manifest with content hashes, and reruns with
the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cliffordverify import MAX_SAMPLE_COUNT, clifford_convergence_experiment, summarize_convergence
from .infotheory import (
    HAAR_MIN_SAMPLES,
    MAX_HAAR_SAMPLES,
    Ensemble,
    chi2,
    haar_moment_mc,
    q2_contour,
    q2_from_purity_value,
    q2_purity,
    q2_spectral,
    random_density,
    random_spectrum,
    subentropy,
    von_neumann,
)
from .models import MBL_SEED_DEFAULT, MBL_W_DEFAULT, ModelSpec, check_dense_length, draw_disorder
from .qhilbert import DensityOperator, SiteSubset
from .scramble import (
    MAX_TIME_STEPS,
    METRIC_NAMES,
    ScrambleScenario,
    _cage_window,
    default_perturbation_site,
    exact_metric_grid,
    mbl_cage_compare,
    shadow_metric_curve,
)
from .seeding import substream_rng
from .shadows import MoMConfig

COMMANDS = ("grid", "shadow-curve", "clifford-verify", "mbl-cage", "identity-suite")

_MODEL_KINDS = {"tfim": "TFIM", "mfim": "MFIM", "pxp": "PXP", "mbl": "MBL"}


class UsageError(ValueError):
    """Bad configuration or flags; reported as a usage failure."""


# Accepted Python types per annotation; a flag's text is parsed by the last one.
_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _type_ok(value, kind: str) -> bool:
    """Whether a value fits a RunConfig annotation; a bool is not a number."""
    if kind.startswith("list["):
        return isinstance(value, list) and all(_type_ok(v, kind[5:-1]) for v in value)
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        return False
    return not isinstance(value, float) or math.isfinite(value)


@dataclass
class RunConfig:
    command: str
    model: str | None = None
    length: int | None = None
    subsystem_size: int = 2
    site: int | None = None
    shots: int | None = None
    batches: int = 10
    seed: int = 0
    tmax: float = 30.0
    steps: int = 301
    out: str = "out"
    format: str = "csv"
    policy: str = "windows_containing_x"
    metrics: list[str] = field(default_factory=lambda: list(METRIC_NAMES))
    disorder_seed: int = MBL_SEED_DEFAULT
    disorder_width: float = MBL_W_DEFAULT
    sample_counts: list[int] = field(default_factory=lambda: [10, 50, 200])
    trials: int = 5
    cage_length: int = 3
    boundary_scale: float = 1.0
    n_spectra: int = 1000
    n_triples: int = 10000
    n_haar: int = 100000

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if not (value is None and kind != f.type or _type_ok(value, kind)):
                raise UsageError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")
        needs_model = self.command in ("grid", "shadow-curve")
        if needs_model and self.model is None:
            raise UsageError("missing required field: model")
        if self.command != "identity-suite" and self.length is None:
            raise UsageError("missing required field: length")
        if self.command == "shadow-curve" and self.shots is None:
            raise UsageError("missing required field: shots")
        if self.model is not None and self.model.lower() not in _MODEL_KINDS:
            raise UsageError(f"unknown model {self.model!r}")
        if self.length is not None and not 1 <= self.subsystem_size <= self.length:
            raise UsageError(f"subsystem_size {self.subsystem_size} is not in [1, {self.length}]")
        if self.command == "mbl-cage" and not 1 <= self.cage_length <= self.length:
            raise UsageError(f"cage_length {self.cage_length} is not in [1, {self.length}]")
        if self.command == "mbl-cage" and self.subsystem_size > self.cage_length:
            raise UsageError(f"subsystem_size {self.subsystem_size} exceeds cage_length {self.cage_length}")
        if self.command == "clifford-verify" and self.subsystem_size not in (1, 2):
            raise UsageError(f"subsystem_size {self.subsystem_size} is not 1 or 2 for clifford-verify")
        if self.tmax < 0:
            raise UsageError(f"tmax must be at least 0, got {self.tmax}")
        for key in ("steps", "batches", "trials", "n_spectra", "n_triples"):
            if getattr(self, key) < 1:
                raise UsageError(f"{key} must be at least 1")
        if self.n_haar < HAAR_MIN_SAMPLES:
            raise UsageError(f"n_haar must be at least {HAAR_MIN_SAMPLES}")
        if not self.sample_counts or min(self.sample_counts) < 1:
            raise UsageError("sample_counts must be a non-empty list of counts >= 1")
        for key, values in (("metrics", self.metrics), ("sample_counts", self.sample_counts)):
            if len(set(values)) != len(values):
                raise UsageError(f"{key} has duplicate entries: {values}")


_FLAG_KEYS = (
    "model", "length", "subsystem_size", "site", "shots", "batches", "seed",
    "tmax", "steps", "out", "format",
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scramblescope",
        description="Information-scrambling simulations and randomized-probe estimates",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    annotations = {f.name: f.type.removesuffix(" | None") for f in fields(RunConfig)}
    for key in _FLAG_KEYS:
        flag = "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, type=_TYPES[annotations[key]][-1])
    return p


def parse_config(argv) -> RunConfig:
    """Merge defaults, an optional JSON config file, and flags (flags win)."""
    ns = _build_parser().parse_args(argv)
    values = {"command": ns.command}
    if ns.config is not None:
        try:
            file_values = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        known = {f.name for f in fields(RunConfig)}
        for key, value in file_values.items():
            if key not in known or key == "command":
                raise UsageError(f"unknown config key {key!r}")
            values[key] = value
    for key in _FLAG_KEYS:
        if getattr(ns, key) is not None:
            values[key] = getattr(ns, key)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Scenario assembly and output helpers.


def _model_spec(cfg: RunConfig, kind: str) -> ModelSpec:
    disorder = None
    if kind == "MBL":
        disorder = draw_disorder(cfg.length, W=cfg.disorder_width, seed=cfg.disorder_seed)
    return ModelSpec(
        kind=kind,
        n_sites=cfg.length,
        couplings={},
        disorder=disorder,
    )


def _scenario(cfg: RunConfig, kind: str, metrics, policy=None) -> ScrambleScenario:
    """The command's scenario; a value it refuses is a usage error, before any
    work. A time grid above MAX_TIME_STEPS and a chain above the dense limit
    are refused before anything of their size is built."""
    if cfg.steps > MAX_TIME_STEPS:
        raise ValueError(f"steps={cfg.steps} is above the time-grid limit of {MAX_TIME_STEPS}")
    check_dense_length(cfg.length)
    site = cfg.site
    if site is None:
        site = default_perturbation_site(kind, cfg.length)
    try:
        return ScrambleScenario(
            model=_model_spec(cfg, kind),
            initial_kind="neel" if kind in ("PXP", "MBL") else "polarized",
            perturbation_site=site,
            subsystem_size=cfg.subsystem_size,
            time_grid=np.linspace(0.0, cfg.tmax, cfg.steps),
            subset_policy=policy if policy is not None else cfg.policy,
            metrics=tuple(metrics),
            master_seed=cfg.seed,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_rows(path: Path, header, rows, fmt: str) -> None:
    """Write dict rows as CSV or as a JSON list of records, in header order."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(row[k]) for k in header) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        records = [{k: row[k] for k in header} for row in rows]
        path.write_text(json.dumps(records, indent=1) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Environment variables that set the BLAS thread count, echoed in manifests.
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _environment() -> dict:
    """Interpreter, numpy and BLAS thread settings that produced a run."""
    return {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "blas_thread_vars": {k: os.environ[k] for k in _BLAS_THREAD_VARS if k in os.environ},
    }


def _write_manifest(out_dir: Path, cfg: RunConfig, extra: dict, outputs) -> None:
    manifest = {
        "version": __version__,
        "command": cfg.command,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "units": "nats",
        "outputs": {p.name: _sha256(p) for p in outputs},
        "environment": _environment(),
    }
    manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands. Each table command returns ({file stem: (header, rows)}, manifest
# extras); `run` writes the tables and the manifest.


def _cmd_grid(cfg: RunConfig):
    kind = _MODEL_KINDS[cfg.model.lower()]
    scenario = _scenario(cfg, kind, cfg.metrics)
    result = exact_metric_grid(scenario)
    rows = [
        {"metric": metric, "t": float(t), "x": int(x), "value": float(result.values[mi, ti, ci])}
        for mi, metric in enumerate(result.metrics)
        for ti, t in enumerate(result.time_grid)
        for ci, x in enumerate(result.sites)
    ]
    return {"grid": (("metric", "t", "x", "value"), rows)}, {"scenario": scenario.scenario_echo()}


def _cmd_shadow_curve(cfg: RunConfig):
    try:
        mom = MoMConfig(cfg.batches, cfg.shots // cfg.batches)
    except ValueError as err:
        raise UsageError(f"shots={cfg.shots}, batches={cfg.batches}: {err}") from None
    kind = _MODEL_KINDS[cfg.model.lower()]
    scenario = _scenario(cfg, kind, ("chi2",), policy="all_subsets")
    rows = shadow_metric_curve(scenario, cfg.shots, mom)
    header = ("t", "L_A", "chi2_shadow", "chi2_exact")
    # The shots % batches remainder is sampled but falls outside every batch.
    used = mom.n_batches * mom.batch_size
    extra = {"scenario": scenario.scenario_echo(), "snapshots_used_per_state": used}
    return {"shadow_curve": (header, rows)}, extra


def _cmd_clifford_verify(cfg: RunConfig):
    if max(cfg.sample_counts) > MAX_SAMPLE_COUNT:
        raise ValueError(f"sample count {max(cfg.sample_counts)} is above the limit of {MAX_SAMPLE_COUNT}")
    scenario = _scenario(cfg, "PXP", ("chi2",))
    rows = clifford_convergence_experiment(scenario, cfg.sample_counts, cfg.trials)
    tables = {
        "clifford_verify": (("t", "L_A", "N", "trial", "chi2_est", "chi2_exact"), rows),
        "clifford_summary": (
            ("t", "L_A", "N", "chi2_mean", "chi2_std", "chi2_exact"),
            summarize_convergence(rows),
        ),
    }
    return tables, {"scenario": scenario.scenario_echo()}


def _cmd_mbl_cage(cfg: RunConfig):
    scenario = _scenario(cfg, "MBL", ("chi2",))
    # Around the perturbation site, shifted to fit inside the chain.
    chain = SiteSubset(range(cfg.length))
    cage = _cage_window(chain, scenario.perturbation_site, cfg.cage_length)
    rows = mbl_cage_compare(cage, scenario, cfg.boundary_scale)
    extra = {"scenario": scenario.scenario_echo(), "cage_sites": list(cage.indices)}
    return {"mbl_cage": (("t", "chi2_full", "chi2_cage"), rows)}, extra


def run_identity_suites(seed: int, n_spectra: int, n_triples: int, n_haar: int) -> dict:
    """Numeric property suites for the Q2 identities, concavity and moments."""
    suites = {}

    rng = substream_rng(seed, "identity:spectra")
    worst_spectral = worst_contour = 0.0
    for i in range(n_spectra):
        spec = random_spectrum(int(rng.integers(2, 9)), rng)
        ref = q2_from_purity_value(float(np.sum(spec.values**2)))
        worst_spectral = max(worst_spectral, abs(q2_spectral(spec) - ref))
        worst_contour = max(worst_contour, abs(q2_contour(spec, 2.0, 256) - ref))
    suites["q2_spectral_identity"] = {
        "max_abs_dev": worst_spectral,
        "tolerance": 1e-8,
        "pass": worst_spectral < 1e-8,
    }
    suites["q2_contour_identity"] = {
        "max_abs_dev": worst_contour,
        "tolerance": 1e-6,
        "pass": worst_contour < 1e-6,
    }

    rng = substream_rng(seed, "identity:concavity")
    worst_gap = 0.0
    min_chi2 = math.inf
    for j, d in enumerate((2, 4, 8)):  # the n_triples % 3 extra go to the smallest d
        for i in range(n_triples // 3 + (j < n_triples % 3)):
            rho0 = random_density(d, rng)
            rho1 = random_density(d, rng)
            lam = float(rng.uniform())
            mix = DensityOperator(d, lam * rho0.matrix + (1 - lam) * rho1.matrix)
            gap = (
                lam * q2_purity(rho0)
                + (1 - lam) * q2_purity(rho1)
                - q2_purity(mix)
            )
            worst_gap = max(worst_gap, gap)
            min_chi2 = min(min_chi2, chi2(Ensemble(rho0, rho1)))
    suites["q2_concavity"] = {
        "max_violation": worst_gap,
        "min_chi2": min_chi2,
        "tolerance": 1e-12,
        "pass": worst_gap < 1e-12 and min_chi2 > -1e-10,
    }

    rng = substream_rng(seed, "identity:haar")
    haar_ok = True
    haar_report = []
    for d in (2, 4):
        rho = random_density(d, rng)
        moments = haar_moment_mc(rho, n_haar, rng)
        p = float(np.sum(np.abs(rho.matrix) ** 2))
        expect_marginal = (p + 1.0) / (d + 1.0)
        expect_pure = 2.0 / (d + 1.0)
        dev_m = abs(moments.marginal - expect_marginal)
        dev_p = abs(moments.pure - expect_pure)
        ok = dev_m < 3 * moments.marginal_se and dev_p < 3 * moments.pure_se
        haar_ok = haar_ok and ok
        haar_report.append(
            {
                "d": d,
                "marginal": moments.marginal,
                "marginal_expected": expect_marginal,
                "marginal_se": moments.marginal_se,
                "pure": moments.pure,
                "pure_expected": expect_pure,
                "pure_se": moments.pure_se,
                "pass": ok,
            }
        )
    suites["haar_moments"] = {"cases": haar_report, "pass": haar_ok}

    rng = substream_rng(seed, "identity:ordering")
    order_ok = True
    for i in range(500):
        rho = random_density(int(2 ** rng.integers(1, 4)), rng)
        q = subentropy(rho.spectrum)
        s = von_neumann(rho)
        order_ok = order_ok and -1e-10 <= q <= s + 1e-10
        order_ok = order_ok and -1e-12 <= q2_purity(rho) <= math.log(2.0) + 1e-12
    suites["entropy_ordering"] = {"pass": order_ok}

    suites["pass"] = all(
        v["pass"] for k, v in suites.items() if isinstance(v, dict)
    )
    return suites


def _cmd_identity_suite(cfg: RunConfig, out_dir: Path) -> None:
    """Write the identity report (always JSON) and its manifest."""
    if cfg.n_haar > MAX_HAAR_SAMPLES:
        raise ValueError(f"n_haar={cfg.n_haar} is above the Haar-sample limit of {MAX_HAAR_SAMPLES}")
    report = run_identity_suites(cfg.seed, cfg.n_spectra, cfg.n_triples, cfg.n_haar)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "identity_suite.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    _write_manifest(out_dir, cfg, {}, [path])
    if not report["pass"]:
        raise RuntimeError("identity suite reported failures")


_TABLE_COMMANDS = {
    "grid": _cmd_grid,
    "shadow-curve": _cmd_shadow_curve,
    "clifford-verify": _cmd_clifford_verify,
    "mbl-cage": _cmd_mbl_cage,
}


def run(cfg: RunConfig) -> int:
    """Run one command; the output directory is made only once it has results."""
    out_dir = Path(cfg.out)
    if cfg.command == "identity-suite":
        _cmd_identity_suite(cfg, out_dir)
        return 0
    tables, extra = _TABLE_COMMANDS[cfg.command](cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, (header, rows) in tables.items():
        paths.append(out_dir / f"{stem}.{cfg.format}")
        _write_rows(paths[-1], header, rows, cfg.format)
    _write_manifest(out_dir, cfg, extra, paths)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises a private subclass; name the public one
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
