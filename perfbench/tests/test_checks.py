"""Each workload check passes on real CLI output and rejects a perturbed one."""

import csv
import json
import shutil
import time

import pytest

import run
from workloads import WORKLOADS, check_manifest, seeded_times

SEED = 5


@pytest.fixture(scope="session")
def produced(tmp_path_factory):
    """Workload, reference and CLI output directory, one run per workload."""
    cache = {}

    def get(name):
        if name not in cache:
            w = WORKLOADS[name]
            run_dir = tmp_path_factory.mktemp(name)
            (run_dir / "config.json").write_text(json.dumps(w.config))
            inv = run.invoke(w, run_dir, "plain", time.monotonic() + 170)
            assert inv.ok, inv.errors
            cache[name] = (w, w.reference(w.config, SEED), inv.out_dir)
        return cache[name]

    return get


@pytest.fixture
def output(produced, tmp_path):
    """A private copy of one workload's output, to perturb."""

    def make(name):
        w, reference, out_dir = produced(name)
        copy = tmp_path / name
        shutil.copytree(out_dir, copy)
        return w, reference, copy

    return make


def edit_csv(path, change):
    """Rewrite a CSV after change(rows) edits its rows (dicts of strings)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    change(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def bump(row, key, delta):
    row[key] = repr(float(row[key]) + delta)


def errors_after(output, name, filename, change):
    w, reference, out_dir = output(name)
    edit_csv(out_dir / filename, change)
    return w.check(w.config, out_dir, reference)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_output_passes(produced, name):
    w, reference, out_dir = produced(name)
    assert check_manifest(out_dir, w.outputs) == []
    assert w.check(w.config, out_dir, reference) == []


def test_manifest_hash_rejects_edited_output(output):
    w, _, out_dir = output("exact-grid")
    edit_csv(out_dir / "grid.csv", lambda rows: bump(rows[5], "value", 1e-6))
    assert any("manifest hash" in e for e in check_manifest(out_dir, w.outputs))


def grid_rows(rows, metric):
    return [r for r in rows if r["metric"] == metric]


@pytest.mark.parametrize(
    "change,expect",
    [
        (lambda rows: bump(grid_rows(rows, "chi2")[0], "value", 1e-8), "chi2(t=0)"),
        (lambda rows: bump(grid_rows(rows, "chi_q")[0], "value", -1e-8), "chi_q(t=0)"),
        (lambda rows: bump(grid_rows(rows, "holevo")[40], "value", -0.5), "chi_q <= holevo"),
        (lambda rows: [r.update(value="0.1") for r in grid_rows(rows, "chi2")[1:]], "revivals"),
        (lambda rows: rows.pop(), "rows, expected"),
    ],
)
def test_grid_check_rejects(output, change, expect):
    errors = errors_after(output, "exact-grid", "grid.csv", change)
    assert any(expect in e for e in errors), errors


@pytest.mark.parametrize("metric", ["chi2", "holevo", "chi_q"])
def test_grid_check_rejects_reference_mismatch(output, metric):
    ti = seeded_times(WORKLOADS["exact-grid"].config["steps"], SEED)[0]
    change = lambda rows: bump(grid_rows(rows, metric)[ti], "value", 2e-9)  # noqa: E731
    errors = errors_after(output, "exact-grid", "grid.csv", change)
    assert any(f"{metric}(t=" in e and "reference" in e for e in errors), errors


@pytest.mark.parametrize(
    "change,expect",
    [
        (lambda rows: bump(rows[1], "chi2_exact", 2e-9), "vs reference"),
        (lambda rows: [bump(r, "chi2_shadow", 0.15) for r in rows], "RMS"),
        (lambda rows: rows[0].update(L_A="2"), "subsystem size"),
    ],
)
def test_shadow_check_rejects(output, change, expect):
    errors = errors_after(output, "shadow-curve", "shadow_curve.csv", change)
    assert any(expect in e for e in errors), errors


def collapse_small_n_trials(rows):
    for r in rows:
        if r["N"] == "10":
            r["chi2_est"] = r["chi2_exact"]


@pytest.mark.parametrize(
    "change,expect",
    [
        (lambda rows: [bump(r, "chi2_exact", 2e-9) for r in rows], "vs reference"),
        (lambda rows: [bump(r, "chi2_est", 0.06) for r in rows if r["N"] == "200"], "mean |chi2_est"),
        (collapse_small_n_trials, "trial spread"),
    ],
)
def test_clifford_check_rejects(output, change, expect):
    errors = errors_after(output, "clifford-verify", "clifford_verify.csv", change)
    assert any(expect in e for e in errors), errors


def test_clifford_check_rejects_inconsistent_summary(output):
    change = lambda rows: bump(rows[0], "chi2_mean", 1e-6)  # noqa: E731
    errors = errors_after(output, "clifford-verify", "clifford_summary.csv", change)
    assert any("summary mean" in e for e in errors), errors


@pytest.mark.parametrize(
    "change,expect",
    [
        (lambda rows: bump(rows[0], "chi2_cage", 1e-8), "chi2_cage(t=0)"),
        (lambda rows: [bump(r, "chi2_full", 2e-9) for r in rows[1:]], "vs reference"),
        (lambda rows: bump(rows[2], "chi2_cage", 0.06), "|full - cage|"),
    ],
)
def test_mbl_check_rejects(output, change, expect):
    errors = errors_after(output, "mbl-cage", "mbl_cage.csv", change)
    assert any(expect in e for e in errors), errors
