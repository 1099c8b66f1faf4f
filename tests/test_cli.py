"""CLI: config merging, command runs, manifests, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scramblescope

from scramblescope.cli import RunConfig, UsageError, main, parse_config, run


class TestParseConfig:
    def test_flags_only(self):
        cfg = parse_config(["grid", "--model", "tfim", "--length", "6", "--seed", "3"])
        assert cfg.command == "grid" and cfg.model == "tfim" and cfg.seed == 3

    def test_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "pxp", "length": 8, "tmax": 5.0}))
        cfg = parse_config(["grid", "--config", str(p)])
        assert cfg.model == "pxp" and cfg.length == 8 and cfg.tmax == 5.0

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "pxp", "length": 8, "seed": 1}))
        cfg = parse_config(["grid", "--config", str(p), "--seed", "9"])
        assert cfg.seed == 9 and cfg.model == "pxp"

    def test_rejects_unknown_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "tfim", "length": 4, "bogus": 1}))
        with pytest.raises(UsageError):
            parse_config(["grid", "--config", str(p)])

    def test_rejects_missing_model(self):
        with pytest.raises(UsageError):
            parse_config(["grid", "--length", "6"])

    def test_rejects_unknown_model(self):
        with pytest.raises(UsageError):
            parse_config(["grid", "--model", "xyz", "--length", "6"])

    def test_shadow_curve_requires_shots(self):
        with pytest.raises(UsageError):
            parse_config(["shadow-curve", "--model", "pxp", "--length", "6"])

    def test_rejects_subsystem_larger_than_chain(self):
        with pytest.raises(UsageError):
            parse_config(["grid", "--model", "tfim", "--length", "4",
                          "--subsystem-size", "5"])

    def test_shots_flag_beats_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "pxp", "length": 10, "shots": 1000}))
        cfg = parse_config(["shadow-curve", "--config", str(p), "--shots", "3000"])
        assert cfg.shots == 3000

    def test_rejects_bad_format(self):
        with pytest.raises(UsageError):
            RunConfig(command="grid", model="tfim", length=4, format="xml")


class TestConfigTypes:
    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": 1.7},
            {"length": 4.0},
            {"tmax": "1"},
            {"metrics": "chi2"},
            {"length": True},
        ],
    )
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, bad):
        self._assert_usage_error(tmp_path, capsys, "grid", bad)

    @pytest.mark.parametrize(
        "command,bad",
        [
            ("shadow-curve", {"shots": 100, "batches": 0}),
            ("clifford-verify", {"trials": 0}),
            ("clifford-verify", {"sample_counts": []}),
            ("clifford-verify", {"sample_counts": [10, 0]}),
        ],
    )
    def test_bad_count_is_usage_error(self, tmp_path, capsys, command, bad):
        self._assert_usage_error(tmp_path, capsys, command, bad)

    @staticmethod
    def _assert_usage_error(tmp_path, capsys, command, bad):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "tfim", "length": 4, **bad}))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: usage:")
        assert not (tmp_path / "o").exists()


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(scramblescope.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, scramblescope.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestGridCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "o"
        cfg = parse_config(
            ["grid", "--model", "tfim", "--length", "4", "--tmax", "1",
             "--steps", "2", "--out", str(out)]
        )
        assert run(cfg) == 0
        csv = (out / "grid.csv").read_text().splitlines()
        assert csv[0] == "metric,t,x,value"
        # 3 metrics x 2 times x 4 sites
        assert len(csv) == 1 + 3 * 2 * 4
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256((out / "grid.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["grid.csv"] == digest
        assert manifest["units"] == "nats"
        assert manifest["scenario"]["model"] == "TFIM"

    def test_json_format(self, tmp_path):
        out = tmp_path / "o"
        cfg = parse_config(
            ["grid", "--model", "tfim", "--length", "4", "--tmax", "1",
             "--steps", "2", "--out", str(out), "--format", "json"]
        )
        run(cfg)
        records = json.loads((out / "grid.json").read_text())
        assert records[0].keys() == {"metric", "t", "x", "value"}

    @pytest.mark.parametrize(
        "args,stems",
        [
            (["grid", "--model", "tfim"], ["grid"]),
            (["clifford-verify"], ["clifford_verify", "clifford_summary"]),
        ],
    )
    def test_json_matches_csv(self, tmp_path, args, stems):
        common = args + ["--length", "4", "--subsystem-size", "1", "--tmax", "1", "--steps", "2"]
        for fmt in ("csv", "json"):
            run(parse_config(common + ["--out", str(tmp_path / fmt), "--format", fmt]))
        for stem in stems:
            header, *lines = (tmp_path / "csv" / f"{stem}.csv").read_text().splitlines()
            records = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
            assert len(records) == len(lines) > 0
            for record, line in zip(records, lines):
                assert list(record) == header.split(",")
                for value, text in zip(record.values(), line.split(",")):
                    assert text == (f"{value:.12g}" if isinstance(value, float) else str(value))

    def test_deterministic_rerun(self, tmp_path):
        args = ["grid", "--model", "mbl", "--length", "5", "--tmax", "2",
                "--steps", "3", "--seed", "4"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(parse_config(args + ["--out", str(out1)]))
        run(parse_config(args + ["--out", str(out2)]))
        assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()


class TestShadowCurveCommand:
    def test_runs_and_is_deterministic(self, tmp_path):
        args = ["shadow-curve", "--model", "tfim", "--length", "4",
                "--subsystem-size", "1", "--shots", "200", "--tmax", "1",
                "--steps", "2", "--seed", "6"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(parse_config(args + ["--out", str(out1)]))
        run(parse_config(args + ["--out", str(out2)]))
        body1 = (out1 / "shadow_curve.csv").read_bytes()
        assert body1 == (out2 / "shadow_curve.csv").read_bytes()
        lines = body1.decode().splitlines()
        assert lines[0] == "t,L_A,chi2_shadow,chi2_exact"
        assert len(lines) == 3

    def test_manifest_counts_used_snapshots(self, tmp_path):
        out = tmp_path / "o"
        run(parse_config(["shadow-curve", "--model", "tfim", "--length", "4",
                          "--subsystem-size", "1", "--shots", "205", "--steps", "1",
                          "--out", str(out)]))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["snapshots_used_per_state"] == 200  # 10 batches of 20


class TestMblCageCommand:
    def test_decoupled_control(self, tmp_path):
        out = tmp_path / "o"
        cfg = parse_config(
            ["mbl-cage", "--length", "6", "--subsystem-size", "2",
             "--tmax", "2", "--steps", "3", "--out", str(out)]
        )
        cfg = RunConfig(**{**cfg.__dict__, "boundary_scale": 0.0})
        run(cfg)
        lines = (out / "mbl_cage.csv").read_text().splitlines()[1:]
        for line in lines:
            _, full, cage = line.split(",")
            assert abs(float(full) - float(cage)) < 1e-8


class TestCliffordVerifyCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "o"
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "length": 5, "subsystem_size": 1, "tmax": 1.0, "steps": 2,
            "sample_counts": [10], "trials": 2,
        }))
        assert main(["clifford-verify", "--config", str(p), "--out", str(out)]) == 0
        lines = (out / "clifford_verify.csv").read_text().splitlines()
        assert lines[0] == "t,L_A,N,trial,chi2_est,chi2_exact"
        assert len(lines) == 1 + 2 * 2  # 2 times x 1 N x 2 trials
        assert (out / "clifford_summary.csv").exists()


class TestIdentitySuiteCommand:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "o"
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_spectra": 50, "n_triples": 60, "n_haar": 2000}))
        assert main(["identity-suite", "--config", str(p),
                     "--seed", "1", "--out", str(out)]) == 0
        report = json.loads((out / "identity_suite.json").read_text())
        assert report["pass"] is True


class TestMainErrors:
    def test_usage_error_exit_code(self, capsys):
        assert main(["grid"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        assert main(["grid", "--config", str(tmp_path / "missing.json")]) == 2

    def test_chain_above_dense_limit_is_refused(self, tmp_path, capsys):
        args = ["grid", "--model", "tfim", "--length", "22", "--out", str(tmp_path / "o")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "dense limit" in err
        assert "Traceback" not in err
