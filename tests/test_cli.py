"""CLI: config merging, command runs, manifests, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import scramblescope

from scramblescope import cli, cliffordverify, scramble
from scramblescope.cli import RunConfig, UsageError, main, parse_config, run, run_identity_suites
from scramblescope.shadows import MoMConfig


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

    # the last three were settings once, given here values they accepted
    @pytest.mark.parametrize(
        "key, value",
        [("bogus", 1), ("pxp_boundary", "open_projected"), ("initial", "polarized"), ("cage_start", 0)],
        ids=["bogus", "pxp_boundary", "initial", "cage_start"],
    )
    def test_rejects_unknown_key(self, tmp_path, key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "tfim", "length": 4, key: value}))
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

    def test_shots_flag_beats_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "pxp", "length": 10, "shots": 1000}))
        cfg = parse_config(["shadow-curve", "--config", str(p), "--shots", "3000"])
        assert cfg.shots == 3000

    def test_rejects_bad_format(self):
        with pytest.raises(UsageError):
            RunConfig(command="grid", model="tfim", length=4, format="xml")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["grid", "--model", "tfim", "--length", "4", "--steps", "100001"],
             "steps=100001 is above the time-grid limit of 100000"),
            (["grid", "--model", "tfim", "--length", "14"], "an L=14 chain exceeds the dense limit of 13 sites"),
            (["clifford-verify", "--length", "6"], "sample count 1000001 is above the limit of 1000000"),
            (["identity-suite"], "n_haar=10000001 is above the Haar-sample limit of 10000000"),
        ],
        ids=["steps", "length", "sample_counts", "n_haar"],
    )
    def test_size_limits_are_refused_on_entry(self, tmp_path, argv, message):
        # a size limit is a plain ValueError (exit 1), not a usage error
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sample_counts": [10, 1_000_001], "n_haar": 10_000_001}))
        with pytest.raises(ValueError, match=f"^{message}$") as err:
            parse_config([*argv, "--config", str(p)])
        assert not isinstance(err.value, UsageError)


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
            ("clifford-verify", {"sample_counts": [10, 10]}),
            ("grid", {"metrics": ["chi2", "chi2"]}),
            ("identity-suite", {"n_spectra": 0}),
            ("identity-suite", {"n_triples": 0}),
            ("identity-suite", {"n_haar": 10}),
            ("grid", {"steps": 0}),
            ("grid", {"steps": -3}),
            ("shadow-curve", {"shots": 3, "batches": 2}),
            ("shadow-curve", {"shots": 0}),
            ("shadow-curve", {"shots": -5}),
            ("grid", {"subsystem_size": 0}),
            ("grid", {"subsystem_size": -1}),
            ("grid", {"length": 6, "site": -1}),
            ("grid", {"length": 6, "site": 9}),
            ("grid", {"policy": "foo"}),
            ("grid", {"metrics": ["foo"]}),
            ("grid", {"tmax": -1.0}),
            ("mbl-cage", {"disorder_width": -1.0}),
            ("mbl-cage", {"length": 6, "cage_length": 0}),
            ("mbl-cage", {"length": 6, "cage_length": -2}),
            ("mbl-cage", {"length": 6, "cage_length": 7}),
            ("grid", {"model": "pxp", "length": 6, "site": 1}),
            ("shadow-curve", {"model": "pxp", "length": 6, "site": 1, "shots": 200}),
            ("clifford-verify", {"length": 6, "site": 1}),
            ("clifford-verify", {"length": 6, "subsystem_size": 3}),
            ("mbl-cage", {"length": 6, "subsystem_size": 4}),
            ("grid", {"tmax": -1.0, "steps": 1}),
            ("grid", {"model": "pxp", "length": 2}),
            ("grid", {"model": "mfim", "length": 2}),
            ("clifford-verify", {"length": 2}),
            ("grid", {"metrics": []}),
            ("grid", {"subsystem_size": 5}),
        ],
    )
    def test_bad_count_is_usage_error(self, tmp_path, capsys, command, bad):
        self._assert_usage_error(tmp_path, capsys, command, bad)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--model", "tfim", "--length", "1"], "TFIM needs L >= 2, got 1"),
            (["--model", "pxp", "--length", "1"], "PXP needs L >= 3, got 1"),
            (["--model", "mbl", "--length", "1"], "MBL needs L >= 2, got 1"),
            (["--model", "tfim", "--length", "0"], "length must be at least 1, got 0"),
            (["--model", "mbl", "--length", "-3"], "length must be at least 1, got -3"),
            (["--model", "tfim", "--length", "4", "--subsystem-size", "5"], "subsystem size 5 is not in [1, 4]"),
            # above the reduced-state limit too, but the chain is what it exceeds
            (["--model", "tfim", "--length", "4", "--subsystem-size", "13"], "subsystem size 13 is not in [1, 4]"),
        ],
        ids=["tfim-1", "pxp-1", "mbl-1", "tfim-0", "mbl-minus-3", "subsystem-5-of-4", "subsystem-13-of-4"],
    )
    def test_usage_message_names_the_faulty_value(self, tmp_path, capsys, args, message):
        out = tmp_path / "o"
        assert main(["grid", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: usage: {message}\n"
        assert not out.exists()

    @staticmethod
    def _assert_usage_error(tmp_path, capsys, command, bad):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": "tfim", "length": 4, **bad}))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: usage:")
        assert not (tmp_path / "o").exists()


def test_cli_import_leaves_scipy_unloaded():
    # mpmath is only a test oracle; no module of the program imports it
    src = str(Path(scramblescope.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, scramblescope.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
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

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "o"
        assert main(["grid", "--model", "tfim", "--length", "4", "--steps", "2", "--out", str(out)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert env["numpy"] == np.__version__
        assert env["blas_thread_vars"]["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in env["blas_thread_vars"]

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

    def test_near_degenerate_subsystem_spectra(self, tmp_path):
        # L_A = 3 spectra here hold clusters of ~1e-12 eigenvalues
        out = tmp_path / "o"
        args = ["grid", "--model", "tfim", "--length", "8", "--subsystem-size", "3",
                "--tmax", "10", "--steps", "41", "--out", str(out)]
        assert main(args) == 0
        rows = (out / "grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 41 * 8
        assert all(0.0 <= float(r.split(",")[3]) <= 1.0 for r in rows)

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

    def test_run_builds_one_batching(self, tmp_path, monkeypatch):
        built, check = [], MoMConfig.__post_init__
        monkeypatch.setattr(MoMConfig, "__post_init__", lambda m: built.append(m) or check(m))
        run(parse_config(["shadow-curve", "--model", "tfim", "--length", "4", "--shots", "200",
                          "--steps", "1", "--out", str(tmp_path / "o")]))
        assert [(m.n_batches, m.batch_size) for m in built] == [(10, 20)]


@pytest.mark.parametrize(
    "args",
    [
        ["grid", "--model", "tfim", "--length", "4", "--steps", "1"],
        ["shadow-curve", "--model", "tfim", "--length", "4", "--subsystem-size", "1",
         "--shots", "3005", "--batches", "10", "--steps", "1"],
        ["clifford-verify", "--length", "4", "--subsystem-size", "1", "--steps", "1"],
        ["mbl-cage", "--length", "4", "--steps", "1"],
    ],
    ids=lambda args: args[0],
)
def test_manifest_scenario_records_no_shot_budget(tmp_path, args):
    # The shot budget is the shadow-curve command's, not the scenario's: only
    # its config records shots and batches, and it records the snapshots its
    # batches used. The start state follows the model, and units and version
    # are recorded once, at the top level.
    out = tmp_path / "o"
    assert main([*args, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"].keys() - {"disorder"} == {
        "model", "n_sites", "couplings", "perturbation_site", "subsystem_size", "time_grid",
    }
    assert manifest["units"] == "nats" and manifest["version"] == scramblescope.__version__
    reads = set(cli.READS[args[0]])
    if args[0] != "mbl-cage":  # the TFIM and PXP chains draw no disorder
        reads -= {"disorder_seed", "disorder_width"}
    assert manifest["config"].keys() == reads
    if args[0] == "shadow-curve":
        assert {"shots", "batches"} <= manifest["config"].keys()
        assert manifest["snapshots_used_per_state"] == 3000
    else:
        assert not {"shots", "batches"} & manifest["config"].keys()


def test_manifest_config_omits_settings_the_command_does_not_read(tmp_path):
    # shadow-curve runs chi2 over all subsets, whatever metrics and policy say
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"metrics": ["foo"], "policy": "windows_containing_x"}))
    out = tmp_path / "o"
    args = ["shadow-curve", "--model", "pxp", "--length", "6", "--shots", "40", "--steps", "2"]
    assert main([*args, "--config", str(p), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert not {"metrics", "policy", "out", "command"} & manifest["config"].keys()
    assert not {"metrics", "subset_policy"} & manifest["scenario"].keys()


@pytest.mark.parametrize("model, drawn", [("tfim", False), ("pxp", False), ("mbl", True)])
def test_manifest_records_disorder_only_where_drawn(tmp_path, model, drawn):
    out = tmp_path / "o"
    assert main(["grid", "--model", model, "--length", "4", "--steps", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    disorder = {"disorder_seed", "disorder_width"}
    assert ("disorder" in manifest["scenario"]) is drawn
    assert disorder & manifest["config"].keys() == (disorder if drawn else set())


@pytest.mark.parametrize(
    "command, args, tables, sampled",
    [
        ("shadow-curve", ["--model", "pxp", "--length", "6", "--shots", "200"], ["shadow_curve.csv"], True),
        ("clifford-verify", ["--length", "6"], ["clifford_verify.csv", "clifford_summary.csv"], True),
        ("grid", ["--model", "pxp", "--length", "6"], ["grid.csv"], False),
        ("mbl-cage", ["--length", "6"], ["mbl_cage.csv"], False),
    ],
    ids=["shadow-curve", "clifford-verify", "grid", "mbl-cage"],
)
def test_seed_reaches_only_the_samplers(tmp_path, command, args, tables, sampled):
    # grid and mbl-cage draw nothing, so they neither read nor record a seed
    runs = []
    for seed in ("6", "7"):
        out = tmp_path / seed
        assert main([command, *args, "--tmax", "2", "--steps", "2", "--seed", seed, "--out", str(out)]) == 0
        runs.append([(out / name).read_bytes() for name in tables])
    assert [a != b for a, b in zip(*runs)] == [sampled] * len(tables)
    assert ("seed" in cli.READS[command]) is sampled


def test_identity_suite_manifest_records_its_sample_sizes(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"n_spectra": 5, "n_triples": 3, "n_haar": 1000}))
    out = tmp_path / "o"
    assert main(["identity-suite", "--config", str(p), "--seed", "2", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config == {"seed": 2, "n_spectra": 5, "n_triples": 3, "n_haar": 1000}


def test_every_setting_is_read_by_some_command():
    read = {key for keys in cli.READS.values() for key in keys}
    assert read == {f.name for f in fields(RunConfig)} - {"command", "out"}


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

    @pytest.mark.parametrize("site, cage", [(0, [0, 1, 2]), (5, [3, 4, 5])])
    def test_cage_shifts_inside_the_chain(self, tmp_path, site, cage):
        out = tmp_path / "o"
        args = ["mbl-cage", "--length", "6", "--site", str(site), "--subsystem-size", "2",
                "--tmax", "1", "--steps", "2", "--out", str(out)]
        assert main(args) == 0
        assert json.loads((out / "manifest.json").read_text())["cage_sites"] == cage


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

    def test_site_at_the_right_edge_shifts_the_pair_inside(self, tmp_path, monkeypatch):
        kept, real = [], cliffordverify.partial_trace
        monkeypatch.setattr(
            cliffordverify, "partial_trace", lambda psi, keep: kept.append(keep.indices) or real(psi, keep)
        )
        args = ["clifford-verify", "--length", "5", "--site", "4", "--steps", "2"]
        assert main([*args, "--out", str(tmp_path / "o")]) == 0
        assert set(kept) == {(3, 4)}


class TestIdentitySuiteCommand:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "o"
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_spectra": 50, "n_triples": 60, "n_haar": 2000}))
        assert main(["identity-suite", "--config", str(p),
                     "--seed", "1", "--out", str(out)]) == 0
        report = json.loads((out / "identity_suite.json").read_text())
        assert report["pass"] is True

    def test_runs_the_recorded_number_of_triples(self, monkeypatch):
        dims = []
        real = cli.random_density
        monkeypatch.setattr(cli, "random_density", lambda d, rng: dims.append(d) or real(d, rng))
        run_identity_suites(0, n_spectra=1, n_triples=4, n_haar=1000)
        # two states per triple, 4 triples split 2/1/1 over d = 2, 4, 8; then
        # the Haar suite's two states
        assert dims[:10] == [2, 2, 2, 2, 4, 4, 8, 8, 2, 4]


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

    @pytest.mark.parametrize(
        "args",
        [
            ["grid", "--model", "tfim", "--steps", "1"],
            ["clifford-verify", "--steps", "1"],
            ["mbl-cage", "--steps", "1"],
            ["shadow-curve", "--model", "pxp", "--shots", "100", "--steps", "1"],
        ],
    )
    def test_huge_chain_is_refused_before_work(self, tmp_path, capsys, monkeypatch, args):
        def must_not_build(*a, **k):
            raise AssertionError("built the model before the dense-limit check")

        monkeypatch.setattr(cli, "_model_spec", must_not_build)
        out = tmp_path / "o"
        assert main(args + ["--length", "3000000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "dense limit" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["grid", "--model", "pxp"],
            ["shadow-curve", "--model", "pxp", "--shots", "100"],
        ],
    )
    def test_whole_chain_reduced_state_above_limit_is_refused(self, tmp_path, capsys, monkeypatch, args):
        def must_not_build(*a, **k):
            raise AssertionError("built H before the reduced-state check")

        monkeypatch.setattr(scramble, "build_hamiltonian", must_not_build)
        out = tmp_path / "o"
        argv = args + ["--length", "13", "--subsystem-size", "13", "--steps", "1", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: a 13-site reduced state exceeds the limit of 12 sites\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--model", "pxp", "--length", "6", "--shots", "1000000000", "--steps", "1"],
            # 12-site subsets take the B x B order at B = 30000: 8 B^2 (12 + 5) bytes
            ["--model", "tfim", "--length", "12", "--subsystem-size", "12", "--shots", "60000",
             "--batches", "2", "--steps", "1"],
        ],
    )
    def test_shadow_budget_above_memory_limit_is_refused(self, tmp_path, capsys, monkeypatch, args):
        def must_not_sample(*a, **k):
            raise AssertionError("sampled before the memory check")

        monkeypatch.setattr(scramble, "sample_shadow_set", must_not_sample)
        out = tmp_path / "o"
        assert main(["shadow-curve", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "memory limit" in err
        assert not out.exists()

    def test_histogram_order_budget_is_accepted(self, tmp_path, capsys):
        # Two-site subsets in batches of 30000 take the histogram order; the
        # B x B kernel matrices (8 B^2 (4 + 5) bytes) are never formed.
        out = tmp_path / "o"
        args = ["shadow-curve", "--model", "tfim", "--length", "4", "--shots", "60000",
                "--batches", "2", "--steps", "1", "--out", str(out)]
        assert main(args) == 0
        assert (out / "shadow_curve.csv").exists()

    @pytest.mark.parametrize("command", ["grid", "shadow-curve", "clifford-verify", "mbl-cage"])
    def test_time_grid_above_limit_is_refused_before_it_is_built(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def must_not_build(*a, **k):
            raise AssertionError("built the time grid")

        monkeypatch.setattr(cli, "MAX_TIME_STEPS", 3)
        monkeypatch.setattr(cli.np, "linspace", must_not_build)
        out = tmp_path / "o"
        args = [command, "--model", "pxp", "--length", "6", "--shots", "20", "--steps", "4"]
        if command in ("clifford-verify", "mbl-cage"):
            args = [command, "--length", "6", "--steps", "4"]
        assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "time-grid limit of 3" in err
        assert "Traceback" not in err and not out.exists()

    def test_time_grid_at_the_limit_is_built(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TIME_STEPS", 3)
        out = tmp_path / "o"
        args = ["grid", "--model", "tfim", "--length", "4", "--steps", "3", "--out", str(out)]
        assert main(args) == 0
        assert len((out / "grid.csv").read_text().splitlines()) > 1

    def test_sample_count_above_limit_is_refused_before_work(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*a, **k):
            raise AssertionError("ran the experiment")

        monkeypatch.setattr(cli, "clifford_convergence_experiment", must_not_run)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sample_counts": [10, cli.MAX_SAMPLE_COUNT + 1]}))
        out = tmp_path / "o"
        assert main(["clifford-verify", "--length", "6", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and f"limit of {cli.MAX_SAMPLE_COUNT}" in err
        assert "Traceback" not in err and not out.exists()

    def test_sample_count_at_the_limit_is_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLE_COUNT", 10)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sample_counts": [10], "trials": 2}))
        out = tmp_path / "o"
        args = ["clifford-verify", "--length", "4", "--subsystem-size", "1", "--steps", "1"]
        assert main([*args, "--config", str(p), "--out", str(out)]) == 0
        assert (out / "clifford_verify.csv").exists()

    def test_haar_samples_above_limit_are_refused_before_work(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*a, **k):
            raise AssertionError("ran the identity suites")

        monkeypatch.setattr(cli, "run_identity_suites", must_not_run)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_haar": cli.MAX_HAAR_SAMPLES + 1}))
        out = tmp_path / "o"
        assert main(["identity-suite", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and f"limit of {cli.MAX_HAAR_SAMPLES}" in err
        assert "Traceback" not in err and not out.exists()

    def test_haar_samples_at_the_limit_are_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_HAAR_SAMPLES", 2000)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_spectra": 5, "n_triples": 3, "n_haar": 2000}))
        out = tmp_path / "o"
        assert main(["identity-suite", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "identity_suite.json").exists()

    def test_identity_suite_ignores_chain_limits(self, tmp_path):
        # it builds no chain and no time grid, so length and steps are unread
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_spectra": 5, "n_triples": 3, "n_haar": 1000}))
        out = tmp_path / "o"
        args = ["identity-suite", "--length", "99", "--steps", "1000000000", "--config", str(p)]
        assert main([*args, "--out", str(out)]) == 0
        assert (out / "identity_suite.json").exists()

    def test_failed_run_leaves_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["grid", "--model", "tfim", "--length", "22", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ValueError:")
        assert not out.exists()

    def test_memory_error_is_reported_without_traceback(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*a, **k):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(cli, "exact_metric_grid", out_of_memory)
        out = tmp_path / "o"
        assert main(["grid", "--model", "tfim", "--length", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MemoryError:") and "Traceback" not in err
        assert not out.exists()
