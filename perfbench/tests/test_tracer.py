"""Span arithmetic, and exact counts from traced CLI runs of small configs."""

import json
import math
import time
from pathlib import Path

import pytest

import run
from tracer import Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Workload

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_nested_span_of_the_same_name_counts_once():
    spans = [["models.build", 0.0, 2.0, -1], ["models.build", 0.5, 1.0, 0]]
    m = layer_metrics({"spans": spans, "counters": {}})
    assert m["models.builds"] == 1 and m["models.build_s"] == 2.0


def test_tracing_never_breaks_the_program():
    t = Tracer()
    t.install([("nosuchmodule", "fn", "x.y")])
    wrapped = t._wrap(lambda n: n + 1, "shadows.sample")  # its counter needs len()
    assert wrapped(4) == 5
    assert len(t.spans) == 1 and len(t.problems) == 2


def traced(tmp_path, command, config):
    w = Workload(name=command, command=command, config=config, outputs=(), reference=None, check=None)
    (tmp_path / "config.json").write_text(json.dumps(config))
    inv = run.invoke(w, tmp_path, "trace", time.monotonic() + 170)
    assert inv.ok, inv.errors
    return layer_metrics(inv.record)


def test_grid_counts(tmp_path):
    config = {"model": "pxp", "length": 6, "subsystem_size": 2, "policy": "all_subsets", "steps": 4, "tmax": 3.0}
    m = traced(tmp_path, "grid", config)
    subsets, steps = math.comb(6, 2), 4
    assert m["models.builds"] == 1 and m["models.hamiltonian_dim"] == 64
    assert m["evolve.eigensolves"] == 1 and m["evolve.evolve_calls"] == 2 * steps
    assert m["qhilbert.partial_traces"] == 2 * subsets * steps
    assert m["scramble.chi2_exact_calls"] == subsets * steps
    assert m["infotheory.calls"] == 2 * subsets * steps
    assert m["shadows.snapshots"] == 0 and m["cliffordverify.unitaries"] == 0


def test_shadow_counts_and_dropped_remainder(tmp_path):
    config = {"model": "pxp", "length": 6, "subsystem_size": 2, "shots": 3005, "batches": 10, "steps": 1}
    m = traced(tmp_path, "shadow-curve", config)
    assert m["shadows.snapshots"] == 2 * 3005
    assert m["shadows.subset_estimates"] == math.comb(6, 2)
    # 5 of each 3005 snapshots fall outside the 10 batches of 300.
    assert m["shadows.snapshots_used_ratio"] == pytest.approx(3000 / 3005)
    assert m["shadows.sample_s"] > 0 and m["shadows.estimate_s"] > 0


def test_mbl_cage_counts_both_builds(tmp_path):
    config = {"length": 6, "subsystem_size": 2, "cage_length": 3, "steps": 3, "tmax": 2.0}
    m = traced(tmp_path, "mbl-cage", config)
    assert m["models.builds"] == 2 and m["models.hamiltonian_dim"] == 64
    assert m["evolve.eigensolves"] == 2 and m["evolve.evolve_calls"] == 4 * 3
    assert m["scramble.chi2_exact_calls"] == 2 * 3


def test_clifford_counts(tmp_path):
    config = {"length": 6, "subsystem_size": 2, "sample_counts": [2, 3], "trials": 2, "steps": 2, "tmax": 1.0}
    m = traced(tmp_path, "clifford-verify", config)
    assert m["cliffordverify.unitaries"] == 2 * (2 + 3) * 2
    assert m["cliffordverify.purity_calls"] == 3 * 2 * 2 * 2
    assert m["evolve.evolve_calls"] == 2 * 2 and m["scramble.chi2_exact_calls"] == 2


def test_benchmark_json_matches_what_run_prints():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    record = {"spans": [], "counters": {}, "import_start": 0.0, "import_end": 1.0}
    inv = run.Invocation(mode="trace", exit_code=0, out_dir=Path("."), wall_s=2.0, record=record)
    names = run.per_layer_values(inv, [inv])
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {k: run.unit_of(k) for k in names}
