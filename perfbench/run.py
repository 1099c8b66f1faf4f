"""Benchmark the scramblescope CLI end to end on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from a source checkout: the CLI is imported from its src/ directory.
One client runs the workload's CLI command as a fresh process, again and
again, as long as another run still fits in S seconds (at least once).
Each run's outputs are checked against the independent reference in
reference.py. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured on untraced
processes: median wall_s, cpu_s and peak_rss_mib over the runs, and the
set-up time of the first run. With --trace 1 one traced process runs
after them, and the metrics are its per-layer split plus the tracing
overhead against the untraced runs. The line before it holds the
environment. Everything else goes to perfbench/_runs/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, check_manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
# Every run must end within 180 s; a CLI process still running near the
# deadline is killed and counted as failed.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# The CLI runs with one OpenBLAS thread. With one per vCPU, a process's
# wall time also depends on whether a shared host runs every vCPU at once,
# which widened the run-to-run spread of wall_s on a 2-vCPU VM.
CLI_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes"), ("_dim", "dim")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Invocation:
    mode: str
    exit_code: int
    out_dir: Path
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    output_bytes: int = 0
    hashes: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    record: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and bool(self.record)


def invoke(workload, run_dir: Path, mode: str, deadline: float) -> Invocation:
    """Run the workload's CLI command once in a fresh process."""
    work = run_dir / f"{len(list(run_dir.glob('[0-9]*')))}-{mode}"
    work.mkdir()
    out_dir, record_path = work / "out", work / "record.json"
    cmd = [
        sys.executable, str(HERE / "probe.py"), str(SRC), str(record_path), mode, "--",
        workload.command, "--config", str(run_dir / "config.json"), "--out", str(out_dir),
    ]
    with open(work / "cli.log", "w") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=work, env=CLI_ENV)
        killer = threading.Timer(max(1.0, deadline - launched), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(mode=mode, exit_code=proc.returncode, out_dir=out_dir)
    if proc.returncode != 0 or not record_path.is_file():
        inv.errors.append(f"CLI exited with code {proc.returncode}; see {work / 'cli.log'}")
        return inv
    inv.record = json.loads(record_path.read_text())
    parse_end = next(end for name, _, end, _ in inv.record["spans"] if name == "cli.parse")
    inv.wall_s = ended - launched
    inv.setup_s = parse_end - launched
    inv.cpu_s = usage.ru_utime + usage.ru_stime
    inv.peak_rss_mib = usage.ru_maxrss / 1024.0
    inv.output_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    return inv


def check(workload, inv: Invocation, reference: dict) -> None:
    """Append to inv.errors whatever the workload's checks find wrong."""
    try:
        inv.errors += check_manifest(inv.out_dir, workload.outputs)
        inv.errors += workload.check(workload.config, inv.out_dir, reference)
        inv.hashes = json.loads((inv.out_dir / "manifest.json").read_text())["outputs"]
    except Exception:  # a malformed output fails the check, not the benchmark
        inv.errors.append("check raised " + traceback.format_exc())


def end_to_end_values(plain: list) -> dict:
    """Medians over the untraced runs; set-up time of the first (cold) one."""
    return {
        "wall_s": statistics.median(r.wall_s for r in plain),
        "setup_s": plain[0].setup_s,
        "cpu_s": statistics.median(r.cpu_s for r in plain),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in plain),
    }


def per_layer_values(traced: Invocation, plain: list) -> dict:
    """The traced run's layer split and its overhead over the untraced runs."""
    untraced = statistics.median(r.wall_s for r in plain)
    values = layer_metrics(traced.record)
    values["cli.import_s"] = traced.record["import_end"] - traced.record["import_start"]
    values["cli.output_bytes"] = traced.output_bytes
    values["trace.wall_s"] = traced.wall_s
    values["trace.untraced_s"] = untraced
    values["trace.overhead_s"] = traced.wall_s - untraced
    return values


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cli_blas_thread_vars": {k: CLI_ENV[k] for k in THREAD_VARS if k in CLI_ENV},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def main() -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "scramblescope" / "cli.py").is_file():
        print(f"error: no scramblescope sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = started + DEADLINE_S
    run_dir = RUNS / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(workload.config, indent=1))

    plain = []
    window_start = time.monotonic()
    while True:
        plain.append(invoke(workload, run_dir, "plain", deadline))
        elapsed = time.monotonic() - window_start
        if elapsed + plain[-1].wall_s > args.seconds:
            break
    traced = invoke(workload, run_dir, "trace", deadline) if args.trace else None

    # The reference is computed after the timed processes so that none of
    # them shares the machine with it.
    reference = workload.reference(workload.config, args.seed)
    runs = plain + ([traced] if traced else [])
    done = [r for r in runs if r.ok]
    for r in done:
        check(workload, r, reference)
    errors = [f"{r.mode}: {e}" for r in runs for e in r.errors]
    if len({json.dumps(r.hashes, sort_keys=True) for r in done}) > 1:
        errors.append("reruns of one config produced different outputs")
    good_plain = [r for r in plain if r.ok]
    if not good_plain or (traced is not None and not traced.ok):
        print("error: no result, a CLI run failed:\n  " + "\n  ".join(errors), file=sys.stderr)
        return 1

    values = per_layer_values(traced, good_plain) if traced else end_to_end_values(good_plain)
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    result = {
        "correct": not errors,
        "attempted": len(runs),
        "failed": sum(not r.ok for r in runs),
        "metrics": metrics,
    }
    env = environment()
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "reference_times": sorted(reference),
        "errors": errors,
        "trace_problems": traced.record["problems"] if traced else [],
        "runs": [
            {k: getattr(r, k) for k in ("mode", "exit_code", "wall_s", "setup_s", "cpu_s", "peak_rss_mib")}
            for r in runs
        ],
        "result": result,
    }
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1))
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
