"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {oracle,sweep,trace} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The seed becomes ``battery_seed`` in a generated key=value config
that every scenario reads through ``--config``; nothing else varies.

``--trace 0`` runs one untraced worker process and measures set-up (import
plus config parse, in fresh processes, half before the worker and half
after it); it reports the end-to-end metrics.  ``--trace 1`` runs an
untraced and a traced worker for the same time and reports the per-layer
metrics plus the tracing overhead.  Which metrics are reported, and their
units, is read from ``BENCHMARK.json``.  Stdout ends with a single JSON
object; the lines before it record the environment, the run-time samples
and, when tracing, every layer figure the tracer computed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
BUDGET_S = 170.0  # a run must end within 180 s; this leaves a margin
SETUP_REPEATS = 6  # fresh processes before the worker, and again after it

sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402

# Prints the wall seconds of the import plus parse, then those seconds scaled
# by the interpreter kernel timed right after them in the same process.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import susyoptics.cli
from susyoptics.config import parse_config
parse_config(sys.argv[1])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from reference import Gauge
print(elapsed, Gauge("setup").scale(elapsed))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run(cmd, deadline):
    res = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                         cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise RuntimeError(f"{cmd[1]} exited with {res.returncode}")
    return res.stdout.strip().splitlines()[-1]


def measure_setup(config, deadline):
    """(wall, scaled) seconds to import susyoptics and parse the config, one
    fresh process each."""
    return [tuple(map(float, _run(setup_cmd(config), deadline).split()))
            for _ in range(SETUP_REPEATS)]


def setup_cmd(config):
    return [sys.executable, "-c", _SETUP_CODE, str(config), str(HERE)]


def run_worker(workload, config, out_dir, deadline, seconds, trace=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--config", str(config), "--out", str(out_dir),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    return json.loads(_run(cmd, deadline))


def write_config(work: Path, seed: int) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    config = work / "battery.cfg"
    config.write_text(f"battery_seed = {seed}\n", encoding="utf-8")
    return config


def describe_samples(report):
    """Median plus the highest percentile with at least ten samples beyond it."""
    scaled, wall = report["scaled_s"], report["samples_s"]
    n = len(scaled)
    text = f"run_s median {statistics.median(scaled):.4f} s over {n} iterations"
    if n >= 11:
        k = n - 10  # samples at or below the reported order statistic
        text += f", p{100 * k // n} {sorted(scaled)[k - 1]:.4f} s"
    else:
        text += "; no percentile has ten samples beyond it"
    return (text + f"; wall median {statistics.median(wall):.4f} s"
            + "; scaled " + " ".join(f"{s:.4f}" for s in scaled)
            + "; wall " + " ".join(f"{s:.4f}" for s in wall))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "susyoptics" / "cli.py").is_file():
        print(f"error: no susyoptics source tree at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        config = write_config(work, args.seed)
        setup = []
        if not args.trace:
            # untimed: writes the bytecode caches
            _run(setup_cmd(config), deadline)
            setup = measure_setup(config, deadline)
        plain = run_worker(args.workload, config, work / "out", deadline,
                           args.seconds)
        reports = [plain]
        run_s = statistics.median(plain["scaled_s"])
        if args.trace:
            traced = run_worker(args.workload, config, work / "out", deadline,
                                args.seconds, trace=True)
            reports.append(traced)
            values = dict(traced["layers"])
            # wall time, the base of the layer shares
            values["trace.run_s"] = statistics.median(traced["samples_s"])
            values["trace.overhead_ratio"] = (
                statistics.median(traced["scaled_s"]) / run_s)
            consistent = (traced["digests"] == plain["digests"]
                          and traced["layer_counts_repeat"])
        else:
            setup += measure_setup(config, deadline)
            values = {
                "setup_s": statistics.median(scaled for _, scaled in setup),
                "run_s": run_s,
                "peak_rss_mb": plain["peak_rss_mb"],
                "success_rate": 1 - plain["failed"] / plain["attempted"],
            }
            consistent = True
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired,
            KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print("# env " + json.dumps(plain["env"], sort_keys=True))
    if setup:
        print("# setup_s scaled " + " ".join(f"{s:.4f}" for _, s in setup)
              + "; wall " + " ".join(f"{w:.4f}" for w, _ in setup))
    for r in reports:
        print("# " + ("traced " if r is not plain else "") + describe_samples(r))
    if args.trace:
        print("# layers " + json.dumps(values))
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
