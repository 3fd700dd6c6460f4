"""Run one benchmark workload in this process and print a JSON report.

    PYTHONPATH=src python3 perfbench/worker.py --workload oracle \
        --config CFG --out DIR --seconds 10 [--trace]

One caller, closed loop: the workload's scenarios run back to back through
``susyoptics.cli.main``, one untimed warm-up iteration first, then timed
iterations until their sum is ``--seconds`` rounded to a whole number of
iterations (``--seconds 0`` gives exactly one).  Where the workload has a
reference kernel (``reference.py``), it is timed before the first timed
iteration and after each one, outside the timed region; the report gives
each iteration's wall time and that time scaled to the kernel's nominal
speed, which is the wall time for a workload without a kernel.  A scenario run
fails when it raises, returns a non-zero exit code, prints a ``[FAIL]`` gate,
or writes files whose digest differs from the warm-up iteration's.  The last
stdout line is the report.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Each workload groups the `susy-optics all` scenarios by the layer that
# dominates them; together they are exactly config.SCENARIOS minus "all".
WORKLOADS = {
    # dense O(n^3) eigensolves (susy.bound_spectrum, evolution.eigenbasis),
    # plus the 16 ms interferometer check so optics runs in a gated workload
    "oracle": ("spectrum", "trotter-convergence", "bdag-check"),
    # 82 single-state split-step streams plus per-step fidelities
    "sweep": ("eta-sweep",),
    # two streams sampled every step, ladder per sample, ~1.1M CSV rows;
    # runnable, but too noisy for BENCHMARK.json on a shared machine
    "trace": ("susy-check",),
}


def files_digest(out_dir: Path, scenario: str) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob(f"{scenario}_*")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_scenario(main, scenario, config, out_dir) -> bool:
    """One CLI call; whether it exited 0 with every gate passing."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([scenario, "--config", config, "--out", str(out_dir)])
    except Exception:  # a raising scenario is a counted failure, not a crash
        traceback.print_exc()
        return False
    text = out.getvalue()
    ok = code == 0 and "[FAIL]" not in text
    if not ok:
        print(f"{scenario}: exit {code}\n{text}{err.getvalue()}", file=sys.stderr)
    return ok


def blas_info():
    """Name and thread count of every OpenBLAS loaded into this process."""
    info = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for suffix in ("", "64_"):
            for stem in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{stem}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{stem}_get_config{suffix}", None)
                if threads and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        info[os.path.basename(path)] = entry
    return info


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():  # a plain checkout; look no further up
        return "unavailable"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return res.stdout.strip()


def environment(cfg, root: Path) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(root),
        "grid_points": cfg.grid_points,
        "battery_seed": cfg.battery_seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import susyoptics
    import susyoptics.cli
    from susyoptics.config import parse_config

    from reference import Gauge

    tracer = None
    if args.trace:
        from tracer import Tracer, is_count
        tracer = Tracer()
        tracer.install(susyoptics)

    scenarios = WORKLOADS[args.workload]
    reference = {}
    attempted = failed = 0
    samples, scaled, layer_runs = [], [], []

    def iteration():
        nonlocal attempted, failed
        shutil.rmtree(args.out, ignore_errors=True)
        gc.collect()
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        results = [run_scenario(susyoptics.cli.main, s, args.config, args.out)
                   for s in scenarios]
        elapsed = time.perf_counter() - t0
        for scenario, ok in zip(scenarios, results):
            digest = files_digest(args.out, scenario)
            if reference.setdefault(scenario, digest) != digest:
                print(f"{scenario}: output digest changed between iterations",
                      file=sys.stderr)
                ok = False
            attempted += 1
            failed += not ok
        return elapsed

    iteration()  # warm-up: fills caches, fixes the reference digests
    gauge = Gauge(args.workload)
    while True:
        samples.append(iteration())
        scaled.append(gauge.scale(samples[-1]))
        if tracer:
            layer_runs.append(tracer.metrics())
        if sum(samples) + statistics.median(samples) / 2 > args.seconds:
            break  # the measured time is --seconds rounded to whole iterations

    report = {
        "workload": args.workload,
        "samples_s": samples,
        "scaled_s": scaled,
        "attempted": attempted,
        "failed": failed,
        "digests": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(parse_config(args.config),
                           Path(susyoptics.__file__).resolve().parents[2]),
    }
    if tracer:
        # counts repeat in every iteration; times are the median per iteration
        report["layers"] = {
            key: first if is_count(key) else statistics.median(
                run[key] for run in layer_runs)
            for key, first in layer_runs[0].items()}
        report["layer_counts_repeat"] = all(
            run[k] == layer_runs[0][k] for run in layer_runs
            for k in run if is_count(k))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
