"""Checks on the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

Each workload runs once untraced and twice traced, one timed iteration each,
at the reference grid size; the module takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from reference import KERNELS  # noqa: E402
from run import measure_setup, run_worker, write_config  # noqa: E402
from tracer import is_count  # noqa: E402
from worker import WORKLOADS  # noqa: E402

# the layer each workload is chosen for must be seen by the tracer
TARGET_COUNTS = {
    "oracle": ("susy.bound_spectrum_calls", "susy.dense_h_mb",
               "optics.calibrate_calls"),
    "sweep": ("evolution.trotter_streams", "grids.fidelity_calls"),
    "trace": ("experiments.emit_rows", "susy.ladder_calls"),
}


def test_workloads_are_the_scenarios_of_all():
    from susyoptics.config import SCENARIOS

    scenarios = list(chain.from_iterable(WORKLOADS.values()))
    assert sorted(scenarios) == sorted(set(SCENARIOS) - {"all"})
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    workload = request.param
    work = tmp_path_factory.mktemp(workload)
    config = write_config(work, seed=11)
    deadline = time.monotonic() + 600
    # one output directory: its path is part of the config hash in every file
    # --seconds 0: one timed iteration after the warm-up
    plain = run_worker(workload, config, work / "out", deadline, 0)
    traced = [run_worker(workload, config, work / "out", deadline, 0,
                         trace=True) for _ in range(2)]
    return workload, plain, traced


def test_runs_pass_every_gate(runs):
    _, plain, traced = runs
    for report in [plain, *traced]:
        assert report["failed"] == 0 and report["attempted"] > 0


def test_counts_repeat_between_traced_runs(runs):
    workload, _, (first, second) = runs
    counts = {k: v for k, v in first["layers"].items() if is_count(k)}
    assert counts == {k: second["layers"][k] for k in counts}
    for key in TARGET_COUNTS[workload]:
        assert counts[key] > 0, key


def test_reported_layer_metrics_are_never_zero(runs):
    # a metric that is 0 by construction has no before/after ratio; the
    # trace.* metrics are worked out by run.py from the run times
    _, _, (first, _) = runs
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names - first["layers"].keys() == {"trace.run_s", "trace.overhead_ratio"}
    assert {k: v for k, v in first["layers"].items()
            if k in names and not v > 0} == {}


def test_only_workloads_with_a_gauge_are_scaled(runs):
    workload, plain, _ = runs
    assert len(plain["scaled_s"]) == len(plain["samples_s"]) == 1
    assert plain["scaled_s"][0] > 0
    assert (plain["scaled_s"] == plain["samples_s"]) == (workload not in KERNELS)


def test_setup_gives_wall_and_scaled_seconds(tmp_path):
    config = write_config(tmp_path, seed=11)
    samples = measure_setup(config, time.monotonic() + 120)
    assert samples and all(len(s) == 2 and min(s) > 0 for s in samples)


def test_tracing_leaves_outputs_unchanged(runs):
    _, plain, traced = runs
    for report in traced:
        assert report["digests"] == plain["digests"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert not res.stdout.strip()  # no result line
