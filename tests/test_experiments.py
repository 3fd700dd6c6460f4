import dataclasses
import fnmatch
import io
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import susyoptics as so
from susyoptics import ConfigurationError, cli, evolution, experiments, optics
from susyoptics.config import config_hash, serialize_config, setup
from susyoptics.experiments import (
    SCENARIO_RUNNERS,
    GatedScalar,
    ScenarioResult,
    Table,
    run_all,
)
from susyoptics.grids import MOMENTUM, make_random_states
from susyoptics.susy import PotentialField


@pytest.fixture(scope="module")
def small_cfg():
    # cheap but structurally complete settings for runner tests
    return dataclasses.replace(
        so.parse_config(None),
        grid_points=512,
        steps_per_period=30,
        evolution_periods=1,
        convergence_steps=(8, 16, 32),
        eta_points=41,
        spectrum_levels=4,
        trace_stride=10,
    )


class TestRandomStates:
    def test_deterministic(self, small_grid):
        a = make_random_states(small_grid, 3, seed=11)
        b = make_random_states(small_grid, 3, seed=11)
        c = make_random_states(small_grid, 3, seed=12)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values, sb.values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_normalized_and_band_limited(self, small_grid):
        for state in make_random_states(small_grid, 4, seed=3):
            assert so.norm(state) == pytest.approx(1.0, abs=1e-12)
            phi = so.to_momentum(state)
            tail = np.abs(small_grid.p) > 12.0
            assert np.sum(np.abs(phi.values[tail]) ** 2) * small_grid.dp < 1e-12

    def test_count_validated(self, small_grid):
        with pytest.raises(ConfigurationError):
            make_random_states(small_grid, 0, seed=1)
        with pytest.raises(ConfigurationError):
            make_random_states(small_grid, 3, seed=-1)


class TestRunnerStructure:
    def test_spectrum(self, small_cfg):
        r = so.run_spectrum(small_cfg)
        assert r.scenario == "spectrum"
        assert r.config_hash == config_hash(small_cfg)
        assert r.tool_version == so.__version__
        assert [t.name for t in r.tables] == ["potentials", "levels"]
        assert [s.name for s in r.scalars] == ["max_paired_gap", "ground_energy_v2"]
        assert len(r.tables[1].rows) == small_cfg.spectrum_levels
        assert r.passed

    def test_susy_check(self, small_cfg):
        r = so.run_susy_check(small_cfg)
        names = [t.name for t in r.tables]
        assert names == ["density_evolve_then_raise", "density_raise_then_evolve",
                         "deviation", "snapshots"]
        # stride 10 over 30 steps: samples at 0, 10, 20, 30
        n_samples = 4
        rows = r.tables[0].rows
        assert len(rows) == n_samples * small_cfg.grid_points
        assert rows.dtype.names == ("t", "x", "density")
        scalar = {s.name: s for s in r.scalars}
        assert scalar["fidelity_t0"].passed

    def test_eta_sweep(self, small_cfg):
        r = so.run_eta_sweep(small_cfg)
        surface, final = r.tables
        assert len(surface.rows) == 41 * 31
        assert surface.rows.dtype.names == ("eta", "t", "fidelity")
        assert len(final.rows) == 41
        assert final.rows.dtype.names == ("eta", "fidelity")
        scalar = {s.name: s.value for s in r.scalars}
        assert scalar["argmax_eta_positive"] == pytest.approx(1.0, abs=0.1 + 1e-12)
        assert scalar["argmax_eta_negative"] == pytest.approx(-1.0, abs=0.1 + 1e-12)

    def test_eta_sweep_stream_matches_one_state_per_run(self, small_cfg):
        # the one stacked momentum-space stream gives every fidelity bit for
        # bit as a momentum reference run plus one momentum run per eta would
        cfg = dataclasses.replace(small_cfg, eta_points=9)
        surface = so.run_eta_sweep(cfg).tables[0].rows["fidelity"].reshape(9, -1)
        run = setup(cfg)
        W, grid = run.W, run.grid
        plan = so.TrotterPlan(2.0 * np.pi / cfg.steps_per_period,
                              cfg.steps_per_period * cfg.evolution_periods)
        raised = so.to_momentum(so.apply_B_dag(run.psi0, W))
        reference = [so.to_momentum(so.normalized(so.apply_B_dag(so.to_position(s), W)))
                     for _, s in so.trotter_states(so.to_momentum(run.psi0),
                                                   so.partner_potential(W, 1, grid),
                                                   plan)]
        for i, eta in enumerate(np.linspace(cfg.eta_min, cfg.eta_max, 9)):
            v_eta = so.eta_potential(W, float(eta), grid)
            alone = [so.fidelity(reference[j], s)
                     for j, s in so.trotter_states(raised, v_eta, plan)]
            np.testing.assert_array_equal(surface[i], alone)

    @pytest.mark.parametrize("n", [512, 513])
    def test_eta_sweep_matches_position_space_fidelities(self, small_cfg, n):
        # Parseval: the momentum-space surface is the position-space one up
        # to rounding
        cfg = dataclasses.replace(small_cfg, grid_points=n, eta_points=9)
        surface = so.run_eta_sweep(cfg).tables[0].rows["fidelity"].reshape(9, -1)
        run = setup(cfg)
        W, grid = run.W, run.grid
        plan = so.TrotterPlan(2.0 * np.pi / cfg.steps_per_period,
                              cfg.steps_per_period * cfg.evolution_periods)
        etas = np.linspace(cfg.eta_min, cfg.eta_max, 9)
        raised = so.apply_B_dag(run.psi0, W)
        stack = so.WaveFunction(grid, np.vstack([run.psi0.values] + [raised.values] * 9))
        family = PotentialField(grid, np.vstack(
            [so.partner_potential(W, 1, grid).values, so.eta_potential(W, etas, grid).values]))
        position = np.empty_like(surface)
        for j, state in so.trotter_states(stack, family, plan):
            reference = so.normalized(so.apply_B_dag(state.with_values(state.values[0]), W))
            position[:, j] = so.fidelity(reference, state)[1:]
        np.testing.assert_allclose(surface, position, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("block", [1, 7, 31, 64])
    def test_eta_sweep_blocks_match_a_per_step_reference(self, small_cfg, block,
                                                         monkeypatch):
        # 31 samples: blocks of 7 leave a partial last block, 64 is one partial block
        monkeypatch.setattr(experiments, "_REFERENCE_BLOCK", block)
        cfg = dataclasses.replace(small_cfg, eta_points=5)
        surface = so.run_eta_sweep(cfg).tables[0].rows["fidelity"].reshape(5, -1)
        run = setup(cfg)
        W, grid = run.W, run.grid
        plan = so.TrotterPlan(2.0 * np.pi / cfg.steps_per_period,
                              cfg.steps_per_period * cfg.evolution_periods)
        family = so.eta_potential(W, np.linspace(cfg.eta_min, cfg.eta_max, 5), grid)
        raised = so.WaveFunction(grid, np.vstack([so.apply_B_dag(run.psi0, W).values] * 5))
        path_one = so.trotter_states(so.to_momentum(run.psi0),
                                     so.partner_potential(W, 1, grid), plan)
        per_step = np.empty_like(surface)
        for (j, one), (_, state) in zip(path_one, so.trotter_states(
                so.to_momentum(raised), family, plan)):
            reference = so.to_momentum(so.normalized(so.apply_B_dag(so.to_position(one), W)))
            per_step[:, j] = so.fidelity(reference, state)
        assert surface.shape[1] % 7 and surface.shape[1] < 64
        np.testing.assert_array_equal(surface, per_step)

    def test_eta_sweep_transforms_the_reference_once_per_block(self, small_cfg,
                                                              monkeypatch):
        # each momentum stream costs two transforms a step; B+ on the reference
        # costs four stacked transforms a block of 8 samples, not four per sample
        block = 8
        monkeypatch.setattr(experiments, "_REFERENCE_BLOCK", block, raising=False)
        # two row blocks of the family stack, 20 and 21 rows, on any machine
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        rows = []  # rows of each transform; append is atomic across threads

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                rows.append(np.asarray(a).size // np.shape(a)[-1])
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        so.run_eta_sweep(small_cfg)
        steps = small_cfg.steps_per_period * small_cfg.evolution_periods
        # the family: two a step but the last, and none at set-up, where B+ psi0 is one row
        assert sum(r for r in rows if r > block) == (2 * steps - 1) * small_cfg.eta_points
        # one-row transforms: the reference stream, B+ psi0, and the set-up of both streams
        assert rows.count(1) <= 2 * steps + 5
        blocks = sum(1 for r in rows if 1 < r <= block)
        assert blocks <= 4 * math.ceil((steps + 1) / block)

    def test_eta_sweep_takes_each_steps_fidelities_on_the_whole_sample(self, monkeypatch):
        # one call a step, on this thread: step 0 on the start state, each later step on
        # the whole (81, n) momentum stack that the family's row blocks formed together
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        fidelity, calls = experiments.fidelity, []

        def counted(reference, sample):
            calls.append((reference.values.shape, sample.values.shape, sample.representation,
                          threading.current_thread() is threading.main_thread()))
            return fidelity(reference, sample)

        monkeypatch.setattr(experiments, "fidelity", counted)
        so.run_eta_sweep(so.parse_config(None))
        assert calls == ([((2048,), (2048,), MOMENTUM, True)]
                         + [((2048,), (81, 2048), MOMENTUM, True)] * 180)

    def test_eta_sweep_frees_each_family_sample_before_the_next(self, small_cfg,
                                                               monkeypatch):
        # the family stream holds its carry and phases; the sweep must add one sample
        # to them, not two: the last one is gone by the time the next is yielded
        kernel, alive = experiments.trotter_states, []

        def watched(psi, V, plan, stride=1):
            stream = kernel(psi, V, plan, stride)
            del psi  # the kernel's own reference to the start goes at its first step
            if V.values.ndim == 1:  # the reference stream is not watched
                yield from stream
                return
            last = None
            for j, sample in stream:
                alive.append(last is not None and last() is not None)
                last = weakref.ref(sample.values)
                yield j, sample
                del sample

        monkeypatch.setattr(experiments, "trotter_states", watched)
        so.run_eta_sweep(small_cfg)
        steps = small_cfg.steps_per_period * small_cfg.evolution_periods
        assert alive == [False] * (steps + 1)

    def test_bdag(self, small_cfg):
        # the bench needs the full grid: its lens chirps are undersampled at 512
        r = so.run_bdag_validation(dataclasses.replace(small_cfg, grid_points=2048))
        assert [t.name for t in r.tables] == ["profiles", "errors"]
        assert [n for n, _ in r.texts] == ["arm_derivative_layout",
                                           "arm_multiplication_layout"]
        cases = [row[0] for row in r.tables[1].rows]
        assert cases[:2] == ["reference", "reduced"]
        assert len(cases) == 2 + small_cfg.battery_size
        assert r.passed

    def test_bdag_calibrates_each_focal_length_once(self, small_cfg, monkeypatch):
        calls = {"_arm_trains": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(optics, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(optics, name, counted)
        so.run_bdag_validation(small_cfg)
        # the reference and the reduced focal length, each calibrated once
        assert calls == {"_arm_trains": 2}

    def test_bench_run_keeps_the_callers_hash(self, small_cfg):
        # the bench frame is built at omega = 1, but provenance is the caller's
        cfg = dataclasses.replace(small_cfg, omega=2.0)
        assert so.run_bdag_validation(cfg).config_hash == config_hash(cfg)

    def test_bdag_ratio_fails_with_its_reference(self, small_cfg):
        # 64 points undersample the bench; a ratio against the broken
        # reference error must not pass on its own
        r = so.run_bdag_validation(dataclasses.replace(small_cfg, grid_points=64))
        scalar = {s.name: s for s in r.scalars}
        assert not scalar["rel_l2_reference"].passed
        assert scalar["battery_error_ratio"].value <= 10.0
        assert not scalar["battery_error_ratio"].passed

    def test_bdag_error_gates_fail_when_a_norm_overflows(self, small_cfg):
        # B+ psi0 passes 1e153 under this barrier, so its norm overflows to inf;
        # each relative L2 error reads nan and fails, not finite / inf = 0
        cfg = dataclasses.replace(small_cfg, x_center_x0=0.0, barrier_amplitude=1e154,
                                  grid_points=187)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            scalar = {s.name: s for s in so.run_bdag_validation(cfg).scalars}
        for name in ("rel_l2_reference", "rel_l2_reduced"):
            assert math.isnan(scalar[name].value) and not scalar[name].passed

    @pytest.mark.parametrize("n", [1408, 1440])
    def test_reference_lens_sampling_threshold(self, n):
        # the reference lens chirp exp(-i x^2 / 2 tau_f), tau_f = f/(k x0^2),
        # has local momentum a/tau_f at the aperture edge a; it is aliased once
        # that exceeds the grid's p_max = pi/dx, which happens between n = 1,408
        # (rel_l2_reference 1.37e-5) and n = 1,440 (9.52e-6)
        cfg = dataclasses.replace(so.parse_config(None), grid_points=n)
        k_x0_sq = 2.0 * math.pi / (cfg.wavelength_nm * 1e-9) * (cfg.x0_mm * 1e-3) ** 2
        edge = cfg.aperture_x0 * k_x0_sq / cfg.focal_length_m
        p_max = math.pi * n / (cfg.x_max_x0 - cfg.x_min_x0)
        gate = {s.name: s for s in so.run_bdag_validation(cfg).scalars}["rel_l2_reference"]
        assert gate.passed == (edge <= p_max) == (n == 1440)

    def test_trotter_convergence(self, small_cfg):
        r = so.run_trotter_convergence(small_cfg)
        assert [t.name for t in r.tables] == ["convergence_second",
                                              "convergence_first"]
        # ladder is the configured steps joined with the reference points 30, 60
        ns = [row[0] for row in r.tables[0].rows]
        assert ns == [8, 16, 30, 32, 60]
        assert [n for n, _ in r.texts] == ["train_layout"]
        scalar = {s.name: s for s in r.scalars}
        assert scalar["z_reference_m"].passed
        assert scalar["unit_roundtrip_error"].passed
        assert scalar["oracle_error_bound"].value <= 1e-8

    def test_trotter_convergence_errors_fall_with_the_step_count(self, small_cfg):
        for table in so.run_trotter_convergence(small_cfg).tables:
            rel_l2, infidelity = table.rows.rel_l2_error, table.rows.infidelity
            assert np.all(rel_l2 > 0), table.name
            assert np.all(np.diff(rel_l2) < 0), table.name
            # overlap error is quadratic in the state error, so it sits below
            assert np.all(infidelity < rel_l2), table.name

    def test_susy_check_raises_path_one_as_one_stack(self, small_cfg, monkeypatch):
        # B+ psi0 comes from setup; every sample of path one is raised at once
        calls = []

        def counted(psi, W):
            calls.append(psi.values.shape)
            return so.apply_B_dag(psi, W)

        monkeypatch.setattr(experiments, "apply_B_dag", counted)
        so.run_susy_check(small_cfg)
        assert calls == [(4, small_cfg.grid_points)]

    def test_bdag_runs_each_calibrated_bench_once(self, small_cfg, monkeypatch):
        # psi0 and the battery cross the reference bench as one stack, which
        # B+ also raises at once; the reduced bench takes psi0 alone
        calls = {"interferometric_B_dag": [], "apply_B_dag": []}
        for name in calls:
            def counted(psi, *args, _name=name, _fn=getattr(experiments, name)):
                calls[_name].append(psi.values.shape)
                return _fn(psi, *args)
            monkeypatch.setattr(experiments, name, counted)
        so.run_bdag_validation(small_cfg)
        n, stack = small_cfg.grid_points, (1 + small_cfg.battery_size, small_cfg.grid_points)
        assert calls == {"interferometric_B_dag": [stack, (n,)], "apply_B_dag": [stack]}

    def test_trotter_convergence_computes_each_state_once(self, small_cfg, monkeypatch):
        # one oracle reference, one two-row stream per n (both orders); the plate
        # train is checked against the ladder's own second-order T/60 state
        calls = {"trotter_evolve": 0, "exact_evolve": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        so.run_trotter_convergence(small_cfg)
        ladder = set(small_cfg.convergence_steps) | {30, 60}
        assert calls == {"trotter_evolve": len(ladder), "exact_evolve": 1}

    def test_run_all_order(self, small_cfg):
        results = run_all(small_cfg)
        assert [r.scenario for r in results] == sorted(SCENARIO_RUNNERS)


# every (scenario, metric, gate) of run_all(small_cfg): gate texts are CSV cells
GATE_TEXTS = [
    ("bdag-check", "rel_l2_reference", "value <= 1e-05"),
    ("bdag-check", "max_pointwise_reference", "value <= 1e-05"),
    ("bdag-check", "infidelity_reference", "value <= 1e-08"),
    ("bdag-check", "rel_l2_reduced", "value <= 0.001"),
    ("bdag-check", "fom_reference", "value >= 2500.0"),
    ("bdag-check", "fom_reduced", "2000.0 <= value <= 3000.0"),
    ("bdag-check", "battery_error_ratio", "value <= 10.0 and rel_l2_reference passed"),
    ("eta-sweep", "argmax_eta_positive", "|value - 1| <= 0.10000000000000009"),
    ("eta-sweep", "argmax_eta_negative", "|value + 1| <= 0.10000000000000009"),
    ("eta-sweep", "peak_fidelity", "0.995 <= value <= 1.0"),
    ("spectrum", "max_paired_gap", "value <= 1e-06"),
    ("spectrum", "ground_energy_v2", "|value| <= 1e-06"),
    ("susy-check", "fidelity_t0", "0.999999999999 <= value <= 1.0"),
    ("susy-check", "fidelity_final", "0.9953 <= value <= 0.9993"),
    ("susy-check", "peak_deviation", "0.0001 <= value <= 0.03162277660168379"),
    ("trotter-convergence", "fidelity_n30", "0.9993 <= value <= 1.0"),
    ("trotter-convergence", "slope_second", "-2.4 <= value <= -1.6"),
    ("trotter-convergence", "slope_first", "-1.3 <= value <= -0.7"),
    ("trotter-convergence", "l2_error_ratio_n30_n60", "3.0 <= value <= 5.0"),
    ("trotter-convergence", "z_reference_m", "1.2365 <= value <= 1.2375"),
    ("trotter-convergence", "unit_roundtrip_error", "value <= 1e-12"),
    ("trotter-convergence", "train_deviation", "value <= 1e-10"),
    ("trotter-convergence", "oracle_error_bound", "value <= 1e-08"),
]

# the fidelity windows squared, as fidelity_convention = modulus_squared prints them
SQUARED_GATE_TEXTS = {
    ("eta-sweep", "peak_fidelity"): "0.990025 <= value <= 1.0",
    ("susy-check", "fidelity_t0"): "0.999999999998 <= value <= 1.0",
    ("susy-check", "fidelity_final"): "0.9906220899999999 <= value <= 0.99860049",
    ("trotter-convergence", "fidelity_n30"): "0.99860049 <= value <= 1.0",
}


@pytest.mark.parametrize("convention", ["modulus", "modulus_squared"])
def test_gate_texts_are_pinned(small_cfg, convention):
    squared = {} if convention == "modulus" else SQUARED_GATE_TEXTS
    cfg = dataclasses.replace(small_cfg, fidelity_convention=convention)
    got = [(r.scenario, s.name, s.gate) for r in run_all(cfg) for s in r.scalars]
    assert got == [(scenario, metric, squared.get((scenario, metric), gate))
                   for scenario, metric, gate in GATE_TEXTS]


def test_convention_squares_values_not_verdicts(small_cfg):
    squared_cfg = dataclasses.replace(small_cfg,
                                      fidelity_convention="modulus_squared")
    plain = {s.name: s for s in so.run_susy_check(small_cfg).scalars}
    squared = {s.name: s for s in so.run_susy_check(squared_cfg).scalars}
    for name in ("fidelity_t0", "fidelity_final"):
        assert squared[name].value == pytest.approx(plain[name].value ** 2,
                                                    rel=1e-12)
        assert squared[name].passed == plain[name].passed
        assert squared[name].gate == SQUARED_GATE_TEXTS["susy-check", name]
    # non-fidelity metrics are untouched
    assert squared["peak_deviation"].value == plain["peak_deviation"].value
    assert squared["peak_deviation"].gate == plain["peak_deviation"].gate


class TestEmitCsv:
    def test_files_and_provenance(self, small_cfg, tmp_path):
        r = so.run_spectrum(small_cfg)
        paths = so.emit_csv(r, tmp_path / "out")
        names = [p.name for p in paths]
        assert names == ["spectrum_summary.csv", "spectrum_potentials.csv",
                         "spectrum_levels.csv"]
        head = (tmp_path / "out" / "spectrum_levels.csv").read_text().splitlines()
        assert head[0] == "# scenario: spectrum"
        assert head[1] == f"# config_hash: {config_hash(small_cfg)}"
        assert head[2] == f"# tool_version: {so.__version__}"
        assert head[3].startswith("# defaulted_keys: ")
        assert head[5] == ("# eigensolver: spectral, V1 on 256 and V2 on 256 "
                           "of 512 points")

    def test_byte_identical_reruns(self, small_cfg, tmp_path):
        for sub in ("a", "b"):
            so.emit_csv(so.run_susy_check(small_cfg), tmp_path / sub)
        for name in ("susy-check_summary.csv", "susy-check_deviation.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    @pytest.mark.parametrize("scenario", ["spectrum", "trotter-convergence",
                                          "bdag-check", "eta-sweep"])
    def test_byte_identical_oracle_reruns(self, small_cfg, tmp_path, scenario):
        runs = [so.emit_csv(SCENARIO_RUNNERS[scenario](small_cfg), tmp_path / sub)
                for sub in ("a", "b")]
        for a, b in zip(*runs):
            assert a.read_bytes() == b.read_bytes()

    def test_numeric_roundtrip(self, small_cfg, tmp_path):
        so.emit_csv(so.run_spectrum(small_cfg), tmp_path)
        text = (tmp_path / "spectrum_levels.csv").read_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
        assert data.shape == (small_cfg.spectrum_levels, len(header))
        assert data[0, header.index("E2_n")] == pytest.approx(0.0, abs=1e-6)

    def test_unsafe_cell_rejected(self):
        # a table refuses the cell when built, so no result can carry it to a file
        for cell in ("a,b", "a\nb"):
            rows = np.rec.fromarrays([np.array([cell])], names=["label"])
            with pytest.raises(ConfigurationError, match="not CSV-safe"):
                Table("odd", rows)

    def test_unsafe_gate_text_rejected(self):
        # the summary's text cells are refused like any table's, when the gate is built
        with pytest.raises(ConfigurationError, match="not CSV-safe"):
            GatedScalar("probe", 1.0, "value <= 2.0, strictly", True)

    def test_golden_formatting(self, tmp_path):
        # the expected text is what the former per-cell formatter wrote
        rows = np.rec.fromarrays([
            np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1e22]),
            np.array([-3, 0, 1, 7, 42, -1, 2**62], dtype=np.int64),
            np.array([True, False, True, True, False, False, True]),
            np.array(["a", "b c", "reference", "battery_0", "x", "é", ""]),
        ], names=["value", "count", "flag", "label"])
        result = ScenarioResult(
            scenario="golden", config_hash="0" * 12, tool_version="0.0.0",
            defaulted_keys=(), scalars=(), tables=(Table("cells", rows),))
        so.emit_csv(result, tmp_path)
        text = (tmp_path / "golden_cells.csv").read_text(encoding="utf-8")
        assert text == (
            "# scenario: golden\n"
            "# config_hash: 000000000000\n"
            "# tool_version: 0.0.0\n"
            "# defaulted_keys: (none)\n"
            "value,count,flag,label\n"
            "-0.0,-3,true,a\n"
            "nan,0,false,b c\n"
            "inf,1,true,reference\n"
            "-inf,7,true,battery_0\n"
            "5e-324,42,false,x\n"
            "0.1,-1,false,é\n"
            "1e+22,4611686018427387904,true,\n")

    def test_repeated_special_floats_keep_their_repr(self, tmp_path, monkeypatch):
        # few distinct values in many rows, across blocks: each is formatted
        # once per table, keyed on its bits, so signed zeros and NaNs stay apart
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", 16)
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                            -2.5e-310, 0.1, 1e22])
        values = np.tile(special, 9)
        np.random.default_rng(2).shuffle(values)
        rows = np.rec.fromarrays([values, np.arange(values.size)], names=["v", "i"])
        result = ScenarioResult(
            scenario="special", config_hash="0" * 12, tool_version="0.0.0",
            defaulted_keys=(), scalars=(), tables=(Table("cells", rows),))
        so.emit_csv(result, tmp_path)
        lines = (tmp_path / "special_cells.csv").read_text(encoding="utf-8").splitlines()
        assert lines[5:] == [f"{v!r},{i}" for v, i in zip(values.tolist(), range(values.size))]

    def test_deduplicated_text_equals_row_by_row_text(self, monkeypatch):
        # a column is sorted whole only when its leading rows repeat; either
        # way each slice's text is what formatting it row by row gives
        monkeypatch.setattr(experiments, "_LEAD_ROWS", 64)
        plain = experiments._column_text
        formatted = []  # sizes of the arrays formatted when the cells are set up

        def counted(column):
            formatted.append(column.size)
            return plain(column)

        monkeypatch.setattr(experiments, "_column_text", counted)
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, 5e-324, 0.1, 1e22])
        rows = 4096
        columns = {
            # (column, its distinct values if they are formatted once each)
            "runs": (np.repeat(special, rows // special.size), special.size),
            "cycle": (np.tile(np.linspace(-1.0, 1.0, 16), rows // 16), 16),
            # repeats only past the leading rows: never sorted whole
            "late_cycle": (np.tile(np.linspace(-1.0, 1.0, 512), rows // 512), None),
            "distinct": (np.random.default_rng(3).random(rows), None),
        }
        for name, (column, distinct) in columns.items():
            formatted.clear()
            cells = experiments._column_cells(column)
            assert formatted == ([distinct] if distinct else []), name
            for part in (slice(0, 100), slice(1000, 3000), slice(4000, None)):
                assert cells(part) == plain(column[part])

    def test_a_failed_emission_leaves_the_previous_run(self, small_cfg, tmp_path,
                                                       monkeypatch):
        result = so.run_spectrum(small_cfg)
        so.emit_csv(result, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        rerun = dataclasses.replace(result, config_hash="f" * 12)
        opened = []

        def failing_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            opened.append(Path(path).name)
            if len(opened) == 2:  # the disk fills up while the second file is written
                with fh:
                    fh.write("# scenario: spectrum\n")
                raise OSError(28, "No space left on device")
            return fh

        monkeypatch.setattr(experiments, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            so.emit_csv(rerun, tmp_path)
        monkeypatch.delattr(experiments, "open")
        # the temporaries are hidden from the {scenario}_* pattern and removed
        assert len(opened) == 2
        assert not fnmatch.filter(opened, "spectrum_*")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        paths = so.emit_csv(rerun, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
        assert all(p.read_text().startswith(
            f"# scenario: spectrum\n# config_hash: {'f' * 12}\n") for p in paths)

    @staticmethod
    def _fail_the_second_rename(monkeypatch):
        replace = os.replace
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(13, "Permission denied")
            replace(src, dst)

        monkeypatch.setattr(experiments.os, "replace", failing_replace)

    def test_a_failed_rename_leaves_no_mix_of_runs(self, small_cfg, tmp_path, monkeypatch):
        result = so.run_spectrum(small_cfg)
        so.emit_csv(result, tmp_path)
        assert len(list(tmp_path.iterdir())) > 2
        rerun = dataclasses.replace(result, config_hash="f" * 12)
        self._fail_the_second_rename(monkeypatch)
        with pytest.raises(OSError, match="Permission denied"):
            so.emit_csv(rerun, tmp_path)
        monkeypatch.undo()
        left = sorted(tmp_path.iterdir())
        assert left and all(fnmatch.fnmatch(p.name, "spectrum_*") for p in left)
        hashes = {p.read_text().splitlines()[1] for p in left}
        assert hashes == {f"# config_hash: {result.config_hash}"}

    def test_a_failed_rename_exits_two_with_one_line(self, tmp_path, capsys, monkeypatch):
        self._fail_the_second_rename(monkeypatch)
        out = tmp_path / "r"
        assert cli.main(["spectrum", "--grid-points", "512", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write to --out {str(out)!r}: ") and err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("scenario", ["spectrum", "susy-check"])
    def test_header_and_row_count_follow_the_rows(self, small_cfg, tmp_path,
                                                  scenario):
        result = SCENARIO_RUNNERS[scenario](small_cfg)
        so.emit_csv(result, tmp_path)
        for table in result.tables:
            path = tmp_path / f"{result.scenario}_{table.name}.csv"
            lines = [l for l in path.read_text().splitlines()
                     if not l.startswith("#")]
            assert tuple(lines[0].split(",")) == table.rows.dtype.names
            assert len(lines) - 1 == len(table.rows)


def _child_env(**extra):
    """This environment, plus the package's source on PYTHONPATH, for a child interpreter."""
    path = (str(Path(so.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(p for p in path if p))


def _raising(error):
    """A stand-in for a function the run must not reach, or that must fail."""
    def stand_in(*args, **kwargs):
        raise error
    return stand_in


_CFG = "configuration error: {cfg}: "
_ETA_RANGE = _CFG + "eta_min, eta_max: eta range [%s] must be finite with eta_max > eta_min\n"
_STATE_WIDTH = (_CFG + "grid_points, x_min_x0, x_max_x0, state_width_x0, x_center_x0: width "
                "must lie between the grid spacing 0.0146484375 and the window length 30.0, "
                "got %s\n")
_K_X0 = _CFG + "wavelength_nm, x0_mm: k x0^2 must be a finite positive float, got %s m\n"
_UNITS = "configuration error: {0}, wavelength_nm, x0_mm: {0} = {1}: "
_GAIN = "interferometer gain %r lies outside [1e-292, inf)\n"
_NO_SPOT = "spot size of a zero field is undefined\n"
_UNREACHED = _raising(AssertionError("the run reached a step its config should have stopped"))

# One documented failure a row: the scenario and its arguments, the config (text, bytes
# or none), a (target, name, replacement) patch, the exit code and stderr, {cfg} for
# the config's path.  A stderr ending in a newline is all of it; any other is the prefix
# of one line whose tail varies with the numpy, Python or BLAS installed.
ERROR_EXITS = {
    "bad_config": ("spectrum", "gridpoints = 2048\n", None, 2,
                   "configuration error: {cfg}:1: unknown key 'gridpoints'\n"),
    # the value is named where it came from, the command line
    "bad_override": ("spectrum --grid-points 1", None, None, 2, "configuration error: "
                     "<defaults> with grid_points = 1: grid_points, x_min_x0, x_max_x0: n must "
                     "be at least 2, got 1\n"),
    # the scenario and the output directory come from the command line only
    **{f"run_choice_in_the_config-{key}": (
        "all", f"omega = 1.0\n{key} = {value}\n", None, 2,
        f"configuration error: {{cfg}}:2: unknown key {key!r}\n")
       for key, value in [("scenario", "spectrum"), ("out_dir", "elsewhere")]},
    # a file that does not decode is refused like one that cannot be opened
    "not_utf8": ("spectrum", b"\xff\xfe=1\n", None, 2,
                 "configuration error: cannot read config {cfg!r}: "),
    "eta_range_beyond_its_lattice": ("eta-sweep", "eta_max = 1e300\n", None, 2, _CFG +
                                     "eta_min, eta_max, eta_points: eta grid [-2.0, 1e+300] "
                                     "with 81 points must contain -1, 0 and +1 exactly\n"),
    "eta_sweep_names_sigma_before_any_step": (
        "eta-sweep", "sigma_over_x0 = 0.3\n", (experiments, "trotter_states", _UNREACHED), 2,
        "configuration error: sigma_over_x0: eta family requires sigma = x0/2; got sigma = "
        "0.3 with x0/2 = 0.5\n"),
    **{f"names_each_bad_key-{name}": ("eta-sweep", text, None, 2, err)
       for name, text, err in [
           ("eta_min", "eta_min = -inf\n", _ETA_RANGE % "-inf, 2.0"),
           ("eta_max", "eta_max = inf\n", _ETA_RANGE % "-2.0, inf"),
           ("wide_state", "state_width_x0 = 1e300\n", _STATE_WIDTH % "1e+300"),
           ("narrow_state", "state_width_x0 = 1e-300\n", _STATE_WIDTH % "1e-300"),
           ("battery_seed", "battery_seed = -1\n", _CFG + "battery_size, battery_seed: "
            "battery seed must be non-negative, got -1\n"),
           # every problem, one line each
           ("five_keys", "grid_points = 1\nomega = -1.0\nx0_mm = 0.0\nparity_mode = mirror\n"
            "battery_size = 0\n", _CFG + "omega: omega must be positive, got -1.0\n"
            "{cfg}: grid_points, x_min_x0, x_max_x0: n must be at least 2, got 1\n"
            "{cfg}: battery_size, battery_seed: battery needs at least one state, got 0\n"
            "{cfg}: wavelength_nm, x0_mm: characteristic length must be positive, got 0.0\n"
            "{cfg}: focal_length_m, aperture_x0, parity_mode: parity_mode must be one of "
            "('ideal', 'fresnel'), got 'mirror'\n"),
           # k x0^2 overflows, or underflows to zero
           ("k_x0_overflows", "x0_mm = 1e300\n", _K_X0 % "inf"),
           ("k_x0_underflows", "x0_mm = 1e-300\n", _K_X0 % "0.0")]},
    # the first grid array would take 8 PB, so numpy fails before allocating
    "allocation_does_not_fit": ("spectrum --grid-points 1000000000000000", None, None, 3,
                                "out of memory: "),
    # the passivity bound puts alpha near 8e-303, below 1e-292, before any arm runs;
    # at 1e200 the derivative arm's ramp alpha x / tau_f is near 1e-199, so the field
    # after it squares to zero and the next gap has no spot size
    **{f"focal_length_of_{name}-{key}": ("bdag-check", f"grid_points = 512\n{key} = {f!r}\n",
                                         None, 2, _UNITS.format(key, repr(f)) + fault)
       for key in ("focal_length_m", "reduced_focal_length_m")
       for name, f, fault in [("1e_300_leaves_no_gain", 1e-300, _GAIN % 8.075234709448173e-303),
                              ("1e200_zeroes_the_arm_field", 1e200, _NO_SPOT)]},
    # tau_f = f/(k x0^2): the wavelength and x0 set it as much as f does
    **{f"unit_that_breaks_the_bench-{key}": (
        "bdag-check", f"grid_points = 512\n{key} = {value}\n", None, 2,
        _UNITS.format("focal_length_m", 0.8) + fault)
       for key, value, fault in [("x0_mm", 1e150, _GAIN % 6.460187767558538e-303),
                                 ("wavelength_nm", 1e300, _NO_SPOT)]},
    **{f"superpotential_with_non_finite_partners-{scenario}-{line.replace(' ', '')}": (
        scenario, f"{line}\n", None, 2, _CFG + "omega, barrier_amplitude, sigma_over_x0: "
        "partner potentials are not finite on the grid\n")
       for scenario in ("spectrum", "bdag-check")
       for line in ["barrier_amplitude = 1e300",  # W^2 overflows
                    "sigma_over_x0 = 1e-300",  # sigma^2 underflows: W(0) is NaN
                    "sigma_over_x0 = 1e300",  # sigma^2 overflows
                    "omega = 1e307"]},  # the trap's W^2 overflows at any barrier
    # bdag-check calibrates on a unit-width Gaussian; the grid keys are at fault
    **{f"grid_that_cannot_hold_the_unit_width-{scenario}-{name}": (
        scenario, text, None, 2, _CFG + f"grid_points, x_min_x0, x_max_x0: the grid spacing "
        f"{spacing!r} and the window length {length!r} must hold the unit width x0\n")
       for scenario in ("spectrum", "bdag-check")
       for name, text, spacing, length in [
           ("wide_spacing", "grid_points = 16\nstate_width_x0 = 2\n", 1.875, 30.0),
           # shorter than 1 x0, though it holds the packet and the aperture
           ("short_window", "x_min_x0 = -0.4\nx_max_x0 = 0.4\nx_center_x0 = 0\n"
            "state_width_x0 = 0.2\naperture_x0 = 0.3\n", 0.000390625, 0.8)]},
    # V is finite at A = 1e150 but H v overflows; no numpy warning precedes the error
    **{f"overflowing_hamiltonian-{scenario}": (
        scenario, "grid_points = 512\nbarrier_amplitude = 1e150\n", None, 3, "numerical failure: ")
       for scenario in ("spectrum", "trotter-convergence")},
    "ideal_parity_on_a_lattice_without_a_mirror": (
        "bdag-check", "x_min_x0 = -14\nx_max_x0 = 16\n", None, 2, "configuration error: "
        "parity_mode, grid_points, x_min_x0, x_max_x0: ideal parity needs a lattice that "
        "mirrors about x = 0; this grid mirrors at index 1911.4666666666667 of 2048\n"),
    "numerical_failure": ("trotter-convergence", "grid_points = 128\nconvergence_steps = "
                          "1,2,4\n", None, 3, "numerical failure: "),
    # at omega = 1e-300 B+ zeroes every sample of path one; the line counts them
    "zero_norm": ("susy-check", "grid_points = 512\nomega = 1e-300\n", None, 3,
                  "DegenerateStateError: cannot normalize: 181 of 181 rows have a zero or "
                  "non-finite norm\n"),
    # the runner adds 30 and 60, so "30, 60" can never hold the three points of a fit
    "ladder_of_two_step_counts_before_the_oracle": (
        "trotter-convergence", "convergence_steps = 30, 60\n",
        (experiments, "eigenbasis", _UNREACHED), 2, "configuration error: convergence_steps: "
        "with the forced 30 and 60 the ladder (30, 60) holds 2 step counts; a fit needs 3\n"),
    "eigensolver_fails": ("spectrum --grid-points 256", None, (np.linalg, "eigh", _raising(
        np.linalg.LinAlgError("Eigenvalues did not converge"))), 3,
        "numerical failure: eigensolver failed on 'V1': Eigenvalues did not converge\n"),
}


def _probe_runner(passed=True, warns=False, error=None, unsafe=False):
    """A spectrum runner that warns, raises or returns one gate, as asked."""
    def runner(cfg):
        if warns:
            warnings.warn("strained", so.ParaxialWarning)
        if error:
            raise error("probe")
        # an unsafe table is refused inside the runner, where it is built
        rows = np.rec.fromarrays([np.array(["a,b" if unsafe else "a"])], names=["label"])
        return ScenarioResult("spectrum", "0" * 12, so.__version__, (),
                              (GatedScalar("probe", 1.0, "value <= 2.0", passed),),
                              (Table("odd", rows),))
    return runner


_WARN = "[WARN] ParaxialWarning: strained\n"

# One probe runner a row, with or without --strict: the exit code and the whole stderr.
# Warnings fail a run only under --strict; a failing run prints them before its error.
PROBE_EXITS = {
    **{f"resolve_exit-{name}": (dict(passed=passed, warns=warns), strict, code, _WARN * warns)
       for name, passed, warns, strict, code in [
           ("passed", True, False, False, 0), ("passed-strict", True, False, True, 0),
           ("passed-warned", True, True, False, 0), ("failed", False, False, False, 1),
           ("failed-strict", False, False, True, 1), ("failed-warned", False, True, False, 1),
           ("failed-warned-strict", False, True, True, 1)]},
    "strict_flips_warned_run": (dict(passed=True, warns=True), True, 1, _WARN),
    "configuration_error_from_a_runner": (dict(error=ConfigurationError), False, 2,
                                          "configuration error: probe\n"),
    "unsafe_cell": (dict(unsafe=True), False, 2,
                    "configuration error: cell value 'a,b' is not CSV-safe\n"),
    **{f"other_simulation_errors-{error.__name__}": (dict(error=error), False, 3,
                                                     f"{error.__name__}: probe\n")
       for error in (so.ContractError, so.DegenerateStateError, so.SimulationError)},
    **{f"warns_then_fails-{error.__name__}": (dict(warns=True, error=error), False, code,
                                              f"{_WARN}{line}: probe\n")
       for error, code, line in [(so.NumericalError, 3, "numerical failure"),
                                 (ConfigurationError, 2, "configuration error")]},
}


class TestCli:
    def test_exit_zero_and_outputs(self, tmp_path, capsys):
        assert cli.main(["spectrum", "--out", str(tmp_path / "r")]) == 0
        assert "[PASS] spectrum/max_paired_gap" in capsys.readouterr().out
        assert (tmp_path / "r" / "spectrum_summary.csv").exists()

    def test_exit_one_on_gate_failure(self, tmp_path, capsys):
        assert cli.main(["spectrum", "--grid-points", "64", "--out", str(tmp_path / "r")]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_an_override_is_checked_in_place_of_the_file_value(self, tmp_path, capsys):
        # 29 points cannot hold the unit width x0, but --grid-points replaces them first
        cfg = tmp_path / "f.cfg"
        cfg.write_text("grid_points = 29\n")
        out = tmp_path / "r"
        assert cli.main(["spectrum", "--config", str(cfg), "--grid-points", "2048",
                         "--out", str(out)]) == 0
        head = (out / "spectrum_summary.csv").read_text().splitlines()
        defaulted = next(line for line in head if line.startswith("# defaulted_keys: "))
        assert "grid_points" not in defaulted and "omega" in defaulted
        with pytest.raises(ConfigurationError, match="grid_points"):
            so.parse_config(cfg)  # the file alone is still refused

    def test_a_coarse_grid_exits_two_without_a_traceback_in_a_child_process(self, tmp_path):
        # 8 points space the grid wider than the packet, which setup rejects
        # before any runner starts
        proc = subprocess.run([sys.executable, "-m", "susyoptics", "spectrum", "--grid-points",
                               "8", "--out", str(tmp_path / "r")],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: ")
        assert "Traceback" not in proc.stderr

    def test_the_cli_module_runs_as_the_package_does(self, tmp_path):
        runs = {}
        for module in ("susyoptics", "susyoptics.cli"):
            out = tmp_path / module
            proc = subprocess.run(
                [sys.executable, "-m", module, "spectrum", "--grid-points", "256",
                 "--out", str(out)], capture_output=True, text=True, env=_child_env())
            runs[module] = proc.returncode, {p.name: p.read_bytes() for p in out.iterdir()}
        assert runs["susyoptics.cli"] == runs["susyoptics"]
        assert len(runs["susyoptics"][1]) == 3

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_eta_sweep_csvs_do_not_depend_on_the_core_count(self, small_cfg, tmp_path):
        # the 41-row family stack runs in row blocks on every usable CPU, and
        # on one thread in a child pinned to one CPU
        cfg = tmp_path / "small.cfg"
        cfg.write_text(serialize_config(small_cfg))
        child = ("import os, sys\n"
                 "if sys.argv[1] == 'pinned':\n"
                 "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                 "from susyoptics import cli, evolution\n"
                 "code = cli.main(['eta-sweep', '--config', sys.argv[2], '--out', 'out'])\n"
                 "print('blocks', len(evolution._row_blocks(41)), file=sys.stderr)\n"
                 "sys.exit(code)\n")
        blocks, codes = {}, set()
        for mode in ("pinned", "free"):
            (tmp_path / mode).mkdir()
            proc = subprocess.run([sys.executable, "-c", child, mode, str(cfg)],
                                  cwd=tmp_path / mode, capture_output=True, text=True,
                                  env=_child_env())
            codes.add(proc.returncode)  # 1: the small grid fails the peak gate
            blocks[mode] = int(proc.stderr.split()[-1])
        assert codes in ({0}, {1})
        assert blocks == {"pinned": 1, "free": min(len(os.sched_getaffinity(0)), 5)}
        free, pinned = (tmp_path / mode / "out" for mode in ("free", "pinned"))
        names = sorted(p.name for p in free.iterdir())
        assert names == sorted(p.name for p in pinned.iterdir())
        for name in names:
            assert (free / name).read_bytes() == (pinned / name).read_bytes()

    def test_oracle_csvs_are_byte_identical_across_processes(self, tmp_path):
        # the eigensolves change in their last bits with the BLAS thread count (these
        # five CSVs differ between 1 and 2 threads), so identity holds at a fixed count
        child = ("import sys\nfrom susyoptics import cli\n"
                 "sys.exit(max([cli.main([s, '--grid-points', '512', '--out', 'out'])\n"
                 "              for s in ('spectrum', 'trotter-convergence')]))\n")
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            proc = subprocess.run([sys.executable, "-c", child], cwd=tmp_path / run,
                                  capture_output=True, text=True,
                                  env=_child_env(OPENBLAS_NUM_THREADS="1"))
            assert proc.returncode == 0, proc.stderr
        a, b = (tmp_path / run / "out" for run in ("a", "b"))
        oracle = ["spectrum_levels.csv", "spectrum_summary.csv",
                  "trotter-convergence_convergence_first.csv",
                  "trotter-convergence_convergence_second.csv",
                  "trotter-convergence_summary.csv"]
        assert set(oracle) <= {p.name for p in a.iterdir()}
        for name in oracle:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_all_writes_nothing_when_a_later_result_is_unsafe(
            self, small_cfg, tmp_path, capsys, monkeypatch):
        # trotter-convergence runs last, after every other scenario succeeded
        def unsafe_runner(cfg):
            rows = np.rec.fromarrays([np.array(["a,b"])], names=["label"])
            return dataclasses.replace(so.run_spectrum(cfg),
                                       scenario="trotter-convergence",
                                       tables=(Table("odd", rows),))

        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "trotter-convergence", unsafe_runner)
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text(serialize_config(small_cfg))
        out = tmp_path / "r"
        assert cli.main(["all", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "not CSV-safe" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_same_physics_writes_the_same_bytes_anywhere(self, small_cfg, tmp_path, capsys):
        # every file of `all --out A` equals that of its own scenario's run into B/<name>
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text(serialize_config(small_cfg))
        cli.main(["all", "--config", str(cfg_file), "--out", str(tmp_path / "A")])
        singles = {}
        for name in SCENARIO_RUNNERS:
            out = tmp_path / "B" / name
            cli.main([name, "--config", str(cfg_file), "--out", str(out)])
            singles.update((p.name, p) for p in out.iterdir())
        capsys.readouterr()
        together = {p.name: p for p in (tmp_path / "A").iterdir()}
        assert len(together) == 20 and sorted(together) == sorted(singles)
        for name, path in together.items():
            assert path.read_bytes() == singles[name].read_bytes(), name

    def test_all_prints_scenarios_in_run_all_order(self, small_cfg, tmp_path, capsys):
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text(serialize_config(small_cfg))
        assert cli.main(["all", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) in (0, 1)
        printed = [line.split("] ", 1)[1].split("/", 1)[0]
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[")]
        expected = [r.scenario for r in run_all(small_cfg)]
        assert list(dict.fromkeys(printed)) == expected

    @pytest.mark.parametrize("scenario,line", [
        ("trotter-convergence", "wavelength_nm = 1e300"),
        ("bdag-check", "focal_length_m = 1e-160"),
        ("bdag-check", "reduced_focal_length_m = 1e-160"),
    ])
    def test_a_vanishing_gap_warns_and_the_gates_decide(self, tmp_path, capsys, scenario, line):
        # each gap is so short against the spot that (spot/z)^2 overflows a float
        cfg = tmp_path / "gap.cfg"
        cfg.write_text(f"grid_points = 512\n{line}\n")
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code in (0, 1)
        assert "[WARN] ParaxialWarning: paraxial ratio" in capsys.readouterr().err

    def test_exit_two_when_out_cannot_be_created(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "r"
        assert cli.main(["bdag-check", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write to --out {str(out)!r}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    def test_ideal_parity_on_a_window_that_mirrors_about_the_axis(self, tmp_path, capsys):
        # [-14, 16) is not centred on x = 0, but at 2040 points its lattice mirrors there
        cfg = tmp_path / "offset.cfg"
        cfg.write_text("x_min_x0 = -14\nx_max_x0 = 16\ngrid_points = 2040\n")
        assert cli.main(["bdag-check", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 7

    @pytest.mark.parametrize("aperture,codes", [(0.01, (2,)), (0.02, (0, 1))])
    def test_an_aperture_under_one_grid_spacing_is_named(self, tmp_path, capsys,
                                                          aperture, codes):
        # the default spacing is 30/2048 = 0.0146 x0
        cfg = tmp_path / "aperture.cfg"
        cfg.write_text(f"aperture_x0 = {aperture}\n")
        code = cli.main(["bdag-check", "--config", str(cfg), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code in codes
        if code == 2:
            assert err == (f"configuration error: {cfg}: aperture_x0: 0.01 is narrower than "
                           "the grid spacing 0.0146484375 set by x_min_x0, x_max_x0 and "
                           "grid_points\n")

    @pytest.mark.parametrize("argv,config,patch,code,expected", ERROR_EXITS.values(),
                             ids=ERROR_EXITS)
    def test_an_error_exit_prints_its_line_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, argv, config, patch, code, expected):
        cfg, out = tmp_path / "run.cfg", tmp_path / "r"
        argv = [*argv.split(), "--out", str(out)]
        if config is not None:
            (cfg.write_bytes if isinstance(config, bytes) else cfg.write_text)(config)
            argv += ["--config", str(cfg)]
        if patch:
            monkeypatch.setattr(*patch)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        expected = expected.format(cfg=str(cfg))
        if expected.endswith("\n"):
            assert captured.err == expected
        else:  # a prefix of the one line
            assert captured.err.startswith(expected) and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("probe,strict,code,expected", PROBE_EXITS.values(),
                             ids=PROBE_EXITS)
    def test_a_probe_runner_exits_as_documented(self, tmp_path, capsys, monkeypatch,
                                                probe, strict, code, expected):
        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "spectrum", _probe_runner(**probe))
        out = tmp_path / "r"
        assert cli.main(["spectrum", *["--strict"] * strict, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == expected
        # a run that completes prints its gates and writes its files; a failed one neither
        assert (captured.out == "" and not out.exists()) == (code >= 2)
