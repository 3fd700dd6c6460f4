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
        calls = {"alpha_passivity_bound": 0, "_arm_trains": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(optics, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(optics, name, counted)
        so.run_bdag_validation(small_cfg)
        # the reference and the reduced focal length, each calibrated once
        assert calls == {"alpha_passivity_bound": 2, "_arm_trains": 2}

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


class TestCli:
    def test_exit_zero_and_outputs(self, tmp_path, capsys):
        code = cli.main(["spectrum", "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] spectrum/max_paired_gap" in out
        assert (tmp_path / "r" / "spectrum_summary.csv").exists()

    def test_exit_one_on_gate_failure(self, tmp_path, capsys):
        code = cli.main(["spectrum", "--grid-points", "64",
                         "--out", str(tmp_path / "r")])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gridpoints = 2048\n")
        code = cli.main(["spectrum", "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exit_two_on_bad_override(self, tmp_path, capsys):
        code = cli.main(["spectrum", "--grid-points", "1",
                         "--out", str(tmp_path / "r")])
        assert code == 2
        # the value is named where it came from, the command line
        assert capsys.readouterr().err.startswith(
            "configuration error: <defaults> with grid_points = 1: grid_points, ")

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

    @pytest.mark.parametrize("line", ["scenario = spectrum", "out_dir = elsewhere"])
    def test_exit_two_on_a_run_choice_in_the_config(self, tmp_path, capsys, line):
        # the scenario and the output directory come from the command line only
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"omega = 1.0\n{line}\n")
        code = cli.main(["all", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}:2: unknown key {line.split()[0]!r}\n")

    def test_exit_two_when_a_runner_rejects_the_config(self, tmp_path):
        # 8 points space the grid wider than the packet, which setup rejects
        # before any runner starts
        src = Path(so.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "susyoptics", "spectrum", "--grid-points", "8",
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: ")
        assert "Traceback" not in proc.stderr

    def test_exit_two_on_a_config_that_is_not_utf8(self, tmp_path, capsys):
        # a file that does not decode is refused like one that cannot be opened
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe=1\n")
        out = tmp_path / "r"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read config {str(cfg)!r}: ")
        assert err.count("\n") == 1 and not out.exists()

    def test_the_cli_module_runs_as_the_package_does(self, tmp_path):
        src = Path(so.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        runs = {}
        for module in ("susyoptics", "susyoptics.cli"):
            out = tmp_path / module
            proc = subprocess.run(
                [sys.executable, "-m", module, "spectrum", "--grid-points", "256",
                 "--out", str(out)], capture_output=True, text=True, env=env)
            runs[module] = proc.returncode, {p.name: p.read_bytes() for p in out.iterdir()}
        assert runs["susyoptics.cli"] == runs["susyoptics"]
        assert len(runs["susyoptics"][1]) == 3

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_eta_sweep_csvs_do_not_depend_on_the_core_count(self, small_cfg, tmp_path):
        # the 41-row family stack runs in row blocks on every usable CPU, and
        # on one thread in a child pinned to one CPU
        cfg = tmp_path / "small.cfg"
        cfg.write_text(serialize_config(small_cfg))
        src = Path(so.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
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
                                  env=env)
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
        src = Path(so.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        child = ("import sys\nfrom susyoptics import cli\n"
                 "sys.exit(max([cli.main([s, '--grid-points', '512', '--out', 'out'])\n"
                 "              for s in ('spectrum', 'trotter-convergence')]))\n")
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            proc = subprocess.run([sys.executable, "-c", child], cwd=tmp_path / run,
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        a, b = (tmp_path / run / "out" for run in ("a", "b"))
        oracle = ["spectrum_levels.csv", "spectrum_summary.csv",
                  "trotter-convergence_convergence_first.csv",
                  "trotter-convergence_convergence_second.csv",
                  "trotter-convergence_summary.csv"]
        assert set(oracle) <= {p.name for p in a.iterdir()}
        for name in oracle:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_exit_two_on_configuration_error_from_a_runner(self, tmp_path, capsys,
                                                           monkeypatch):
        def rejecting_runner(cfg):
            raise ConfigurationError("probe")

        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "spectrum", rejecting_runner)
        code = cli.main(["spectrum", "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == "configuration error: probe\n"

    def test_exit_two_and_no_file_on_an_unsafe_cell(self, tmp_path, capsys,
                                                     monkeypatch):
        def unsafe_runner(cfg):  # the unsafe table is refused inside the runner
            rows = np.rec.fromarrays([np.array(["a,b"])], names=["label"])
            return ScenarioResult(
                scenario="spectrum", config_hash="0" * 12,
                tool_version=so.__version__, defaulted_keys=(),
                scalars=(GatedScalar("probe", 1.0, "value <= 2.0", True),),
                tables=(Table("odd", rows),))

        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "spectrum", unsafe_runner)
        code = cli.main(["spectrum", "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "configuration error: cell value 'a,b' is not CSV-safe\n"
        assert captured.out == ""
        assert not (tmp_path / "r").exists()

    def test_all_writes_nothing_when_a_later_result_is_unsafe(
            self, small_cfg, tmp_path, capsys, monkeypatch):
        # trotter-convergence runs last, after every other scenario succeeded
        def unsafe_runner(cfg):
            rows = np.rec.fromarrays([np.array(["a,b"])], names=["label"])
            return dataclasses.replace(so.run_spectrum(cfg),
                                       scenario="trotter-convergence",
                                       tables=(Table("odd", rows),))

        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "trotter-convergence",
                            unsafe_runner)
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text(serialize_config(small_cfg))
        out = tmp_path / "r"
        code = cli.main(["all", "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        assert "not CSV-safe" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_exit_two_on_an_eta_range_beyond_its_lattice(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("eta_max = 1e300\n")
        code = cli.main(["eta-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "eta_min, eta_max, eta_points: " in capsys.readouterr().err

    def test_eta_sweep_names_sigma_before_any_step(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_stepping(*args, **kwargs):
            raise AssertionError("split-step kernel started")

        monkeypatch.setattr(experiments, "trotter_states", no_stepping)
        cfg = tmp_path / "sigma.cfg"
        cfg.write_text("sigma_over_x0 = 0.3\n")
        code = cli.main(["eta-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: sigma_over_x0: eta family requires sigma = x0/2")

    @pytest.mark.parametrize("text,keys", [
        ("eta_min = -inf\n", ["eta_min"]),
        ("eta_max = inf\n", ["eta_max"]),
        ("state_width_x0 = 1e300\n", ["state_width_x0"]),
        ("state_width_x0 = 1e-300\n", ["state_width_x0"]),
        ("battery_seed = -1\n", ["battery_seed"]),
        ("grid_points = 1\nomega = -1.0\nx0_mm = 0.0\nparity_mode = mirror\n"
         "battery_size = 0\n",
         ["grid_points", "omega", "x0_mm", "parity_mode", "battery_size"]),
        # k x0^2 overflows, or underflows to zero
        ("x0_mm = 1e300\n", ["wavelength_nm", "x0_mm"]),
        ("x0_mm = 1e-300\n", ["wavelength_nm", "x0_mm"]),
    ])
    def test_exit_two_names_each_bad_key(self, tmp_path, capsys, text, keys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = cli.main(["eta-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ")
        named = err.replace(str(cfg), "")
        for key in keys:
            assert key in named

    @pytest.mark.parametrize("error", [so.ContractError, so.DegenerateStateError,
                                       so.SimulationError])
    def test_exit_three_on_other_simulation_errors(self, tmp_path, capsys,
                                                   monkeypatch, error):
        def failing_runner(cfg):
            raise error("probe")

        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "spectrum", failing_runner)
        code = cli.main(["spectrum", "--out", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err == f"{error.__name__}: probe\n"

    def test_exit_three_when_an_allocation_does_not_fit(self, tmp_path, capsys):
        # the first grid array would take 8 PB, so numpy fails before allocating
        code = cli.main(["spectrum", "--grid-points", "1000000000000000",
                         "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_same_physics_writes_the_same_bytes_anywhere(self, small_cfg, tmp_path,
                                                         capsys):
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

    def test_all_prints_scenarios_in_run_all_order(self, small_cfg, tmp_path,
                                                   capsys):
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text(serialize_config(small_cfg))
        code = cli.main(["all", "--config", str(cfg_file),
                         "--out", str(tmp_path / "r")])
        assert code in (0, 1)
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
    def test_a_vanishing_gap_warns_and_the_gates_decide(self, tmp_path, capsys,
                                                         scenario, line):
        # each gap is so short against the spot that (spot/z)^2 overflows a float
        cfg = tmp_path / "gap.cfg"
        cfg.write_text(f"grid_points = 512\n{line}\n")
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code in (0, 1)
        assert "[WARN] ParaxialWarning: paraxial ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["focal_length_m", "reduced_focal_length_m"])
    def test_a_focal_length_of_1e_300_leaves_no_gain(self, tmp_path, capsys, key):
        # the passivity bound puts alpha near 8e-303, below 1e-292, before any arm runs
        cfg = tmp_path / "gap.cfg"
        cfg.write_text(f"grid_points = 512\n{key} = 1e-300\n")
        code = cli.main(["bdag-check", "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: {key} = 1e-300: interferometer gain ")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key", ["focal_length_m", "reduced_focal_length_m"])
    def test_a_focal_length_of_1e200_that_zeroes_the_arm_field_is_named(
            self, tmp_path, capsys, key):
        # the derivative arm's ramp alpha x / tau_f is near 1e-199, so the field
        # after it squares to zero and the next gap has no spot size
        cfg = tmp_path / "far.cfg"
        cfg.write_text(f"grid_points = 512\n{key} = 1e200\n")
        code = cli.main(["bdag-check", "--config", str(cfg), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"configuration error: {key} = 1e+200: "
                       "spot size of a zero field is undefined\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("error,code,line", [
        (so.NumericalError, 3, "numerical failure: probe"),
        (ConfigurationError, 2, "configuration error: probe"),
    ])
    def test_a_run_that_warns_then_fails_prints_its_warnings_first(
            self, tmp_path, capsys, monkeypatch, error, code, line):
        def warning_runner(cfg):
            warnings.warn("strained", so.ParaxialWarning)
            raise error("probe")

        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "spectrum", warning_runner)
        assert cli.main(["spectrum", "--out", str(tmp_path / "r")]) == code
        assert capsys.readouterr().err == f"[WARN] ParaxialWarning: strained\n{line}\n"

    def test_exit_two_when_out_cannot_be_created(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "r"
        code = cli.main(["bdag-check", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"cannot write to --out {str(out)!r}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""

    @pytest.mark.parametrize("scenario", ["spectrum", "bdag-check"])
    @pytest.mark.parametrize("line,key", [
        ("barrier_amplitude = 1e300", "barrier_amplitude"),  # W^2 overflows
        ("sigma_over_x0 = 1e-300", "sigma_over_x0"),  # sigma^2 underflows: W(0) is NaN
        ("sigma_over_x0 = 1e300", "sigma_over_x0"),  # sigma^2 overflows
        ("omega = 1e307", "omega"),  # the trap's W^2 overflows at any barrier
    ])
    def test_a_superpotential_with_non_finite_partners_is_named(
            self, tmp_path, capsys, scenario, line, key):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"{line}\n")
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"configuration error: {cfg}: omega, barrier_amplitude, sigma_over_x0: "
                       "partner potentials are not finite on the grid\n")
        assert key in err and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("scenario", ["spectrum", "bdag-check"])
    @pytest.mark.parametrize("text,spacing,length", [
        ("grid_points = 16\nstate_width_x0 = 2\n", 1.875, 30.0),  # spacing over 1 x0
        # a window shorter than 1 x0, though it holds the packet and the aperture
        ("x_min_x0 = -0.4\nx_max_x0 = 0.4\nx_center_x0 = 0\nstate_width_x0 = 0.2\n"
         "aperture_x0 = 0.3\n", 0.000390625, 0.8),
    ])
    def test_a_grid_that_cannot_hold_the_unit_width_is_named(
            self, tmp_path, capsys, scenario, text, spacing, length):
        # bdag-check calibrates on a unit-width Gaussian; the grid keys are at fault
        cfg = tmp_path / "g.cfg"
        cfg.write_text(text)
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: grid_points, x_min_x0, x_max_x0: the grid spacing "
            f"{spacing!r} and the window length {length!r} must hold the unit width x0\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("scenario", ["spectrum", "trotter-convergence"])
    def test_an_overflowing_hamiltonian_ends_in_one_line(self, tmp_path, capsys, scenario):
        # V is finite at A = 1e150 but H v overflows; no numpy warning precedes the error
        cfg = tmp_path / "big.cfg"
        cfg.write_text("grid_points = 512\nbarrier_amplitude = 1e150\n")
        code = cli.main([scenario, "--config", str(cfg), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_ideal_parity_on_a_window_that_mirrors_about_the_axis(self, tmp_path, capsys):
        # [-14, 16) is not centred on x = 0, but at 2040 points its lattice mirrors there
        cfg = tmp_path / "offset.cfg"
        cfg.write_text("x_min_x0 = -14\nx_max_x0 = 16\ngrid_points = 2040\n")
        code = cli.main(["bdag-check", "--config", str(cfg), "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 7

    def test_ideal_parity_on_a_lattice_without_a_mirror_stops(self, tmp_path, capsys):
        cfg = tmp_path / "offset.cfg"
        cfg.write_text("x_min_x0 = -14\nx_max_x0 = 16\n")
        code = cli.main(["bdag-check", "--config", str(cfg), "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "mirrors about x = 0" in captured.err
        assert captured.err.startswith(
            "configuration error: parity_mode, grid_points, x_min_x0, x_max_x0: ")
        assert captured.out == "" and not (tmp_path / "r").exists()

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

    def test_exit_three_on_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "sat.cfg"
        cfg.write_text("grid_points = 128\nconvergence_steps = 1,2,4\n")
        code = cli.main(["trotter-convergence", "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_a_zero_norm_is_one_error_line(self, tmp_path, capsys):
        # at omega = 1e-300 B+ zeroes every sample of path one; the line counts them
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("grid_points = 512\nomega = 1e-300\n")
        code = cli.main(["susy-check", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err == ("DegenerateStateError: cannot normalize: 181 of 181 "
                                           "rows have a zero or non-finite norm\n")

    def test_a_ladder_of_two_step_counts_is_named_before_the_oracle(self, tmp_path, capsys,
                                                                   monkeypatch):
        # the runner adds 30 and 60, so "30, 60" can never hold the three points of a fit
        monkeypatch.setattr(experiments, "eigenbasis", None)  # any solve would raise
        cfg = tmp_path / "short.cfg"
        cfg.write_text("convergence_steps = 30, 60\n")
        code = cli.main(["trotter-convergence", "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: convergence_steps: with the forced 30 and 60 the ladder "
            "(30, 60) holds 2 step counts; a fit needs 3\n")

    def test_strict_flips_warned_run(self, tmp_path, capsys, monkeypatch):
        result = ScenarioResult(
            scenario="spectrum", config_hash="0" * 12,
            tool_version=so.__version__, defaulted_keys=(),
            scalars=(GatedScalar("probe", 1.0, "value <= 2.0", True),),
            tables=())

        def warning_runner(cfg):
            warnings.warn("ray bundle leaves the paraxial cone",
                          so.ParaxialWarning)
            return result

        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "spectrum", warning_runner)
        relaxed = cli.main(["spectrum", "--out", str(tmp_path / "a")])
        strict = cli.main(["spectrum", "--strict", "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert relaxed == 0
        assert strict == 1

    @pytest.mark.parametrize("passed,warned,strict,expected", [
        (True, False, False, 0),
        (True, False, True, 0),
        (True, True, False, 0),
        (True, True, True, 1),
        (False, False, False, 1),
        (False, False, True, 1),
        (False, True, False, 1),
        (False, True, True, 1),
    ])
    def test_resolve_exit(self, passed, warned, strict, expected):
        assert cli.resolve_exit(passed, warned, strict) == expected
