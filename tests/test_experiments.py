import dataclasses
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import susyoptics as so
from susyoptics import ConfigurationError, cli, experiments
from susyoptics.config import setup
from susyoptics.experiments import SCENARIO_RUNNERS, GatedScalar, Table


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
        a = so.make_random_states(small_grid, 3, seed=11)
        b = so.make_random_states(small_grid, 3, seed=11)
        c = so.make_random_states(small_grid, 3, seed=12)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values, sb.values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_normalized_and_band_limited(self, small_grid):
        for state in so.make_random_states(small_grid, 4, seed=3):
            assert so.norm(state) == pytest.approx(1.0, abs=1e-12)
            phi = so.to_momentum(state)
            tail = np.abs(small_grid.p) > 12.0
            assert np.sum(np.abs(phi.values[tail]) ** 2) * small_grid.dp < 1e-12

    def test_count_validated(self, small_grid):
        with pytest.raises(ConfigurationError):
            so.make_random_states(small_grid, 0, seed=1)
        with pytest.raises(ConfigurationError):
            so.make_random_states(small_grid, 3, seed=-1)


class TestRunnerStructure:
    def test_spectrum(self, small_cfg):
        r = so.run_spectrum(small_cfg)
        assert r.scenario == "spectrum"
        assert r.config_hash == so.config_hash(small_cfg)
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
        family = so.PotentialField(grid, np.vstack(
            [so.partner_potential(W, 1, grid).values, so.eta_potential(W, etas, grid).values]))
        position = np.empty_like(surface)
        for j, state in so.trotter_states(stack, family, plan):
            reference = so.normalized(so.apply_B_dag(state.with_values(state.values[0]), W))
            position[:, j] = so.fidelity(reference, state)[1:]
        np.testing.assert_allclose(surface, position, rtol=0, atol=1e-14)

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

    def test_bench_run_keeps_the_callers_hash(self, small_cfg):
        # the bench frame is built at omega = 1, but provenance is the caller's
        cfg = dataclasses.replace(small_cfg, omega=2.0)
        assert so.run_bdag_validation(cfg).config_hash == so.config_hash(cfg)

    def test_bdag_ratio_fails_with_its_reference(self, small_cfg):
        # 64 points undersample the bench; a ratio against the broken
        # reference error must not pass on its own
        r = so.run_bdag_validation(dataclasses.replace(small_cfg, grid_points=64))
        scalar = {s.name: s for s in r.scalars}
        assert not scalar["rel_l2_reference"].passed
        assert scalar["battery_error_ratio"].value <= 10.0
        assert not scalar["battery_error_ratio"].passed

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
        assert scalar["oracle_capture_error"].value <= 1e-8

    def test_run_all_order(self, small_cfg):
        results = so.run_all(small_cfg)
        assert [r.scenario for r in results] == sorted(SCENARIO_RUNNERS)


def test_convention_squares_values_not_verdicts(small_cfg):
    squared_cfg = dataclasses.replace(small_cfg,
                                      fidelity_convention="modulus_squared")
    plain = {s.name: s for s in so.run_susy_check(small_cfg).scalars}
    squared = {s.name: s for s in so.run_susy_check(squared_cfg).scalars}
    for name in ("fidelity_t0", "fidelity_final"):
        assert squared[name].value == pytest.approx(plain[name].value ** 2,
                                                    rel=1e-12)
        assert squared[name].passed == plain[name].passed
    # non-fidelity metrics are untouched
    assert squared["peak_deviation"].value == plain["peak_deviation"].value


class TestEmitCsv:
    def test_files_and_provenance(self, small_cfg, tmp_path):
        r = so.run_spectrum(small_cfg)
        paths = so.emit_csv(r, tmp_path / "out")
        names = [p.name for p in paths]
        assert names == ["spectrum_summary.csv", "spectrum_potentials.csv",
                         "spectrum_levels.csv"]
        head = (tmp_path / "out" / "spectrum_levels.csv").read_text().splitlines()
        assert head[0] == "# scenario: spectrum"
        assert head[1] == f"# config_hash: {so.config_hash(small_cfg)}"
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

    @pytest.mark.parametrize("scenario", ["spectrum", "trotter-convergence"])
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

    def test_unsafe_cell_rejected(self, small_cfg, tmp_path):
        r = so.run_spectrum(small_cfg)
        for cell in ("a,b", "a\nb"):
            rows = np.rec.fromarrays([np.array([cell])], names=["label"])
            bad = dataclasses.replace(r, tables=(Table("odd", rows),))
            with pytest.raises(ConfigurationError):
                so.emit_csv(bad, tmp_path)
            assert list(tmp_path.iterdir()) == []

    def test_unsafe_gate_text_rejected(self, small_cfg, tmp_path):
        # the summary's text cells are checked like any table's
        r = so.run_spectrum(small_cfg)
        odd = GatedScalar("probe", 1.0, "value <= 2.0, strictly", True)
        with pytest.raises(ConfigurationError, match="not CSV-safe"):
            so.emit_csv(dataclasses.replace(r, scalars=(odd,)), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_golden_formatting(self, tmp_path):
        # the expected text is what the former per-cell formatter wrote
        rows = np.rec.fromarrays([
            np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1e22]),
            np.array([-3, 0, 1, 7, 42, -1, 2**62], dtype=np.int64),
            np.array([True, False, True, True, False, False, True]),
            np.array(["a", "b c", "reference", "battery_0", "x", "é", ""]),
        ], names=["value", "count", "flag", "label"])
        result = so.ScenarioResult(
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
        rows = np.rec.fromarrays([np.array(["a,b"])], names=["label"])
        result = so.ScenarioResult(
            scenario="spectrum", config_hash="0" * 12,
            tool_version=so.__version__, defaulted_keys=(),
            scalars=(GatedScalar("probe", 1.0, "value <= 2.0", True),),
            tables=(Table("odd", rows),))
        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "spectrum", lambda cfg: result)
        code = cli.main(["spectrum", "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "configuration error: cell value 'a,b' is not CSV-safe\n"
        assert captured.out == ""
        assert not (tmp_path / "r").exists()

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
                                       so.SamplingError])
    def test_exit_three_on_other_simulation_errors(self, tmp_path, capsys,
                                                   monkeypatch, error):
        def failing_runner(cfg):
            raise error("probe")

        monkeypatch.setitem(cli.SCENARIO_RUNNERS, "spectrum", failing_runner)
        code = cli.main(["spectrum", "--out", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err == f"{error.__name__}: probe\n"

    def test_all_prints_scenarios_in_run_all_order(self, small_cfg, tmp_path,
                                                   capsys):
        cfg_file = tmp_path / "small.cfg"
        cfg_file.write_text(so.serialize_config(small_cfg))
        code = cli.main(["all", "--config", str(cfg_file),
                         "--out", str(tmp_path / "r")])
        assert code in (0, 1)
        printed = [line.split("] ", 1)[1].split("/", 1)[0]
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[")]
        expected = [r.scenario for r in so.run_all(small_cfg)]
        assert list(dict.fromkeys(printed)) == expected

    def test_exit_three_on_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "sat.cfg"
        cfg.write_text("grid_points = 128\nconvergence_steps = 1,2,4\n")
        code = cli.main(["trotter-convergence", "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_strict_flips_warned_run(self, tmp_path, capsys, monkeypatch):
        result = so.ScenarioResult(
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
