import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import susyoptics as so
from susyoptics import ConfigurationError
from susyoptics.config import (
    CONFIG_KEYS,
    ExperimentConfig,
    config_hash,
    serialize_config,
    setup,
    validate,
)

FLOAT_KEYS = tuple(k for k in CONFIG_KEYS
                   if isinstance(getattr(ExperimentConfig(), k), float))


def test_defaults(tmp_path):
    cfg = so.parse_config(None)
    assert cfg.grid_points == 2048
    assert cfg.steps_per_period == 60
    assert cfg.convergence_steps == (15, 30, 60, 120, 240)
    # with no file every key is a default and says so
    assert set(cfg.defaulted_keys) == set(CONFIG_KEYS)
    assert validate(cfg) == []


def test_parse_file_tracks_defaulted_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\n\nomega = 2.0\ngrid_points=1024\n")
    cfg = so.parse_config(path)
    assert cfg.omega == 2.0
    assert cfg.grid_points == 1024
    assert "omega" not in cfg.defaulted_keys
    assert "grid_points" not in cfg.defaulted_keys
    assert "x0_mm" in cfg.defaulted_keys


def test_a_byte_order_mark_is_not_part_of_the_first_key(tmp_path):
    # editors on Windows save UTF-8 with a leading byte-order mark
    text = "grid_points = 512\nomega = 2.0\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    cfg, expected = so.parse_config(marked), so.parse_config(plain)
    # defaulted_keys is left out of the config's equality
    assert cfg == expected and cfg.defaulted_keys == expected.defaulted_keys


def test_parse_tuple_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("convergence_steps = 10, 20, 40\n")
    cfg = so.parse_config(path)
    assert cfg.convergence_steps == (10, 20, 40)


def test_unknown_key_is_error_with_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("omega = 1.0\ngridpoints = 512\n")
    with pytest.raises(ConfigurationError) as err:
        so.parse_config(path)
    msg = str(err.value)
    assert "gridpoints" in msg and ":2:" in msg


def test_all_problems_reported_at_once(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("x0_mm = fast\nomega = 1.0\nomega = 2.0\nbad line\nmystery = 3\n"
                    "x0_mm = 2.0\n")
    with pytest.raises(ConfigurationError) as err:
        so.parse_config(path)
    msg = str(err.value)
    assert "x0_mm" in msg          # unparseable float
    assert "duplicate" in msg      # repeated key
    assert f"{path}:6: duplicate key 'x0_mm' (first set on line 1)" in msg  # after a bad value
    assert "bad line" in msg       # missing separator
    assert "mystery" in msg        # unknown key


def test_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        so.parse_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize("override,fragment", [
    (dict(steps_per_period=0), "steps_per_period"),
    (dict(grid_points=1), "grid_points"),
    (dict(omega=-2.0), "omega"),
    (dict(x_min_x0=5.0, x_max_x0=-5.0), "domain"),
    (dict(x_center_x0=40.0), "x_center_x0"),
    (dict(convergence_steps=(30, 15)), "convergence_steps"),
    (dict(spectrum_levels=16), "spectrum_levels"),
    (dict(eta_points=80), "eta grid"),
    (dict(aperture_x0=20.0), "aperture_x0"),
    (dict(parity_mode="mirror"), "parity_mode"),
    (dict(fidelity_convention="overlap"), "fidelity_convention"),
    (dict(battery_size=0), "battery_size"),
    # a spacing over 1 x0 is the grid's fault, not also the unit-width packet's
    (dict(grid_points=29), "grid_points, x_min_x0, x_max_x0: the grid spacing 1.03"),
    (dict(state_width_x0=0.01), "state_width_x0, x_center_x0: width must lie between"),
    # the packet is not checked on a grid the config does not set, so a packet
    # fault beside a failed grid shows only once the grid is mended
    (dict(grid_points=29, state_width_x0=0.001),
     "grid_points, x_min_x0, x_max_x0: the grid spacing 1.03"),
    (dict(grid_points=1, x_center_x0=40.0), "grid_points, x_min_x0, x_max_x0: "),
    (dict(eta_points=2), "eta_points: must be >= 3, got 2"),
    # a spacing of exactly 1 x0 rounds one ulp past x0 on the built grid: the
    # grid is at fault, not the unit-width packet
    (dict(omega=5.0, grid_points=40, x_min_x0=-20.0, x_max_x0=20.0),
     "grid_points, x_min_x0, x_max_x0: the grid spacing 1.0"),
    (dict(omega=0.2, grid_points=30, x_min_x0=-15.0, x_max_x0=15.0),
     "grid_points, x_min_x0, x_max_x0: the grid spacing 1.0"),
])
def test_validate_rules(override, fragment):
    # each cause is reported once
    cfg = dataclasses.replace(so.parse_config(None), **override)
    problems = validate(cfg)
    assert len(problems) == 1, problems
    assert fragment in problems[0]


def test_eta_grid_must_hold_landmarks():
    # 81 points over [-2, 2] lands exactly on -1, 0, 1; 81 over [-2, 1.9] does not
    good = dataclasses.replace(so.parse_config(None), eta_max=2.0, eta_points=81)
    assert validate(good) == []
    bad = dataclasses.replace(so.parse_config(None), eta_max=1.9, eta_points=81)
    assert validate(bad)


@pytest.mark.parametrize("override", [dict(eta_max=1e300), dict(eta_min=-1e300),
                                      dict(eta_points=80)])
def test_eta_grid_landmarks_are_measured_in_eta(override):
    # a step of 1.25e298 puts every landmark within 1e-9 of lattice index 0,
    # yet the nearest lattice point to -1 is -2
    cfg = dataclasses.replace(so.parse_config(None), **override)
    assert any(p.startswith("eta_min, eta_max, eta_points: ") for p in validate(cfg))


def test_aperture_spacing_rule_waits_for_a_valid_grid():
    # one grid point has a spacing of the whole window; only grid_points is at fault
    cfg = dataclasses.replace(so.parse_config(None), grid_points=1)
    assert _names(validate(cfg), "grid_points")
    assert not _names(validate(cfg), "aperture_x0")


def test_packet_center_is_named_without_warnings():
    cfg = dataclasses.replace(so.parse_config(None), x_center_x0=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problems = validate(cfg)
    assert len(problems) == 1
    assert _names(problems, "x_center_x0")
    assert "center" in problems[0]


def test_serialize_roundtrip_fixed_point(tmp_path):
    cfg = so.parse_config(None)
    text = serialize_config(cfg)
    path = tmp_path / "canon.cfg"
    path.write_text(text)
    reparsed = so.parse_config(path)
    assert reparsed == cfg
    assert serialize_config(reparsed) == text
    # nothing was defaulted on the reparse: every key is in the file
    assert reparsed.defaulted_keys == ()


def test_serialize_covers_every_key():
    text = serialize_config(so.parse_config(None))
    keys = {line.split("=")[0].strip() for line in text.splitlines()
            if line and not line.startswith("#")}
    assert keys == set(CONFIG_KEYS)


def test_config_hash_tracks_content():
    base = so.parse_config(None)
    assert config_hash(base) == config_hash(so.parse_config(None))
    bumped = dataclasses.replace(base, omega=2.0)
    assert config_hash(bumped) != config_hash(base)
    assert len(config_hash(base)) == 12
    # provenance bookkeeping does not change identity
    marked = dataclasses.replace(base, defaulted_keys=())
    assert config_hash(marked) == config_hash(base)


def test_readme_table_lists_every_key():
    # the backticked names of the first column of README's configuration table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n| key ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    documented = [key for row in table for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert documented == list(CONFIG_KEYS)


def test_float_formats_preserved(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("omega = 0.30000000000000004\n")
    cfg = so.parse_config(path)
    assert cfg.omega == 0.1 + 0.2
    assert "0.30000000000000004" in serialize_config(cfg)


def _names(problems, key):
    return any(re.search(rf"\b{key}\b", p) for p in problems)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                   1e-300, 1e300])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_bad_float_is_named_or_builds(key, value):
    # objects only: no scenario runs, so this stays cheap
    cfg = dataclasses.replace(so.parse_config(None), **{key: value})
    if not _names(validate(cfg), key):
        setup(cfg)


@pytest.mark.parametrize("omega", [1.0, 2.0, 0.37])
def test_bench_frame_is_natural_frame_at_unit_omega(omega):
    cfg = dataclasses.replace(so.parse_config(None), omega=omega)
    run = setup(dataclasses.replace(cfg, omega=1.0))
    grid = so.make_grid(cfg.grid_points, cfg.x_min_x0, cfg.x_max_x0)
    assert run.grid == grid
    assert run.W == so.Superpotential(1.0, cfg.barrier_amplitude, cfg.sigma_over_x0)
    packet = so.gaussian_packet(grid, cfg.x_center_x0, cfg.state_width_x0)
    np.testing.assert_array_equal(run.psi0.values, packet.values)
    assert run.spec.aperture_m == cfg.aperture_x0 * run.units.x0_m
    assert run.reduced_spec.focal_length_m == cfg.reduced_focal_length_m


def test_setup_raises_every_problem():
    cfg = dataclasses.replace(so.parse_config(None), omega=-1.0, battery_size=0)
    with pytest.raises(ConfigurationError) as err:
        setup(cfg)
    assert str(err.value).splitlines() == validate(cfg)
    assert len(validate(cfg)) == 2
