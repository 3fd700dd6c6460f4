"""Property test of the command line's exit contract on hostile configs.

Any config, however odd its values, ends in one of the documented exit
codes: 0 all gates passed, 1 a gate failed, 2 a configuration problem, 3 a
simulation error.  Nothing escapes as a traceback, and a 2 names the config
key at fault.  Each draw sets one to four keys to edge values (NaN, the
infinities, signed zeros, the smallest subnormal, magnitudes near the float
limits, negatives) or ordinary ones, on a grid of 16 to 512 points, so no
draw allocates much; spectrum and bdag-check together build every domain
object a config sets.  trotter-convergence also draws its step ladder, at
most six ascending counts of at most 240.  susy-check and eta-sweep draw
their step counts, at most 12 steps a period over at most 2 periods, and
eta-sweep its family of at most 9 etas; their draws set zero to four other
keys on a grid of 30 to 512 points, so that some of them run.  No draw
steps for long.  An exit 3 prints one error line, after any [WARN] lines.
The --out path is drawn too: a fresh nested directory or an existing one
takes the files, and an existing regular file or a path below one is an
exit 2 that names --out in one line and leaves no file of the scenario.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyoptics import cli
from susyoptics.config import CONFIG_KEYS, ExperimentConfig

# each example is one small run of ~20 ms: the module stays near two seconds
BOUNDED = settings(max_examples=40, deadline=None, database=None)

DEFAULTS = ExperimentConfig()
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e154, 1e308,
         -1.0, -1e308)
floats = st.sampled_from(EDGES) | st.floats(-50.0, 50.0)
VALUES = {
    float: floats.map(repr),
    # an int key also meets float text, which the parser must refuse by name
    int: st.integers(-2, 40).map(str) | floats.map(repr),
    tuple: st.lists(st.integers(-2, 300), min_size=1, max_size=4).map(
        lambda ns: ", ".join(map(str, ns))) | floats.map(repr),
    str: st.sampled_from(("ideal", "fresnel", "modulus", "modulus_squared", "odd")),
}


# an ascending ladder; the runner adds 30 and 60, so a run takes at most 8 streams
LADDERS = st.lists(st.integers(-2, 240), min_size=1, max_size=6, unique=True).map(
    lambda ns: ", ".join(map(str, sorted(ns))))


# the step counts of the two-path scenarios, drawn in range (the other keys bring the
# edges); 3, 5 and 9 etas on [-2, 2] hold -1, 0 and +1, which the eta grid must
STEPS = {"steps_per_period": st.integers(1, 12), "evolution_periods": st.integers(1, 2)}
ETA_STEPS = {**STEPS, "eta_points": st.sampled_from((3, 5, 9)) | st.integers(1, 9)}


@st.composite
def configs(draw, ladder=False, steps=None):
    keys = draw(st.lists(st.sampled_from(CONFIG_KEYS), min_size=0 if steps else 1, max_size=4,
                         unique=True))
    entries = {key: draw(VALUES[type(getattr(DEFAULTS, key))]) for key in keys}
    # bounds every allocation; a stepped run gets a grid that holds x0 (30 points or more)
    entries["grid_points"] = str(draw(st.integers(30 if steps else 16, 512)))
    if ladder:  # bounds every step count
        entries["convergence_steps"] = draw(LADDERS)
    for key, counts in (steps or {}).items():  # so do these
        entries[key] = str(draw(counts))
    return entries


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_contract")


@pytest.mark.parametrize("scenario", ["spectrum", "bdag-check"])
@BOUNDED
@given(entries=configs())
@example(entries={"omega": "1e307", "grid_points": "512"})
@example(entries={"grid_points": "16", "state_width_x0": "2"})
@example(entries={"focal_length_m": "1e308", "grid_points": "512"})
@example(entries={"reduced_focal_length_m": "1e308", "grid_points": "512"})
@example(entries={"x_min_x0": "-14", "x_max_x0": "16", "grid_points": "512"})
@example(entries={"omega": "5e-324", "grid_points": "16"})  # the partners' fallback fails too
@example(entries={"x_center_x0": "0.0", "barrier_amplitude": "1e+154",
                  "grid_points": "187"})  # the norm overflows, so rel_l2_reference reads nan
@example(entries={"focal_length_m": "1e200", "grid_points": "512"})  # the arm field vanishes
@example(entries={"reduced_focal_length_m": "1e200", "grid_points": "512"})
def test_every_config_ends_in_a_documented_exit_code(workdir, scenario, entries):
    _assert_documented_exit(workdir, scenario, entries)


@BOUNDED  # a full run of at most 8 streams takes ~50 ms; most draws stop far sooner
@given(entries=configs(ladder=True))
@example(entries={"convergence_steps": "1, 2, 100, 200, 239, 240", "grid_points": "512"})
@example(entries={"convergence_steps": "-2, 0", "grid_points": "512"})
@example(entries={"convergence_steps": "30, 60", "grid_points": "512"})  # never fits: a 2
def test_every_convergence_config_ends_in_a_documented_exit_code(workdir, entries):
    _assert_documented_exit(workdir, "trotter-convergence", entries)


@BOUNDED  # a full run of at most 24 steps takes ~20 ms; a draw may also set no other key
@given(entries=configs(steps=STEPS))
@example(entries={"omega": "1e-300", "grid_points": "512", "steps_per_period": "12",
                  "evolution_periods": "2"})  # every raised sample has a zero norm: a 3
def test_every_susy_check_config_ends_in_a_documented_exit_code(workdir, entries):
    _assert_documented_exit(workdir, "susy-check", entries)


@BOUNDED
@given(entries=configs(steps=ETA_STEPS))
@example(entries={"sigma_over_x0": "0.3", "grid_points": "512", "steps_per_period": "12",
                  "evolution_periods": "2", "eta_points": "9"})  # the family's own rule
def test_every_eta_sweep_config_ends_in_a_documented_exit_code(workdir, entries):
    _assert_documented_exit(workdir, "eta-sweep", entries)


OUT_PATHS = ("fresh directory", "existing directory", "existing file", "below a file")


@settings(max_examples=16, deadline=None, database=None)  # ~30 ms a run at 256 points
@given(scenario=st.sampled_from(("spectrum", "bdag-check", "trotter-convergence")),
       where=st.sampled_from(OUT_PATHS), depth=st.integers(1, 3))
@example(scenario="spectrum", where="existing file", depth=1)
@example(scenario="spectrum", where="below a file", depth=2)
def test_every_out_path_ends_in_a_documented_exit_code(workdir, scenario, where, depth):
    base = Path(tempfile.mkdtemp(dir=workdir))
    path = base.joinpath(*["d"] * depth)
    if where == "existing directory":
        path.mkdir(parents=True)
    elif where in ("existing file", "below a file"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not a directory\n")
    out = path / "sub" if where == "below a file" else path
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([scenario, "--grid-points", "256", "--out", str(out)])
    written = list(base.rglob(f"{scenario}_*"))
    if where in ("existing file", "below a file"):
        assert code == 2
        assert err.getvalue().startswith(f"cannot write to --out {str(out)!r}: ")
        assert err.getvalue().count("\n") == 1 and not written
    else:  # bdag-check fails its gates on so coarse a grid, and still writes
        assert code in (0, 1) and written and all(p.parent == out for p in written)


def _assert_documented_exit(workdir, scenario, entries):
    config = workdir / "probe.cfg"
    config.write_text("".join(f"{key} = {text}\n" for key, text in entries.items()))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([scenario, "--config", str(config), "--out", str(workdir / "out")])
    assert code in (0, 1, 2, 3)
    if code == 2:  # warnings come first; the error names the keys after the file name
        text = err.getvalue()
        text = text[text.index("configuration error: "):].replace(str(config), "")
        assert any(key in text for key in CONFIG_KEYS), text
    if code == 3:
        lines = err.getvalue().splitlines()
        assert len([line for line in lines if not line.startswith("[WARN] ")]) == 1, lines
