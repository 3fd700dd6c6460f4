"""The package surface: the names it exports and the modules it loads."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import susyoptics as so
from susyoptics import errors
from susyoptics.experiments import SCENARIO_RUNNERS

_ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter in which every scipy import fails, and prints
# the scenarios it ran, whether they loaded concurrent.futures (only a split
# stack needs it) and the scipy modules loaded.
_PROBE = """\
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not a runtime dependency")

sys.meta_path.insert(0, NoScipy())
import susyoptics.cli
from susyoptics import Superpotential, bound_spectrum, eigenbasis, partner_potential
from susyoptics.config import parse_config
from susyoptics.experiments import run_all
from susyoptics.grids import Grid1D
ran = [result.scenario for result in run_all(parse_config(sys.argv[1]))]
futures = "concurrent.futures" in sys.modules
v1 = partner_potential(Superpotential(), 1, Grid1D(256, -15.0, 15.0))
eigenbasis(v1, bound_spectrum(v1, 2).states, 1.0)
print(json.dumps([ran, futures, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

# small but valid; the interferometer bench needs the full 2048 points, and
# 9 eta points are too few rows to split a stack on any number of cores
_CONFIG = """\
steps_per_period = 30
evolution_periods = 1
eta_points = 9
trace_stride = 10
battery_size = 1
"""


def test_all_names_the_imports_and_no_module():
    tree = ast.parse(Path(so.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(so.__all__) == sorted(imported)
    for name in so.__all__:
        assert not isinstance(getattr(so, name), types.ModuleType), name


def test_all_is_the_documented_api():
    """__all__ is what the README imports, the acceptance suite calls and the exit codes raise."""
    readme = (_ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    documented = {alias.name for block in blocks for node in ast.walk(ast.parse(block))
                  if isinstance(node, ast.ImportFrom) and node.module == "susyoptics"
                  for alias in node.names}
    acceptance = ast.parse((_ROOT / "tests" / "test_acceptance.py").read_text())
    exercised = {node.attr for node in ast.walk(acceptance)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "so"}
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert set(so.__all__) == documented | exercised | error_classes | {"__version__"}


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """Every python block of README.md runs, in order, in one namespace."""
    readme = (_ROOT / "README.md").read_text()
    monkeypatch.chdir(tmp_path)  # the first block writes results/
    namespace = {"__name__": "readme"}
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)):
        exec(compile(block, f"README.md, python block {i}", "exec"), namespace)


def test_the_console_script_runs(tmp_path, monkeypatch, capsys):
    """The susy-optics entry of [project.scripts] resolves and runs as installed."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    module, function = project["scripts"]["susy-optics"].split(":")
    out = tmp_path / "smoke"
    # an installed console script calls the function with no arguments
    monkeypatch.setattr(sys, "argv", ["susy-optics", "spectrum", "--grid-points", "256",
                                      "--out", str(out)])
    assert getattr(importlib.import_module(module), function)() == 0
    assert len(list(out.iterdir())) == 3
    assert capsys.readouterr().out.endswith(f"wrote 3 files to {out}\n")


def test_the_version_has_one_source():
    """pyproject.toml reads the version from the module every CSV's tool_version line reads."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((_ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    module, _, name = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    assert (module, name) == ("susyoptics._version", "__version__")
    assert getattr(importlib.import_module(module), name) == so.__version__


def test_ci_tests_the_declared_numpy_floor():
    """One CI job pins numpy to the floor that pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((_ROOT / "pyproject.toml").read_text())
    floors = [d.removeprefix("numpy>=") for d in pyproject["project"]["dependencies"]
              if d.startswith("numpy>=")]
    workflow = (_ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert floors and re.findall(r'"numpy==([\d.]+)\.\*"', workflow) == floors


# Runs in a fresh interpreter and prints whether numpy.random is loaded after
# parsing the config, after two scenarios that draw nothing, and after bdag-check.
_RANDOM_PROBE = """\
import json, sys
from susyoptics.config import parse_config
from susyoptics.experiments import run_bdag_validation, run_eta_sweep, run_spectrum
cfg = parse_config(sys.argv[1])
loaded = ["numpy.random" in sys.modules]
for run in (run_spectrum, run_eta_sweep, run_bdag_validation):
    run(cfg)
    loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""


def _probe(tmp_path, code):
    """The last stdout line of code run on the small config in a fresh interpreter, as JSON."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_CONFIG)
    src = Path(so.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, str(cfg)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_bdag_check_draws_random_states(tmp_path):
    # the battery is drawn where it is used, so numpy.random loads only there
    assert _probe(tmp_path, _RANDOM_PROBE) == [False, False, False, True]


def test_runs_without_scipy(tmp_path):
    ran, futures, loaded = _probe(tmp_path, _PROBE)
    assert sorted(ran) == sorted(SCENARIO_RUNNERS)
    assert not futures
    assert loaded == []
