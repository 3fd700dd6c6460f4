"""The package surface: the names it exports and the modules it loads."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import susyoptics as so
from susyoptics.experiments import SCENARIO_RUNNERS

# Runs in a fresh interpreter in which every scipy import fails, and prints
# the scenarios it ran and the scipy modules loaded.
_PROBE = """\
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not a runtime dependency")

sys.meta_path.insert(0, NoScipy())
import susyoptics.cli
from susyoptics import (Grid1D, Superpotential, bound_spectrum, eigenbasis,
                        partner_potential, run_all)
from susyoptics.config import parse_config
ran = [result.scenario for result in run_all(parse_config(sys.argv[1]))]
v1 = partner_potential(Superpotential(), 1, Grid1D(256, -15.0, 15.0))
eigenbasis(v1, bound_spectrum(v1, 2).states, 1.0)
print(json.dumps([ran, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

# small but valid; the interferometer bench needs the full 2048 points
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


def test_runs_without_scipy(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_CONFIG)
    src = Path(so.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(cfg)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    ran, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(ran) == sorted(SCENARIO_RUNNERS)
    assert loaded == []
