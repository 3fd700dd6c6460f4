"""The package surface: the names it exports and the modules it loads."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import susyoptics as so

# Runs in a fresh interpreter and prints, after each step, the scipy modules
# loaded so far.
_PROBE = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import susyoptics.cli
from susyoptics import (Grid1D, Superpotential, bound_spectrum,
                        partner_potential, run_bdag_validation, run_eta_sweep,
                        run_susy_check)
from susyoptics.config import parse_config
cfg = parse_config(sys.argv[1])
loaded["import and parse_config"] = scipy_modules()
for run in (run_eta_sweep, run_susy_check, run_bdag_validation):
    run(cfg)
    loaded[run.__name__] = scipy_modules()
bound_spectrum(partner_potential(Superpotential(), 1, Grid1D(256, -15.0, 15.0)), 2)
loaded["bound_spectrum"] = scipy_modules()
print(json.dumps(loaded))
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


def test_only_the_eigensolver_loads_scipy(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(_CONFIG)
    src = Path(so.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(cfg)],
                          capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    *scipy_free, solved = loaded
    assert {step: loaded[step] for step in scipy_free} == {
        step: [] for step in scipy_free}
    assert "scipy.linalg" in loaded[solved]
