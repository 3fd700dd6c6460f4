"""Command line front end.

Exit codes: 0 all gates passed, 1 at least one gate failed (or a warning was
raised under --strict), 2 configuration problem (in the config file, an
override, found by a runner, or a table cell CSV cannot hold, in which case
no file of that result is written), 3 any other simulation error: a
numerical failure or a broken contract.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings

from ._version import __version__
from .config import SCENARIOS, parse_config
from .errors import ConfigurationError, NumericalError, SimulationError
from .experiments import SCENARIO_RUNNERS, emit_csv, run_all

_SCENARIO_HELP = {
    "all": "run every scenario below in a fixed order",
    "spectrum": "partner spectra and the offset-degeneracy gates",
    "susy-check": "two-path dynamics comparison over three periods",
    "eta-sweep": "fidelity surface over the barrier-coupling family",
    "bdag-check": "interferometric raising operator against the algebraic one",
    "trotter-convergence": "step-count scaling, unit map and plate train",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susy-optics",
        description="Partner-potential dynamics checks and their bench layout.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=_SCENARIO_HELP[name])
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key=value config file (defaults used when omitted)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default from config: results)")
        p.add_argument("--grid-points", type=int, default=None, metavar="N",
                       help="override the number of grid points")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as gate failures")
    return parser


def resolve_exit(all_passed: bool, warned: bool, strict: bool) -> int:
    if not all_passed:
        return 1
    if warned and strict:
        return 1
    return 0


def _apply_overrides(cfg, args):
    overrides = {"scenario": args.scenario}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.grid_points is not None:
        overrides["grid_points"] = args.grid_points
    return dataclasses.replace(
        cfg, defaulted_keys=tuple(k for k in cfg.defaulted_keys
                                  if k not in overrides), **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(parse_config(args.config), args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if cfg.scenario == "all":
                results = run_all(cfg)
            else:
                results = (SCENARIO_RUNNERS[cfg.scenario](cfg),)
        written = [path for result in results
                   for path in emit_csv(result, cfg.out_dir)]
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        kind = ("numerical failure" if isinstance(exc, NumericalError)
                else type(exc).__name__)
        print(f"{kind}: {exc}", file=sys.stderr)
        return 3

    for result in results:
        for s in result.scalars:
            verdict = "PASS" if s.passed else "FAIL"
            print(f"[{verdict}] {result.scenario}/{s.name} = {s.value!r}"
                  f"  ({s.gate})")
    for w in caught:
        print(f"[WARN] {w.category.__name__}: {w.message}", file=sys.stderr)
    print(f"wrote {len(written)} files to {cfg.out_dir}")

    all_passed = all(r.passed for r in results)
    return resolve_exit(all_passed, bool(caught), args.strict)
