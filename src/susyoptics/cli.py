"""Command line front end.

Exit codes: 0 all gates passed, 1 at least one gate failed (or a warning was
raised under --strict), 2 configuration problem (in the config file, an
override, found by a runner, as ideal parity on a lattice that does not
mirror about x = 0, or a text cell CSV cannot hold, which no table or gate
accepts, so no file of any result is written) or an --out directory that
cannot be created or written (a result's files replace earlier ones only
once all are complete), 3 any other simulation error (a numerical failure or
a broken contract) or an allocation that does not fit in memory.  Warnings
go to stderr first, before the error line of a run that fails.
"""

from __future__ import annotations

import argparse
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
        p.add_argument("--out", default="results", metavar="DIR",
                       help="output directory (default: results)")
        p.add_argument("--grid-points", type=int, default=None, metavar="N",
                       help="override the number of grid points")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as gate failures")
    return parser


def resolve_exit(all_passed: bool, warned: bool, strict: bool) -> int:
    return int(not all_passed or (warned and strict))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    caught, failure = [], None
    try:
        cfg = parse_config(args.config, _grid_points=args.grid_points)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if args.scenario == "all":
                results = run_all(cfg)
            else:
                results = (SCENARIO_RUNNERS[args.scenario](cfg),)
        written = [path for result in results for path in emit_csv(result, args.out)]
    except ConfigurationError as exc:
        failure = 2, f"configuration error: {exc}"
    except (SimulationError, MemoryError) as exc:
        kind = ("numerical failure" if isinstance(exc, NumericalError)
                else "out of memory" if isinstance(exc, MemoryError)
                else type(exc).__name__)
        failure = 3, f"{kind}: {exc}"
    except OSError as exc:  # creating or writing --out (parse_config maps its own)
        failure = 2, f"cannot write to --out {args.out!r}: {exc}"

    for w in caught:  # a run that fails prints them before its error line
        print(f"[WARN] {w.category.__name__}: {w.message}", file=sys.stderr)
    if failure:
        print(failure[1], file=sys.stderr)
        return failure[0]
    for result in results:
        for s in result.scalars:
            verdict = "PASS" if s.passed else "FAIL"
            print(f"[{verdict}] {result.scenario}/{s.name} = {s.value!r}"
                  f"  ({s.gate})")
    print(f"wrote {len(written)} files to {args.out}")

    return resolve_exit(all(r.passed for r in results), bool(caught), args.strict)


if __name__ == "__main__":
    sys.exit(main())
