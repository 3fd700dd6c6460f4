"""Experiment configuration: a flat key = value file with strict validation.

Every physical quantity carries its unit in the key name (wavelength_nm,
focal_length_m, aperture_x0, ...).  Unknown keys are errors so typos cannot
silently fall back to defaults; missing keys do fall back, and the set of
defaulted keys is kept for result provenance.  Parsing collects every
problem before failing, each tagged with its source line.  `setup` builds
the domain objects of a run once; each object checks its own parameters,
and `validate` reports their problems by config key.

The default configuration is the reference scenario used by the acceptance
gates: trap frequency 1, barrier amplitude sqrt(26) at width x0/2, a unit
Gaussian launched at -5 x0, 60 steps per period over 3 periods on a 2048
point grid spanning [-15, 15] x0, bench units 532 nm and 1 mm.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigurationError, ContractError
from .grids import (
    Grid1D,
    WaveFunction,
    _check_battery,
    gaussian_packet,
    make_grid,
)
from .optics import InterferometerSpec, PhysicalUnits
from .susy import (MAX_BOUND_LEVELS, PotentialField, Superpotential, apply_B_dag,
                   partner_potential)

SCENARIOS = ("all", "spectrum", "susy-check", "eta-sweep", "bdag-check",
             "trotter-convergence")
# fidelity windows are modulus-convention: each convention maps the value and
# its window through one exponent (monotone, so verdicts agree)
FIDELITY_POWER = {"modulus": 1, "modulus_squared": 2}


@dataclass(frozen=True)
class ExperimentConfig:
    # superpotential (natural units, lengths in x0 = 1/sqrt(omega))
    omega: float = 1.0
    barrier_amplitude: float = math.sqrt(26.0)
    sigma_over_x0: float = 0.5
    # initial state
    x_center_x0: float = -5.0
    state_width_x0: float = 1.0
    # grid
    grid_points: int = 2048
    x_min_x0: float = -15.0
    x_max_x0: float = 15.0
    # split-step plan
    steps_per_period: int = 60
    evolution_periods: int = 3
    convergence_steps: tuple = (15, 30, 60, 120, 240)
    trace_stride: int = 1
    # spectra
    spectrum_levels: int = 8
    # eta sweep
    eta_min: float = -2.0
    eta_max: float = 2.0
    eta_points: int = 81
    # bench units and interferometer geometry
    wavelength_nm: float = 532.0
    x0_mm: float = 1.0
    focal_length_m: float = 0.8
    reduced_focal_length_m: float = 0.5
    aperture_x0: float = 10.0
    parity_mode: str = "ideal"
    # random-state battery
    battery_seed: int = 7
    battery_size: int = 5
    # reporting
    fidelity_convention: str = "modulus"
    # provenance: which keys fell back to defaults (not part of equality)
    defaulted_keys: tuple = field(default=(), compare=False, repr=False)


CONFIG_KEYS = tuple(
    f.name for f in fields(ExperimentConfig) if f.name != "defaulted_keys")
_DEFAULTS = ExperimentConfig()
_KINDS = {key: type(getattr(_DEFAULTS, key)) for key in CONFIG_KEYS}


def _convert(key: str, text: str):
    if _KINDS[key] is tuple:
        return tuple(int(tok.strip()) for tok in text.split(","))
    return _KINDS[key](text)


def _eta_grid_holds(cfg: ExperimentConfig, target: float) -> bool:
    """Whether the eta lattice has a point within 1e-9 max(1, |target|) of target."""
    if not cfg.eta_min <= target <= cfg.eta_max:
        return False
    step = (cfg.eta_max - cfg.eta_min) / (cfg.eta_points - 1)
    nearest = cfg.eta_min + round((target - cfg.eta_min) / step) * step
    return abs(nearest - target) <= 1e-9 * max(1.0, abs(target))


def _rule_problems(cfg: ExperimentConfig) -> list:
    """The rules no domain object owns, each message led by its keys."""
    p = []
    for key in ("steps_per_period", "evolution_periods", "trace_stride"):
        if getattr(cfg, key) < 1:
            p.append(f"{key}: must be >= 1, got {getattr(cfg, key)}")
    steps = cfg.convergence_steps
    if (not steps or any(int(n) != n or n < 1 for n in steps)
            or any(b <= a for a, b in zip(steps, steps[1:]))):
        p.append(f"convergence_steps: must be ascending positive integers, got {steps}")
    # V2 is solved for one level more than V1
    if not 1 <= cfg.spectrum_levels <= MAX_BOUND_LEVELS - 1:
        p.append(f"spectrum_levels: must be in [1, {MAX_BOUND_LEVELS - 1}], "
                 f"got {cfg.spectrum_levels}")
    if cfg.eta_points < 3:
        p.append(f"eta_points: must be >= 3, got {cfg.eta_points}")
    elif not (math.isfinite(cfg.eta_min) and math.isfinite(cfg.eta_max)
              and cfg.eta_max > cfg.eta_min):
        p.append(f"eta_min, eta_max: eta range [{cfg.eta_min}, {cfg.eta_max}] "
                 "must be finite with eta_max > eta_min")
    elif not all(_eta_grid_holds(cfg, t) for t in (-1.0, 0.0, 1.0)):
        p.append(
            f"eta_min, eta_max, eta_points: eta grid [{cfg.eta_min}, {cfg.eta_max}] "
            f"with {cfg.eta_points} points must contain -1, 0 and +1 exactly")
    spacing = (cfg.x_max_x0 - cfg.x_min_x0) / max(cfg.grid_points, 1)
    if cfg.x_max_x0 > cfg.x_min_x0 and cfg.aperture_x0 > min(-cfg.x_min_x0, cfg.x_max_x0):
        p.append(
            f"aperture_x0: {cfg.aperture_x0} exceeds the simulated window "
            f"x_min_x0, x_max_x0 = [{cfg.x_min_x0}, {cfg.x_max_x0}]")
    elif cfg.grid_points >= 2 and 0 < cfg.aperture_x0 < spacing < math.inf:
        # the stops would pass x = 0 alone, where the derivative arm's ramp is zero
        p.append(f"aperture_x0: {cfg.aperture_x0} is narrower than the grid spacing "
                 f"{spacing!r} set by x_min_x0, x_max_x0 and grid_points")
    if cfg.fidelity_convention not in FIDELITY_POWER:
        p.append(f"fidelity_convention: must be one of {tuple(FIDELITY_POWER)}, "
                 f"got {cfg.fidelity_convention!r}")
    return p


@dataclass(frozen=True)
class RunSetup:
    """The domain objects of one run, in the natural frame of its omega.

    The bench frame is the natural frame at omega = 1.  v1 and v2 are the
    partner potentials of W and psi_raised is B+ psi0, the state the
    two-path scenarios evolve under v2.  The specs are uncalibrated.
    """

    grid: Grid1D
    W: Superpotential
    v1: PotentialField
    v2: PotentialField
    psi0: WaveFunction
    psi_raised: WaveFunction
    units: PhysicalUnits
    spec: InterferometerSpec
    reduced_spec: InterferometerSpec


def _build(cfg: ExperimentConfig):
    """(RunSetup, problems): every domain object built once from cfg.

    Each object owns its rules; a ConfigurationError it raises is recorded
    with the keys it was built from.  Those keys then fall back to their
    defaults, so everything built on it is still checked and all problems
    are reported at once; a fallback that fails too (on the x0 of a tiny
    omega) ends the build with the problems found so far.  The packet is
    the exception: when the grid fails, its keys fall back unchecked, since
    no grid the config sets can check them, and a packet fault shows once
    the grid is mended.
    """
    problems = _rule_problems(cfg)

    def build(keys, make):
        nonlocal cfg
        try:
            return make(cfg)
        except ConfigurationError as exc:
            problems.append(f"{', '.join(keys)}: {exc}")
        cfg = replace(cfg, **{k: getattr(_DEFAULTS, k) for k in keys})
        try:
            return make(cfg)
        except ConfigurationError:
            raise ConfigurationError("\n".join(problems)) from None

    # the trap alone fixes x0, the unit of every length below
    x0 = build(("omega",), lambda c: Superpotential(c.omega).x0)

    # the trap's ground state, and the bench's calibration reference, are 1 x0 wide
    def unit_grid(c):
        grid = make_grid(c.grid_points, c.x_min_x0 * x0, c.x_max_x0 * x0)
        length = c.x_max_x0 - c.x_min_x0
        if not length / c.grid_points <= 1.0 <= length:
            raise ConfigurationError(f"the grid spacing {length / c.grid_points!r} and the "
                                     f"window length {length!r} must hold the unit width x0")
        return grid

    def packet_on_grid(c):  # the packet center and width are checked against the grid
        grid = unit_grid(c)
        return grid, gaussian_packet(grid, c.x_center_x0 * x0, c.state_width_x0 * x0)

    # a grid that fails is reported once, and the packet is checked on no other grid
    grid_problems = len(problems)
    build(("grid_points", "x_min_x0", "x_max_x0"), unit_grid)
    if len(problems) > grid_problems:
        cfg = replace(cfg, x_center_x0=_DEFAULTS.x_center_x0,
                      state_width_x0=_DEFAULTS.state_width_x0)
    grid, psi0 = build(("grid_points", "x_min_x0", "x_max_x0", "state_width_x0",
                        "x_center_x0"), packet_on_grid)

    def partners(c):  # W with V1, V2 and B+ psi0; sigma^2 past the float range overflows
        W = Superpotential(c.omega, c.barrier_amplitude, c.sigma_over_x0 * x0)
        try:
            with np.errstate(all="ignore"):
                return (W, partner_potential(W, 1, grid), partner_potential(W, 2, grid),
                        apply_B_dag(psi0, W))
        except (ContractError, OverflowError):
            raise ConfigurationError("partner potentials are not finite on the grid") from None

    W, v1, v2, psi_raised = build(("omega", "barrier_amplitude", "sigma_over_x0"), partners)
    build(("battery_size", "battery_seed"), lambda c: _check_battery(
        c.battery_size, c.battery_seed))  # only bdag-check draws the states
    units = build(("wavelength_nm", "x0_mm"), lambda c: PhysicalUnits(
        c.wavelength_nm * 1e-9, c.x0_mm * 1e-3))
    spec = build(("focal_length_m", "aperture_x0", "parity_mode"),
                 lambda c: InterferometerSpec(W, c.focal_length_m,
                                              c.aperture_x0 * units.x0_m,
                                              parity_mode=c.parity_mode))
    reduced = build(("reduced_focal_length_m",), lambda c: replace(
        spec, focal_length_m=c.reduced_focal_length_m))
    return RunSetup(grid, W, v1, v2, psi0, psi_raised, units, spec, reduced), problems


def validate(cfg: ExperimentConfig) -> list:
    """All problems with cfg, each led by the keys it came from (empty when valid).

    The objects are built by `setup`'s code, so each checks its own rules.
    """
    try:
        return _build(cfg)[1]
    except ConfigurationError as exc:  # a fallback failed too, ending the build
        return str(exc).splitlines()


def setup(cfg: ExperimentConfig) -> RunSetup:
    """Build the domain objects of a run; ConfigurationError lists every problem."""
    run, problems = _build(cfg)
    if problems:
        raise ConfigurationError("\n".join(problems))
    return run


def parse_config_text(text: str, source: str = "<config>", *,
                      _grid_points=None) -> ExperimentConfig:
    """Parse key = value lines; '#' starts a comment.  Collects all problems."""
    problems = []
    seen = {}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            problems.append(f"{source}:{lineno}: expected 'key = value', got {line!r}")
            continue
        if key not in CONFIG_KEYS:
            problems.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(
                f"{source}:{lineno}: duplicate key {key!r} "
                f"(first set on line {first_line[key]})")
            continue
        try:
            seen[key] = _convert(key, value)
            first_line[key] = lineno
        except ValueError as exc:
            problems.append(
                f"{source}:{lineno}: invalid value for {key!r}: {value!r} ({exc})")
    if problems:
        raise ConfigurationError("\n".join(problems))
    if _grid_points is not None:  # --grid-points, in place of the text's, before any check
        seen["grid_points"] = _convert("grid_points", str(_grid_points))
        source += f" with grid_points = {_grid_points}"
    defaulted = tuple(k for k in CONFIG_KEYS if k not in seen)
    cfg = ExperimentConfig(**seen, defaulted_keys=defaulted)
    violations = validate(cfg)
    if violations:
        raise ConfigurationError("\n".join(f"{source}: {v}" for v in violations))
    return cfg


def parse_config(path=None, *, _grid_points=None) -> ExperimentConfig:
    """Load a config file, or the full default scenario when path is None."""
    if path is None:
        return parse_config_text("", source="<defaults>", _grid_points=_grid_points)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=str(path), _grid_points=_grid_points)


def _format_value(key: str, value) -> str:
    if _KINDS[key] is tuple:
        return ", ".join(str(int(v)) for v in value)
    if _KINDS[key] is float:
        return repr(float(value))
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key, declaration order, full float precision.

    parse(serialize(cfg)) reproduces cfg exactly, so the serialized form (and
    the hash below) identifies a run's physics, whatever its scenario or --out.
    """
    lines = [f"{key} = {_format_value(key, getattr(cfg, key))}" for key in CONFIG_KEYS]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
