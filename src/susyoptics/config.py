"""Experiment configuration: a flat key = value file with strict validation.

Every physical quantity carries its unit in the key name (wavelength_nm,
focal_length_m, aperture_x0, ...).  Unknown keys are errors so typos cannot
silently fall back to defaults; missing keys do fall back, and the set of
defaulted keys is kept for result provenance.  Parsing collects every
problem before failing, each tagged with its source line.

The default configuration is the reference scenario used by the acceptance
gates: trap frequency 1, barrier amplitude sqrt(26) at width x0/2, a unit
Gaussian launched at -5 x0, 60 steps per period over 3 periods on a 2048
point grid spanning [-15, 15] x0, bench units 532 nm and 1 mm.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError
from .optics import PARITY_MODES

SCENARIOS = ("all", "spectrum", "susy-check", "eta-sweep", "bdag-check",
             "trotter-convergence")
FIDELITY_CONVENTIONS = ("modulus", "modulus_squared")


@dataclass(frozen=True)
class ExperimentConfig:
    # scenario selection and bookkeeping
    scenario: str = "all"
    out_dir: str = "results"
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


_INT_KEYS = frozenset((
    "grid_points", "steps_per_period", "evolution_periods", "trace_stride",
    "spectrum_levels", "eta_points", "battery_seed", "battery_size"))
_FLOAT_KEYS = frozenset((
    "omega", "barrier_amplitude", "sigma_over_x0", "x_center_x0",
    "state_width_x0", "x_min_x0", "x_max_x0", "eta_min", "eta_max",
    "wavelength_nm", "x0_mm", "focal_length_m", "reduced_focal_length_m",
    "aperture_x0"))
_STR_KEYS = frozenset(("scenario", "out_dir", "parity_mode", "fidelity_convention"))
_TUPLE_KEYS = frozenset(("convergence_steps",))
CONFIG_KEYS = tuple(
    f.name for f in fields(ExperimentConfig) if f.name != "defaulted_keys")


def _convert(key: str, text: str):
    if key in _STR_KEYS:
        return text
    if key in _TUPLE_KEYS:
        return tuple(int(tok.strip()) for tok in text.split(","))
    if key in _INT_KEYS:
        return int(text)
    if key in _FLOAT_KEYS:
        return float(text)
    raise AssertionError(f"unmapped key {key}")


def _eta_grid_holds(cfg: ExperimentConfig, target: float) -> bool:
    if not cfg.eta_min <= target <= cfg.eta_max:
        return False
    step = (cfg.eta_max - cfg.eta_min) / (cfg.eta_points - 1)
    j = (target - cfg.eta_min) / step
    return abs(j - round(j)) <= 1e-9 * max(1.0, abs(j))


def validate(cfg: ExperimentConfig) -> list:
    """All invariant violations, as human-readable strings (empty when valid)."""
    p = []
    if cfg.scenario not in SCENARIOS:
        p.append(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    if not (math.isfinite(cfg.omega) and cfg.omega > 0):
        p.append(f"omega must be positive, got {cfg.omega}")
    if not math.isfinite(cfg.barrier_amplitude):
        p.append(f"barrier_amplitude must be finite, got {cfg.barrier_amplitude}")
    if not (math.isfinite(cfg.sigma_over_x0) and cfg.sigma_over_x0 > 0):
        p.append(f"sigma_over_x0 must be positive, got {cfg.sigma_over_x0}")
    if not (math.isfinite(cfg.state_width_x0) and cfg.state_width_x0 > 0):
        p.append(f"state_width_x0 must be positive, got {cfg.state_width_x0}")
    if cfg.grid_points < 2:
        p.append(f"grid_points must be at least 2, got {cfg.grid_points}")
    if not (math.isfinite(cfg.x_min_x0) and math.isfinite(cfg.x_max_x0)
            and cfg.x_max_x0 > cfg.x_min_x0):
        p.append(f"domain [{cfg.x_min_x0}, {cfg.x_max_x0}] x0 has no extent")
    elif not cfg.x_min_x0 < cfg.x_center_x0 < cfg.x_max_x0:
        p.append(f"x_center_x0 = {cfg.x_center_x0} lies outside the domain")
    if cfg.steps_per_period < 1:
        p.append(f"steps_per_period must be >= 1, got {cfg.steps_per_period}")
    if cfg.evolution_periods < 1:
        p.append(f"evolution_periods must be >= 1, got {cfg.evolution_periods}")
    if cfg.trace_stride < 1:
        p.append(f"trace_stride must be >= 1, got {cfg.trace_stride}")
    steps = cfg.convergence_steps
    if (not steps or any(int(n) != n or n < 1 for n in steps)
            or any(b <= a for a, b in zip(steps, steps[1:]))):
        p.append(f"convergence_steps must be ascending positive integers, got {steps}")
    if not 1 <= cfg.spectrum_levels <= 15:
        p.append(f"spectrum_levels must be in [1, 15], got {cfg.spectrum_levels}")
    if cfg.eta_points < 3:
        p.append(f"eta_points must be >= 3, got {cfg.eta_points}")
    elif not (cfg.eta_max > cfg.eta_min):
        p.append(f"eta range [{cfg.eta_min}, {cfg.eta_max}] has no extent")
    elif not all(_eta_grid_holds(cfg, t) for t in (-1.0, 0.0, 1.0)):
        p.append(
            f"eta grid [{cfg.eta_min}, {cfg.eta_max}] with {cfg.eta_points} points "
            "must contain -1, 0 and +1 exactly")
    for key in ("wavelength_nm", "x0_mm", "focal_length_m",
                "reduced_focal_length_m", "aperture_x0"):
        val = getattr(cfg, key)
        if not (math.isfinite(val) and val > 0):
            p.append(f"{key} must be positive, got {val}")
    if (math.isfinite(cfg.aperture_x0)
            and cfg.aperture_x0 > min(-cfg.x_min_x0, cfg.x_max_x0)):
        p.append(
            f"aperture_x0 = {cfg.aperture_x0} exceeds the simulated window "
            f"[{cfg.x_min_x0}, {cfg.x_max_x0}] x0")
    if cfg.parity_mode not in PARITY_MODES:
        p.append(f"parity_mode must be one of {PARITY_MODES}, got {cfg.parity_mode!r}")
    if cfg.battery_size < 1:
        p.append(f"battery_size must be >= 1, got {cfg.battery_size}")
    if cfg.fidelity_convention not in FIDELITY_CONVENTIONS:
        p.append(
            f"fidelity_convention must be one of {FIDELITY_CONVENTIONS}, "
            f"got {cfg.fidelity_convention!r}")
    return p


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
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
    defaulted = tuple(k for k in CONFIG_KEYS if k not in seen)
    cfg = ExperimentConfig(**seen, defaulted_keys=defaulted)
    violations = validate(cfg)
    if violations:
        raise ConfigurationError("\n".join(f"{source}: {v}" for v in violations))
    return cfg


def parse_config(path=None) -> ExperimentConfig:
    """Load a config file, or the full default scenario when path is None."""
    if path is None:
        cfg = ExperimentConfig(defaulted_keys=CONFIG_KEYS)
        violations = validate(cfg)
        if violations:  # pragma: no cover - defaults are valid by construction
            raise ConfigurationError("\n".join(violations))
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _format_value(key: str, value) -> str:
    if key in _TUPLE_KEYS:
        return ", ".join(str(int(v)) for v in value)
    if key in _FLOAT_KEYS:
        return repr(float(value))
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key, declaration order, full float precision.

    parse(serialize(cfg)) reproduces cfg exactly, so the serialized form
    (and the hash below) is a faithful identity for a run.
    """
    lines = [f"{key} = {_format_value(key, getattr(cfg, key))}" for key in CONFIG_KEYS]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
