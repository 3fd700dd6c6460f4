"""Fourier-optics layer in SI units: the bench realization of the dynamics.

A paraxial beam of wavelength lambda carries the wavefunction in its
transverse profile.  With the dimensionless coordinate x mapped to the
physical transverse coordinate X = x * x0_m, free-space diffraction over a
distance z acts exactly like free-particle evolution for a time

    t = z / (k x0_m^2),         k = 2 pi / lambda,

up to the accumulated plane-wave phase e^{ikz}.  Thin phase plates realize
delta-kick potentials, so a split-step propagator compiles to plates spaced
by free-space gaps.  The non-unitary ladder operator B+ is assembled from a
two-arm interferometer: a derivative arm (two cascaded f-lens-f Fourier
stages with a linear amplitude ramp in the shared focal plane, then a parity
stage) and a multiplication arm (an amplitude mask shaped like the
superpotential between two parity stages).  `calibrate_interferometer`
fixes the gain alpha, builds both arm trains and trims their relative
phase once per spec and grid; `interferometric_B_dag` then applies that
calibrated object to any number of states, summing the arms and dividing
the known gain sqrt(2)*alpha to yield B+ psi.

All fields here are WaveFunction values on the dimensionless grid; `units`
carries the physical scale.  Functions that take durations expect them
dimensionless (units of 1/omega), matching the evolution module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateStateError,
    NumericalError,
    ParaxialWarning,
)
from .evolution import kinetic_step
from .grids import POSITION, Grid1D, WaveFunction, gaussian_packet
from .susy import apply_B_dag

PARAXIAL_LIMIT = 1e-2  # warn when (spot/z)^2 exceeds this
PARITY_MODES = ("ideal", "fresnel")


@dataclass(frozen=True)
class PhysicalUnits:
    """Wavelength and transverse length scale tying grid units to meters."""

    wavelength_m: float
    x0_m: float

    def __post_init__(self):
        if not (np.isfinite(self.wavelength_m) and self.wavelength_m > 0):
            raise ConfigurationError(
                f"wavelength must be positive, got {self.wavelength_m}")
        if not (np.isfinite(self.x0_m) and self.x0_m > 0):
            raise ConfigurationError(
                f"characteristic length must be positive, got {self.x0_m}")

    @property
    def k(self) -> float:
        """Wavenumber 2 pi / lambda in 1/m."""
        return 2.0 * math.pi / self.wavelength_m


def map_time_to_distance(dt: float, units: PhysicalUnits) -> float:
    """Propagation distance realizing a dimensionless evolution time: z = dt k x0^2."""
    return dt * units.k * units.x0_m**2


def map_distance_to_time(z_m: float, units: PhysicalUnits) -> float:
    """Exact inverse of map_time_to_distance."""
    return z_m / (units.k * units.x0_m**2)


def spot_size(psi: WaveFunction) -> float:
    """Half-width (in grid units) of the interval around x=0 holding 99.99% of the mass."""
    fraction = 0.9999
    weights = np.abs(psi.values) ** 2
    total = float(weights.sum())
    if total == 0.0:
        raise DegenerateStateError("spot size of a zero field is undefined")
    order = psi.grid.distance_order
    mass = np.cumsum(weights[order]) / total
    idx = int(np.searchsorted(mass, fraction))
    idx = min(idx, psi.grid.n - 1)
    return float(np.abs(psi.grid.x[order[idx]]))


# --- optical elements -------------------------------------------------------

@dataclass(frozen=True)
class FreeSpace:
    """Paraxial free-space gap of z meters.

    Acts as the free-particle kernel for the mapped time z/(k x0^2), times
    the plane-wave phase e^{ikz}.  Warns (ParaxialWarning) when the
    parabolic-wavefront condition looks strained for the current spot size:
    (rho/z)^2 > 1e-2.  z = 0 is the identity.
    """

    z_m: float
    name = "free_space"

    def __post_init__(self):
        if not (np.isfinite(self.z_m) and self.z_m >= 0):
            raise ConfigurationError(f"free-space length must be >= 0, got {self.z_m}")

    @property
    def length_m(self) -> float:
        return self.z_m

    def describe(self) -> str:
        return f"z_m={self.z_m!r}"

    def apply(self, field_: WaveFunction, units: PhysicalUnits) -> WaveFunction:
        if self.z_m == 0.0:
            return field_
        out = kinetic_step(field_, map_distance_to_time(self.z_m, units))
        rho_m = spot_size(field_) * units.x0_m
        ratio = (rho_m / self.z_m) ** 2
        if ratio > PARAXIAL_LIMIT:
            warnings.warn(
                f"paraxial ratio rho^2/z^2 = {ratio:.3e} exceeds {PARAXIAL_LIMIT:.0e} "
                f"(spot {rho_m:.3e} m over z = {self.z_m:.3e} m); treat results with care",
                ParaxialWarning, stacklevel=2)
        return out.with_values(out.values * np.exp(1j * units.k * self.z_m))


@dataclass(frozen=True)
class ThinLens:
    """Thin lens: quadratic phase exp(-i k X^2 / 2f) inside a hard aperture.

    The aperture is a symmetric half-width in meters; the field is zeroed
    outside it.  The default aperture_m = inf is a clear lens.
    """

    f_m: float
    aperture_m: float = math.inf
    name = "thin_lens"
    length_m = 0.0

    def __post_init__(self):
        if not self.f_m > 0:
            raise ConfigurationError(f"focal length must be positive, got {self.f_m}")
        if not self.aperture_m > 0:
            raise ConfigurationError(f"aperture must be positive, got {self.aperture_m}")

    def describe(self) -> str:
        return f"f_m={self.f_m!r} aperture_m={self.aperture_m!r}"

    def apply(self, field_: WaveFunction, units: PhysicalUnits) -> WaveFunction:
        x_m = field_.grid.x * units.x0_m
        return field_.with_values(np.where(
            np.abs(x_m) <= self.aperture_m,
            field_.values * np.exp(-0.5j * units.k * x_m**2 / self.f_m),
            0.0))


def _profile(values, what: str) -> np.ndarray:
    """A read-only copy of a finite 1-d profile tabulated on the grid."""
    vals = np.array(values, dtype=float)
    if vals.ndim != 1 or not np.all(np.isfinite(vals)):
        raise ConfigurationError(f"{what} must be a finite 1-d array")
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True)
class PhasePlate:
    """Thin plate applying exp(-i phase(x)) pointwise; phase in radians per grid point."""

    phase: np.ndarray = field(compare=False)
    name = "phase_plate"
    length_m = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phase", _profile(self.phase, "phase profile"))

    def describe(self) -> str:
        return (f"n_points={self.phase.size} "
                f"max_abs_phase_rad={float(np.max(np.abs(self.phase)))!r}")

    def apply(self, field_: WaveFunction, units: PhysicalUnits) -> WaveFunction:
        if self.phase.shape != (field_.grid.n,):
            raise ContractError("phase plate was tabulated for a different grid")
        return field_.with_values(field_.values * np.exp(-1j * self.phase))


@dataclass(frozen=True)
class AmplitudeModulator:
    """Thin passive mask multiplying the field by a real profile in [-1, 1].

    Negative values encode an additional pi phase on top of the magnitude,
    the standard trick for synthesizing sign-changing profiles.
    """

    profile: np.ndarray = field(compare=False)
    name = "amplitude_modulator"
    length_m = 0.0

    def __post_init__(self):
        vals = _profile(self.profile, "modulator profile")
        if np.any(np.abs(vals) > 1.0 + 1e-12):
            raise ConfigurationError(
                f"modulator profile reaches {np.max(np.abs(vals)):.6f}; "
                "a passive element cannot exceed unit magnitude")
        object.__setattr__(self, "profile", vals)

    def describe(self) -> str:
        return (f"n_points={self.profile.size} "
                f"max_abs={float(np.max(np.abs(self.profile)))!r}")

    def apply(self, field_: WaveFunction, units: PhysicalUnits) -> WaveFunction:
        if self.profile.shape != (field_.grid.n,):
            raise ContractError("modulator was tabulated for a different grid")
        return field_.with_values(field_.values * self.profile)


@dataclass(frozen=True)
class ParityFlip:
    """Idealized lens-pair image inversion, abstracted to exact parity.

    x -> -x on the periodic grid: an exact involution (index 0 is self-paired).
    """

    name = "parity_flip"
    length_m = 0.0

    def describe(self) -> str:
        return "-"

    def apply(self, field_: WaveFunction, units: PhysicalUnits) -> WaveFunction:
        return field_.with_values(np.roll(field_.values[::-1], 1))


@dataclass(frozen=True)
class OpticalTrain:
    """Ordered thin elements separated by free space; the compiled bench layout.

    An element is any object with a layout `name`, a `length_m` along the
    axis, a `describe()` of its SI parameters and an `apply(field_, units)`.
    """

    elements: tuple
    units: PhysicalUnits

    def __post_init__(self):
        elements = tuple(self.elements)
        for e in elements:
            if not all(hasattr(e, a) for a in ("name", "length_m", "describe", "apply")):
                raise ContractError(f"unknown optical element {e!r}")
        object.__setattr__(self, "elements", elements)

    @property
    def total_length_m(self) -> float:
        return float(sum(e.length_m for e in self.elements))

    def to_layout_text(self) -> str:
        """Hardware sheet: one line per element with SI parameters and its position."""
        lines = [
            "# optical train layout",
            f"# wavelength_m: {self.units.wavelength_m!r}",
            f"# x0_m: {self.units.x0_m!r}",
            f"# elements: {len(self.elements)}",
            f"# total_length_m: {self.total_length_m!r}",
            "position_m\telement\tparameters",
        ]
        z = 0.0
        for e in self.elements:
            lines.append(f"{z!r}\t{e.name}\t{e.describe()}")
            z += e.length_m
        return "\n".join(lines) + "\n"


def simulate_train(field_: WaveFunction, train: OpticalTrain) -> WaveFunction:
    """Fold the field through every element in order."""
    out = field_
    for element in train.elements:
        out = element.apply(out, train.units)
    return out


def compile_trotter_train(plan, V, units: PhysicalUnits) -> OpticalTrain:
    """Bench layout of a symmetric split-step plan: phase plates in free space.

    Interior half-gaps merge into full gaps, giving n plates and n+1 gaps
    with the two end gaps at half length.  Simulating the train reproduces
    the abstract propagator up to the plane-wave phase of the total path,
    e^{i k z_total}.  Only the symmetric second-order product has a defined
    layout; first-order plans are rejected.
    """
    if plan.order != "second":
        raise ConfigurationError(
            "optical layout is defined for the symmetric second-order product only")
    if plan.n_steps == 0:
        return OpticalTrain((), units)
    z_half = map_time_to_distance(0.5 * plan.dt, units)
    z_full = map_time_to_distance(plan.dt, units)
    phase = V.values * plan.dt
    elements = [FreeSpace(z_half)]
    for j in range(plan.n_steps):
        elements.append(PhasePlate(phase))
        elements.append(FreeSpace(z_full if j < plan.n_steps - 1 else z_half))
    return OpticalTrain(tuple(elements), units)


# --- interferometric B+ ------------------------------------------------------

@dataclass(frozen=True)
class InterferometerSpec:
    """Two-arm layout synthesizing B+: the geometry a config sets.

    parity_mode chooses how parity stages are modeled: "ideal" exact
    inversions (default) or "fresnel" full two-lens 4f relays.
    """

    superpotential: object
    focal_length_m: float
    aperture_m: float
    parity_mode: str = "ideal"

    def __post_init__(self):
        # the lens and the focal gap of its Fourier stages own f and the aperture
        ThinLens(self.focal_length_m, self.aperture_m)
        FreeSpace(self.focal_length_m)
        if self.parity_mode not in PARITY_MODES:
            raise ConfigurationError(
                f"parity_mode must be one of {PARITY_MODES}, got {self.parity_mode!r}")


def alpha_passivity_bound(spec: InterferometerSpec, grid: Grid1D,
                          units: PhysicalUnits) -> float:
    """Largest common gain keeping both arm modulators passive (|profile| <= 1).

    The derivative arm needs |alpha x / tau_f| <= 1 across the aperture
    (tau_f = f/(k x0^2) is the mapped time of one focal length); the
    multiplication arm needs |alpha W| <= 1 there.
    """
    a_grid = spec.aperture_m / units.x0_m
    tau_f = map_distance_to_time(spec.focal_length_m, units)
    inside = np.abs(grid.x) <= a_grid
    if not np.any(inside):
        raise ConfigurationError("aperture does not cover any grid point")
    w_max = float(np.max(np.abs(np.asarray(
        spec.superpotential.value(grid.x[inside]), dtype=float))))
    x_max = float(np.max(np.abs(grid.x[inside])))
    bounds = []
    if x_max > 0:
        bounds.append(tau_f / x_max)
    if w_max > 0:
        bounds.append(1.0 / w_max)
    if not bounds:
        raise ConfigurationError("degenerate aperture: no passivity constraint")
    return min(bounds)


def _fourier_stage(f_m: float, aperture_m: float):
    # front focal plane -> back focal plane: exact scaled Fourier transform
    return [FreeSpace(f_m), ThinLens(f_m, aperture_m), FreeSpace(f_m)]


def _parity_stage(spec: InterferometerSpec):
    if spec.parity_mode == "ideal":
        return [ParityFlip()]
    f = spec.focal_length_m
    # two-lens 4f relay: unit magnification image inversion, constant -i e^{4ikf}
    return [FreeSpace(f), ThinLens(f, spec.aperture_m), FreeSpace(2 * f),
            ThinLens(f, spec.aperture_m), FreeSpace(f)]


def _upper_frame_constant(spec: InterferometerSpec, units: PhysicalUnits) -> complex:
    """Deterministic model constant of the multiplication arm.

    Dividing it out quotes the output in the frame of a blocked-arm
    calibration shot, the way a bench normalizes its transfer constant.
    Ideal parity stages contribute nothing; each 4f relay contributes
    exactly -i e^{4ikf} in the paraxial model.
    """
    if spec.parity_mode == "ideal":
        return 1.0 + 0.0j
    relay = -1j * np.exp(4j * units.k * spec.focal_length_m)
    return complex(relay * relay)


def _arm_trains(spec: InterferometerSpec, grid: Grid1D, units: PhysicalUnits,
                alpha: float) -> tuple:
    """(derivative_arm, multiplication_arm) as simulatable OpticalTrains."""
    a_grid = spec.aperture_m / units.x0_m
    tau_f = map_distance_to_time(spec.focal_length_m, units)
    inside = np.abs(grid.x) <= a_grid

    ramp = np.where(inside, alpha * grid.x / tau_f, 0.0)
    lower = OpticalTrain(tuple(
        _fourier_stage(spec.focal_length_m, spec.aperture_m)
        + [AmplitudeModulator(ramp)]
        + _fourier_stage(spec.focal_length_m, spec.aperture_m)
        + _parity_stage(spec)), units)

    # the mask sits between two inversions, so it is tabulated mirrored
    w_mirrored = np.asarray(spec.superpotential.value(-grid.x), dtype=float)
    mask = np.where(inside, alpha * w_mirrored, 0.0)
    upper = OpticalTrain(tuple(
        _parity_stage(spec) + [AmplitudeModulator(mask)] + _parity_stage(spec)),
        units)
    return lower, upper


def _arm_outputs(psi: WaveFunction, spec: InterferometerSpec, arms: tuple) -> list:
    """Each arm's output for psi, in the frame of the multiplication arm."""
    frame = _upper_frame_constant(spec, arms[0].units)
    return [simulate_train(psi, arm).values / frame for arm in arms]


@dataclass(frozen=True)
class CalibratedInterferometer:
    """A spec on one grid with its gain, arm trains and relative arm phase fixed.

    Made by `calibrate_interferometer`; `interferometric_B_dag` applies it
    to any number of states on that grid.
    """

    spec: InterferometerSpec
    grid: Grid1D
    alpha: float
    derivative_arm: OpticalTrain
    multiplication_arm: OpticalTrain
    phase: float


def calibrate_interferometer(spec: InterferometerSpec, grid: Grid1D,
                             units: PhysicalUnits) -> CalibratedInterferometer:
    """Pin the gain and the relative arm phase of spec on grid.

    The gain alpha is 95% of the passivity bound, and both arm trains are
    built once with it.  The derivative arm emerges with a unit-modulus
    constant attached (a real Fourier-plane ramp synthesizes the derivative
    only up to a quadrature phase, and its relay adds path phase).  One
    least-squares phase against the algebraic target on the centered unit
    Gaussian pins it, mirroring the path-length trim of a physical
    interferometer.
    """
    alpha = 0.95 * alpha_passivity_bound(spec, grid, units)
    arms = _arm_trains(spec, grid, units, alpha)
    reference = gaussian_packet(grid)
    lower, upper = _arm_outputs(reference, spec, arms)
    target = math.sqrt(2.0) * alpha * apply_B_dag(
        reference, spec.superpotential).values - upper
    overlap = np.vdot(lower, target)
    if abs(overlap) < 1e-300:
        raise NumericalError(
            "calibration reference produces no derivative-arm signal")
    return CalibratedInterferometer(spec, grid, alpha, *arms,
                                    float(np.angle(overlap)))


def interferometric_B_dag(psi: WaveFunction,
                          calibrated: CalibratedInterferometer) -> WaveFunction:
    """Assemble B+ psi from the two simulated arms of a calibrated interferometer.

    Both arms are propagated element by element; the derivative arm gets
    the calibration phase, the arms are summed, and the known gain
    sqrt(2)*alpha is divided out.  The output approximates apply_B_dag(psi)
    and is unnormalized like it.
    """
    if psi.representation != POSITION:
        raise ContractError("interferometric_B_dag expects a position-space field")
    if psi.grid != calibrated.grid:
        raise ContractError("interferometer was calibrated on a different grid")
    lower, upper = _arm_outputs(psi, calibrated.spec, (
        calibrated.derivative_arm, calibrated.multiplication_arm))
    combined = (upper + np.exp(1j * calibrated.phase) * lower) \
        / (math.sqrt(2.0) * calibrated.alpha)
    return psi.with_values(combined)
