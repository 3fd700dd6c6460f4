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
from .evolution import ORDERS
from .grids import POSITION, Grid1D, WaveFunction, _frozen, fourier_multiply, gaussian_packet
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
        try:  # the distance per unit time, in the form the time maps use
            scale = self.k * self.x0_m**2
        except OverflowError:
            scale = math.inf
        if not (math.isfinite(scale) and scale > 0):
            raise ConfigurationError(
                f"k x0^2 must be a finite positive float, got {scale} m")

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
    """Half-width (in grid units) of the interval around x=0 holding 99.99% of the mass.

    A stack's spot is that of its widest row.
    """
    fraction = 0.9999
    weights = np.abs(psi.values) ** 2
    total = weights.sum(axis=-1, keepdims=True)
    if np.any(total == 0.0):
        raise DegenerateStateError("spot size of a zero field is undefined")
    order = psi.grid.distance_order
    mass = np.cumsum(weights[..., order], axis=-1) / total
    # mass never decreases, so this count is searchsorted(mass, fraction) per row
    idx = np.minimum(np.count_nonzero(mass < fraction, axis=-1), psi.grid.n - 1)
    return float(np.max(np.abs(psi.grid.x[order[idx]])))


# --- optical elements -------------------------------------------------------

@dataclass(frozen=True)
class FreeSpace:
    """Paraxial free-space gap of z = `length_m` meters; z = 0 is the identity.

    Acts as the free-particle Fourier multiplier for the mapped time
    z/(k x0^2), times the plane-wave phase e^{ikz}; a time that overflows is
    a ContractError.  Warns (ParaxialWarning) when the parabolic-wavefront
    condition looks strained for the current spot size: (rho/z)^2 > 1e-2.
    """

    length_m: float
    name = "free_space"

    def __post_init__(self):
        if not (np.isfinite(self.length_m) and self.length_m >= 0):
            raise ConfigurationError(f"free-space length must be >= 0, got {self.length_m}")

    @property
    def text(self) -> str:
        return f"z_m={self.length_m!r}"

    def apply(self, field_: WaveFunction, units: PhysicalUnits) -> WaveFunction:
        if self.length_m == 0.0:
            return field_
        tau = map_distance_to_time(self.length_m, units)
        if not math.isfinite(tau):
            raise ContractError(f"free-space gap maps to a non-finite time {tau}")
        out = fourier_multiply(field_, np.exp(-0.5j * field_.grid.p**2 * tau))
        rho_m = spot_size(field_) * units.x0_m
        ratio = (rho_m / self.length_m) * (rho_m / self.length_m)  # * overflows to inf; ** raises
        if ratio > PARAXIAL_LIMIT:
            warnings.warn(
                f"paraxial ratio rho^2/z^2 = {ratio:.3e} exceeds {PARAXIAL_LIMIT:.0e} "
                f"(spot {rho_m:.3e} m over z = {self.length_m:.3e} m); treat results with care",
                ParaxialWarning, stacklevel=2)
        return out.with_values(_frozen(out.values * np.exp(1j * units.k * self.length_m)))


def _check_lens(f_m: float, aperture_m: float) -> None:
    for what, value in (("focal length", f_m), ("aperture", aperture_m)):
        if not value > 0:
            raise ConfigurationError(f"{what} must be positive, got {value}")


@dataclass(frozen=True)
class ThinElement:
    """Thin element multiplying the field by a transmission tabulated on the grid.

    `thin_lens`, `phase_plate` and `amplitude_modulator` build one.  Every thin
    element is passive: its transmission is a finite 1-d array with |t| <= 1.
    """

    name: str
    transmission: np.ndarray = field(compare=False)
    text: str
    length_m = 0.0

    def __post_init__(self):
        t = np.array(self.transmission)
        if t.ndim != 1 or not np.all(np.isfinite(t)):
            raise ConfigurationError(f"{self.name} transmission must be a finite 1-d array")
        if np.any(np.abs(t) > 1.0 + 1e-12):
            raise ConfigurationError(f"{self.name} transmission reaches {np.max(np.abs(t)):.6f}; "
                                     "a passive element cannot exceed unit magnitude")
        object.__setattr__(self, "transmission", _frozen(t))

    def apply(self, field_: WaveFunction, units: PhysicalUnits) -> WaveFunction:
        if self.transmission.shape != (field_.grid.n,):
            raise ContractError(f"{self.name} was tabulated for a different grid")
        return field_.with_values(_frozen(field_.values * self.transmission))


def thin_lens(f_m: float, aperture_m: float, grid: Grid1D, units: PhysicalUnits) -> ThinElement:
    """Thin lens: the chirp exp(-i k X^2 / 2f) inside a hard aperture, zero outside.

    aperture_m is the aperture's symmetric half-width in meters, inf for a clear lens.
    """
    _check_lens(f_m, aperture_m)
    x_m = grid.x * units.x0_m
    with np.errstate(over="ignore", invalid="ignore"):  # ThinElement refuses a non-finite chirp
        chirp = np.exp(-0.5j * units.k * x_m**2 / f_m)
    return ThinElement("thin_lens", np.where(np.abs(x_m) <= aperture_m, chirp, 0.0),
                       f"f_m={f_m!r} aperture_m={aperture_m!r}")


def phase_plate(phase) -> ThinElement:
    """Thin plate applying exp(-i phase(x)) pointwise; phase in radians per grid point."""
    phase = np.asarray(phase, dtype=float)
    with np.errstate(invalid="ignore"):  # a non-finite phase gives NaNs, which ThinElement refuses
        transmission = np.exp(-1j * phase)
    return ThinElement("phase_plate", transmission, f"n_points={phase.size} "
                       f"max_abs_phase_rad={float(np.max(np.abs(phase)))!r}")


def amplitude_modulator(profile) -> ThinElement:
    """Thin mask multiplying the field by a real profile in [-1, 1].

    A negative value encodes a pi phase on top of its magnitude, the standard
    trick for synthesizing sign-changing profiles.
    """
    profile = np.asarray(profile, dtype=float)
    return ThinElement("amplitude_modulator", profile, f"n_points={profile.size} "
                       f"max_abs={float(np.max(np.abs(profile)))!r}")


def _mirror_index(g: Grid1D) -> int:
    mirror = -2.0 * g.x_min * g.n / (g.x_max - g.x_min)  # x_i -> -x_i is i -> mirror - i
    if abs(mirror - round(mirror)) > 1e-9 * g.n:
        raise ContractError("ideal parity needs a lattice that mirrors about x = 0; "
                            f"this grid mirrors at index {mirror!r} of {g.n}")
    return round(mirror)


@dataclass(frozen=True)
class ParityFlip:
    """Idealized lens-pair image inversion, abstracted to exact parity.

    x -> -x about the optical axis, row by row: an exact involution on a
    lattice that mirrors about x = 0, and a ContractError on any other.
    """

    name = "parity_flip"
    length_m = 0.0
    text = "-"

    def apply(self, field_: WaveFunction, units: PhysicalUnits) -> WaveFunction:
        n = field_.grid.n
        return field_.with_values(_frozen(np.roll(
            field_.values[..., ::-1], (_mirror_index(field_.grid) + 1 - n) % n, axis=-1)))


@dataclass(frozen=True)
class OpticalTrain:
    """Ordered thin elements separated by free space; the compiled bench layout.

    An element is any object with a layout `name`, a `length_m` along the
    axis, a `text` of its SI parameters and an `apply(field_, units)`.
    """

    elements: tuple
    units: PhysicalUnits

    def __post_init__(self):
        elements = tuple(self.elements)
        for e in elements:
            if not all(hasattr(e, a) for a in ("name", "length_m", "text", "apply")):
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
            lines.append(f"{z!r}\t{e.name}\t{e.text}")
            z += e.length_m
        return "\n".join(lines) + "\n"


def simulate_train(field_: WaveFunction, train: OpticalTrain) -> WaveFunction:
    """Fold the field through every element in order."""
    out = field_
    for element in train.elements:
        out = element.apply(out, train.units)
    return out


def compile_trotter_train(plan, V, units: PhysicalUnits) -> OpticalTrain:
    """Bench layout of a split-step plan: phase plates in free space.

    With (lead, trail) = ORDERS[plan.order], a gap of lead dt (left out when
    zero) leads n plates with full dt gaps between them and a last gap of
    trail dt.  Simulating the train reproduces the abstract propagator up to
    the plane-wave phase of the total path, e^{i k z_total}.  It runs one order.
    """
    if not isinstance(plan.order, str):
        raise ConfigurationError(f"a plate train runs one product order, got {plan.order!r}")
    if plan.n_steps == 0:
        return OpticalTrain((), units)
    lead, trail = (FreeSpace(map_time_to_distance(f * plan.dt, units))
                   for f in ORDERS[plan.order])
    gap = FreeSpace(map_time_to_distance(plan.dt, units))
    plate = phase_plate(V.values * plan.dt)
    elements = ([lead] if lead.length_m else []) + [plate, gap] * (plan.n_steps - 1) + [plate, trail]
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
        _check_lens(self.focal_length_m, self.aperture_m)
        FreeSpace(self.focal_length_m)
        if self.parity_mode not in PARITY_MODES:
            raise ConfigurationError(
                f"parity_mode must be one of {PARITY_MODES}, got {self.parity_mode!r}")


def alpha_passivity_bound(spec: InterferometerSpec, grid: Grid1D,
                          units: PhysicalUnits) -> float:
    """Largest common gain keeping both arm modulators passive (|profile| <= 1).

    The derivative arm needs |alpha x / tau_f| <= 1 across the aperture
    (tau_f = f/(k x0^2) is the mapped time of one focal length); the
    multiplication arm needs |alpha W| <= 1 there.  A gain of 95% of the bound
    must be a float whose rounding unit is normal, at least about 1e-292.
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
    alpha = 0.95 * min(bounds)  # the arm fields scale with it: keep their rounding unit normal
    if not np.finfo(float).tiny <= alpha * np.finfo(float).eps < np.inf:
        raise ConfigurationError(f"interferometer gain {alpha!r} lies outside [1e-292, inf)")
    return min(bounds)


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
    f = spec.focal_length_m
    inside = np.abs(grid.x) <= spec.aperture_m / units.x0_m
    lens = thin_lens(f, spec.aperture_m, grid, units)
    # front focal plane -> back focal plane: exact scaled Fourier transform
    fourier = (FreeSpace(f), lens, FreeSpace(f))
    # an exact inversion, or a two-lens 4f relay: unit magnification image
    # inversion with the constant -i e^{4ikf}
    parity = ((ParityFlip(),) if spec.parity_mode == "ideal"
              else (FreeSpace(f), lens, FreeSpace(2 * f), lens, FreeSpace(f)))
    ramp = np.where(inside, alpha * grid.x / map_distance_to_time(f, units), 0.0)
    lower = OpticalTrain((*fourier, amplitude_modulator(ramp), *fourier, *parity), units)
    # the mask sits between two inversions, so it is tabulated mirrored
    w_mirrored = np.asarray(spec.superpotential.value(-grid.x), dtype=float)
    mask = np.where(inside, alpha * w_mirrored, 0.0)
    upper = OpticalTrain((*parity, amplitude_modulator(mask), *parity), units)
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
    # at the rounding of an n-term sum the overlap's phase is noise
    scale = np.linalg.norm(lower) * np.linalg.norm(target)
    if abs(overlap) <= grid.n * np.finfo(float).eps * scale:
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
