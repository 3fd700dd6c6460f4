"""Uniform 1D grids, sampled wavefunctions, the unitary Fourier transform and multipliers.

Everything downstream (operator algebra, split-step evolution, the optical
bench) works on a periodic uniform grid.  Positions are measured in units of
the oscillator length x0 and momenta in 1/x0; the transform convention is the
unitary one,

    psi_tilde(p) = (2*pi)**-0.5 * integral psi(x) exp(-i p x) dx,

discretized so that the round trip and Parseval's identity hold to machine
precision.  Momentum-space arrays are stored in FFT-native order; consumers
must address momenta through ``Grid1D.p`` and never through raw indices.

A field holds one state (n,) or a stack of m states (m, n), grid on the last
axis.  Transforms act along it and `inner`, `norm` and `fidelity` reduce
along it (a Python scalar for one state), with each row's arithmetic exactly
that of the row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import sqrt, tau as two_pi

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateStateError

POSITION = "position"
MOMENTUM = "momentum"

_SQRT_2PI = sqrt(two_pi)


def _frozen(values: np.ndarray) -> np.ndarray:
    """values made read-only in place: a fresh array a field then shares, not copies."""
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with n samples.

    The right endpoint is excluded: x_i = x_min + i*dx with dx = (x_max -
    x_min)/n, which is the sampling an FFT expects.  ``p`` holds the conjugate
    momenta 2*pi*j/(n*dx) for j in [-n/2, n/2), in FFT-native storage order.
    The coordinate arrays, the order of the samples by distance from x = 0
    and the transform phases are computed once per grid and are read-only.
    """

    n: int
    x_min: float
    x_max: float

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def dp(self) -> float:
        return two_pi / (self.n * self.dx)

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def p(self) -> np.ndarray:
        return _frozen(two_pi * np.fft.fftfreq(self.n, d=self.dx))

    @cached_property
    def distance_order(self) -> np.ndarray:
        """Sample indices sorted by |x|, ties in index order."""
        return _frozen(np.argsort(np.abs(self.x), kind="stable"))

    @cached_property
    def _unitary_phase(self) -> np.ndarray:
        """u = (dx / sqrt(2 pi)) exp(-i p x_min): the unitary momentum state is u * fft(psi)."""
        return _frozen((self.dx / _SQRT_2PI) * np.exp(-1j * self.p * self.x_min))

    @cached_property
    def _inverse_phase(self) -> np.ndarray:
        """exp(i p x_min), applied before the inverse FFT."""
        return _frozen(np.exp(1j * self.p * self.x_min))

    def weight(self, representation: str) -> float:
        """Quadrature weight of the given representation (dx or dp)."""
        return self.dx if representation == POSITION else self.dp


def make_grid(n: int, x_min: float, x_max: float) -> Grid1D:
    """Build a grid, rejecting non-positive extent or fewer than 2 points.

    A power-of-two ``n`` is recommended (the transforms are plain FFTs) but
    not required.
    """
    problems = []
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        problems.append(f"n must be an integer, got {n!r}")
    elif n < 2:
        problems.append(f"n must be at least 2, got {n}")
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        problems.append(f"domain bounds must be finite, got [{x_min}, {x_max}]")
    elif not x_max > x_min:
        problems.append(f"domain extent must be positive, got [{x_min}, {x_max}]")
    if problems:
        raise ConfigurationError("; ".join(problems))
    return Grid1D(int(n), float(x_min), float(x_max))


def _grid_values(values, dtype, n: int, what: str) -> np.ndarray:
    """values as a read-only, C-ordered (n,) or (m, n) array of dtype.

    A C-ordered array that is already read-only and owns its data is
    shared; any other input is copied, so later writes to it cannot reach
    the field, and every row is contiguous, as a state alone would be.
    """
    vals = np.asarray(values, dtype=dtype)
    if vals.ndim not in (1, 2) or vals.shape[-1] != n:
        raise ContractError(
            f"{what} shape {vals.shape} does not match grid size {n}: "
            f"expected ({n},) or (m, {n})")
    if (vals.flags.writeable or not vals.flags.owndata
            or not vals.flags.c_contiguous):
        vals = _frozen(vals.copy(order="C"))
    return vals


@dataclass(frozen=True)
class WaveFunction:
    """Complex field sampled on a grid, tagged with its representation.

    Values are one state (n,) or a stack of states (m, n).  They are never
    mutated in place; every operation returns a new instance.  Norms need
    not be 1 (operators like B-dagger produce unnormalized output on
    purpose).
    """

    grid: Grid1D
    values: np.ndarray = field(compare=False)
    representation: str = POSITION

    def __post_init__(self):
        if self.representation not in (POSITION, MOMENTUM):
            raise ContractError(
                f"unknown representation {self.representation!r}")
        object.__setattr__(self, "values", _grid_values(
            self.values, np.complex128, self.grid.n, "values"))

    def with_values(self, values: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, values, self.representation)


def _check_compatible(a: WaveFunction, b: WaveFunction) -> None:
    if a.grid != b.grid:
        raise ContractError(
            f"grid mismatch: {a.grid} vs {b.grid}")
    if a.representation != b.representation:
        raise ContractError(
            f"representation mismatch: {a.representation} vs {b.representation}")
    try:
        np.broadcast_shapes(a.values.shape, b.values.shape)
    except ValueError:
        raise ContractError(
            f"stack mismatch: {a.values.shape} vs {b.values.shape}") from None


def _per_state(x):
    """A reduction's result: a Python scalar for one state, an array for a stack."""
    return x.item() if np.ndim(x) == 0 else x


def inner(a: WaveFunction, b: WaveFunction):
    """Sesquilinear inner product <a|b> with the representation's weight.

    One state against a stack, or two stacks row by row, gives one product
    per row.
    """
    _check_compatible(a, b)
    return _per_state(np.vecdot(a.values, b.values) * a.grid.weight(a.representation))


def norm(a: WaveFunction):
    """L2 norm under the grid quadrature, per row of a stack: one vecdot pass, no temporary."""
    v = a.values
    return _per_state(np.sqrt(np.vecdot(v, v).real * a.grid.weight(a.representation)))


def normalized(a: WaveFunction) -> WaveFunction:
    """Rescale to unit norm, per row of a stack.  A zero field cannot be normalized."""
    n = norm(a)
    if np.any(np.equal(n, 0.0)) or not np.all(np.isfinite(n)):
        raise DegenerateStateError(f"cannot normalize field with norm {n}")
    return a.with_values(_frozen(a.values / np.expand_dims(n, -1)))


def fidelity(a: WaveFunction, b: WaveFunction):
    """Overlap |<a|b>| / (||a|| ||b||), per row of a stack.

    Insensitive to global phase and to the input norms.
    """
    _check_compatible(a, b)
    weight, a, b = a.grid.weight(a.representation), a.values, b.values
    na = np.sqrt(np.vecdot(a, a).real * weight)
    nb = np.sqrt(np.vecdot(b, b).real * weight)
    if not (na.all() and nb.all()):  # a zero norm; the methods cost less than np.any
        raise DegenerateStateError("fidelity of a zero-norm field is undefined")
    overlap = np.vecdot(a, b) * weight
    # hypot rounds as abs() of a Python complex does; np.abs differs in the last bit
    f = np.hypot(overlap.real, overlap.imag) / (na * nb)
    # clip the rounding overshoot so downstream 1 - F stays signed correctly
    return _per_state(np.minimum(f, 1.0))


def to_momentum(psi: WaveFunction) -> WaveFunction:
    """Unitary transform to the momentum representation.

    The phase factor exp(-i p x_min) anchors the transform to the physical
    origin rather than to array index 0, so analytic identities (Gaussian
    self-duality, the shift theorem) hold on the nose.
    """
    if psi.representation == MOMENTUM:
        raise ContractError("state is already in the momentum representation")
    g = psi.grid
    vals = g._unitary_phase * np.fft.fft(psi.values)
    return WaveFunction(g, _frozen(vals), MOMENTUM)


def to_position(psi: WaveFunction) -> WaveFunction:
    """Inverse of :func:`to_momentum`; round trips are exact to rounding."""
    if psi.representation == POSITION:
        raise ContractError("state is already in the position representation")
    g = psi.grid
    vals = (_SQRT_2PI / g.dx) * np.fft.ifft(g._inverse_phase * psi.values)
    return WaveFunction(g, _frozen(vals), POSITION)


def fourier_multiply(psi: WaveFunction, symbol) -> WaveFunction:
    """F^-1(symbol * F psi): a position-space state under a Fourier multiplier.

    symbol is sampled on ``psi.grid.p``: i*p is d/dx, exponentially accurate
    for states that decay inside the domain, and exp(-i p^2 tau / 2) is free
    evolution for a time tau.  A stack's rows are each transformed alone.
    """
    if psi.representation != POSITION:
        raise ContractError("fourier_multiply expects a position-space state")
    return psi.with_values(_frozen(np.fft.ifft(symbol * np.fft.fft(psi.values))))


def gaussian_packet(grid: Grid1D, center: float = 0.0, width: float = 1.0,
                    momentum: float = 0.0) -> WaveFunction:
    """Normalized Gaussian (pi w^2)^-1/4 exp(-(x-c)^2 / 2w^2) exp(i q x).

    The center must lie in the window [x_min, x_max), and the grid must
    resolve the width and hold it: dx <= w <= x_max - x_min.
    """
    if not grid.x_min <= center < grid.x_max:
        raise ConfigurationError(f"center must lie in the window [{grid.x_min!r}, "
                                 f"{grid.x_max!r}), got {center!r}")
    length = grid.x_max - grid.x_min
    if not grid.dx <= width <= length:
        raise ConfigurationError(
            f"width must lie between the grid spacing {grid.dx!r} and the "
            f"window length {length!r}, got {width!r}")
    x = grid.x
    u = (x - center) / width
    vals = np.pi ** -0.25 / sqrt(width) * np.exp(-0.5 * u * u + 1j * momentum * x)
    return WaveFunction(grid, vals, POSITION)


def _check_battery(count, seed) -> None:
    """The rules on a battery's size and seed, checked without drawing a state."""
    if count < 1:
        raise ConfigurationError(f"battery needs at least one state, got {count}")
    if seed < 0:
        raise ConfigurationError(f"battery seed must be non-negative, got {seed}")


def make_random_states(grid, count, seed, center=0.0, width=1.0):
    """Smooth random test states: Gaussian-enveloped Hermite superpositions.

    Band-limited by construction (polynomial times Gaussian), so ladder
    operators act on them without amplifying grid noise; raw white-noise
    states would probe the discretization, not the physics.  Coefficients
    are complex normal with geometric damping `decay` per mode.
    """
    modes = 4  # Hermite orders 0..4
    decay = 0.8
    _check_battery(count, seed)
    rng = np.random.default_rng(seed)
    u = (grid.x - center) / width
    modes_ = [np.exp(-0.5 * u * u)]
    for m in range(1, modes + 1):
        nxt = sqrt(2.0 / m) * u * modes_[-1]
        if m >= 2:
            nxt -= sqrt((m - 1) / m) * modes_[-2]
        modes_.append(nxt)
    states = []
    for _ in range(count):
        coeff = (rng.standard_normal(modes + 1)
                 + 1j * rng.standard_normal(modes + 1)) * decay ** np.arange(modes + 1)
        vals = sum(c * h for c, h in zip(coeff, modes_))
        states.append(normalized(WaveFunction(grid, vals)))
    return states
