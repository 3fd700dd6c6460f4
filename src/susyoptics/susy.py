"""Partner-potential machinery: superpotential, ladder operators, spectra.

The generating object is a superpotential W(x).  From it, in natural units
(hbar = m = 1):

    B  = (d/dx + W)/sqrt(2)        B+ = (-d/dx + W)/sqrt(2)
    H1 = B B+  with  V1 = (W^2 + W')/2
    H2 = B+ B  with  V2 = (W^2 - W')/2

H1 and H2 share every eigenvalue except the zero-energy ground state of H2,
which exists whenever exp(-integral W) is normalizable (the trap term of the
family below guarantees that).  B+ maps the n-th state of H1 onto the
(n+1)-th state of H2 and intertwines the two propagators, which is what the
dynamics experiments verify.

Spectra come from one eigensolver.  The operator is `dense_hamiltonian`, a
Hamiltonian whose kinetic block is spectral (exact on the grid's band
limit); this is the discretization the split-step propagator and the
ladder operators share, which is why partner degeneracy holds at the 1e-6
level, where a central-difference stencil would add O(dx^2) dispersion
error (~1e-4 on the default grid).  The low states occupy a narrow Fourier
band, so a coarser grid over the same box is solved whole (numpy's `eigh`;
the module needs nothing else) and the eigenvectors of its lowest pairs are
interpolated back; the band widens until they pass a full-grid check (the
full grid is the last resort).  For `bound_spectrum` that is each pair's
residual; for the propagation oracle `evolution.eigenbasis` it is one bound
on the error of each evolved state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, NumericalError
from .grids import (
    POSITION,
    Grid1D,
    WaveFunction,
    _grid_values,
    normalized,
    spectral_derivative,
)

_SQRT2 = math.sqrt(2.0)

# low-lying states only: the harmonic confinement keeps these far from the
# discretization-corrupted top of the spectrum
MAX_BOUND_LEVELS = 16

# the full-grid residual ||H v - E v|| each `bound_spectrum` pair must meet,
# and the oracle's bound on an evolved state's error, relative to its norm
RESIDUAL_TOL = 1e-8
ORACLE_TOL = 1e-8

# an oracle basis keeps the lowest 1/BASIS_SHARE of a band's pairs: the top
# pairs of a coarse band lose orthogonality once interpolated
BASIS_SHARE = 4


@dataclass(frozen=True)
class Superpotential:
    """Trap-plus-barrier superpotential with analytic derivative.

        W(x) = sqrt(omega) * (x/x0 + A * exp(-x^2/(4 sigma^2)))

    with oscillator length x0 = 1/sqrt(omega).  A Gaussian bump of width
    sigma rides on the linear trap term; sigma defaults to x0/2, the width
    for which the eta-family construction below is available.  A = 0 is the
    plain harmonic superpotential.
    """

    omega: float = 1.0
    amplitude: float = math.sqrt(26.0)
    sigma: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ConfigurationError(f"omega must be positive, got {self.omega}")
        if not np.isfinite(self.amplitude):
            raise ConfigurationError(
                f"barrier amplitude must be finite, got {self.amplitude}")
        if self.sigma is None:
            object.__setattr__(self, "sigma", 0.5 * self.x0)
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")

    @property
    def x0(self) -> float:
        """Oscillator length 1/sqrt(omega)."""
        return 1.0 / math.sqrt(self.omega)

    def value(self, x):
        root_w = math.sqrt(self.omega)
        bump = self.amplitude * np.exp(-(x * x) / (4.0 * self.sigma**2))
        return root_w * (x / self.x0 + bump)

    def derivative(self, x):
        root_w = math.sqrt(self.omega)
        bump = self.amplitude * np.exp(-(x * x) / (4.0 * self.sigma**2))
        return root_w * (1.0 / self.x0 - x / (2.0 * self.sigma**2) * bump)

    def __call__(self, x):
        return self.value(x)


@dataclass(frozen=True)
class PotentialField:
    """Real potential sampled on a grid: one (n,) or a stack (m, n), one per state."""

    grid: Grid1D
    values: np.ndarray = field(compare=False)
    label: str = "custom"

    def __post_init__(self):
        vals = _grid_values(self.values, float, self.grid.n, "potential")
        if not np.all(np.isfinite(vals)):
            raise ContractError(f"potential {self.label!r} has non-finite values")
        object.__setattr__(self, "values", vals)


def partner_potential(W, which: int, grid: Grid1D) -> PotentialField:
    """Partner potential V1 = (W^2 + W')/2 or V2 = (W^2 - W')/2 on the grid.

    V1 belongs to H1 = B B+ and V2 to H2 = B+ B; their pointwise difference
    is exactly W'.
    """
    if which not in (1, 2):
        raise ConfigurationError(f"which must be 1 or 2, got {which!r}")
    w = np.asarray(W.value(grid.x), dtype=float)
    wp = np.asarray(W.derivative(grid.x), dtype=float)
    sign = 1.0 if which == 1 else -1.0
    return PotentialField(grid, 0.5 * (w * w + sign * wp), label=f"V{which}")


def eta_potential(W: Superpotential, eta, grid: Grid1D) -> PotentialField:
    """Members of the one-parameter family interpolating between V1 and V2.

        V_eta = (omega^2 x^2)/2 + (omega A^2/2) e^{-2 x^2/x0^2}
                + 2 eta omega A (x/x0) e^{-x^2/x0^2}

    eta scales the odd barrier term: eta = 0 gives V1 - omega/2 and eta = 1
    gives V2 + omega/2 (the same dynamics as the partners, shifted by a
    constant).  A scalar eta gives one (n,) potential, an array of m etas
    the (m, n) stack.  The construction collapses to this closed form only
    for sigma = x0/2, so other widths are rejected.
    """
    if abs(W.sigma - 0.5 * W.x0) > 1e-12 * W.x0:
        raise ConfigurationError(
            f"eta family requires sigma = x0/2; got sigma = {W.sigma} "
            f"with x0/2 = {0.5 * W.x0}")
    om, amp, x0 = W.omega, W.amplitude, W.x0
    eta = np.asarray(eta, dtype=float)
    u = grid.x / x0
    g = np.exp(-u * u)
    vals = 2.0 * eta[..., None] * om * amp * u  # the odd term, built in place
    vals *= g
    vals += 0.5 * om**2 * grid.x**2 + 0.5 * om * amp**2 * g * g
    vals.setflags(write=False)  # shared by the field, not copied
    label = f"eta({float(eta):g})" if eta.ndim == 0 else f"eta[{eta.size}]"
    return PotentialField(grid, vals, label=label)


def _apply_ladder(psi: WaveFunction, W, derivative_sign: float) -> WaveFunction:
    if psi.representation != POSITION:
        raise ContractError("ladder operators act on position-space states")
    w = np.asarray(W.value(psi.grid.x), dtype=float)
    dpsi = spectral_derivative(psi).values
    return psi.with_values((derivative_sign * dpsi + w * psi.values) / _SQRT2)


def apply_B(psi: WaveFunction, W) -> WaveFunction:
    """B psi = (psi' + W psi)/sqrt(2).  Output is not normalized."""
    return _apply_ladder(psi, W, +1.0)


def apply_B_dag(psi: WaveFunction, W) -> WaveFunction:
    """B+ psi = (-psi' + W psi)/sqrt(2).  Output is not normalized."""
    return _apply_ladder(psi, W, -1.0)


def dense_hamiltonian(V: PotentialField) -> np.ndarray:
    """Dense H whose kinetic block is the spectral operator p^2/2.

    The kinetic block is the circulant with symbol p^2/2 on the grid's
    momentum samples: exact for band-limited fields, periodic boundaries.
    This is the discretization the split-step propagator actually evolves
    under, so its eigenpairs are the right oracle for Trotter-error and
    partner-degeneracy statements at tolerances far below the reach of a
    second-order stencil.
    """
    g = V.grid
    kernel = np.real(np.fft.ifft(0.5 * g.p**2))  # imaginary part is rounding noise
    # the circulant, entry (i, j) = kernel[(i - j) % n], as a view of the
    # n windows of kernel[1:] + kernel read backwards; the sum copies it once
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((kernel[1:], kernel)), g.n)
    h = windows[:, ::-1] + np.diag(V.values)
    return 0.5 * (h + h.T)


def _interpolate(vecs: np.ndarray, n: int) -> np.ndarray:
    """Trigonometric interpolation of real columns onto n points of the same box.

    The spectrum is zero-padded; an even-length column's Nyquist mode is
    split between +p and -p, so the result is real.
    """
    m = vecs.shape[0]
    if m == n:
        return vecs
    spec = np.fft.rfft(vecs, axis=0)
    if m % 2 == 0:
        spec[-1] *= 0.5
    return np.fft.irfft(spec, n=n, axis=0) * (n / m)


def _apply_hamiltonian(V: PotentialField, vecs: np.ndarray) -> np.ndarray:
    """dense_hamiltonian(V) @ vecs for real columns, without forming the matrix."""
    g = V.grid
    kin = 0.5 * g.p[:g.n // 2 + 1, None] ** 2  # symbol on the rfft bins
    return (np.fft.irfft(kin * np.fft.rfft(vecs, axis=0), n=g.n, axis=0)
            + V.values[:, None] * vecs)


def _oracle_coefficients(vecs: np.ndarray, residuals: np.ndarray,
                         values: np.ndarray, t: float, label: str):
    """Coefficients c = Q^T psi of each row of `values`, certified for time t.

    With E_j the Rayleigh quotients of the columns q_j of Q and r_j their
    residuals ||H q_j - E_j q_j||, Duhamel's formula bounds the error of the
    evolved expansion for any Q, orthonormal or not:

        ||exp(-iHt) psi - Q exp(-iEt) c|| <= ||psi - Q c|| + |t| sum_j |c_j| r_j.

    Returns c (r x m) and the largest such bound relative to ||psi||, and
    raises NumericalError above ORACLE_TOL.  Each state enters as two real
    columns, so Q is never copied to complex.
    """
    m = values.shape[0]
    parts = np.concatenate((values.real, values.imag)).T
    c = vecs.T @ parts
    lost = np.linalg.norm(parts - vecs @ c, axis=0)
    coeff = c[:, :m] + 1j * c[:, m:]
    drift = abs(t) * (residuals @ np.abs(coeff))
    bound = float(np.max((np.hypot(lost[:m], lost[m:]) + drift)
                         / np.linalg.norm(values, axis=1)))
    if not bound <= ORACLE_TOL:
        raise NumericalError(
            f"eigenpairs of {label!r} leave a state uncaptured: its error bound "
            f"at |t| = {abs(t):g} is {bound:.3e} (limit {ORACLE_TOL:.1e})")
    return coeff, bound


def _band_eigenpairs(V: PotentialField, k: int | None = None,
                     values: np.ndarray | None = None, t: float = 0.0):
    """Lowest eigenpairs of `dense_hamiltonian(V)` from the occupied Fourier band.

    The band is that of a coarser grid over the same box: V is sampled at
    every s-th point (s a power of two dividing n), the whole band is solved
    there, and the eigenvectors of its r lowest pairs are carried back by
    trigonometric interpolation.  On the full grid each pair then gets its
    Rayleigh-quotient energy and the matrix-free residual ||H v - E v||.
    With `k`, r = k and every residual must be within RESIDUAL_TOL; with the
    state rows `values`, r is 1/BASIS_SHARE of the band, and every state's
    `_oracle_coefficients` bound at time t must hold.  Else s is halved;
    s = 1 is the full grid.

    Returns (energies, vectors, residuals, band_points) with unit 2-norm
    vectors as the columns of an n x r array.
    """
    grid = V.grid
    n = grid.n
    strides = [2**j for j in range(n.bit_length())
               if n % 2**j == 0 and n // 2**j > (k or 1)]
    for s in reversed(strides):
        m = n // s
        coarse = PotentialField(Grid1D(m, grid.x_min, grid.x_max),
                                V.values[::s], V.label)
        r = k or max(1, m // BASIS_SHARE)
        try:
            _, cvecs = np.linalg.eigh(dense_hamiltonian(coarse))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigensolver failed on {V.label!r}: {exc}") from exc
        vecs = _interpolate(cvecs[:, :r], n)
        del cvecs  # the m x m matrix: on the full grid vecs views it until normalized
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        hv = _apply_hamiltonian(V, vecs)
        energies = np.einsum("ij,ij->j", vecs, hv)
        resid = np.linalg.norm(hv - vecs * energies, axis=0)
        if k is None:
            try:
                _oracle_coefficients(vecs, resid, values, t, V.label)
            except NumericalError as exc:
                failure = exc
                continue
        elif not resid.max() <= RESIDUAL_TOL:
            failure = NumericalError(f"eigensolver residual {resid.max():.3e} exceeds "
                                     f"{RESIDUAL_TOL:.1e} on {V.label!r}")
            continue
        return energies, vecs, resid, m
    raise failure


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenpairs of a discretized Hamiltonian.

    band_points is the size of the grid the pairs were diagonalized on.
    """

    grid: Grid1D
    energies: np.ndarray
    states: tuple
    residuals: np.ndarray
    band_points: int
    label: str = ""


def bound_spectrum(V: PotentialField, k: int) -> SpectrumResult:
    """k lowest bound states of p^2/2 + V, the operator of `dense_hamiltonian`.

    The pairs come from the occupied Fourier band and every residual
    ||H v - E v|| is checked on the full grid against RESIDUAL_TOL.
    Eigenstates come back quadrature-normalized with a deterministic sign.
    """
    if V.values.ndim != 1:
        raise ContractError("bound_spectrum takes one potential, not a stack")
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_BOUND_LEVELS:
        raise ConfigurationError(
            f"k must be an integer in [1, {MAX_BOUND_LEVELS}], got {k!r} "
            "(solver is scoped to low-lying bound states)")
    grid = V.grid
    if k >= grid.n:
        raise ConfigurationError(f"k = {k} requires a grid larger than {grid.n} points")
    energies, vecs, resid, band = _band_eigenpairs(V, k=int(k))
    # deterministic sign: largest-magnitude component made positive
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.sign(vecs[lead, np.arange(vecs.shape[1])])
    states = tuple(
        WaveFunction(grid, vecs[:, j] / math.sqrt(grid.dx)) for j in range(k))
    return SpectrumResult(grid, energies, states, resid, band, V.label)


@dataclass(frozen=True)
class DegeneracyReport:
    """Offset pairing of two partner spectra: E1_n against E2_(n+1)."""

    pair_count: int
    gaps: np.ndarray
    unpaired_ground: float

    @property
    def max_gap(self) -> float:
        return float(self.gaps.max()) if self.pair_count else 0.0


def check_degeneracy(s1: SpectrumResult, s2: SpectrumResult) -> DegeneracyReport:
    """Pair E1_n with E2_(n+1), leaving the ground state of spectrum 2 alone.

    The gaps and the unpaired ground energy are reported, not gated here.
    """
    if s1.grid != s2.grid:
        raise ContractError("spectra were computed on different grids")
    m = max(min(len(s1.energies), len(s2.energies) - 1), 0)
    gaps = np.abs(s1.energies[:m] - s2.energies[1:m + 1])
    return DegeneracyReport(m, gaps, float(s2.energies[0]))


def zero_mode(W: Superpotential, grid: Grid1D) -> WaveFunction:
    """Normalized zero-energy ground state of H2, proportional to exp(-int W).

    Annihilated by B.  It is normalizable because the linear trap term of W
    dominates the bounded barrier term at large |x|.  The antiderivative of
    the trap-plus-barrier form is analytic.
    """
    s = W.sigma
    erf = np.vectorize(math.erf, otypes=[float])
    anti = math.sqrt(W.omega) * (
        grid.x**2 / (2.0 * W.x0)
        + W.amplitude * s * math.sqrt(math.pi) * erf(grid.x / (2.0 * s)))
    anti = anti - anti.min()  # exp argument <= 0: no overflow, underflow is harmless
    return normalized(WaveFunction(grid, np.exp(-anti)))
