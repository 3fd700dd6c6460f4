"""Split-step propagation and the band-limited diagonalization oracle.

The propagator factorizes into kinetic pieces (diagonal in momentum space)
and potential pieces (diagonal in position space).  The symmetric
second-order product

    U(dt) ~ K(dt/2) P(dt) K(dt/2)

carries a state error falling as (t/n)^2 over n steps; the plain first-order
product K(dt) P(dt) falls as 1/n.  Note the overlap infidelity 1 - F decays
twice as fast as the state error, because a coherent error vector enters the
overlap only quadratically; convergence scans therefore report both columns,
and slope fits should use the state-error one.

`trotter_states` is the one split-step kernel, for one state (n,) or a
stack (m, n) under one shared (n,) potential or one (m, n) row per state,
in position or momentum space.  Each step is one batched transform pair
along the grid axis, and a stack reproduces m separate runs bit for bit.
A momentum-space sample is the transformed state the step already holds,
times a phase; a second-order position-space sample costs one more inverse
transform.  The carry is updated in place and each sample is one fresh
array, so the kernel holds three stacks: the potential phases, the carry
and the sample it is producing.

The reference propagator (`exact_evolve`) expands states in eigenpairs of
the Hamiltonian with the spectral kinetic block, the discrete operator the
split-step factors approximate.  The Fourier band the states occupy is
diagonalized (`susy.bound_spectrum`'s solver) and the lowest quarter of its
pairs kept; a state is evolved only if an a-posteriori bound on the error of
its evolved expansion is within 1e-8 of its norm, so the comparison
isolates the Trotter error with no spatial-discretization floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateStateError, NumericalError
from .grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    WaveFunction,
    fidelity,
    norm,
)
from .susy import PotentialField, _band_eigenpairs, _oracle_coefficients

ORDERS = ("first", "second")


@dataclass(frozen=True)
class TrotterPlan:
    """Step length, count, and product order for a split-step evolution."""

    dt: float
    n_steps: int
    order: str = "second"

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 0:
            raise ConfigurationError(
                f"n_steps must be a non-negative integer, got {self.n_steps!r}")
        if self.order not in ORDERS:
            raise ConfigurationError(
                f"order must be one of {ORDERS}, got {self.order!r}")

    @property
    def total_time(self) -> float:
        return self.dt * self.n_steps


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled probability densities along an evolution, plus the final state."""

    times: np.ndarray
    densities: np.ndarray
    final_state: WaveFunction


def kinetic_step(psi: WaveFunction, tau: float) -> WaveFunction:
    """Free evolution for time tau: multiply by exp(-i p^2 tau / 2) in momentum space."""
    if psi.representation != POSITION:
        raise ContractError("kinetic_step expects a position-space state")
    if tau < 0:
        raise ContractError(f"kinetic_step propagates forward only, got tau = {tau}")
    if tau == 0:
        return psi
    g = psi.grid
    vals = np.fft.ifft(np.exp(-0.5j * g.p**2 * tau) * np.fft.fft(psi.values))
    return psi.with_values(vals)


def trotter_states(psi: WaveFunction, V: PotentialField, plan: TrotterPlan,
                   stride: int = 1):
    """Yield (step_index, state) at step 0 and every `stride` steps (plus the last).

    psi is one state (n,) or a stack (m, n), in either representation, and
    every sample is in that same representation; V is one (n,) potential
    for every row or an (m, n) stack of them, one per row.  Step 0 yields
    psi itself; every later sample is a fresh read-only array.

    One loop serves both orders, because the second-order product is the
    first-order one conjugated by a half kinetic step:

        [K(dt/2) P K(dt/2)]^j = K(-dt/2) [K(dt) P]^j K(dt/2).

    The loop carries w, the position-space state just before the next
    potential kick: psi itself for first order, K(dt/2) psi for second
    order.  Each step forms s = F(P w) and advances w to F^-1(s K(dt)).
    The sample is s K_out, with K_out = K(dt) for first order and K(dt/2)
    for second, taken to position as F^-1(s K_out) (in first order that is
    the next w) or to momentum as s (K_out u), where u is the phase of
    `to_momentum`.  Every step costs one transform pair (the last skips the
    advance unless the sample is w itself).  Setting up w costs a transform
    pair for second-order position input and one inverse transform for
    momentum input.  A second-order position sample costs one more inverse
    transform; a momentum sample costs none.  w is updated in place.
    """
    if psi.grid != V.grid:
        raise ContractError("state and potential live on different grids")
    if V.values.ndim == 2 and V.values.shape != psi.values.shape:
        raise ContractError(f"potential stack {V.values.shape} does not match "
                            f"state stack {psi.values.shape}")
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ConfigurationError(f"stride must be a positive integer, got {stride!r}")
    yield 0, psi
    n = plan.n_steps
    if n == 0:
        return
    g = psi.grid
    representation = psi.representation
    momentum = representation == MOMENTUM
    p2 = 0.5 * g.p**2
    dt = plan.dt
    kin = np.exp(-1j * p2 * dt)
    first = plan.order == "first"
    kin_out = kin if first else np.exp(-1j * p2 * (0.5 * dt))
    carry_is_sample = first and not momentum
    if carry_is_sample:
        w = psi.values.copy()
    else:
        if momentum:
            u = g._unitary_phase
            w = psi.values / u  # F(psi) in numpy's unnormalized convention
        else:
            w = np.fft.fft(psi.values)
        if not first:
            w *= kin_out
        np.fft.ifft(w, out=w)
    if momentum:
        kin_out = kin_out * u  # a sample s K_out u is in to_momentum's convention
    del psi  # freed here if the caller has dropped step 0, before the phases
    vphase = -1j * V.values
    vphase *= dt
    np.exp(vphase, out=vphase)
    del V
    for j in range(1, n + 1):
        sampled = j % stride == 0 or j == n
        np.multiply(w, vphase, out=w)
        np.fft.fft(w, out=w)  # w holds s until it is advanced
        if sampled and not carry_is_sample:
            sample = np.multiply(w, kin_out)
            if not momentum:
                np.fft.ifft(sample, out=sample)
        if carry_is_sample or j < n:
            np.multiply(w, kin, out=w)
            np.fft.ifft(w, out=w)
        if sampled:
            if carry_is_sample:
                sample = w.copy()
            sample.setflags(write=False)
            yield j, WaveFunction(g, sample, representation)
            del sample  # the caller's reference is the only one left


def trotter_evolve(psi: WaveFunction, V: PotentialField, plan: TrotterPlan,
                   trace_stride: int = 1) -> EvolutionTrace:
    """Run the split-step product and record the sampled density history."""
    times = []
    densities = []
    final = psi
    for j, state in trotter_states(psi, V, plan, stride=trace_stride):
        times.append(j * plan.dt)
        densities.append(np.abs(state.values) ** 2)
        final = state
    return EvolutionTrace(np.asarray(times), np.asarray(densities), final)


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs of the Hamiltonian with the spectral kinetic block.

    They are the lowest quarter of a band's pairs, each with its full-grid
    residual.  potential is the field they diagonalize, band_points the size
    of the grid they were diagonalized on, and error_bound the largest bound
    on the relative error of a build state evolved over the build time.
    """

    potential: PotentialField
    energies: np.ndarray
    vectors: np.ndarray  # n x r; column j: unit 2-norm eigenvector
    residuals: np.ndarray
    band_points: int
    error_bound: float

    @property
    def grid(self) -> Grid1D:
        return self.potential.grid


def _oracle_states(V: PotentialField, states, t: float) -> np.ndarray:
    """The (m, n) values of single position-space states the oracle may evolve to t."""
    if not np.isfinite(t):
        raise ConfigurationError(f"the oracle evolves over a finite time, got t = {t}")
    states = tuple(states)
    if not states:
        raise ContractError("eigenbasis needs the states it has to evolve")
    if any(psi.grid != V.grid for psi in states):
        raise ContractError("state and potential live on different grids")
    if V.values.ndim != 1 or any(psi.values.ndim != 1 or psi.representation != POSITION
                                 for psi in states):
        raise ContractError("the oracle takes single position-space states and one potential")
    values = np.stack([psi.values for psi in states])
    if not np.all(np.any(values, axis=1)):
        raise DegenerateStateError("the oracle cannot evolve a zero-norm state")
    return values


def eigenbasis(V: PotentialField, states, t: float) -> EigenBasis:
    """Diagonalize once for the given states; reuse across times up to |t|.

    The basis is that of the coarsest band whose pairs bound the error of
    every state in `states`, evolved over time t, to 1e-8 of its norm.
    """
    values = _oracle_states(V, states, t)
    energies, vectors, residuals, band = _band_eigenpairs(V, values=values, t=t)
    _, bound = _oracle_coefficients(vectors, residuals, values, t, V.label)
    return EigenBasis(V, energies, vectors, residuals, band, bound)


def exact_evolve(psi: WaveFunction, V: PotentialField, t: float,
                 basis: EigenBasis | None = None) -> WaveFunction:
    """Oracle propagation: expand, advance phases exp(-i E t), resum.

    Step-size free; accuracy is limited only by the spatial discretization.
    Negative t runs the evolution backwards (used by reversal checks).  A
    basis built for another potential raises ContractError, and a state
    whose error bound at this t exceeds 1e-8 raises NumericalError.
    """
    values = _oracle_states(V, [psi], t)
    if basis is None:
        basis = eigenbasis(V, [psi], t)
    elif basis.grid != V.grid or not np.array_equal(basis.potential.values, V.values):
        raise ContractError(f"eigenbasis was computed for {basis.potential.label!r}, "
                            f"a potential other than {V.label!r}")
    q = basis.vectors
    coeff, _ = _oracle_coefficients(q, basis.residuals, values, t, V.label)
    phased = np.exp(-1j * basis.energies * t) * coeff[:, 0]
    # q is real: real products spare the complex copy a mixed product makes
    return psi.with_values(q @ phased.real + 1j * (q @ phased.imag))


@dataclass(frozen=True)
class ConvergenceScan:
    """Trotter-vs-oracle error at fixed total time for a ladder of step counts.

    rel_l2_error is ||trotter - exact|| / ||exact||, the quantity obeying
    the t^3/n^2 (or t^2/n) product-formula law; infidelity is 1 - F, which
    decays at twice the rate.
    """

    steps: np.ndarray
    rel_l2_error: np.ndarray
    infidelity: np.ndarray
    order: str
    total_time: float


def trotter_convergence_scan(psi: WaveFunction, V: PotentialField, t: float,
                             steps_list, order: str = "second",
                             basis: EigenBasis | None = None) -> ConvergenceScan:
    """Propagate to time t with each step count and compare to the oracle."""
    steps = np.asarray(list(steps_list), dtype=int)
    if steps.size == 0 or np.any(steps < 1) or np.any(np.diff(steps) <= 0):
        raise ConfigurationError(
            f"steps_list must be ascending positive integers, got {steps_list!r}")
    if t <= 0:
        raise ConfigurationError(f"total time must be positive, got {t}")
    reference = exact_evolve(psi, V, t, basis=basis)
    ref_norm = norm(reference)
    errors = np.empty(steps.size)
    infids = np.empty(steps.size)
    for i, n in enumerate(steps):
        plan = TrotterPlan(t / int(n), int(n), order=order)
        final = trotter_evolve(psi, V, plan, trace_stride=int(n)).final_state
        errors[i] = norm(final.with_values(final.values - reference.values)) / ref_norm
        infids[i] = 1.0 - fidelity(final, reference)
    return ConvergenceScan(steps, errors, infids, order, float(t))


def fit_loglog_slope(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n).

    Points with error above the saturation level 0.3 sit outside the
    asymptotic power-law regime (the error there is bounded and bends
    over), so they are excluded; at least three points must survive.
    """
    saturation = 0.3
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errors, dtype=float)
    keep = (errs > 0) & (errs <= saturation)
    if int(keep.sum()) < 3:
        raise NumericalError(
            f"only {int(keep.sum())} scan points below the saturation level "
            f"{saturation}; extend the step ladder before fitting a slope")
    slope = np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0]
    return float(slope)
