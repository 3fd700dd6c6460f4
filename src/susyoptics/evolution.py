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
in position or momentum space.  Each step is one transform pair along the
grid axis per row block: a large stack is cut into contiguous blocks, one
per usable CPU, that advance on separate threads, and a small one is a
single block.  A stack reproduces m separate runs bit for bit, on any
number of cores.
A momentum-space sample is the transformed state the step already holds,
times a phase; a position-space sample costs one more inverse transform.
The carry is updated in place and each sample is one fresh array, so the
kernel holds three stacks: the potential phases, the carry and the sample
it is producing.

The reference propagator (`exact_evolve`) expands states in eigenpairs of
the Hamiltonian with the spectral kinetic block, the discrete operator the
split-step factors approximate.  `susy._bands` solves the occupied Fourier
bands coarsest first, keeping each one's lowest quarter of pairs; the first
band whose a-posteriori bound on each evolved state's error is within
ORACLE_TOL of its norm serves (a rule only this module knows), so the
comparison isolates the Trotter error with no spatial-discretization floor.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateStateError, NumericalError
from .grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    WaveFunction,
    _frozen,
    fidelity,
    norm,
)
from .susy import PotentialField, _bands

ORDERS = ("first", "second")

# the oracle's bound on an evolved state's error, relative to its norm
ORACLE_TOL = 1e-8

# a split stack's row blocks are at least this tall; smaller ones lose to the hand-off
_MIN_BLOCK_ROWS = 8


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
    return psi.with_values(_frozen(vals))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _row_blocks(rows: int) -> list:
    """Contiguous row slices, one per usable CPU, none under _MIN_BLOCK_ROWS rows."""
    count = min(_usable_cpus(), rows // _MIN_BLOCK_ROWS)
    if count < 2:
        return [slice(None)]
    return [slice(rows * i // count, rows * (i + 1) // count) for i in range(count)]


_tasks = queue.SimpleQueue()  # (context, fn, args, done queue) for the workers
_workers = []
_workers_lock = threading.Lock()


def _serve():
    while True:
        context, fn, args, done = _tasks.get()
        try:
            context.run(fn, *args)
            error = None
        except BaseException as exc:
            error = exc
        del context, fn, args  # dropped before the caller hears: no stream outlives its run
        done.put(error)
        del done, error


def _forget_workers():
    """In a forked child: the workers did not survive the fork, so start afresh."""
    global _tasks, _workers_lock
    _tasks = queue.SimpleQueue()
    _workers_lock = threading.Lock()
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _run_blocks(fn, blocks, *args):
    """fn(block, *args) for every block of rows, the first on this thread.

    The rest run on the workers, each in a copy of this thread's context, so
    numpy's error state (a context variable) holds there too.  Returns once
    every block is done, and then raises the first block's error, if any.
    """
    if len(blocks) == 1:
        fn(blocks[0], *args)
        return
    with _workers_lock:
        while len(_workers) < len(blocks) - 1:
            worker = threading.Thread(target=_serve, daemon=True,
                                      name=f"susyoptics-rows-{len(_workers) + 1}")
            worker.start()
            _workers.append(worker)
    done = queue.SimpleQueue()
    for block in blocks[1:]:
        _tasks.put((contextvars.copy_context(), fn, (block, *args), done))
    try:
        fn(blocks[0], *args)
    finally:
        errors = [done.get() for _ in blocks[1:]]
    for error in errors:
        if error is not None:
            raise error


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
    order.  Step j forms s = F(P w), takes the sample s K_out if one is due,
    and, while j < n, advances w to F^-1(s K(dt)).  K_out is K(dt) for first
    order and K(dt/2) for second; the sample goes to position as
    F^-1(s K_out) or to momentum as s (K_out u), where u is the phase of
    `to_momentum`.  Each step costs one transform pair per row block, the
    last only its forward transform.  Setting up w costs a transform pair
    for second-order position input and one inverse transform for momentum
    input.  A position sample costs one more inverse transform (before step
    n in first order it repeats the advance's; no scenario takes such a
    sample); a momentum sample costs none.  w is updated in place.

    A stack of 16 or more rows is cut into contiguous row blocks of at least
    _MIN_BLOCK_ROWS = 8 rows, at most one per usable CPU, and each step runs
    the whole step body on every block at once: this thread takes the first
    block and daemon workers the rest.  The step returns only when every
    block is done, so nothing is pending while a sample is out.  Rows never
    mix, so every sample is the same to the bit on any number of cores.
    Smaller stacks and single states run on this thread alone.

    At the paper's design step T/60 the product scatters norm into every
    mode the grid has, so its results carry a grid component: over three
    periods the final state moves by 3.5e-5 from 256 to 512 points and by
    2.8e-6 from 1024 to 2048, where the oracle's moves by under 1e-12.
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
    if momentum:
        u = g._unitary_phase
        w = psi.values / u  # F(psi) in numpy's unnormalized convention
    else:
        w = psi.values.copy() if first else np.fft.fft(psi.values)
    if not first:
        w *= kin_out
    if momentum or not first:  # w is still in momentum space
        np.fft.ifft(w, out=w)
    if momentum:
        kin_out = kin_out * u  # a sample s K_out u is in to_momentum's convention
    del psi  # freed here if the caller has dropped step 0, before the phases
    vphase = -1j * V.values
    vphase *= dt
    np.exp(vphase, out=vphase)
    del V
    blocks = [(rows, w[rows], vphase if vphase.ndim == 1 else vphase[rows])
              for rows in _row_blocks(len(w) if w.ndim == 2 else 1)]

    def step(block, j, sample):
        """Step j on one block of rows of w, writing those rows of the sample if one is due."""
        rows, wb, vb = block
        np.multiply(wb, vb, out=wb)
        np.fft.fft(wb, out=wb)  # wb holds s until it is advanced
        if sample is not None:
            out = sample[rows]
            np.multiply(wb, kin_out, out=out)
            if not momentum:
                np.fft.ifft(out, out=out)
        if j < n:
            np.multiply(wb, kin, out=wb)
            np.fft.ifft(wb, out=wb)

    for j in range(1, n + 1):
        sample = np.empty_like(w) if j % stride == 0 or j == n else None
        _run_blocks(step, blocks, j, sample)
        if sample is not None:
            yield j, WaveFunction(g, _frozen(sample), representation)
            del sample  # the caller's reference is the only one left


def trotter_evolve(psi: WaveFunction, V: PotentialField, plan: TrotterPlan) -> WaveFunction:
    """Run the split-step product and return its final state (the last sample)."""
    for _, final in trotter_states(psi, V, plan, stride=plan.n_steps or 1):
        pass
    return final


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
    every state in `states`, evolved over time t, to ORACLE_TOL of its norm;
    when no band does, the full grid's NumericalError is raised.
    """
    values = _oracle_states(V, states, t)
    for energies, vectors, residuals, band in _bands(V):
        try:
            _, bound = _oracle_coefficients(vectors, residuals, values, t, V.label)
            return EigenBasis(V, energies, vectors, residuals, band, bound)
        except NumericalError as exc:
            failure = exc
    raise failure


def exact_evolve(psi: WaveFunction, V: PotentialField, t: float,
                 basis: EigenBasis | None = None) -> WaveFunction:
    """Oracle propagation: expand, advance phases exp(-i E t), resum.

    Step-size free; accuracy is limited only by the spatial discretization.
    Negative t runs the evolution backwards (used by reversal checks).  A
    basis built for another potential raises ContractError, and a state
    whose error bound at this t exceeds ORACLE_TOL raises NumericalError.
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
    return psi.with_values(_frozen(q @ phased.real + 1j * (q @ phased.imag)))


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
        final = trotter_evolve(psi, V, plan)
        errors[i] = norm(final.with_values(final.values - reference.values)) / ref_norm
        infids[i] = 1.0 - fidelity(final, reference)
    return ConvergenceScan(steps, errors, infids, order)


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
