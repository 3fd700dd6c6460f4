"""Split-step propagation and the band-limited diagonalization oracle.

The propagator factorizes into kinetic pieces (diagonal in momentum space)
and potential pieces (diagonal in position space).  ORDERS gives each
product order as the fractions (lead, trail) of dt that a kinetic piece
takes before the first potential kick and after the last, the two summing
to one step; the kernel and the plate-train compiler both read it.  The
symmetric second-order product K(dt/2) P(dt) K(dt/2) carries a state error
falling as (t/n)^2 over n steps; the plain first-order product K(dt) P(dt)
falls as 1/n.

`trotter_states` is the one split-step kernel, for one state (n,) or a
stack (m, n) under one shared (n,) potential or one (m, n) row per state,
in position or momentum space, under one product order or one per row;
one state under m potentials or m orders runs as m rows.  Each step is one
transform pair along the grid axis per row block: a large stack is cut into
contiguous blocks, one per usable CPU, that advance on threads the stream
owns and that end with it (a forked child starts its own), and a small one
is a single block.  A stack reproduces m
separate runs bit for bit, on any number of cores.
A momentum-space sample is the transformed state the step already holds,
times a phase; a position-space sample costs one more inverse transform.
The carry is updated in place and each sample is one fresh array, so the
kernel holds three stacks: the potential phases, the carry and the sample
it is producing, plus any earlier sample its caller still holds.

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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateStateError, NumericalError
from .grids import (
    MOMENTUM,
    POSITION,
    WaveFunction,
    _frozen,
)
from .susy import PotentialField, _bands

ORDERS = {"first": (0.0, 1.0), "second": (0.5, 0.5)}

# the oracle's bound on an evolved state's error, relative to its norm
ORACLE_TOL = 1e-8

# a split stack's row blocks are at least this tall; smaller ones lose to the hand-off
_MIN_BLOCK_ROWS = 8


@dataclass(frozen=True)
class TrotterPlan:
    """Step length, count, and product order: one ORDERS key, or a tuple of them, one per row."""

    dt: float
    n_steps: int
    order: str | tuple = "second"

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be finite and positive, got {self.dt}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 0:
            raise ConfigurationError(
                f"n_steps must be a non-negative integer, got {self.n_steps!r}")
        orders = self.order if isinstance(self.order, tuple) else (self.order,)
        if not orders or not all(isinstance(o, str) and o in ORDERS for o in orders):
            raise ConfigurationError(
                f"order must be one of {tuple(ORDERS)} or a tuple of them, got {self.order!r}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _row_blocks(rows: int) -> list:
    """Near-equal contiguous row slices, one per usable CPU, none under _MIN_BLOCK_ROWS rows."""
    count = min(_usable_cpus(), rows // _MIN_BLOCK_ROWS)
    if count < 2:
        return [slice(None)]
    return [slice(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def trotter_states(psi: WaveFunction, V: PotentialField, plan: TrotterPlan,
                   stride: int = 1):
    """Yield (step_index, state) at step 0 and every `stride` steps (plus the last).

    psi is one state (n,) or a stack (m, n), in either representation, and
    every sample is in that same representation; V is one (n,) potential
    for every row or an (m, n) stack of them, one per row, and one state
    under such a stack starts every row; so does one state under plan.order
    = a tuple of m ORDERS keys, one per row (row counts that disagree are a
    ContractError).  Step 0 yields psi itself and every later sample is a
    fresh read-only array, which a caller that drops it before asking for
    the next one frees before the next is formed.

    One loop serves every order (lead, trail) = ORDERS[order], because
    with lead + trail = 1 the product is the plain one conjugated by the
    lead kinetic step:

        [K(trail dt) P K(lead dt)]^j = K(-lead dt) [K(dt) P]^j K(lead dt).

    The loop carries w, the position-space state just before the next
    potential kick, K(lead dt) psi at the start.  Step j forms s = F(P w),
    takes the sample s K_out if one is due, and, while j < n, advances w to
    F^-1(s K(dt)).  K_out is K(trail dt); the sample goes to position as
    F^-1(s K_out) or to momentum as s (K_out u), where u is the phase of
    `to_momentum`.  Rows of different orders differ only in where w starts
    and in K_out, so they share the loop.  Each step costs one transform pair
    per row block, the last only its forward transform.  Setting up w costs a
    transform pair for each position row with a non-zero lead (other rows are
    copied) and one inverse transform for momentum input.  A position sample
    costs one more inverse transform (at trail = 1 it repeats the advance's
    before step n; no scenario takes such a sample); a momentum sample costs
    none.  w is updated in place.

    A stack of 16 or more rows is cut into contiguous row blocks of at least
    _MIN_BLOCK_ROWS = 8 rows, at most one per usable CPU, and each step runs
    the whole step body on every block at once: this thread takes the first
    block and the stream's own worker threads the rest.  They start at the
    first step (again in a forked child that steps the stream) and end with
    the stream: exhausted, closed or failed.  The step returns only when
    every block is done, so nothing is pending while a sample is out.  Rows
    never mix, so every sample is the same to the bit on any number of
    cores.  Smaller stacks and single states run on this thread alone.

    At the paper's design step T/60 the product scatters norm into every
    mode the grid has, so its results carry a grid component: over three
    periods the final state moves by 3.5e-5 from 256 to 512 points and by
    2.8e-6 from 1024 to 2048, where the oracle's moves by under 1e-12.
    """
    if psi.grid != V.grid:
        raise ContractError("state and potential live on different grids")
    counts = {len(a) for a in (psi.values, V.values) if a.ndim == 2} | (
        {len(plan.order)} if isinstance(plan.order, tuple) else set())
    if len(counts) > 1:
        raise ContractError(f"state {psi.values.shape}, potential {V.values.shape} and "
                            f"order {plan.order!r} disagree on the row count")
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
    vphase = -1j * V.values
    vphase *= dt
    np.exp(vphase, out=vphase)
    del V  # freed here if the caller has dropped it, before the carry
    u = g._unitary_phase if momentum else None

    def setup(values, order):
        """w at the start, K(lead dt) psi in position space, and K_out (times u for momentum)."""
        lead, trail = ORDERS[order]
        w = values / u if momentum else np.fft.fft(values) if lead else values.copy()
        if lead:
            w *= np.exp(-1j * p2 * (lead * dt))
        if momentum or lead:  # w is still in momentum space
            np.fft.ifft(w, out=w)
        k_out = np.exp(-1j * p2 * (trail * dt))
        return w, k_out * u if momentum else k_out  # a momentum sample s K_out u

    if isinstance(plan.order, tuple):  # each row set up as it would be alone
        starts = psi.values if psi.values.ndim == 2 else [psi.values] * len(plan.order)
        w, kin_out = (np.stack(a) for a in zip(*map(setup, starts, plan.order)))
    else:
        w, kin_out = setup(psi.values, plan.order)
    del psi
    if vphase.ndim > w.ndim:  # one state under a stack of potentials: a row for each
        w = np.tile(w, (len(vphase), 1))
    vphase, kin_out = (np.broadcast_to(a, w.shape) for a in (vphase, kin_out))
    blocks = [(rows, w[rows], vphase[rows], kin_out[rows])
              for rows in _row_blocks(len(w) if w.ndim == 2 else 1)]

    def step(block, j, sample):
        """Step j on one block of rows of w, writing those rows of the sample if one is due."""
        rows, wb, vb, kb = block
        np.multiply(wb, vb, out=wb)
        np.fft.fft(wb, out=wb)  # wb holds s until it is advanced
        if sample is not None:
            out = sample[rows]
            np.multiply(wb, kb, out=out)
            if not momentum:
                np.fft.ifft(out, out=out)
        if j < n:
            np.multiply(wb, kin, out=wb)
            np.fft.ifft(wb, out=wb)

    workers = owner = None
    try:
        for j in range(1, n + 1):
            if len(blocks) > 1 and owner != os.getpid():  # a forked child starts its own
                from concurrent.futures import ThreadPoolExecutor
                workers = ThreadPoolExecutor(len(blocks) - 1, "susyoptics-rows")
                owner = os.getpid()
            sample = None if j % stride and j < n else np.empty_like(w)
            # blocks after the first run on the workers, each in a copy of this
            # thread's context (numpy's error state is a context variable); the
            # first block's error, if any, is raised once every block is done
            futures = [workers.submit(contextvars.copy_context().run, step, block, j, sample)
                       for block in blocks[1:]]
            try:
                step(blocks[0], j, sample)
            finally:
                for future in futures:
                    future.exception()
            for future in futures:
                future.result()
            if sample is not None:
                yield j, WaveFunction(g, _frozen(sample), representation)
                del sample  # the caller's reference is the only one left
    finally:
        if workers is not None:
            workers.shutdown()


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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound raises below
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
    when no band does, the full grid's NumericalError is raised.  A band keeps
    only its lowest quarter of pairs, so the oracle serves bound and slow
    states: a fast scattering packet, whose weight lies above that quarter,
    is refused with NumericalError rather than evolved inaccurately.
    """
    values = _oracle_states(V, states, t)
    for energies, vectors, residuals, band in _bands(V):
        try:
            _, bound = _oracle_coefficients(vectors, residuals, values, t, V.label)
            return EigenBasis(V, energies, vectors, residuals, band, bound)
        except NumericalError as exc:
            failure = exc
    raise failure


def exact_evolve(psi: WaveFunction, basis: EigenBasis, t: float) -> WaveFunction:
    """Oracle propagation under basis.potential: expand, advance phases exp(-i E t), resum.

    Step-size free; accuracy is limited only by the spatial discretization.
    Negative t runs the evolution backwards (used by reversal checks).  A
    state whose error bound at this t exceeds ORACLE_TOL raises NumericalError.
    """
    V = basis.potential
    values = _oracle_states(V, [psi], t)
    q = basis.vectors
    coeff, _ = _oracle_coefficients(q, basis.residuals, values, t, V.label)
    phased = np.exp(-1j * basis.energies * t) * coeff[:, 0]
    # q is real: real products spare the complex copy a mixed product makes
    return psi.with_values(_frozen(q @ phased.real + 1j * (q @ phased.imag)))
