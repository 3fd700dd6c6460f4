"""Closed forms of the harmonic partners at barrier_amplitude = 0.

With A = 0 the superpotential is W = omega x, so V1 = (omega^2 x^2 + omega)/2
and V2 = (omega^2 x^2 - omega)/2: E1_n = (n + 1) omega, E2_n = n omega, and
B+ is sqrt(omega) times the raising operator.  The split-step product of a
quadratic Hamiltonian maps a Gaussian to a Gaussian exactly, so every
reference below is a formula, not another discretization.  The fixed cases
take omega = 1, the packet at -5 with width 1 in the box [-15, 15]; each of
their bounds is MARGIN times the largest error measured at n = 512 and 2048
(numpy 2.4 on x86-64), and each assertion names its measured figure.

The drawn case takes any omega in [1/4, 4], in its own length x0 = omega^-1/2:
the box [-15 x0, 15 x0], the packet at -5 x0 with width x0.  Its bound is what
a step rounds: the transforms, about eps log2(n) (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., section 24.1), and the phases
V dt and p^2 dt / 2, each 12.5 omega dt at the orbit's turning point and at
its peak momentum.  Without that phase term eight steps a period reach 0.99
of the bound; with it, over 200 draws the worst error was 0.39 of the bound
and the median 0.15.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susyoptics as so

CENTER = -5.0
PERIOD = 2.0 * math.pi
MARGIN = 10
W0 = so.Superpotential(1.0, 0.0)


@pytest.fixture(scope="module", params=[512, 2048])
def grid(request):
    return so.make_grid(request.param, -15.0, 15.0)


@pytest.fixture(scope="module")
def psi0(grid):
    return so.gaussian_packet(grid, CENTER, 1.0)


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def strang_gaussian(grid, dt, n_steps, omega=1.0, center=CENTER, width=1.0):
    """The packet after n_steps Strang steps of p^2/2 + omega^2 x^2/2, up to a global phase.

    A Gaussian exp(i P/(2Q) (x - q)^2 + i p (x - q)) stays one under the
    product; its centre (q, p) and its width pair (Q, P) both advance by
    the step's phase-space matrix: half drift, kick, half drift.
    """
    drift = np.array([[1.0, 0.5 * dt], [0.0, 1.0]])
    kick = np.array([[1.0, 0.0], [-omega**2 * dt, 1.0]])
    step = np.linalg.matrix_power(drift @ kick @ drift, n_steps)
    q, p = step @ np.array([center, 0.0])
    Q, P = step @ np.array([width, 1j / width])
    u = grid.x - q
    norm = math.pi**0.25 * math.sqrt(abs(Q))
    return np.exp(0.5j * P / Q * u * u + 1j * p * u) / norm


def test_partner_levels_are_the_oscillator_ladder(grid):
    e1 = so.bound_spectrum(so.partner_potential(W0, 1, grid), 8).energies
    e2 = so.bound_spectrum(so.partner_potential(W0, 2, grid), 9).energies
    assert np.max(np.abs(e1 - (np.arange(8) + 1.0))) <= MARGIN * 9.8e-15
    assert np.max(np.abs(e2 - np.arange(9))) <= MARGIN * 8.9e-15


def test_three_periods_return_the_packet(grid, psi0):
    v1 = so.partner_potential(W0, 1, grid)
    final = so.exact_evolve(psi0, so.eigenbasis(v1, [psi0], 3 * PERIOD), 3 * PERIOD)
    # every E1_n is an integer, so exp(-i E t) is 1 at t = 6 pi
    assert _rel_l2(final.values, psi0.values) <= MARGIN * 8.2e-13


def test_raising_the_packet(grid, psi0):
    raised = so.apply_B_dag(psi0, W0)
    # -psi0' = (x + 5) psi0 and W = x
    expected = (2.0 * grid.x - CENTER) * psi0.values / math.sqrt(2.0)
    assert np.max(np.abs(raised.values - expected)) <= MARGIN * 1.1e-14


@pytest.mark.parametrize("per_period,measured", [(15, 6.5e-15), (60, 4.9e-14),
                                                  (480, 1.4e-13)])
def test_split_step_is_the_strang_mapped_gaussian(grid, psi0, per_period, measured):
    v1 = so.partner_potential(W0, 1, grid)
    n_steps = 3 * per_period
    dt = PERIOD / per_period
    final = so.trotter_evolve(psi0, v1, so.TrotterPlan(dt, n_steps)).values
    expected = strang_gaussian(grid, dt, n_steps)
    overlap = np.vdot(expected, final)
    assert _rel_l2(final, expected * overlap / abs(overlap)) <= MARGIN * measured


@settings(max_examples=25, deadline=None, database=None)
@given(omega=st.floats(0.25, 4.0), n=st.sampled_from([256, 300, 512, 513, 1024, 2048]),
       per_period=st.integers(8, 480), periods=st.integers(1, 3), which=st.sampled_from([1, 2]))
def test_split_step_is_the_strang_mapped_gaussian_at_any_omega(omega, n, per_period, periods,
                                                               which):
    x0 = omega**-0.5
    grid = so.make_grid(n, -15.0 * x0, 15.0 * x0)
    n_steps, dt = per_period * periods, 2.0 * math.pi / omega / per_period
    v = so.partner_potential(so.Superpotential(omega, 0.0), which, grid)
    psi0 = so.gaussian_packet(grid, -5.0 * x0, x0)
    final = so.trotter_evolve(psi0, v, so.TrotterPlan(dt, n_steps)).values
    expected = strang_gaussian(grid, dt, n_steps, omega, -5.0 * x0, x0)
    overlap = np.vdot(expected, final)
    error = _rel_l2(final, expected * overlap / abs(overlap))
    assert error <= np.finfo(float).eps * (math.log2(n) + 12.5 * omega * dt) * n_steps
