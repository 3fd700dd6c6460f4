"""Closed forms of the harmonic partners at barrier_amplitude = 0.

With A = 0 the superpotential is W = omega x, so V1 = (omega^2 x^2 + omega)/2
and V2 = (omega^2 x^2 - omega)/2: E1_n = (n + 1) omega, E2_n = n omega, and
B+ is sqrt(omega) times the raising operator.  The split-step product of a
quadratic Hamiltonian maps a Gaussian to a Gaussian exactly, so every
reference below is a formula, not another discretization.  omega = 1, the
packet starts at -5 with width 1 in the box [-15, 15].

Each bound is MARGIN times the largest error measured at n = 512 and 2048
(numpy 2.4 on x86-64); each assertion names its measured figure.
"""

import math

import numpy as np
import pytest

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


def strang_gaussian(grid, dt, n_steps):
    """The packet after n_steps Strang steps of p^2/2 + x^2/2, up to a global phase.

    A Gaussian exp(i P/(2Q) (x - q)^2 + i p (x - q)) stays one under the
    product; its centre (q, p) and its width pair (Q, P) both advance by
    the step's phase-space matrix: half drift, kick, half drift.
    """
    drift = np.array([[1.0, 0.5 * dt], [0.0, 1.0]])
    kick = np.array([[1.0, 0.0], [-dt, 1.0]])
    step = np.linalg.matrix_power(drift @ kick @ drift, n_steps)
    q, p = step @ np.array([CENTER, 0.0])
    Q, P = step @ np.array([1.0, 1j])
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
    final = so.exact_evolve(psi0, v1, 3 * PERIOD)
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
