import math

import pytest

import susyoptics as so
from susyoptics.grids import make_random_states
from susyoptics.optics import PhysicalUnits

# The reference scenario: omega = 1, A = sqrt(26), sigma = x0/2, packet at -5.
OMEGA = 1.0
AMPLITUDE = math.sqrt(26.0)
SIGMA = 0.5
PERIOD = 2.0 * math.pi


@pytest.fixture(scope="session")
def grid():
    return so.make_grid(2048, -15.0, 15.0)


@pytest.fixture(scope="session")
def small_grid():
    # cheap grid for unit tests that do not need spectral accuracy
    return so.make_grid(512, -12.0, 12.0)


@pytest.fixture(scope="session")
def W():
    return so.Superpotential(OMEGA, AMPLITUDE, SIGMA)


@pytest.fixture(scope="session")
def v1(W, grid):
    return so.partner_potential(W, 1, grid)


@pytest.fixture(scope="session")
def v2(W, grid):
    return so.partner_potential(W, 2, grid)


@pytest.fixture(scope="session")
def psi0(grid):
    return so.gaussian_packet(grid, center=-5.0)


@pytest.fixture(scope="session")
def battery(grid):
    return make_random_states(grid, 5, seed=7, center=-5.0)


# the oracle bases serve the states the tests evolve under each partner, for
# up to three periods
@pytest.fixture(scope="session")
def basis_v1(v1, psi0, battery):
    return so.eigenbasis(v1, [psi0, *battery], 3 * PERIOD)


@pytest.fixture(scope="session")
def basis_v2(v2, W, psi0, battery):
    raised = [so.apply_B_dag(s, W) for s in [psi0, *battery]]
    return so.eigenbasis(v2, [psi0, *raised], 3 * PERIOD)


@pytest.fixture(scope="session")
def units():
    return PhysicalUnits(532e-9, 1e-3)
