"""Closed forms of the shape-invariant partners of W = A tanh x.

V2 = (A^2 - A(A + 1) sech^2 x)/2 and V1 = (A^2 - A(A - 1) sech^2 x)/2 are
Poeschl-Teller wells: V2's levels are (A^2 - (A - n)^2)/2 for n < A, and
V1's are the same from n = 1 (Cooper, Khare & Sukhatme, Phys. Rep. 251, 267,
1995; Gendenshtein, JETP Lett. 38, 356, 1983).  B+ maps the n-th state of
V1 onto the (n + 1)-th of V2.  Unlike the harmonic partners the wells are
anharmonic.  A = 5.5 in the box [-20, 20]; W needs no package class, since
the partner potentials and the ladder read only W's value and derivative.

At A = 1, V1 = 1/2 is free and V2 = 1/2 - sech^2 x is the reflectionless
well, so B+ carries the closed-form free Gaussian onto evolution under V2
(Kay & Moses, J. Appl. Phys. 27, 1503, 1956), in the box [-40, 40].  A well
of integer A lets a packet through with no reflection; at A = 2.5 part of
it turns back.  Every packet stays far from the periodic seam, where tanh
jumps.

Each bound is MARGIN times the largest error measured at the grid sizes
used (numpy 2.4 on x86-64); each assertion names its measured figure.
"""

import numpy as np
import pytest

import susyoptics as so
from susyoptics.susy import PotentialField

A = 5.5
MARGIN = 10


class TanhSuperpotential:
    """W = amplitude tanh x."""

    def __init__(self, amplitude):
        self.amplitude = amplitude

    def value(self, x):
        return self.amplitude * np.tanh(x)

    def derivative(self, x):
        return self.amplitude / np.cosh(x) ** 2


W = TanhSuperpotential(A)


def levels(n):
    return 0.5 * (A**2 - (A - np.asarray(n, dtype=float)) ** 2)


@pytest.fixture(scope="module", params=[512, 2048])
def spectra(request):
    grid = so.make_grid(request.param, -20.0, 20.0)
    return tuple(so.bound_spectrum(so.partner_potential(W, which, grid), k)
                 for which, k in ((1, 4), (2, 5)))


def test_partner_levels_are_the_closed_forms(spectra):
    s1, s2 = spectra
    assert np.max(np.abs(s2.energies - levels(range(5)))) <= MARGIN * 2.7e-14
    assert np.max(np.abs(s1.energies - levels(range(1, 5)))) <= MARGIN * 1.6e-14


def test_raising_maps_each_level_of_v1_onto_the_next_of_v2(spectra):
    s1, s2 = spectra
    for below, above in zip(s1.states, s2.states[1:]):
        raised = so.apply_B_dag(below, W)
        assert 1.0 - so.fidelity(raised, above) <= MARGIN * 3.4e-16


FREE = TanhSuperpotential(1.0)
T_FREE = 6.0


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def free_packet(grid, t):
    """The unit Gaussian from -10 with momentum 1.5 after a time t under V1 = 1/2."""
    q = 1.0 + 1j * t
    u = grid.x + 10.0 - 1.5 * t
    return so.WaveFunction(grid, np.pi**-0.25 / np.sqrt(q) * np.exp(
        -u * u / (2.0 * q) + 1.5j * grid.x - 0.5j * (1.5**2 + 1.0) * t))


@pytest.fixture(scope="module")
def free_partner():
    """V2 of W = tanh x, B+ of the free packet at 0, and B+ of it at T_FREE."""
    grid = so.make_grid(2048, -40.0, 40.0)
    return (so.partner_potential(FREE, 2, grid), so.apply_B_dag(free_packet(grid, 0.0), FREE),
            so.apply_B_dag(free_packet(grid, T_FREE), FREE))


def test_raising_carries_the_free_packet_onto_the_well(free_partner):
    v2, start, target = free_partner
    exact = so.exact_evolve(start, so.eigenbasis(v2, [start], T_FREE), T_FREE)
    assert _rel_l2(exact.values, target.values) <= MARGIN * 1.2e-9


def test_the_split_step_error_falls_as_the_square_of_the_step(free_partner):
    v2, start, target = free_partner
    errors = [_rel_l2(so.trotter_evolve(start, v2, so.TrotterPlan(T_FREE / k, k)).values,
                      target.values) for k in (120, 480)]
    assert errors[0] <= MARGIN * 6.6e-5 and errors[1] <= MARGIN * 4.1e-6
    # 4x the steps: 16.04 measured, 16 for a second-order product and 4 for a first
    assert 15.0 <= errors[0] / errors[1] <= 17.0


def test_a_well_of_integer_amplitude_reflects_nothing():
    # a packet (momentum 2, width 4) from -30 crosses V2 for T = 30, under A = 3 and
    # A = 2.5 as one two-row stream; the mass left behind x < -5 is the reflection
    grid = so.make_grid(1024, -100.0, 100.0)
    wells = PotentialField(grid, np.vstack(
        [so.partner_potential(TanhSuperpotential(a), 2, grid).values for a in (3.0, 2.5)]))
    packet = so.gaussian_packet(grid, -30.0, width=4.0, momentum=2.0)
    final = so.trotter_evolve(packet, wells, so.TrotterPlan(0.05, 600))
    behind = np.sum(np.abs(final.values[:, grid.x < -5.0]) ** 2, axis=1) * grid.dx
    assert behind[0] <= MARGIN * 2.9e-9
    assert 2.6e-5 / MARGIN <= behind[1] <= MARGIN * 2.6e-5
