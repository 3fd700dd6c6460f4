"""Closed forms of the shape-invariant partners of W = A tanh x.

V2 = (A^2 - A(A + 1) sech^2 x)/2 and V1 = (A^2 - A(A - 1) sech^2 x)/2 are
Poeschl-Teller wells: V2's levels are (A^2 - (A - n)^2)/2 for n < A, and
V1's are the same from n = 1 (Cooper, Khare & Sukhatme, Phys. Rep. 251, 267,
1995; Gendenshtein, JETP Lett. 38, 356, 1983).  B+ maps the n-th state of
V1 onto the (n + 1)-th of V2.  Unlike the harmonic partners the wells are
anharmonic.  A = 5.5 in the box [-20, 20]; W needs no package class, since
the partner potentials and the ladder read only W's value and derivative.

Each bound is MARGIN times the largest error measured at n = 512 and 2048
(numpy 2.4 on x86-64); each assertion names its measured figure.
"""

import numpy as np
import pytest

import susyoptics as so

A = 5.5
MARGIN = 10


class TanhSuperpotential:
    """W = A tanh x."""

    def value(self, x):
        return A * np.tanh(x)

    def derivative(self, x):
        return A / np.cosh(x) ** 2


W = TanhSuperpotential()


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
