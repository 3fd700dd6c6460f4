import math

import numpy as np
import pytest
from scipy import linalg as sla
from scipy.special import erf

import susyoptics as so
from susyoptics import ConfigurationError, ContractError, NumericalError, evolution, susy
from susyoptics.grids import Grid1D, fourier_multiply
from susyoptics.susy import PotentialField, dense_hamiltonian

from conftest import AMPLITUDE


def test_superpotential_values(W):
    # W(0) = A, and sigma defaults to x0/2
    assert W.value(0.0) == pytest.approx(AMPLITUDE)
    assert W.x0 == pytest.approx(1.0)
    assert so.Superpotential(1.0, AMPLITUDE).sigma == pytest.approx(0.5)
    # far from the barrier the linear trap dominates
    assert W.value(10.0) == pytest.approx(10.0, abs=1e-12)


def test_superpotential_derivative_matches_fd(W):
    x = np.linspace(-8.0, 8.0, 1601)
    h = 1e-6
    fd = (W.value(x + h) - W.value(x - h)) / (2.0 * h)
    np.testing.assert_allclose(W.derivative(x), fd, atol=1e-7)


@pytest.mark.parametrize("kwargs", [
    dict(omega=0.0, amplitude=1.0),
    dict(omega=-1.0, amplitude=1.0),
    dict(omega=1.0, amplitude=math.nan),
    dict(omega=1.0, amplitude=1.0, sigma=0.0),
])
def test_superpotential_rejects_bad_params(kwargs):
    with pytest.raises(ConfigurationError):
        so.Superpotential(**kwargs)


def test_partner_potentials_pointwise(W, grid, v1, v2):
    # center values of the two partners and their exact difference W'
    i0 = int(np.argmin(np.abs(grid.x)))
    assert grid.x[i0] == 0.0
    assert v1.values[i0] == pytest.approx(13.5)
    assert v2.values[i0] == pytest.approx(12.5)
    np.testing.assert_allclose(v1.values - v2.values,
                               W.derivative(grid.x), atol=1e-12)
    with pytest.raises(ConfigurationError):
        so.partner_potential(W, 3, grid)


def test_eta_family_interpolates_partners(W, grid, v1, v2):
    e0 = so.eta_potential(W, 0.0, grid)
    e1 = so.eta_potential(W, 1.0, grid)
    # eta = 0 is the even part shared by both partners, offset by omega/2
    np.testing.assert_allclose(e0.values, v1.values - 0.5, atol=1e-12)
    np.testing.assert_allclose(e1.values, v2.values + 0.5, atol=1e-12)
    # eta = -1 mirrors eta = +1; grid reflection pairs x_j with x_(n-j)
    em = so.eta_potential(W, -1.0, grid)
    mirrored = np.roll(em.values[::-1], 1)
    np.testing.assert_allclose(mirrored[1:], e1.values[1:], atol=1e-12)


def test_eta_family_requires_matched_widths(grid):
    wide = so.Superpotential(1.0, AMPLITUDE, sigma=0.7)
    with pytest.raises(ConfigurationError):
        so.eta_potential(wide, 1.0, grid)


def test_potential_field_contract(small_grid):
    with pytest.raises(ContractError):
        PotentialField(small_grid, np.zeros(small_grid.n - 2))
    with pytest.raises(ContractError):
        PotentialField(small_grid, np.full(small_grid.n, np.nan))
    field = PotentialField(small_grid, np.zeros(small_grid.n))
    with pytest.raises(ValueError):
        field.values[0] = 1.0


class TestLadderOperators:
    def test_adjointness(self, grid, W, battery):
        # <B phi, psi> = <phi, B+ psi> for smooth states
        for phi, psi in zip(battery[:-1], battery[1:]):
            lhs = so.inner(so.apply_B(phi, W), psi)
            rhs = so.inner(phi, so.apply_B_dag(psi, W))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_requires_position_representation(self, grid, W, psi0):
        phi = so.to_momentum(psi0)
        with pytest.raises(ContractError):
            so.apply_B(phi, W)
        with pytest.raises(ContractError):
            so.apply_B_dag(phi, W)

    def test_factorization_reproduces_hamiltonians(self, grid, W, v1, v2, battery):
        # B B+ acts as kinetic + V1, B+ B as kinetic + V2, on smooth states
        psi = battery[0]
        ip = 1j * psi.grid.p
        kinetic = fourier_multiply(fourier_multiply(psi, ip), ip)
        for apply_outer, apply_inner, v in ((so.apply_B, so.apply_B_dag, v1),
                                            (so.apply_B_dag, so.apply_B, v2)):
            lhs = apply_outer(apply_inner(psi, W), W)
            rhs = psi.with_values(-0.5 * kinetic.values + v.values * psi.values)
            np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-8)

    def test_zero_mode_annihilated(self, grid, W):
        z0 = so.zero_mode(W, grid)
        assert so.norm(z0) == pytest.approx(1.0, abs=1e-12)
        assert so.norm(so.apply_B(z0, W)) < 1e-8

    def test_zero_mode_matches_scipy_erf_reference(self, grid, W):
        s = W.sigma
        anti = math.sqrt(W.omega) * (
            grid.x**2 / (2.0 * W.x0)
            + W.amplitude * s * math.sqrt(math.pi) * erf(grid.x / (2.0 * s)))
        ref = so.normalized(so.WaveFunction(grid, np.exp(-(anti - anti.min()))))
        np.testing.assert_allclose(so.zero_mode(W, grid).values, ref.values,
                                   rtol=0, atol=1e-14)


def test_zero_mode_is_partner_ground_state(grid, W, v2):
    z0 = so.zero_mode(W, grid)
    s2 = so.bound_spectrum(v2, 1)
    assert so.fidelity(z0, s2.states[0]) > 1.0 - 1e-8


class TestBoundSpectrum:
    def test_level_count_validated(self, v1):
        with pytest.raises(ConfigurationError):
            so.bound_spectrum(v1, 0)
        with pytest.raises(ConfigurationError):
            so.bound_spectrum(v1, 17)
        tiny = PotentialField(so.make_grid(4, -1.0, 1.0), np.zeros(4))
        with pytest.raises(ConfigurationError, match="larger than 4 points"):
            so.bound_spectrum(tiny, 4)

    def test_states_orthonormal(self, v1):
        s = so.bound_spectrum(v1, 6)
        vecs = np.stack([st.values for st in s.states])
        gram = (vecs.conj() @ vecs.T).real * v1.grid.dx
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
        assert np.all(np.diff(s.energies) > 0)
        assert np.all(s.residuals < 1e-8)

    def test_sign_convention_deterministic(self, v1):
        a = so.bound_spectrum(v1, 3)
        b = so.bound_spectrum(v1, 3)
        for sa, sb in zip(a.states, b.states):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_potential_stack_rejected(self, W, grid):
        stack = so.eta_potential(W, np.linspace(-2.0, 2.0, 4), grid)
        with pytest.raises(ContractError, match="takes one potential"):
            so.bound_spectrum(stack, 2)

    def test_residual_gate_raises(self, W, monkeypatch):
        # every band fails, down to the full grid; 256 points keep that cheap
        v1 = so.partner_potential(W, 1, so.make_grid(256, -15.0, 15.0))
        monkeypatch.setattr(susy, "RESIDUAL_TOL", 1e-16)
        with pytest.raises(NumericalError):
            so.bound_spectrum(v1, 4)

    def test_an_eigensolver_failure_is_a_numerical_error(self, W, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        v1 = so.partner_potential(W, 1, so.make_grid(256, -15.0, 15.0))
        with pytest.raises(NumericalError, match="eigensolver failed on 'V1'"):
            so.bound_spectrum(v1, 4)

    def test_an_overflowing_hamiltonian_is_a_numerical_error(self):
        # V is finite at A = 1e150 but H v is not: the residual check, not a
        # numpy RuntimeWarning, reports it
        grid = so.make_grid(256, -15.0, 15.0)
        big = so.Superpotential(1.0, 1e150)
        with pytest.raises(NumericalError, match="residual"):
            so.bound_spectrum(so.partner_potential(big, 1, grid), 4)
        v2 = so.partner_potential(big, 2, grid)
        with pytest.raises(NumericalError, match="uncaptured"):
            so.eigenbasis(v2, [so.apply_B_dag(so.gaussian_packet(grid), big)], math.pi)


class TestBandLimitedSolver:
    """Pairs come from a coarse band of the grid and are checked on all of it."""

    @pytest.fixture(scope="class")
    def full_grid_pairs(self, v2):
        # the s = 1 solve: the full-grid matrix itself
        return sla.eigh(dense_hamiltonian(v2), subset_by_index=(0, 39))

    @pytest.fixture(scope="class")
    def band_basis(self, v2, W, psi0):
        # the states the trotter-convergence oracle serves: psi0 and B+ psi0
        # over half a period
        return so.eigenbasis(v2, [psi0, so.apply_B_dag(psi0, W)], math.pi)

    def test_bound_spectrum_agrees_with_full_grid_solve(self, v2, full_grid_pairs):
        energies, vecs = full_grid_pairs
        s = so.bound_spectrum(v2, 9)
        assert s.band_points < v2.grid.n
        np.testing.assert_allclose(s.energies, energies[:9], rtol=0, atol=1e-10)
        for j, state in enumerate(s.states):
            fid = abs(np.vdot(vecs[:, j], state.values)) ** 2 * v2.grid.dx
            assert fid > 1.0 - 1e-12

    def test_eigenbasis_agrees_with_full_grid_solve(self, v2, band_basis,
                                                    full_grid_pairs):
        energies, vecs = full_grid_pairs
        assert band_basis.band_points < v2.grid.n
        np.testing.assert_allclose(band_basis.energies[:40], energies,
                                   rtol=0, atol=1e-10)
        overlaps = np.abs(np.sum(band_basis.vectors[:, :40] * vecs, axis=0)) ** 2
        assert np.all(overlaps > 1.0 - 1e-12)

    def test_verified_vectors_orthonormal(self, band_basis):
        q = band_basis.vectors
        assert q.shape[0] == band_basis.potential.grid.n and q.shape[1] < q.shape[0]
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), rtol=0, atol=1e-12)
        assert band_basis.error_bound <= evolution.ORACLE_TOL

    @pytest.mark.parametrize("m, n", [(64, 256), (63, 189)])
    def test_interpolation_is_trigonometric(self, m, n):
        # a band-limited bump plus, on an even grid, the coarse Nyquist mode,
        # whose interpolant is cos(p_N (x - x_min)) only when the mode is split
        fine = so.make_grid(n, -8.0, 8.0)
        coarse = so.make_grid(m, -8.0, 8.0)
        nyquist = 0.0 if m % 2 else 1.0

        def f(x):
            return np.exp(-x**2) + nyquist * np.cos(np.pi / coarse.dx * (x + 8.0))

        out = susy._interpolate(f(coarse.x)[:, None], n)[:, 0]
        np.testing.assert_allclose(out, f(fine.x), rtol=0, atol=1e-12)

    def test_stiff_trap_widens_the_band(self, grid, v1):
        # oscillator length 1/sqrt(40) is not resolved by the default band
        omega = 40.0
        stiff = PotentialField(grid, 0.5 * omega**2 * grid.x**2, label="stiff")
        s = so.bound_spectrum(stiff, 8)
        assert s.band_points > so.bound_spectrum(v1, 8).band_points
        np.testing.assert_allclose(s.energies, omega * (np.arange(8) + 0.5),
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [1536, 513])
    def test_grid_sizes_that_are_not_powers_of_two(self, W, n):
        # 1536 halves down to a 3-point grid; an odd n leaves only s = 1
        grid = so.make_grid(n, -15.0, 15.0)
        v1 = so.partner_potential(W, 1, grid)
        s = so.bound_spectrum(v1, 8)
        assert n % s.band_points == 0
        assert (s.band_points == n) == (n % 2 == 1)
        reference = sla.eigh(dense_hamiltonian(v1), subset_by_index=(0, 7))[0]
        np.testing.assert_allclose(s.energies, reference, rtol=0, atol=1e-10)
        basis = so.eigenbasis(v1, [so.gaussian_packet(grid, -5.0)], math.pi)
        assert basis.error_bound <= evolution.ORACLE_TOL
        # no view of the band's whole eigenvector matrix outlives the solve,
        # even where the band is the full grid
        assert basis.vectors.flags.owndata

    @pytest.fixture
    def dense_sizes(self, monkeypatch):
        # the grid size of every dense H the solver builds
        sizes = []
        build = susy.dense_hamiltonian

        def counting_build(V):
            sizes.append(V.grid.n)
            return build(V)

        monkeypatch.setattr(susy, "dense_hamiltonian", counting_build)
        return sizes

    def test_large_grid_builds_no_large_matrix(self, W, dense_sizes):
        # a full-grid solve at n = 8192 would need a 0.5 GB matrix
        grid = so.make_grid(8192, -15.0, 15.0)
        s = so.bound_spectrum(so.partner_potential(W, 1, grid), 8)
        assert dense_sizes and max(dense_sizes) <= 1024
        assert np.all(s.residuals <= 1e-8)
        np.testing.assert_allclose(s.energies[:2], [3.0275104807, 3.0298247861],
                                   rtol=0, atol=1e-9)

    @pytest.fixture(scope="class")
    def full_grid_v1_pairs(self, v1):
        return sla.eigh(dense_hamiltonian(v1), subset_by_index=(0, 255))

    def test_error_bound_holds_against_a_full_grid_solve(self, v1, psi0, battery,
                                                          basis_v1, full_grid_v1_pairs):
        # over three periods, the band oracle's error against an evolution on
        # exact pairs of the full-grid matrix stays within the stored bound
        t = 6.0 * math.pi
        energies, vecs = full_grid_v1_pairs
        assert basis_v1.band_points < v1.grid.n
        for psi in [psi0, *battery]:
            size = np.linalg.norm(psi.values)
            coeff = vecs.T @ psi.values
            assert np.linalg.norm(psi.values - vecs @ coeff) <= 1e-12 * size
            exact = vecs @ (np.exp(-1j * energies * t) * coeff)
            band = so.exact_evolve(psi, basis_v1, t).values
            assert np.linalg.norm(band - exact) <= basis_v1.error_bound * size

    def test_fast_packet_widens_the_band(self, grid, dense_sizes):
        # on a flat box a fast packet lies above the low pairs of the coarse
        # bands, so it needs a wider band and more pairs; one H per band
        flat = PotentialField(grid, np.zeros(grid.n), label="flat")
        packet = so.gaussian_packet(grid, center=-5.0, momentum=16.0)
        basis = so.eigenbasis(flat, [packet], 0.2)
        assert basis.vectors.shape[1] > 128 and basis.band_points < grid.n
        assert len(dense_sizes) == len(set(dense_sizes))
        exact = so.exact_evolve(packet, basis, 0.2)
        free = fourier_multiply(packet, np.exp(-0.5j * grid.p**2 * 0.2))
        np.testing.assert_allclose(exact.values, free.values, rtol=0, atol=1e-12)

    def test_fixture_bases_stay_on_a_coarse_band(self, basis_v1, basis_v2):
        # psi0 and the battery over three periods need no full-grid solve
        assert basis_v1.band_points <= 512
        assert basis_v2.band_points <= 512

    def test_bases_interpolate_only_the_low_pairs(self, basis_v1, basis_v2,
                                                  monkeypatch):
        # each band keeps a quarter of its pairs
        assert basis_v1.vectors.shape[1] <= 256
        assert basis_v2.vectors.shape[1] <= 256
        widths = []
        interpolate = susy._interpolate

        def counting_interpolate(vecs, n):
            widths.append(vecs.shape[1])
            return interpolate(vecs, n)

        monkeypatch.setattr(susy, "_interpolate", counting_interpolate)
        so.run_trotter_convergence(so.parse_config(None))
        assert widths and max(widths) <= 128


def test_hamiltonian_matrices_are_symmetric(v1):
    dense = dense_hamiltonian(v1)
    np.testing.assert_array_equal(dense, dense.T)


@pytest.mark.parametrize("n", [256, 255])
def test_dense_hamiltonian_is_the_symmetrized_circulant(W, n):
    v = so.partner_potential(W, 1, Grid1D(n, -15.0, 15.0))
    h = sla.circulant(np.real(np.fft.ifft(0.5 * v.grid.p**2))) + np.diag(v.values)
    np.testing.assert_array_equal(dense_hamiltonian(v), 0.5 * (h + h.T))


class TestHarmonicLimit:
    """A = 0 turns the barrier off; everything is analytic."""

    def test_spectra(self, grid):
        w0 = so.Superpotential(1.0, 0.0)
        h1 = so.partner_potential(w0, 1, grid)
        h2 = so.partner_potential(w0, 2, grid)
        e1 = so.bound_spectrum(h1, 8).energies
        e2 = so.bound_spectrum(h2, 8).energies
        np.testing.assert_allclose(e1, np.arange(8) + 1.0, atol=1e-9)
        np.testing.assert_allclose(e2, np.arange(8), atol=1e-9)

    def test_zero_mode_is_gaussian(self, grid):
        w0 = so.Superpotential(1.0, 0.0)
        z0 = so.zero_mode(w0, grid)
        assert so.fidelity(z0, so.gaussian_packet(grid)) > 1.0 - 1e-12

    def test_ladder_shifts_levels(self, grid):
        w0 = so.Superpotential(1.0, 0.0)
        h1 = so.partner_potential(w0, 1, grid)
        h2 = so.partner_potential(w0, 2, grid)
        s1 = so.bound_spectrum(h1, 3)
        s2 = so.bound_spectrum(h2, 4)
        for n in range(3):
            lifted = so.apply_B_dag(s1.states[n], w0)
            assert so.fidelity(lifted, s2.states[n + 1]) > 1.0 - 1e-9
