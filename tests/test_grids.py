import math

import numpy as np
import pytest

import susyoptics as so
from susyoptics import ConfigurationError, ContractError, DegenerateStateError
from susyoptics.grids import MOMENTUM, fourier_multiply
from susyoptics.susy import PotentialField


def test_grid_geometry():
    g = so.make_grid(256, -8.0, 8.0)
    assert g.n == 256
    assert g.dx == pytest.approx(16.0 / 256)
    # periodic FFT convention: x_max itself is not a sample
    assert g.x[0] == -8.0
    assert g.x[-1] == pytest.approx(8.0 - g.dx)
    assert g.dp == pytest.approx(2.0 * math.pi / 16.0)
    np.testing.assert_allclose(g.p, 2.0 * math.pi * np.fft.fftfreq(256, g.dx))


def test_grid_arrays_read_only():
    g = so.make_grid(64, -1.0, 1.0)
    with pytest.raises(ValueError):
        g.x[0] = 0.0
    with pytest.raises(ValueError):
        g.p[0] = 0.0


def test_grid_arrays_computed_once():
    g = so.make_grid(64, -1.0, 1.0)
    for name in ("x", "p", "_unitary_phase", "_inverse_phase"):
        first = getattr(g, name)
        assert getattr(g, name) is first
        assert not first.flags.writeable
    # equal grids stay equal and hashable with their arrays cached
    assert g == so.make_grid(64, -1.0, 1.0)
    assert hash(g) == hash(so.make_grid(64, -1.0, 1.0))


def test_distance_order_computed_once():
    g = so.make_grid(64, -1.0, 1.0)
    order = g.distance_order
    assert g.distance_order is order
    assert not order.flags.writeable
    np.testing.assert_array_equal(order, np.argsort(np.abs(g.x), kind="stable"))


@pytest.mark.parametrize("n,lo,hi", [
    (1, -1.0, 1.0),
    (64, 1.0, -1.0),
    (64, 0.0, 0.0),
    (64, -math.inf, 1.0),
    (64.0, -1.0, 1.0),
])
def test_make_grid_rejects_bad_input(n, lo, hi):
    with pytest.raises(ConfigurationError):
        so.make_grid(n, lo, hi)


def test_make_grid_collects_all_problems():
    with pytest.raises(ConfigurationError) as err:
        so.make_grid(0, 2.0, float("nan"))
    text = str(err.value)
    assert "n" in text and "finite" in text


def test_wavefunction_contract(small_grid):
    with pytest.raises(ContractError):
        so.WaveFunction(small_grid, np.zeros(small_grid.n - 1))
    with pytest.raises(ContractError):
        so.WaveFunction(small_grid, np.zeros(small_grid.n), representation="angle")
    psi = so.WaveFunction(small_grid, np.ones(small_grid.n))
    assert psi.values.dtype == np.complex128
    with pytest.raises(ValueError):
        psi.values[0] = 0.0
    other = psi.with_values(2.0 * psi.values)
    assert other.representation == psi.representation
    assert other.values[0] == 2.0 + 0.0j


@pytest.mark.parametrize("make", [
    lambda g, v: so.WaveFunction(g, v),
    lambda g, v: PotentialField(g, v.real),
])
def test_stack_shape_contract(small_grid, make):
    n = small_grid.n
    # one state and a stack of them, with the grid on the last axis
    assert make(small_grid, np.ones(n)).values.shape == (n,)
    assert make(small_grid, np.ones((3, n))).values.shape == (3, n)
    for shape in [(3, n + 1), (2, 3, n), (n, 3), ()]:
        with pytest.raises(ContractError):
            make(small_grid, np.ones(shape))


def test_wavefunction_copies_writable_input(small_grid):
    vals = np.ones((2, small_grid.n), dtype=complex)
    psi = so.WaveFunction(small_grid, vals)
    vals[0, 0] = 5.0
    assert psi.values[0, 0] == 1.0
    view = so.WaveFunction(small_grid, psi.values[1])
    assert not np.shares_memory(view.values, psi.values)


def test_wavefunction_shares_frozen_arrays(small_grid):
    vals = np.ones(small_grid.n, dtype=complex)
    vals.setflags(write=False)
    psi = so.WaveFunction(small_grid, vals)
    assert psi.values is vals
    assert psi.with_values(psi.values).values is vals
    # a frozen stack in Fortran order is copied, so that each row is contiguous
    stack = np.asfortranarray(np.ones((3, small_grid.n), dtype=complex))
    stack.setflags(write=False)
    copied = so.WaveFunction(small_grid, stack).values
    assert copied.flags.c_contiguous and not np.shares_memory(copied, stack)


def test_reductions_on_a_stack_match_rows(grid, psi0):
    rows = [so.gaussian_packet(grid, c, 1.0, q) for c, q in ((-5.0, 0.0),
                                                            (-4.0, 1.0),
                                                            (2.0, -0.5))]
    stack = so.WaveFunction(grid, np.vstack([r.values for r in rows]))
    scaled = stack.with_values(np.array([[1.0], [2.5j], [0.3]]) * stack.values)
    ref = rows[1]
    for name, got, want in [
        ("norm", so.norm(scaled), [so.norm(scaled.with_values(v)) for v in scaled.values]),
        ("inner", so.inner(ref, scaled), [so.inner(ref, scaled.with_values(v))
                                          for v in scaled.values]),
        ("inner rows", so.inner(stack, scaled), [
            so.inner(stack.with_values(a), scaled.with_values(b))
            for a, b in zip(stack.values, scaled.values)]),
        ("fidelity", so.fidelity(ref, scaled), [
            so.fidelity(ref, scaled.with_values(v)) for v in scaled.values]),
    ]:
        assert isinstance(got, np.ndarray) and got.shape == (3,), name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14, err_msg=name)
    unit = so.normalized(scaled)
    np.testing.assert_allclose(so.norm(unit), 1.0, rtol=0, atol=1e-14)
    # one state still reduces to Python scalars
    assert type(so.norm(psi0)) is float
    assert type(so.inner(psi0, ref)) is complex
    assert type(so.fidelity(psi0, ref)) is float


@pytest.mark.parametrize("momentum", [False, True])
def test_reductions_match_the_density_formulas(grid, momentum):
    # norm is one vecdot pass per row; it agrees with the sum of |psi|^2
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, grid.n)) + 1j * rng.standard_normal((4, grid.n))
    stack = so.WaveFunction(grid, values)
    if momentum:
        stack = so.to_momentum(stack)
    w = grid.weight(stack.representation)
    ref = stack.with_values(stack.values[0] + 0.5 * stack.values[1])
    for field in (stack, stack.with_values(stack.values[2])):
        want = np.sqrt(np.sum(np.abs(field.values) ** 2, axis=-1) * w)
        np.testing.assert_allclose(so.norm(field), want, rtol=1e-15, atol=0)
        np.testing.assert_allclose(so.normalized(field).values,
                                   field.values / np.expand_dims(want, -1),
                                   rtol=1e-15, atol=0)
        overlap = np.abs(so.inner(ref, field))
        want_fid = overlap / (np.sqrt(np.sum(np.abs(ref.values) ** 2) * w) * want)
        got = so.fidelity(ref, field)
        np.testing.assert_allclose(got, want_fid, rtol=1e-15, atol=0)
        assert np.all(np.asarray(got) <= 1.0)
    assert so.fidelity(ref, ref.with_values(2j * ref.values)) <= 1.0


def test_reductions_reject_mismatched_stacks(small_grid):
    a = so.WaveFunction(small_grid, np.ones((2, small_grid.n)))
    b = so.WaveFunction(small_grid, np.ones((3, small_grid.n)))
    with pytest.raises(ContractError):
        so.inner(a, b)
    with pytest.raises(DegenerateStateError):
        so.fidelity(a, b.with_values(np.zeros((2, small_grid.n))))


@pytest.mark.parametrize("reduction", [so.inner, so.fidelity])
def test_a_stack_pairs_row_by_row_or_with_a_single_row(small_grid, reduction):
    rng = np.random.default_rng(5)
    three = so.WaveFunction(small_grid, rng.normal(size=(3, small_grid.n)) + 1j)
    one, two = three.with_values(three.values[:1]), three.with_values(three.values[:2])
    # a stack of one row pairs with every row of a stack, on either side
    for a, b in ((one, three), (three, one)):
        rows = zip(*np.broadcast_arrays(a.values, b.values))
        want = [reduction(a.with_values(x), b.with_values(y)) for x, y in rows]
        got = reduction(a, b)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    with pytest.raises(ContractError, match=r"^stack mismatch: \(2, 512\) vs \(3, 512\)$"):
        reduction(two, three)


def test_gaussian_packet_normalized(grid):
    psi = so.gaussian_packet(grid, center=-5.0, width=1.0, momentum=2.0)
    assert so.norm(psi) == pytest.approx(1.0, abs=1e-12)
    # mean momentum matches the boost
    phi = so.to_momentum(psi)
    p_mean = np.sum(grid.p * np.abs(phi.values) ** 2) * grid.dp
    assert p_mean == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("width", [1e300, 1e-300, 0.0, -1.0, float("nan"),
                                   float("inf")])
def test_gaussian_packet_width_rule(grid, width):
    with pytest.raises(ConfigurationError):
        so.gaussian_packet(grid, width=width)


@pytest.mark.parametrize("center", [15.0, -15.1, 1e300, -1e300, float("nan"),
                                    float("inf")])
def test_gaussian_packet_center_rule(grid, center):
    with pytest.raises(ConfigurationError, match="center"):
        so.gaussian_packet(grid, center=center)


def test_gaussian_packet_center_limits(grid):
    # the window is [x_min, x_max): its left end is a sample, its right end is not
    assert so.norm(so.gaussian_packet(grid, center=grid.x_min)) > 0.0
    assert so.norm(so.gaussian_packet(grid, center=grid.x[-1])) > 0.0


def test_gaussian_packet_width_limits(grid):
    # the grid spacing and the window length are the narrowest and widest packets
    for width in (grid.dx, grid.x_max - grid.x_min):
        assert np.all(np.isfinite(so.gaussian_packet(grid, width=width).values))


def test_momentum_roundtrip_and_parseval(grid, psi0):
    phi = so.to_momentum(psi0)
    assert phi.representation == MOMENTUM
    assert so.norm(phi) == pytest.approx(so.norm(psi0), abs=1e-12)
    back = so.to_position(phi)
    np.testing.assert_allclose(back.values, psi0.values, atol=1e-12)
    with pytest.raises(ContractError):
        so.to_momentum(phi)
    with pytest.raises(ContractError):
        so.to_position(psi0)


@pytest.mark.parametrize("n", [2048, 513])
def test_transforms_of_a_stack_match_rows(n):
    grid = so.make_grid(n, -15.0, 15.0)
    rows = [so.gaussian_packet(grid, c, 1.0, q) for c, q in ((-5.0, 0.0),
                                                            (-4.0, 1.0),
                                                            (2.0, -0.5))]
    stack = so.WaveFunction(grid, np.vstack([r.values for r in rows]))
    phi = so.to_momentum(stack)
    back = so.to_position(phi)
    assert phi.values.shape == back.values.shape == (3, n)
    for i, row in enumerate(rows):
        alone = so.to_momentum(row)
        np.testing.assert_array_equal(phi.values[i], alone.values)
        np.testing.assert_array_equal(back.values[i], so.to_position(alone).values)
    np.testing.assert_allclose(back.values, stack.values, rtol=0, atol=1e-14)
    np.testing.assert_allclose(so.norm(phi), so.norm(stack), rtol=0, atol=1e-14)


def test_momentum_transform_matches_analytic(grid):
    # FT of exp(-x^2/2)/pi^(1/4) is exp(-p^2/2)/pi^(1/4) in the unitary convention
    psi = so.gaussian_packet(grid)
    phi = so.to_momentum(psi)
    expected = np.pi ** -0.25 * np.exp(-grid.p ** 2 / 2.0)
    np.testing.assert_allclose(phi.values, expected, atol=1e-12)


def test_inner_requires_matching_frames(grid, small_grid, psi0):
    phi = so.to_momentum(psi0)
    with pytest.raises(ContractError):
        so.inner(psi0, phi)
    other = so.gaussian_packet(small_grid)
    with pytest.raises(ContractError):
        so.inner(psi0, other)


def test_inner_is_conjugate_linear(grid):
    a = so.gaussian_packet(grid, center=1.0)
    b = so.gaussian_packet(grid, center=-1.0, momentum=1.0)
    assert so.inner(a, b) == pytest.approx(np.conj(so.inner(b, a)))
    assert so.inner(a, a.with_values(2j * a.values)) == pytest.approx(2j * so.inner(a, a))


def test_fidelity_self(grid, psi0):
    # scaling must not matter: fidelity normalizes internally
    scaled = psi0.with_values(3.7j * psi0.values)
    assert so.fidelity(psi0, scaled) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_zero_state_rejected(small_grid):
    zero = so.WaveFunction(small_grid, np.zeros(small_grid.n))
    good = so.gaussian_packet(small_grid)
    with pytest.raises(DegenerateStateError):
        so.fidelity(zero, good)
    with pytest.raises(DegenerateStateError):
        so.normalized(zero)
    # the message counts the rows at fault, one line however large the stack
    stack = zero.with_values(np.vstack([good.values, zero.values, good.values]))
    with pytest.raises(DegenerateStateError, match=r"^cannot normalize: 1 of 3 rows have a "
                                                   r"zero or non-finite norm$"):
        so.normalized(stack)


def test_fourier_multiply_derivative_gaussian(grid):
    psi = so.gaussian_packet(grid, width=1.5)
    d = fourier_multiply(psi, 1j * grid.p)
    expected = -(grid.x / 1.5**2) * psi.values
    np.testing.assert_allclose(d.values, expected, atol=1e-10)


def test_fourier_multiply_derivative_plane_wave_exact(small_grid):
    # a lattice momentum is differentiated exactly
    k = 5 * small_grid.dp
    psi = so.WaveFunction(small_grid, np.exp(1j * k * small_grid.x))
    d = fourier_multiply(psi, 1j * small_grid.p)
    np.testing.assert_allclose(d.values, 1j * k * psi.values, atol=1e-11)


def test_fourier_multiply_free_gaussian_spreads(grid):
    # free evolution of a unit gaussian has the textbook width law
    tau = 0.7
    out = fourier_multiply(so.gaussian_packet(grid), np.exp(-0.5j * grid.p**2 * tau))
    expected = (np.pi ** -0.25 / np.sqrt(1.0 + 1j * tau)
                * np.exp(-grid.x ** 2 / (2.0 * (1.0 + 1j * tau))))
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_fourier_multiply_rejects_momentum_input(small_grid):
    with pytest.raises(ContractError, match="position-space"):
        fourier_multiply(so.to_momentum(so.gaussian_packet(small_grid)), small_grid.p)


@pytest.mark.parametrize("n", [512, 513])
def test_fourier_multiply_stack_rows_match_solo_runs(n):
    # each row of a stack is transformed as it would be alone, to the bit
    g = so.make_grid(n, -12.0, 12.0)
    stack = so.WaveFunction(g, np.stack(
        [so.gaussian_packet(g, c, momentum=q).values for c, q in ((-3, 0), (0, 2), (4, -5))]))
    for symbol in (1j * g.p, np.exp(-0.5j * g.p**2 * 0.3)):
        out = fourier_multiply(stack, symbol).values
        for row, psi in zip(out, stack.values):
            np.testing.assert_array_equal(
                row, fourier_multiply(so.WaveFunction(g, psi), symbol).values)
