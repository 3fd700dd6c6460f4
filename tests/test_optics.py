import dataclasses
import math
import warnings

import numpy as np
import pytest

import susyoptics as so
from susyoptics import (
    ConfigurationError,
    ContractError,
    DegenerateStateError,
    ParaxialWarning,
    optics,
)
from susyoptics.config import setup
from susyoptics.evolution import ORDERS
from susyoptics.optics import (
    FreeSpace,
    InterferometerSpec,
    OpticalTrain,
    ParityFlip,
    PhysicalUnits,
    ThinElement,
    amplitude_modulator,
    calibrate_interferometer,
    interferometric_B_dag,
    map_distance_to_time,
    map_time_to_distance,
    phase_plate,
    spot_size,
    thin_lens,
)


def test_physical_units(units):
    assert units.k == pytest.approx(2.0 * math.pi / 532e-9)
    with pytest.raises(ConfigurationError):
        PhysicalUnits(0.0, 1e-3)
    with pytest.raises(ConfigurationError):
        PhysicalUnits(532e-9, -1.0)


def test_time_distance_map(units):
    dt = 2.0 * math.pi / 60.0
    z = map_time_to_distance(dt, units)
    assert 1.2365 <= z <= 1.2375
    assert map_distance_to_time(z, units) == pytest.approx(dt, rel=1e-15)
    # the map is linear in dt
    assert map_time_to_distance(2 * dt, units) == pytest.approx(2 * z, rel=1e-15)


class TestSpotSize:
    def test_centered_gaussian(self, grid):
        # 99.99% mass of exp(-x^2) lies within |x| <= 2.751
        rho = spot_size(so.gaussian_packet(grid))
        assert rho == pytest.approx(2.751, abs=0.02)

    def test_displaced_gaussian(self, grid, psi0):
        # off-center packet: the excluded mass is all in the far tail, so the
        # one-sided normal quantile 3.719 sigma applies (sigma = 1/sqrt(2))
        rho = spot_size(psi0)
        assert rho == pytest.approx(5.0 + 2.630, abs=0.05)

    def test_validation(self, grid):
        zero = so.WaveFunction(grid, np.zeros(grid.n))
        with pytest.raises(DegenerateStateError):
            spot_size(zero)


class TestFresnel:
    def test_zero_distance_identity(self, psi0, units):
        out = FreeSpace(0.0).apply(psi0, units)
        np.testing.assert_array_equal(out.values, psi0.values)

    @pytest.mark.parametrize("n", [512, 2048])
    def test_spreads_a_gaussian_in_closed_form(self, units, n):
        # a unit gaussian at c, freely evolved for t = z/(k x0^2), times e^{ikz}
        grid = so.make_grid(n, -15.0, 15.0)
        for z in (0.4, 1.2368, 6.0):  # t up to 0.5: no tail wraps round the box
            t = z / (units.k * units.x0_m**2)
            for c in (0.0, -5.0):
                out = FreeSpace(z).apply(so.gaussian_packet(grid, c), units)
                expected = (np.pi ** -0.25 / np.sqrt(1.0 + 1j * t)
                            * np.exp(-(grid.x - c) ** 2 / (2.0 * (1.0 + 1j * t)))
                            * np.exp(1j * units.k * z))
                np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-13)

    def test_rejects_a_gap_whose_time_overflows(self, psi0):
        # k x0^2 is a finite positive float, but z/(k x0^2) overflows to inf
        tiny = PhysicalUnits(1e300, 1e-5)
        assert math.isinf(map_distance_to_time(1.0, tiny))
        with pytest.raises(ContractError, match="non-finite time"):
            FreeSpace(1.0).apply(psi0, tiny)

    def test_warns_outside_paraxial_regime(self, psi0, units):
        with pytest.warns(ParaxialWarning):
            FreeSpace(0.01).apply(psi0, units)

    def test_ratio_saturates_on_a_vanishing_gap(self, psi0, units):
        # (spot/z)^2 overflows a float here; it must read as inf, not raise
        with pytest.warns(ParaxialWarning, match="= inf exceeds"):
            out = FreeSpace(1e-300).apply(psi0, units)
        assert np.all(np.isfinite(out.values))

    def test_silent_in_regime(self, psi0, units):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FreeSpace(0.8).apply(psi0, units)

    def test_contract(self, psi0, units):
        with pytest.raises(ConfigurationError):
            FreeSpace(-0.1)
        with pytest.raises(ContractError):
            FreeSpace(0.1).apply(so.to_momentum(psi0), units)


def test_lens_is_aperture_limited_phase(grid, psi0, units):
    out = thin_lens(0.8, 5e-3, grid, units).apply(psi0, units)
    inside = np.abs(grid.x) * units.x0_m <= 5e-3
    np.testing.assert_allclose(np.abs(out.values[inside]),
                               np.abs(psi0.values[inside]), atol=1e-14)
    assert np.all(out.values[~inside] == 0.0)
    with pytest.raises(ConfigurationError):
        thin_lens(0.0, 5e-3, grid, units)
    with pytest.raises(ConfigurationError):
        thin_lens(0.8, 0.0, grid, units)


def test_parity_flip_involution(grid, psi0, units):
    once = ParityFlip().apply(psi0, units)
    twice = ParityFlip().apply(once, units)
    np.testing.assert_array_equal(twice.values, psi0.values)
    x_mean = np.sum(grid.x * np.abs(psi0.values) ** 2) * grid.dx
    x_flip = np.sum(grid.x * np.abs(once.values) ** 2) * grid.dx
    assert x_flip == pytest.approx(-x_mean, abs=1e-9)


def test_parity_flip_mirrors_about_the_axis_on_an_offset_window(units):
    # [-14, 16) at 2040 points mirrors about x = 0 but not about its centre
    grid = so.make_grid(2040, -14.0, 16.0)
    flipped = ParityFlip().apply(so.gaussian_packet(grid, 3.0), units)
    np.testing.assert_allclose(flipped.values, so.gaussian_packet(grid, -3.0).values,
                               rtol=0, atol=1e-12)
    # at 2048 points no sample pairs with its mirror image
    with pytest.raises(ContractError, match="mirrors about x = 0"):
        ParityFlip().apply(so.gaussian_packet(so.make_grid(2048, -14.0, 16.0)), units)


class TestElements:
    def test_validation(self, grid, units):
        with pytest.raises(ConfigurationError):
            FreeSpace(-1.0)
        with pytest.raises(ConfigurationError):
            thin_lens(0.0, math.inf, grid, units)
        with pytest.raises(ConfigurationError):
            amplitude_modulator(np.full(grid.n, 1.5))
        # refused by the element's rule, with no numpy warning on the way
        with pytest.raises(ConfigurationError, match="finite 1-d"):
            phase_plate(np.array([0.0, np.inf]))
        with pytest.raises(ConfigurationError, match="finite 1-d"):  # k x^2 / f overflows
            thin_lens(1e-320, math.inf, grid, units)

    @pytest.mark.parametrize("name", ["thin_lens", "phase_plate", "amplitude_modulator"])
    def test_passivity_holds_for_every_name(self, name):
        # one rule for every thin element: a complex 1.5 is refused as a real one is
        for t in (np.full(4, 1.5), np.full(4, 1.5 * np.exp(0.3j))):
            with pytest.raises(ConfigurationError, match="cannot exceed unit magnitude"):
                ThinElement(name, t, "-")
        with pytest.raises(ConfigurationError, match="finite 1-d"):
            ThinElement(name, np.full(4, np.nan), "-")

    def test_phase_plate(self, grid, psi0, units):
        plate = phase_plate(np.full(grid.n, 0.5))
        out = plate.apply(psi0, units)
        np.testing.assert_allclose(out.values, np.exp(-0.5j) * psi0.values,
                                   atol=1e-14)

    def test_amplitude_modulator(self, grid, psi0, units):
        profile = np.exp(-grid.x**2)
        mod = amplitude_modulator(profile)
        out = mod.apply(psi0, units)
        np.testing.assert_allclose(out.values, profile * psi0.values, atol=1e-14)

    def test_wrong_grid_rejected(self, grid, small_grid, units):
        plate = phase_plate(np.zeros(small_grid.n))
        with pytest.raises(ContractError):
            plate.apply(so.gaussian_packet(grid), units)

    def test_unknown_element_rejected(self, units):
        # a train accepts only objects with the element interface
        with pytest.raises(ContractError):
            OpticalTrain((FreeSpace(0.8), object()), units)

    def test_lengths(self, grid, units):
        assert FreeSpace(0.8).length_m == 0.8
        for thin in (thin_lens(0.8, math.inf, grid, units), phase_plate(np.zeros(4)),
                     amplitude_modulator(np.zeros(4)), ParityFlip()):
            assert thin.length_m == 0.0


def test_elements_act_on_a_stack_row_by_row(W, grid, psi0, battery, units):
    rows = [psi0, *battery[:2]]
    stack = so.WaveFunction(grid, np.vstack([r.values for r in rows]))
    assert spot_size(stack) == max(spot_size(r) for r in rows)
    tuned = calibrate_interferometer(InterferometerSpec(W, 0.8, 10e-3), grid, units)
    elements = (FreeSpace(0.8), thin_lens(0.8, 10e-3, grid, units),
                phase_plate(0.1 * grid.x**2), amplitude_modulator(np.exp(-grid.x**2 / 50.0)),
                ParityFlip())
    trains = (OpticalTrain(elements, units), tuned.derivative_arm,
              tuned.multiplication_arm)
    for train in trains:
        for element in train.elements:
            out = element.apply(stack, units).values
            for i, row in enumerate(rows):
                np.testing.assert_array_equal(out[i], element.apply(row, units).values)
        out = so.simulate_train(stack, train).values
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(out[i], so.simulate_train(row, train).values)


class TestOpticalTrain:
    def _train(self, grid, units):
        return OpticalTrain((FreeSpace(0.8),
                                thin_lens(0.8, 1e-2, grid, units),
                                FreeSpace(0.8),
                                ParityFlip()), units)

    def test_total_length(self, grid, units):
        assert self._train(grid, units).total_length_m == pytest.approx(1.6)

    def test_simulate_equals_fold(self, grid, psi0, units):
        train = self._train(grid, units)
        by_train = so.simulate_train(psi0, train)
        state = psi0
        for element in train.elements:
            state = element.apply(state, units)
        np.testing.assert_array_equal(by_train.values, state.values)

    def test_layout_text(self, grid, units):
        text = self._train(grid, units).to_layout_text()
        assert text.splitlines()[0] == "# optical train layout"
        assert "thin_lens" in text and "parity_flip" in text
        assert "position_m\telement\tparameters" in text
        # cumulative positions are non-decreasing
        rows = [line.split("\t") for line in text.splitlines()
                if line and not line.startswith(("#", "position_m"))]
        positions = [float(r[0]) for r in rows]
        assert positions == sorted(positions)
        assert text == self._train(grid, units).to_layout_text()

    def test_layout_text_golden(self, grid, units):
        # one element of each kind, with an aperture-limited and a clear lens
        train = OpticalTrain((
            FreeSpace(0.8), thin_lens(0.8, 5e-3, grid, units), FreeSpace(0.25),
            phase_plate(np.array([0.0, 0.5, -1.25, 2.0])),
            amplitude_modulator(np.array([0.5, -0.75, 1.0, 0.0])),
            thin_lens(0.5, math.inf, grid, units), ParityFlip()), units)
        assert train.to_layout_text().splitlines() == [
            "# optical train layout",
            "# wavelength_m: 5.32e-07",
            "# x0_m: 0.001",
            "# elements: 7",
            "# total_length_m: 1.05",
            "position_m\telement\tparameters",
            "0.0\tfree_space\tz_m=0.8",
            "0.8\tthin_lens\tf_m=0.8 aperture_m=0.005",
            "0.8\tfree_space\tz_m=0.25",
            "1.05\tphase_plate\tn_points=4 max_abs_phase_rad=2.0",
            "1.05\tamplitude_modulator\tn_points=4 max_abs=1.0",
            "1.05\tthin_lens\tf_m=0.5 aperture_m=inf",
            "1.05\tparity_flip\t-",
        ]


class TestCompiledTrain:
    @pytest.mark.parametrize("order", ORDERS)
    def test_structure(self, v2, units, order):
        dt = 2.0 * math.pi / 60.0
        plan = so.TrotterPlan(dt, 30, order)
        train = so.compile_trotter_train(plan, v2, units)
        kinds = [e.name for e in train.elements]
        z_full = map_time_to_distance(dt, units)
        gaps = [e.length_m for e in train.elements if e.name == "free_space"]
        if order == "first":
            # plate, gap, ..., plate, gap: n plates, n full gaps, none of zero length
            assert len(kinds) == 60
            assert kinds[0::2] == ["phase_plate"] * 30
            assert kinds[1::2] == ["free_space"] * 30
            assert gaps == pytest.approx([z_full] * 30, rel=1e-12)
        else:
            # gaps: half, 29 full, half
            assert len(kinds) == 61
            assert kinds[0::2] == ["free_space"] * 31
            assert kinds[1::2] == ["phase_plate"] * 30
            assert gaps == pytest.approx([z_full / 2.0] + [z_full] * 29 + [z_full / 2.0],
                                         rel=1e-12)
        assert 0.0 not in gaps
        plates = [e for e in train.elements if e.name == "phase_plate"]
        # one plate serves every step, and it carries V dt
        assert all(e is plates[0] for e in plates)
        np.testing.assert_array_equal(plates[0].transmission, np.exp(-1j * (v2.values * dt)))
        assert train.total_length_m == pytest.approx(
            map_time_to_distance(plan.dt * plan.n_steps, units), rel=1e-12)

    def test_a_train_runs_one_order(self, v2, units):
        with pytest.raises(ConfigurationError, match="one product order"):
            so.compile_trotter_train(so.TrotterPlan(0.1, 3, ("second", "first")), v2, units)

    def test_empty_plan(self, v2, units):
        train = so.compile_trotter_train(so.TrotterPlan(0.1, 0), v2, units)
        assert train.elements == ()
        assert train.total_length_m == 0.0

    @pytest.mark.parametrize("order", ORDERS)
    def test_reproduces_trotter_propagator(self, v2, psi0, units, order):
        plan = so.TrotterPlan(2.0 * math.pi / 60.0, 30, order)
        by_train = so.simulate_train(psi0, so.compile_trotter_train(plan, v2, units))
        by_plan = so.trotter_evolve(psi0, v2, plan)
        mu = np.vdot(by_train.values, by_plan.values)
        aligned = by_train.values * (mu / abs(mu))
        dev = np.max(np.abs(aligned - by_plan.values)) / np.max(np.abs(by_plan.values))
        assert dev <= 1e-10


class TestInterferometer:
    def test_passivity_bound_value(self, W, grid, units):
        spec = InterferometerSpec(W, 0.8, 10e-3)
        tau_f = 0.8 / (units.k * units.x0_m**2)
        reach = np.max(np.abs(grid.x)[np.abs(grid.x) * units.x0_m <= 10e-3])
        expected = tau_f / reach
        assert optics._arm_trains(spec, grid, units)[0] == pytest.approx(
            0.95 * expected, rel=1e-12)

    def test_passivity_bound_limited_by_superpotential(self, grid, units):
        tall = so.Superpotential(1.0, 200.0)
        spec = InterferometerSpec(tall, 0.8, 10e-3)
        assert optics._arm_trains(spec, grid, units)[0] == pytest.approx(
            0.95 / 200.0, rel=1e-12)

    @pytest.mark.parametrize("amplitude,lo,hi,aperture_m,message", [
        (5.0, 5.0, 10.0, 1e-3, "does not cover any grid point"),  # every x lies past 1 x0
        # x = 0 alone, where the harmonic W vanishes with x
        (0.0, -16.0, 16.0, 1e-4, "degenerate aperture"),
    ])
    def test_an_aperture_without_a_constraint_is_a_configuration_error(
            self, units, amplitude, lo, hi, aperture_m, message):
        spec = InterferometerSpec(so.Superpotential(1.0, amplitude), 0.8, aperture_m)
        with pytest.raises(ConfigurationError, match=message):
            optics._arm_trains(spec, so.make_grid(64, lo, hi), units)

    def test_a_gain_without_full_precision_is_a_configuration_error(self, W, grid, units):
        # 95% of the bound must keep the arm fields' rounding unit normal: >= ~1e-292
        assert optics._arm_trains(InterferometerSpec(W, 1e-160, 10e-3), grid, units)[0] > 0
        with pytest.raises(ConfigurationError, match="interferometer gain"):
            optics._arm_trains(InterferometerSpec(W, 1e-300, 10e-3), grid, units)

    @pytest.mark.parametrize("scale", [1e-300, 0.0])
    def test_the_signal_floor_is_relative_to_the_arms(self, W, grid, units, monkeypatch,
                                                      scale):
        # a derivative arm scaled by 1e-300 keeps its phase; one of zeros has none
        spec = InterferometerSpec(W, 0.8, 10e-3)
        phase = calibrate_interferometer(spec, grid, units).phase
        arm_outputs = optics._arm_outputs

        def scaled(*args):
            lower, upper = arm_outputs(*args)
            return [scale * lower, upper]

        monkeypatch.setattr(optics, "_arm_outputs", scaled)
        if scale:
            assert calibrate_interferometer(spec, grid, units).phase == pytest.approx(phase)
        else:
            with pytest.raises(so.NumericalError, match="no derivative-arm signal"):
                calibrate_interferometer(spec, grid, units)

    def test_calibration_pins_gain_and_phase(self, W, grid, units):
        spec = InterferometerSpec(W, 0.8, 10e-3)
        tuned = calibrate_interferometer(spec, grid, units)
        assert tuned.spec == spec and tuned.grid == grid
        assert tuned.alpha == optics._arm_trains(spec, grid, units)[0]
        assert math.isfinite(tuned.phase)
        again = calibrate_interferometer(spec, grid, units)
        assert again.phase == tuned.phase
        with pytest.raises(dataclasses.FrozenInstanceError):
            tuned.phase = 0.0

    def test_the_modulators_stop_where_the_lens_does(self):
        # x = 12.5 x0 meets the aperture 12.5 x0 exactly in meters, where the
        # lens tests it, though 12.5 x0_m / x0_m rounds below 12.5
        cfg = dataclasses.replace(so.parse_config(None), x_min_x0=-16.0, x_max_x0=16.0,
                                  aperture_x0=12.5, x0_mm=0.7)
        run = setup(cfg)
        tuned = calibrate_interferometer(run.spec, run.grid, run.units)
        lens, ramp = (next(e.transmission for e in tuned.derivative_arm.elements if e.name == n)
                      for n in ("thin_lens", "amplitude_modulator"))
        mask = tuned.multiplication_arm.elements[1].transmission
        inside = lens != 0
        edge = np.abs(run.grid.x) == 12.5
        assert np.count_nonzero(edge) == 2 and np.all(inside[edge])
        np.testing.assert_array_equal(ramp[~inside], 0.0)
        np.testing.assert_array_equal(mask[~inside], 0.0)
        np.testing.assert_allclose(ramp[edge], [-0.95, 0.95], rtol=1e-12)
        tau_f = map_distance_to_time(run.spec.focal_length_m, run.units)
        w_max = np.max(np.abs(run.W.value(run.grid.x[inside])))
        assert tuned.alpha == pytest.approx(0.95 * min(tau_f / 12.5, 1.0 / w_max), rel=1e-12)

    @pytest.mark.parametrize("parity_mode", ["ideal", "fresnel"])
    def test_synthesizes_raising_operator(self, W, grid, psi0, units, parity_mode):
        spec = InterferometerSpec(W, 0.8, 10e-3, parity_mode=parity_mode)
        tuned = calibrate_interferometer(spec, grid, units)
        approx = interferometric_B_dag(psi0, tuned)
        target = so.apply_B_dag(psi0, W)
        err = (so.norm(target.with_values(approx.values - target.values))
               / so.norm(target))
        assert err < 1e-5

    def test_contract(self, W, grid, psi0, units):
        tuned = calibrate_interferometer(InterferometerSpec(W, 0.8, 10e-3),
                                            grid, units)
        with pytest.raises(ContractError):
            interferometric_B_dag(so.to_momentum(psi0), tuned)
        # same point count over another box: the masks would fit but mean nothing
        wider = so.make_grid(grid.n, 2 * grid.x_min, 2 * grid.x_max)
        with pytest.raises(ContractError):
            interferometric_B_dag(so.gaussian_packet(wider), tuned)

    def test_arm_trains_structure(self, W, grid, units):
        spec = InterferometerSpec(W, 0.8, 10e-3)
        tuned = calibrate_interferometer(spec, grid, units)
        lower, upper = tuned.derivative_arm, tuned.multiplication_arm
        lower_kinds = [e.name for e in lower.elements]
        upper_kinds = [e.name for e in upper.elements]
        # derivative arm: two lens stages around a ramp, then parity
        assert lower_kinds.count("thin_lens") == 2
        assert lower_kinds.count("amplitude_modulator") == 1
        assert upper_kinds == ["parity_flip", "amplitude_modulator", "parity_flip"]
        # fresnel mode replaces each ideal flip with a two-lens relay
        full = calibrate_interferometer(
            InterferometerSpec(W, 0.8, 10e-3, parity_mode="fresnel"), grid, units)
        lower_f, upper_f = full.derivative_arm, full.multiplication_arm
        lenses = [[e for e in arm.elements if e.name == "thin_lens"] for arm in (lower_f, upper_f)]
        assert [len(arm) for arm in lenses] == [4, 4]
        # every lens has the same f and aperture: one tabulated chirp serves both arms
        assert all(lens is lenses[0][0] for lens in lenses[0] + lenses[1])
        assert lower_f.total_length_m > lower.total_length_m
