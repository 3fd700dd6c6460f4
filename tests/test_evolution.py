import math

import numpy as np
import pytest

import susyoptics as so
from susyoptics import (
    ConfigurationError,
    ContractError,
    DegenerateStateError,
    NumericalError,
    susy,
)


class TestTrotterPlan:
    def test_total_time(self):
        plan = so.TrotterPlan(0.1, 60)
        assert plan.total_time == pytest.approx(6.0)
        assert plan.order == "second"

    def test_zero_steps_allowed(self):
        assert so.TrotterPlan(0.1, 0).total_time == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, n_steps=10),
        dict(dt=-0.1, n_steps=10),
        dict(dt=math.inf, n_steps=10),
        dict(dt=0.1, n_steps=-1),
        dict(dt=0.1, n_steps=10, order="third"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            so.TrotterPlan(**kwargs)


def test_kinetic_step_spreads_gaussian(grid):
    # free evolution of a unit gaussian has the textbook width law
    tau = 0.7
    out = so.kinetic_step(so.gaussian_packet(grid), tau)
    expected = (np.pi ** -0.25 / np.sqrt(1.0 + 1j * tau)
                * np.exp(-grid.x ** 2 / (2.0 * (1.0 + 1j * tau))))
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_kinetic_step_contract(grid, psi0):
    with pytest.raises(ContractError):
        so.kinetic_step(psi0, -0.1)
    with pytest.raises(ContractError):
        so.kinetic_step(so.to_momentum(psi0), 0.1)
    same = so.kinetic_step(psi0, 0.0)
    np.testing.assert_array_equal(same.values, psi0.values)


class TestTrotterStates:
    def test_zero_step_plan_yields_initial(self, v2, psi0):
        plan = so.TrotterPlan(0.1, 0)
        samples = list(so.trotter_states(psi0, v2, plan))
        assert len(samples) == 1
        j, state = samples[0]
        assert j == 0
        np.testing.assert_array_equal(state.values, psi0.values)

    def test_yields_every_step_at_stride_one(self, v2, psi0):
        plan = so.TrotterPlan(0.05, 12)
        indices = [j for j, _ in so.trotter_states(psi0, v2, plan, stride=1)]
        assert indices == list(range(13))

    def test_stride_sampling_consistent(self, v2, psi0):
        # samples must not depend on how often you look
        plan = so.TrotterPlan(0.05, 12)
        dense = dict(so.trotter_states(psi0, v2, plan, stride=1))
        sparse = dict(so.trotter_states(psi0, v2, plan, stride=5))
        assert sorted(sparse) == [0, 5, 10, 12]
        for j, state in sparse.items():
            np.testing.assert_allclose(state.values, dense[j].values, atol=1e-13)

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_matches_step_composition(self, v2, psi0, order):
        # the stepping loop against the product written out factor by factor
        dt, n = 0.05, 40
        expected = [psi0]

        def kick(psi):
            return psi.with_values(psi.values * np.exp(-1j * v2.values * dt))

        for _ in range(n):
            state = expected[-1]
            if order == "first":
                state = so.kinetic_step(kick(state), dt)
            else:
                state = so.kinetic_step(state, 0.5 * dt)
                state = so.kinetic_step(kick(state), 0.5 * dt)
            expected.append(state)
        plan = so.TrotterPlan(dt, n, order=order)
        for stride in (1, 7, n):
            samples = dict(so.trotter_states(psi0, v2, plan, stride=stride))
            assert sorted(samples) == sorted({*range(0, n + 1, stride), n})
            for j, state in samples.items():
                np.testing.assert_allclose(state.values, expected[j].values,
                                           atol=1e-12)

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_momentum_input_samples_in_momentum(self, v2, psi0, order):
        # momentum in, momentum out: the transform of each position sample
        phi = so.to_momentum(psi0)
        scale = 1e-14 * np.max(np.abs(phi.values))
        n = 40
        plan = so.TrotterPlan(0.05, n, order=order)
        for stride in (1, 7, n):
            position = dict(so.trotter_states(psi0, v2, plan, stride=stride))
            momentum = dict(so.trotter_states(phi, v2, plan, stride=stride))
            assert sorted(momentum) == sorted(position)
            assert momentum[0] is phi
            for j, state in momentum.items():
                assert state.representation == so.MOMENTUM
                np.testing.assert_allclose(
                    state.values, so.to_momentum(position[j]).values,
                    rtol=0, atol=scale)

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_unitarity(self, v2, psi0, order):
        plan = so.TrotterPlan(0.1, 50, order=order)
        final = so.trotter_evolve(psi0, v2, plan, trace_stride=50).final_state
        assert so.norm(final) == pytest.approx(1.0, abs=1e-12)


class TestStackedKernel:
    """A stack of m states is one stream that reproduces m separate runs."""

    @pytest.fixture(scope="class")
    def states(self, W, psi0):
        moving = so.gaussian_packet(psi0.grid, -3.0, momentum=1.5)
        return [psi0, moving, so.normalized(so.apply_B_dag(psi0, W))]

    @pytest.mark.parametrize("order", ["first", "second"])
    @pytest.mark.parametrize("stacked_potential", [False, True])
    def test_stack_equals_separate_runs_bitwise(self, W, v1, v2, states, order,
                                                stacked_potential):
        grid = v2.grid
        if stacked_potential:
            potentials = [v1, v2, so.eta_potential(W, 0.5, grid)]
            V = so.PotentialField(grid, np.vstack([v.values for v in potentials]))
        else:
            potentials = [v2] * len(states)
            V = v2
        stack = so.WaveFunction(grid, np.vstack([s.values for s in states]))
        self._assert_rows_run_alone(stack, V, states, potentials, order)

    @staticmethod
    def _assert_rows_run_alone(stack, V, states, potentials, order):
        n = 40
        plan = so.TrotterPlan(0.05, n, order=order)
        for stride in (1, 7, n):
            stacked = dict(so.trotter_states(stack, V, plan, stride=stride))
            assert sorted(stacked) == sorted({*range(0, n + 1, stride), n})
            for row, (state, v) in enumerate(zip(states, potentials)):
                alone = dict(so.trotter_states(state, v, plan, stride=stride))
                assert sorted(alone) == sorted(stacked)
                for j, sample in alone.items():
                    assert stacked[j].representation == sample.representation
                    np.testing.assert_array_equal(stacked[j].values[row],
                                                  sample.values)

    @pytest.mark.parametrize("order", ["first", "second"])
    @pytest.mark.parametrize("stacked_potential", [False, True])
    def test_momentum_stack_equals_separate_runs_bitwise(self, W, v1, v2, states,
                                                         order, stacked_potential):
        grid = v2.grid
        if stacked_potential:
            potentials = [v1, v2, so.eta_potential(W, 0.5, grid)]
            V = so.PotentialField(grid, np.vstack([v.values for v in potentials]))
        else:
            potentials = [v2] * len(states)
            V = v2
        momenta = [so.to_momentum(s) for s in states]
        stack = so.WaveFunction(grid, np.vstack([s.values for s in momenta]),
                                so.MOMENTUM)
        self._assert_rows_run_alone(stack, V, momenta, potentials, order)

    def test_samples_are_fresh_and_read_only(self, v2, states):
        stack = so.WaveFunction(v2.grid, np.vstack([s.values for s in states]))
        samples = list(so.trotter_states(stack, v2, so.TrotterPlan(0.05, 3)))
        assert samples[0][1] is stack
        arrays = [state.values for _, state in samples]
        for a in arrays:
            assert a.shape == stack.values.shape
            assert not a.flags.writeable
        for a, b in zip(arrays, arrays[1:]):
            assert not np.shares_memory(a, b)

    def test_momentum_samples_are_fresh_and_read_only(self, v2, states):
        stack = so.to_momentum(
            so.WaveFunction(v2.grid, np.vstack([s.values for s in states])))
        for order in ("first", "second"):
            plan = so.TrotterPlan(0.05, 3, order=order)
            samples = list(so.trotter_states(stack, v2, plan))
            assert samples[0][1] is stack
            arrays = [state.values for _, state in samples]
            for _, state in samples:
                assert state.representation == so.MOMENTUM
                assert not state.values.flags.writeable
            for a, b in zip(arrays, arrays[1:]):
                assert not np.shares_memory(a, b)

    def test_potential_rows_must_match_states(self, v1, v2, states):
        grid = v2.grid
        stack = so.WaveFunction(grid, np.vstack([s.values for s in states]))
        two = so.PotentialField(grid, np.vstack([v1.values, v2.values]))
        plan = so.TrotterPlan(0.05, 2)
        with pytest.raises(ContractError):
            next(so.trotter_states(stack, two, plan))
        with pytest.raises(ContractError):
            next(so.trotter_states(states[0], two, plan))

    def test_single_state_operations_reject_stacks(self, v2, states):
        stack = so.WaveFunction(v2.grid, np.vstack([s.values for s in states]))
        with pytest.raises(ContractError):
            so.exact_evolve(stack, v2, 1.0)
        with pytest.raises(ContractError):
            so.eigenbasis(v2, [stack], 1.0)


def test_trotter_evolve_trace_shapes(v2, psi0):
    plan = so.TrotterPlan(0.05, 12)
    trace = so.trotter_evolve(psi0, v2, plan, trace_stride=4)
    np.testing.assert_allclose(trace.times, [0.0, 0.2, 0.4, 0.6])
    assert trace.densities.shape == (4, psi0.grid.n)
    # densities are probability densities on the grid
    np.testing.assert_allclose(trace.densities.sum(axis=1) * psi0.grid.dx,
                               1.0, atol=1e-12)
    np.testing.assert_allclose(trace.densities[-1],
                               np.abs(trace.final_state.values) ** 2, atol=1e-14)


class TestExactEvolve:
    def test_free_particle_matches_kinetic_step(self, grid, psi0):
        flat = so.PotentialField(grid, np.zeros(grid.n), label="flat")
        a = so.exact_evolve(psi0, flat, 0.9)
        b = so.kinetic_step(psi0, 0.9)
        assert so.fidelity(a, b) > 1.0 - 1e-10
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_reversal(self, v2, psi0, basis_v2):
        fwd = so.exact_evolve(psi0, v2, 2.3, basis=basis_v2)
        back = so.exact_evolve(fwd, v2, -2.3, basis=basis_v2)
        np.testing.assert_allclose(back.values, psi0.values, atol=1e-10)

    def test_energy_conserved(self, v2, psi0, basis_v2):
        def energy(state):
            d2 = so.spectral_derivative(so.spectral_derivative(state))
            h = -0.5 * d2.values + v2.values * state.values
            return so.inner(state, state.with_values(h)).real

        evolved = so.exact_evolve(psi0, v2, 1.7, basis=basis_v2)
        assert energy(evolved) == pytest.approx(energy(psi0), rel=1e-9)

    def test_grid_mismatch(self, v2, small_grid):
        other = so.gaussian_packet(small_grid)
        with pytest.raises(ContractError):
            so.exact_evolve(other, v2, 1.0)

    def test_basis_of_another_potential_raises(self, W, grid, v2, psi0, basis_v1,
                                               basis_v2):
        with pytest.raises(ContractError, match="potential other than 'V2'"):
            so.exact_evolve(psi0, v2, 1.0, basis=basis_v1)
        with pytest.raises(ContractError, match="potential other than 'V2'"):
            so.trotter_convergence_scan(psi0, v2, 1.0, (8, 16), basis=basis_v1)
        rebuilt = so.partner_potential(W, 2, grid)
        assert rebuilt.values is not basis_v2.potential.values
        np.testing.assert_array_equal(
            so.exact_evolve(psi0, rebuilt, 1.0, basis=basis_v2).values,
            so.exact_evolve(psi0, v2, 1.0, basis=basis_v2).values)

    def test_uncaptured_state_raises(self, v2, psi0):
        # a fast packet lies outside the band of a basis built for psi0
        basis = so.eigenbasis(v2, [psi0], 1.0)
        assert basis.band_points < v2.grid.n
        kicked = so.gaussian_packet(v2.grid, -5.0, momentum=40.0)
        with pytest.raises(NumericalError, match="uncaptured"):
            so.exact_evolve(kicked, v2, 1.0, basis=basis)

    def test_eigenbasis_contract(self, v2, psi0, small_grid):
        with pytest.raises(ContractError):
            so.eigenbasis(v2, [], 1.0)
        with pytest.raises(ContractError):
            so.eigenbasis(v2, [so.gaussian_packet(small_grid)], 1.0)
        with pytest.raises(ContractError):
            so.eigenbasis(v2, [so.to_momentum(psi0)], 1.0)

    def test_zero_state_raises_before_any_solve(self, v2, psi0, basis_v2, monkeypatch):
        def no_solve(V):
            raise AssertionError("the eigensolver ran")

        monkeypatch.setattr(susy, "dense_hamiltonian", no_solve)
        zero = psi0.with_values(np.zeros(v2.grid.n))
        with pytest.raises(DegenerateStateError, match="zero-norm"):
            so.eigenbasis(v2, [psi0, zero], 1.0)
        with pytest.raises(DegenerateStateError, match="zero-norm"):
            so.exact_evolve(zero, v2, 1.0)
        with pytest.raises(DegenerateStateError, match="zero-norm"):
            so.exact_evolve(zero, v2, 1.0, basis=basis_v2)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_raises_before_any_solve(self, v2, psi0, basis_v2, t,
                                                      monkeypatch):
        def no_solve(V):
            raise AssertionError("the eigensolver ran")

        monkeypatch.setattr(susy, "dense_hamiltonian", no_solve)
        with pytest.raises(ConfigurationError, match="finite time"):
            so.eigenbasis(v2, [psi0], t)
        with pytest.raises(ConfigurationError, match="finite time"):
            so.exact_evolve(psi0, v2, t)
        with pytest.raises(ConfigurationError, match="finite time"):
            so.exact_evolve(psi0, v2, t, basis=basis_v2)
        with pytest.raises(ConfigurationError):
            so.trotter_convergence_scan(psi0, v2, t, (8, 16))


def test_trotter_approaches_oracle(v2, psi0, W, basis_v2):
    # 30 steps to half a period lands in the reference fidelity window
    raised = so.apply_B_dag(psi0, W)
    t = math.pi
    exact = so.exact_evolve(raised, v2, t, basis=basis_v2)
    plan = so.TrotterPlan(t / 30.0, 30)
    approx = so.trotter_evolve(raised, v2, plan, trace_stride=30).final_state
    assert 0.9993 <= so.fidelity(approx, exact) <= 1.0


class TestConvergenceScan:
    def test_columns_and_monotonicity(self, v2, psi0, basis_v2):
        scan = so.trotter_convergence_scan(psi0, v2, math.pi, (8, 16, 32, 64),
                                           basis=basis_v2)
        assert scan.order == "second"
        assert np.all(scan.rel_l2_error > 0)
        assert np.all(np.diff(scan.rel_l2_error) < 0)
        # overlap error is quadratic in the state error, so it sits below
        assert np.all(scan.infidelity < scan.rel_l2_error)

    def test_validation(self, v2, psi0):
        with pytest.raises(ConfigurationError):
            so.trotter_convergence_scan(psi0, v2, 1.0, ())
        with pytest.raises(ConfigurationError):
            so.trotter_convergence_scan(psi0, v2, 1.0, (16, 8))
        with pytest.raises(ConfigurationError):
            so.trotter_convergence_scan(psi0, v2, -1.0, (8, 16))


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = np.array([10, 20, 40, 80])
        errs = 5.0 * ns ** -2.0
        assert so.fit_loglog_slope(ns, errs) == pytest.approx(-2.0, abs=1e-12)

    def test_saturated_points_excluded(self):
        ns = np.array([5, 10, 20, 40, 80])
        errs = np.array([2.0, 0.2, 0.05, 0.0125, 0.003125])
        # the saturated first point would flatten the fit; it must be dropped
        assert so.fit_loglog_slope(ns, errs) == pytest.approx(-2.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(NumericalError):
            so.fit_loglog_slope([10, 20], [0.1, 0.025])
