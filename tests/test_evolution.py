import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import susyoptics as so
from susyoptics import (
    ConfigurationError,
    ContractError,
    DegenerateStateError,
    NumericalError,
    evolution,
    susy,
)
from susyoptics.evolution import ORDERS
from susyoptics.experiments import fit_loglog_slope
from susyoptics.grids import MOMENTUM, fourier_multiply
from susyoptics.susy import PotentialField


class TestTrotterPlan:
    def test_zero_steps_allowed(self):
        plan = so.TrotterPlan(0.1, 0)
        assert plan.n_steps == 0
        assert plan.order == "second"

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, n_steps=10),
        dict(dt=-0.1, n_steps=10),
        dict(dt=math.inf, n_steps=10),
        dict(dt=0.1, n_steps=-1),
        dict(dt=0.1, n_steps=10, order="third"),
        dict(dt=0.1, n_steps=10, order=("second", "third")),
        dict(dt=0.1, n_steps=10, order=()),
        dict(dt=0.1, n_steps=10, order=["second", "first"]),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            so.TrotterPlan(**kwargs)


def free(psi, tau):
    """Free evolution for a time tau: the kinetic multiplier exp(-i p^2 tau / 2)."""
    return fourier_multiply(psi, np.exp(-0.5j * psi.grid.p**2 * tau))


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_kinetic_step_rejects_a_non_finite_tau(psi0, v2, tau):
    # the split-step's kinetic factor exp(-i p^2 tau / 2) is built from the plan's dt
    with pytest.raises(ConfigurationError, match="finite"):
        so.trotter_evolve(psi0, v2, so.TrotterPlan(tau, 1))


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
        # samples must not depend on how often you look, to the bit
        for order in ORDERS:
            for psi in (psi0, so.to_momentum(psi0)):
                plan = so.TrotterPlan(0.05, 12, order=order)
                dense = dict(so.trotter_states(psi, v2, plan, stride=1))
                sparse = dict(so.trotter_states(psi, v2, plan, stride=5))
                assert sorted(sparse) == [0, 5, 10, 12]
                for j, state in sparse.items():
                    np.testing.assert_array_equal(state.values, dense[j].values)

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
                state = free(kick(state), dt)
            else:
                state = free(state, 0.5 * dt)
                state = free(kick(state), 0.5 * dt)
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
                assert state.representation == MOMENTUM
                np.testing.assert_allclose(
                    state.values, so.to_momentum(position[j]).values,
                    rtol=0, atol=scale)

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_unitarity(self, v2, psi0, order):
        plan = so.TrotterPlan(0.1, 50, order=order)
        final = so.trotter_evolve(psi0, v2, plan)
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
            V = PotentialField(grid, np.vstack([v.values for v in potentials]))
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
            V = PotentialField(grid, np.vstack([v.values for v in potentials]))
        else:
            potentials = [v2] * len(states)
            V = v2
        momenta = [so.to_momentum(s) for s in states]
        stack = so.WaveFunction(grid, np.vstack([s.values for s in momenta]),
                                MOMENTUM)
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
                assert state.representation == MOMENTUM
                assert not state.values.flags.writeable
            for a, b in zip(arrays, arrays[1:]):
                assert not np.shares_memory(a, b)

    def test_potential_rows_must_match_states(self, v1, v2, states):
        # k states under m potentials pair no rows when k != m, either way round
        grid = v2.grid
        three = so.WaveFunction(grid, np.vstack([s.values for s in states]))
        two = PotentialField(grid, np.vstack([v1.values, v2.values]))
        plan = so.TrotterPlan(0.05, 2)
        with pytest.raises(ContractError):
            next(so.trotter_states(three, two, plan))
        with pytest.raises(ContractError):
            next(so.trotter_states(three.with_values(three.values[:2]),
                                   PotentialField(grid, np.vstack([v1.values] * 3)), plan))

    def test_stream_arguments_are_checked(self, v2, psi0):
        plan = so.TrotterPlan(0.05, 2)
        elsewhere = so.gaussian_packet(so.make_grid(512, -15.0, 15.0), -5.0)
        with pytest.raises(ContractError, match="different grids"):
            next(so.trotter_states(elsewhere, v2, plan))
        for stride in (0, 2.0):
            with pytest.raises(ConfigurationError, match="stride"):
                next(so.trotter_states(psi0, v2, plan, stride=stride))

    def test_single_state_operations_reject_stacks(self, v2, states, basis_v2):
        stack = so.WaveFunction(v2.grid, np.vstack([s.values for s in states]))
        with pytest.raises(ContractError):
            so.exact_evolve(stack, basis_v2, 1.0)
        with pytest.raises(ContractError):
            so.eigenbasis(v2, [stack], 1.0)


class TestPerRowOrders:
    """Rows of different product orders share one stream, each as it would run alone."""

    ORDERS = ("second", "first")

    @staticmethod
    def _states(n, momentum):
        grid = so.make_grid(n, -12.0, 12.0)
        states = [so.gaussian_packet(grid, -5.0), so.gaussian_packet(grid, -3.0, momentum=1.5)]
        return [so.to_momentum(s) for s in states] if momentum else states

    @pytest.mark.parametrize("n", [2048, 513])
    @pytest.mark.parametrize("momentum", [False, True])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_rows_equal_their_solo_runs_bitwise(self, W, n, momentum, stacked):
        states = self._states(n, momentum)
        grid = states[0].grid
        V = so.partner_potential(W, 2, grid)
        # a (2, n) stack pairs its rows with the orders; one state starts both rows
        psi = states[0].with_values(np.vstack([s.values for s in states])) if stacked \
            else states[0]
        starts = states if stacked else [states[0]] * 2
        steps = 20
        plan = so.TrotterPlan(0.05, steps, self.ORDERS)
        alone = [dict(so.trotter_states(s, V, so.TrotterPlan(0.05, steps, order)))
                 for s, order in zip(starts, self.ORDERS)]
        for stride in (1, 7):
            paired = dict(so.trotter_states(psi, V, plan, stride=stride))
            assert sorted(paired) == sorted({*range(0, steps + 1, stride), steps})
            assert paired.pop(0) is psi
            for j, sample in paired.items():
                assert sample.values.shape == (2, n)
                assert sample.representation == psi.representation
                for row in range(2):
                    np.testing.assert_array_equal(sample.values[row], alone[row][j].values)

    def test_row_blocks_take_their_own_orders(self, W, monkeypatch):
        # 25 rows of alternating orders run as three blocks on three CPUs
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 3)
        states = self._states(513, False)
        V = so.partner_potential(W, 2, states[0].grid)
        orders = tuple(self.ORDERS[i % 2] for i in range(25))
        plan = so.TrotterPlan(0.05, 12, orders)
        alone = {o: so.trotter_evolve(states[1], V, so.TrotterPlan(0.05, 12, o))
                 for o in self.ORDERS}
        paired = so.trotter_evolve(states[1], V, plan)
        assert paired.values.shape == (25, 513)
        for row, order in enumerate(orders):
            np.testing.assert_array_equal(paired.values[row], alone[order].values)

    def test_order_count_must_match_the_rows(self, v1, v2, psi0):
        grid = v2.grid
        plan = so.TrotterPlan(0.05, 2, self.ORDERS)
        three = so.WaveFunction(grid, np.vstack([psi0.values] * 3))
        potentials = PotentialField(grid, np.vstack([v1.values, v2.values, v1.values]))
        with pytest.raises(ContractError, match="row count"):
            next(so.trotter_states(three, v2, plan))
        with pytest.raises(ContractError, match="row count"):
            next(so.trotter_states(psi0, potentials, plan))
        # one state under two potentials and two orders is two rows
        two = PotentialField(grid, np.vstack([v1.values, v2.values]))
        assert so.trotter_evolve(psi0, two, plan).values.shape == (2, grid.n)


def test_trotter_evolve_keeps_the_last_sample(v2, psi0):
    # the final state of a stride-1 stream, to the bit, in either order and space
    for order in ORDERS:
        for psi in (psi0, so.to_momentum(psi0)):
            plan = so.TrotterPlan(0.05, 12, order=order)
            final = so.trotter_evolve(psi, v2, plan)
            *_, (j, last) = so.trotter_states(psi, v2, plan, stride=1)
            assert j == plan.n_steps
            np.testing.assert_array_equal(final.values, last.values)
            assert final.representation == last.representation
    assert so.trotter_evolve(psi0, v2, so.TrotterPlan(0.05, 0)) is psi0


class TestExactEvolve:
    def test_free_particle_matches_the_free_multiplier(self, grid, psi0):
        flat = PotentialField(grid, np.zeros(grid.n), label="flat")
        a = so.exact_evolve(psi0, so.eigenbasis(flat, [psi0], 0.9), 0.9)
        b = free(psi0, 0.9)
        assert so.fidelity(a, b) > 1.0 - 1e-10
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_reversal(self, v2, psi0, basis_v2):
        fwd = so.exact_evolve(psi0, basis_v2, 2.3)
        back = so.exact_evolve(fwd, basis_v2, -2.3)
        np.testing.assert_allclose(back.values, psi0.values, atol=1e-10)

    def test_energy_conserved(self, v2, psi0, basis_v2):
        def energy(state):
            ip = 1j * state.grid.p
            d2 = fourier_multiply(fourier_multiply(state, ip), ip)
            h = -0.5 * d2.values + v2.values * state.values
            return so.inner(state, state.with_values(h)).real

        evolved = so.exact_evolve(psi0, basis_v2, 1.7)
        assert energy(evolved) == pytest.approx(energy(psi0), rel=1e-9)

    def test_grid_mismatch(self, basis_v2, small_grid):
        other = so.gaussian_packet(small_grid)
        with pytest.raises(ContractError):
            so.exact_evolve(other, basis_v2, 1.0)

    def test_uncaptured_state_raises(self, v2, psi0):
        # a fast packet lies outside the band of a basis built for psi0
        basis = so.eigenbasis(v2, [psi0], 1.0)
        assert basis.band_points < v2.grid.n
        kicked = so.gaussian_packet(v2.grid, -5.0, momentum=40.0)
        with pytest.raises(NumericalError, match="uncaptured"):
            so.exact_evolve(kicked, basis, 1.0)

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
            so.exact_evolve(zero, basis_v2, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_raises_before_any_solve(self, v2, psi0, basis_v2, t,
                                                      monkeypatch):
        def no_solve(V):
            raise AssertionError("the eigensolver ran")

        monkeypatch.setattr(susy, "dense_hamiltonian", no_solve)
        with pytest.raises(ConfigurationError, match="finite time"):
            so.eigenbasis(v2, [psi0], t)
        with pytest.raises(ConfigurationError, match="finite time"):
            so.exact_evolve(psi0, basis_v2, t)


def test_trotter_approaches_oracle(v2, psi0, W, basis_v2):
    # 30 steps to half a period lands in the reference fidelity window
    raised = so.apply_B_dag(psi0, W)
    t = math.pi
    exact = so.exact_evolve(raised, basis_v2, t)
    plan = so.TrotterPlan(t / 30.0, 30)
    approx = so.trotter_evolve(raised, v2, plan)
    assert 0.9993 <= so.fidelity(approx, exact) <= 1.0


def test_design_step_carries_a_grid_component(W):
    # T/60 scatters norm into every mode the grid has, so its final state moves
    # from 256 to 512 points (3.5e-5 measured) where the oracle's and a T/480
    # product's stay put to rounding (1.3e-13 and 7.8e-14)
    period = 2.0 * np.pi
    finals = []
    for n in (256, 512):
        grid = so.make_grid(n, -15.0, 15.0)
        v1 = so.partner_potential(W, 1, grid)
        psi = so.gaussian_packet(grid, center=-5.0)
        exact = so.exact_evolve(psi, so.eigenbasis(v1, [psi], 3 * period), 3 * period)
        finals.append([so.trotter_evolve(psi, v1, so.TrotterPlan(period / k, 3 * k)).values
                       for k in (60, 480)] + [exact.values])
    design, fine, oracle = (np.max(np.abs(b[::2] - a)) for a, b in zip(*finals))
    assert design > 1e-5
    assert fine < 1e-11
    assert oracle < 1e-11


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = np.array([10, 20, 40, 80])
        errs = 5.0 * ns ** -2.0
        assert fit_loglog_slope(ns, errs) == pytest.approx(-2.0, abs=1e-12)

    def test_saturated_points_excluded(self):
        ns = np.array([5, 10, 20, 40, 80])
        errs = np.array([2.0, 0.2, 0.05, 0.0125, 0.003125])
        # the saturated first point would flatten the fit; it must be dropped
        assert fit_loglog_slope(ns, errs) == pytest.approx(-2.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(NumericalError):
            fit_loglog_slope([10, 20], [0.1, 0.025])


class TestRowBlocks:
    """A large stack runs in row blocks on several threads, with the same bits."""

    ROWS = 25  # three blocks of 8, 8 and 9 rows on three CPUs

    @pytest.fixture
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 3)
        assert len(evolution._row_blocks(self.ROWS)) == 3

    @staticmethod
    def _pairs(W, n, stacked_potential):
        grid = so.make_grid(n, -12.0, 12.0)
        states = [so.gaussian_packet(grid, -5.0), so.gaussian_packet(grid, -3.0, momentum=1.5),
                  so.gaussian_packet(grid, 2.0, width=0.7, momentum=-1.0)]
        potentials = [so.partner_potential(W, 1, grid), so.partner_potential(W, 2, grid),
                      *(so.eta_potential(W, eta, grid) for eta in (-1.0, 0.5, 1.5))]
        if not stacked_potential:
            potentials = potentials[1:2]
        # rows a block away from each other hold different pairs
        return grid, [(i % len(states), i % len(potentials))
                      for i in range(TestRowBlocks.ROWS)], states, potentials

    @pytest.mark.parametrize("n", [2048, 513])
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("momentum", [False, True])
    @pytest.mark.parametrize("stacked_potential", [False, True])
    def test_rows_equal_their_solo_runs_bitwise(self, W, three_cpus, n, order, momentum,
                                                stacked_potential):
        grid, pairs, states, potentials = self._pairs(W, n, stacked_potential)
        if momentum:
            states = [so.to_momentum(s) for s in states]
        stack = so.WaveFunction(grid, np.vstack([states[s].values for s, _ in pairs]),
                                states[0].representation)
        V = (PotentialField(grid, np.vstack([potentials[v].values for _, v in pairs]))
             if stacked_potential else potentials[0])
        steps = 20
        plan = so.TrotterPlan(0.05, steps, order=order)
        # samples do not depend on the stride, so one solo run serves all three
        alone = {pair: dict(so.trotter_states(states[pair[0]], potentials[pair[1]], plan))
                 for pair in set(pairs)}
        for stride in (1, 7, steps):
            stacked = dict(so.trotter_states(stack, V, plan, stride=stride))
            assert sorted(stacked) == sorted({*range(0, steps + 1, stride), steps})
            for j, sample in stacked.items():
                assert sample.representation == stack.representation
                for row, pair in enumerate(pairs):
                    np.testing.assert_array_equal(sample.values[row], alone[pair][j].values)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("momentum", [False, True])
    def test_one_state_under_a_potential_stack_equals_its_copies_bitwise(
            self, W, three_cpus, order, momentum):
        grid, pairs, states, potentials = self._pairs(W, 2048, True)
        psi = so.to_momentum(states[1]) if momentum else states[1]
        V = PotentialField(grid, np.vstack([potentials[v].values for _, v in pairs]))
        copies = psi.with_values(np.vstack([psi.values] * self.ROWS))
        plan = so.TrotterPlan(0.05, 12, order=order)
        for stride in (1, 5):
            alone = dict(so.trotter_states(psi, V, plan, stride=stride))
            stacked = dict(so.trotter_states(copies, V, plan, stride=stride))
            assert sorted(alone) == sorted(stacked) and alone.pop(0) is psi
            for j, sample in alone.items():
                assert sample.representation == psi.representation
                np.testing.assert_array_equal(sample.values, stacked[j].values)

    @pytest.mark.parametrize("cpus,blocks", [(1, 1), (2, 2), (4, 4)])
    @pytest.mark.parametrize("n", [2048, 513])
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("momentum", [False, True])
    def test_samples_are_the_same_bits_on_any_number_of_cpus(
            self, W, monkeypatch, cpus, blocks, n, order, momentum):
        # 33 rows run as one block, as 16 and 17, or as 8, 8, 8 and 9
        rows = 33
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)
        assert len(evolution._row_blocks(rows)) == blocks
        grid, _, states, potentials = self._pairs(W, n, True)
        pairs = [(i % len(states), i % len(potentials)) for i in range(rows)]
        if momentum:
            states = [so.to_momentum(s) for s in states]
        stack = so.WaveFunction(grid, np.vstack([states[s].values for s, _ in pairs]),
                                states[0].representation)
        V = PotentialField(grid, np.vstack([potentials[v].values for _, v in pairs]))
        steps = 20
        plan = so.TrotterPlan(0.05, steps, order=order)
        alone = {pair: dict(so.trotter_states(states[pair[0]], potentials[pair[1]], plan))
                 for pair in set(pairs)}
        for stride in (1, 7, steps):
            stacked = dict(so.trotter_states(stack, V, plan, stride=stride))
            assert sorted(stacked) == sorted({*range(0, steps + 1, stride), steps})
            assert stacked.pop(0) is stack
            for j, sample in stacked.items():
                # each later sample is a whole fresh read-only stack in psi's representation
                assert sample.representation == stack.representation
                assert sample.values.shape == (rows, n) and not sample.values.flags.writeable
                assert not np.shares_memory(sample.values, stack.values)
                for row, pair in enumerate(pairs):
                    np.testing.assert_array_equal(sample.values[row], alone[pair][j].values)

    @staticmethod
    def _row_threads():
        return [t for t in threading.enumerate() if t.name.startswith("susyoptics-rows")]

    @pytest.mark.parametrize("count,usable", [(6, 6), (None, 1)])
    def test_without_affinity_masks_every_cpu_is_usable(self, monkeypatch, count, usable):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert evolution._usable_cpus() == usable

    def test_small_stacks_start_no_thread(self, v2, psi0, monkeypatch):
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 64)
        before = threading.active_count()
        plan = so.TrotterPlan(0.05, 5)
        two = so.WaveFunction(psi0.grid, np.vstack([psi0.values] * 2))
        for psi in (psi0, two):
            so.trotter_evolve(psi, v2, plan)
        assert threading.active_count() == before

    def test_no_thread_outlives_its_stream(self, v2, psi0, three_cpus, monkeypatch):
        # a thread kept past its stream would be a process-wide pool again
        stack = so.WaveFunction(psi0.grid, np.vstack([psi0.values] * self.ROWS))
        plan = so.TrotterPlan(0.05, 3)
        before = threading.active_count()
        so.trotter_evolve(stack, v2, plan)  # exhausted
        assert not self._row_threads() and threading.active_count() == before
        states = so.trotter_states(stack, v2, plan)
        next(states)
        next(states)  # suspended after the first step's sample
        assert len(self._row_threads()) == 2
        states.close()
        assert not self._row_threads() and threading.active_count() == before
        fft = np.fft.fft

        def failing(a, *args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise ArithmeticError("a worker's block")
            return fft(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.fft, "fft", failing)
            with pytest.raises(ArithmeticError):
                so.trotter_evolve(stack, v2, plan)
        assert not self._row_threads() and threading.active_count() == before

    def test_concurrent_streams_each_keep_their_own_workers(self, v2, psi0, monkeypatch):
        # more blocks than cores, from several threads at once, with frequent
        # thread switches: a completion delivered to the wrong step shows here
        grid = psi0.grid
        stack = so.WaveFunction(grid, np.vstack(
            [so.gaussian_packet(grid, -6.0 + 0.25 * i).values for i in range(33)]))
        plan = so.TrotterPlan(0.05, 6)
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 1)
        serial = so.trotter_evolve(stack, v2, plan)
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 4)  # blocks of 8, 8, 8, 9
        results = []

        def caller():
            for _ in range(5):
                results.append(so.trotter_evolve(stack, v2, plan).values)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(results) == 15
        for values in results:
            np.testing.assert_array_equal(values, serial.values)

    @staticmethod
    def _serial_and_split(v2, psi0, monkeypatch):
        stack = so.WaveFunction(psi0.grid, np.vstack([psi0.values] * 17))
        plan = so.TrotterPlan(0.05, 6)
        with monkeypatch.context() as m:
            m.setattr(evolution, "_usable_cpus", lambda: 1)
            serial = so.trotter_evolve(stack, v2, plan)
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        return stack, plan, serial  # split 8 rows here and 9 on a worker

    @pytest.mark.parametrize("failing_rows", [8, 9])
    def test_a_block_error_reaches_the_caller_after_every_block(
            self, v2, psi0, monkeypatch, failing_rows):
        stack, plan, serial = self._serial_and_split(v2, psi0, monkeypatch)

        class BlockError(Exception):
            pass

        finished = []
        fft = np.fft.fft

        def failing(a, *args, **kwargs):
            rows = np.shape(a)[0]
            if rows == failing_rows:
                raise BlockError(rows)
            if rows < 17:  # the other block, not the set-up transform of the stack
                time.sleep(0.1)  # still running when the failing block raises
                finished.append(rows)
            return fft(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.fft, "fft", failing)
            with pytest.raises(BlockError):
                so.trotter_evolve(stack, v2, plan)
            assert finished == [17 - failing_rows]
        assert not self._row_threads()
        np.testing.assert_array_equal(so.trotter_evolve(stack, v2, plan).values,
                                      serial.values)

    def test_workers_run_in_the_callers_context(self, v2, psi0, monkeypatch):
        stack, plan, serial = self._serial_and_split(v2, psi0, monkeypatch)
        seen = {}
        fft = np.fft.fft

        def overflowing(a, *args, **kwargs):
            seen[threading.get_ident()] = np.geterr()["over"]
            if threading.current_thread() is not threading.main_thread():
                np.float64(1e308) * np.float64(10.0)
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", overflowing)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(so.trotter_evolve(stack, v2, plan).values,
                                          serial.values)
        assert len(seen) > 1 and set(seen.values()) == {"ignore"}
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            so.trotter_evolve(stack, v2, plan)
        # the worker's RuntimeWarning fails the run, as the filterwarnings setting asks
        with pytest.raises(RuntimeWarning, match="overflow"):
            so.trotter_evolve(stack, v2, plan)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_workers(self, v2, psi0, monkeypatch):
        stack, plan, serial = self._serial_and_split(v2, psi0, monkeypatch)
        states = so.trotter_states(stack, v2, plan)
        next(states)
        next(states)  # suspended after the first step's sample
        assert self._row_threads()  # the parent's workers are running
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)  # a child waiting on its parent's workers dies, not hangs
                fresh = so.trotter_evolve(stack, v2, plan)
                for _, finished in states:
                    pass
                code = 0 if (np.array_equal(fresh.values, serial.values)
                             and np.array_equal(finished.values, serial.values)) else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        for _, finished in states:
            pass
        np.testing.assert_array_equal(finished.values, serial.values)
        assert not self._row_threads()
