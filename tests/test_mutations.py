"""Every gate must be able to fail: a table of mutations of the physics.

Each row patches one piece of physics and runs, in-process and emitting
nothing, the scenario that owns it at the default config (n = 2048, where
every gate is valid).  The row asserts that at least one of that scenario's
gates FAILs, that each gate it names is among them, and that each gate it
names as passing still passes.

- The first-order fractions in place of the second-order ones in
  `evolution.ORDERS`.  trotter-convergence's `train_deviation` must still
  pass: the kernel and the plate-train compiler read the one table, so the
  train follows the mutated kernel.
- B in place of B+ wherever a scenario raises a state (`experiments`, and
  `config`, which raises the launch state).
- V1 and V2 swapped where `config` builds the partners.

bdag-check has no row.  With B in place of B+ in `optics` and `experiments`,
all 7 of its gates still pass, because `calibrate_interferometer` fits the
derivative arm's phase against the same algebraic target.  Its row lands
with a gate that checks that trim phase against the one the layout predicts.
eta-sweep, the slowest runner, runs once.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from susyoptics import config, evolution, experiments, susy
from susyoptics.config import ExperimentConfig


def first_order_fractions():
    return mock.patch.dict(evolution.ORDERS, second=evolution.ORDERS["first"])


@contextmanager
def lowering_for_raising():
    with mock.patch.object(experiments, "apply_B_dag", susy.apply_B), \
            mock.patch.object(config, "apply_B_dag", susy.apply_B):
        yield


def swapped_partners():
    return mock.patch.object(config, "partner_potential",
                             lambda W, which, grid: susy.partner_potential(W, 3 - which, grid))


# (mutation, scenario, gates that must FAIL, gates that must still PASS)
MUTATIONS = [
    (first_order_fractions, "susy-check", ("peak_deviation",), ()),
    (first_order_fractions, "trotter-convergence",
     ("fidelity_n30", "slope_second", "l2_error_ratio_n30_n60"), ("train_deviation",)),
    (lowering_for_raising, "susy-check", ("fidelity_final", "peak_deviation"), ()),
    (lowering_for_raising, "eta-sweep",
     ("argmax_eta_positive", "argmax_eta_negative", "peak_fidelity"), ()),
    (swapped_partners, "spectrum", ("max_paired_gap", "ground_energy_v2"), ()),
    (swapped_partners, "susy-check", ("fidelity_final", "peak_deviation"), ()),
]


@pytest.mark.parametrize("mutation,scenario,fails,passes", MUTATIONS,
                         ids=[f"{m.__name__}-{s}" for m, s, *_ in MUTATIONS])
def test_the_owning_scenario_fails(mutation, scenario, fails, passes):
    with mutation():
        result = experiments.SCENARIO_RUNNERS[scenario](ExperimentConfig())
    verdicts = {s.name: s.passed for s in result.scalars}
    failed = {name for name, passed in verdicts.items() if not passed}
    assert failed, f"no gate of {scenario} catches {mutation.__name__}"
    assert set(fails) <= failed
    assert all(verdicts[name] for name in passes)

