"""Property tests of the thin element's one rule and its three constructors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susyoptics as so
from susyoptics import ConfigurationError
from susyoptics.optics import PhysicalUnits, amplitude_modulator, phase_plate, thin_lens

N = 64
GRID = so.make_grid(N, -8.0, 8.0)
UNITS = PhysicalUnits(532e-9, 1e-3)
# few examples on a 64-point grid: the module stays well under a second
BOUNDED = settings(max_examples=50, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
passive = st.floats(-1.0, 1.0)
active = st.floats(1.0 + 1e-12, 1e300, exclude_min=True)


@BOUNDED
@given(st.lists(finite, min_size=1, max_size=N))
def test_any_finite_phase_makes_a_unit_modulus_plate(phase):
    plate = phase_plate(phase)
    np.testing.assert_allclose(np.abs(plate.transmission), 1.0, rtol=0, atol=1e-15)


@BOUNDED
@given(st.lists(passive, min_size=1, max_size=N), st.data())
def test_a_profile_above_unit_magnitude_is_refused(profile, data):
    assert amplitude_modulator(profile).transmission.tolist() == profile
    at = data.draw(st.integers(0, len(profile) - 1))
    profile[at] = data.draw(active) * data.draw(st.sampled_from([1.0, -1.0]))
    with pytest.raises(ConfigurationError, match="cannot exceed unit magnitude"):
        amplitude_modulator(profile)


elements = st.one_of(
    st.builds(thin_lens, st.floats(1e-3, 1e3), st.floats(1e-4, 1.0),
              st.just(GRID), st.just(UNITS)),
    st.builds(phase_plate, st.lists(finite, min_size=N, max_size=N)),
    st.builds(amplitude_modulator, st.lists(passive, min_size=N, max_size=N)),
)


@BOUNDED
@given(elements, st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_a_stack_through_any_element_is_each_row_alone(element, rows, seed):
    rng = np.random.default_rng(seed)
    stack = so.WaveFunction(GRID, rng.normal(size=(rows, N)) + 1j * rng.normal(size=(rows, N)))
    out = element.apply(stack, UNITS).values
    for i in range(rows):
        solo = element.apply(stack.with_values(stack.values[i]), UNITS).values
        np.testing.assert_array_equal(out[i], solo)
