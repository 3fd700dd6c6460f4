"""Property test of a reduced stream: chunks cut by the byte budget, values bitwise whole."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import susyoptics as so
from susyoptics import evolution
from susyoptics.susy import PotentialField

# small stacks over two steps: the module stays well under a second
BOUNDED = settings(max_examples=80, deadline=None, database=None)
PLAN = so.TrotterPlan(0.05, 2)


@BOUNDED
@given(st.integers(1, 40), st.integers(9, 301).filter(lambda n: n & (n - 1)),
       st.integers(1, 3), st.booleans(), st.data())
def test_a_reduced_stream_is_its_samples_reduced_whole(rows, n, cpus, momentum, data):
    row_bytes = 16 * n  # one complex row
    budget = data.draw(st.integers(row_bytes // 2, rows * row_bytes), label="budget")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    grid = so.make_grid(n, -12.0, 12.0)
    # distinct rows, so each chunk's first row names its place in the sample
    stack, reference = (so.WaveFunction(grid, rng.normal(size=(k, n)) + 1j * rng.normal(
        size=(k, n))) for k in (rows, 1))
    if momentum:
        stack, reference = so.to_momentum(stack), so.to_momentum(reference)
    V = PotentialField(grid, 0.5 * grid.x**2)
    chunks = []

    def functions():  # the i-th sample's function records its chunks
        for i in range(PLAN.n_steps + 1):
            def fn(chunk, i=i):
                chunks.append((i, chunk.values))
                return so.fidelity(reference, chunk)
            yield fn

    with pytest.MonkeyPatch.context() as m:
        m.setattr(evolution, "_usable_cpus", lambda: cpus)
        m.setattr(evolution, "_CHUNK_BYTES", budget)
        plain = dict(so.trotter_states(stack, V, PLAN))
        reduced = dict(so.trotter_states(stack, V, PLAN, reduce=functions()))
        blocks = evolution._row_blocks(rows)
    assert sorted(reduced) == sorted(plain)
    for j, values in reduced.items():
        np.testing.assert_array_equal(values, so.fidelity(reference, plain[j]))
        whole = plain[j].values
        spans = []
        for i, chunk in chunks:
            if i == j:
                start, = np.flatnonzero((whole == chunk[0]).all(axis=1))
                np.testing.assert_array_equal(chunk, whole[start:start + len(chunk)])
                spans.append((start, len(chunk)))
        # step 0 cuts the whole stack on this thread, a later step each row block
        for block in ([slice(0, rows)] if j == 0 else blocks):
            start, stop, _ = block.indices(rows)
            sizes = [size for at, size in sorted(spans) if start <= at < stop]
            assert [row for at, size in sorted(spans) if start <= at < stop
                    for row in range(at, at + size)] == list(range(start, stop))
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) * row_bytes <= budget or max(sizes) == 1
            # the fewest: one chunk fewer would be over the budget
            if len(sizes) > 1:
                assert math.ceil((stop - start) / (len(sizes) - 1)) * row_bytes > budget
        assert sum(size for _, size in spans) == rows
