"""Property tests of the batched merit engine over random controls and outcomes."""
import math

import numpy as np
import pytest

from teleswitch import analysis, switch

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _random_rows(n, rows, seed):
    rng = np.random.default_rng(seed)
    d = math.factorial(n)
    controls = [switch.ControlState(switch.haar_random_state(d, rng)) for _ in range(rows)]
    outcomes = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    return controls, outcomes


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    n=st.sampled_from([2, 3]),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    phase=st.floats(0.0, 2 * math.pi),
)
def test_merit_is_batch_invariant_and_phase_blind(n, rows, seed, phase):
    controls, outcomes = _random_rows(n, rows, seed)
    ks = analysis.merit_grid(controls, outcomes)
    for i in range(rows):
        assert analysis.merit_grid(controls[i : i + 1], outcomes[i : i + 1])[0] == ks[i]
    rotated = analysis.merit_grid(controls, np.exp(1j * phase) * outcomes)
    assert np.allclose(rotated, ks, rtol=0.0, atol=1e-14)
    assert np.all(ks >= 0.0) and np.all(ks <= 1 / 9)
