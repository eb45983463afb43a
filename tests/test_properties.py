"""Property tests over random controls and outcomes: the batched merit and curve
engines, and the polynomial route against the brute Kraus route."""
import math

import numpy as np
import pytest

from teleswitch import analysis, channels, switch

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
    n=st.sampled_from([2, 3, 4]),
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


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    n=st.sampled_from([2, 3, 4]),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_curve_rows_match_their_one_row_calls(n, rows, seed):
    controls, outcomes = _random_rows(n, rows, seed)
    ps = np.linspace(0.0, 1 / 3, 31)
    fs, zero = analysis.curve_grid(controls, outcomes, ps)
    assert fs.shape == zero.shape == (rows, len(ps))
    for i in range(rows):
        one, one_zero = analysis.curve_grid(controls[i], outcomes[i], ps)
        assert np.array_equal(one[0], fs[i]) and np.array_equal(one_zero[0], zero[i])
        # the stack normalizes each outcome as the one-outcome polynomials do
        num, den = analysis.fidelity_polynomials(controls[i], outcomes[i])
        assert np.array_equal(analysis.evaluate_fidelity(num, den, ps), fs[i])


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.0, 1 / 3),
)
def test_polynomial_route_matches_brute_route(n, seed, p):
    (control,), outcomes = _random_rows(n, 1, seed)
    psi = switch.haar_random_state(2, seed)
    rho = np.outer(psi, psi.conj())
    num, den = analysis.fidelity_polynomials(control, outcomes[0])
    prob = np.polynomial.polynomial.polyval(p, den)
    # F = num/den loses digits as the outcome probability goes to zero
    hypothesis.assume(prob > 1e-6)
    joint = switch.switch_n(channels.isotropic_channel(p), n, rho, control)
    selected = switch.post_select(joint, outcomes[0])
    fidelity = channels.qubit_fidelity(rho, selected.state)
    assert abs(selected.probability - prob) < 1e-12
    assert abs(fidelity - analysis.fidelity_profile(control, outcomes[0], p)[0]) < 1e-10
    assert -1e-12 <= fidelity <= 1 + 1e-12


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    n=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.0, 1 / 3),
)
def test_outcome_probabilities_over_a_basis_sum_to_one(n, seed, p):
    rng = np.random.default_rng(seed)
    d = math.factorial(n)
    control = switch.ControlState(switch.haar_random_state(d, rng))
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    psi = switch.haar_random_state(2, rng)
    joint = switch.switch_n(channels.isotropic_channel(p), n, np.outer(psi, psi.conj()), control)
    probs = [np.trace(switch.project_outcome(joint, m)).real for m in basis.T]
    assert abs(sum(probs) - 1.0) < 1e-12
    dens = sum(analysis.fidelity_polynomials(control, m)[1] for m in basis.T)
    assert np.allclose(dens, np.eye(1, n + 1)[0], rtol=0.0, atol=1e-12)


@hypothesis.given(v=st.floats(allow_nan=True, allow_infinity=True))
def test_percent_format_matches_the_f_string_cell(v):
    # the CSV writer formats a block of floats with %.12g; the row-writer
    # reference of tests/test_cli.py formats each cell with f"{v:.12g}"
    assert "%.12g" % v == f"{v:.12g}"
