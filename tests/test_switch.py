import math

import numpy as np
import pytest

from teleswitch import channels, switch


def _pure(rng):
    v = switch.haar_random_state(2, rng)
    return np.outer(v, v.conj())


def test_permutations_lexicographic_with_parity():
    perms = switch.enumerate_permutations(3)
    assert [p.mapping for p in perms] == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]
    assert [p.parity for p in perms] == [1, -1, -1, 1, 1, -1]
    with pytest.raises(ValueError):
        switch.enumerate_permutations(5)


def test_control_state_validation_and_parameters():
    c = switch.control_qubit(0.25)
    assert c.dim == 2
    assert c.q == pytest.approx(0.25)
    assert c.mu == pytest.approx(math.sqrt(0.25 * 0.75))
    assert np.allclose(c.density(), np.outer(c.amplitudes, c.amplitudes.conj()))
    with pytest.raises(ValueError):
        switch.ControlState([1, 0, 0])
    with pytest.raises(ValueError):
        switch.control_qubit(1.5)
    u = switch.uniform_control(3)
    assert u.dim == 6
    with pytest.raises(ValueError):
        u.q


def test_switch_two_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(12)
    rho = _pure(rng)
    ch = channels.isotropic_channel(0.12)
    joint = switch.switch_two(ch, ch, rho, switch.control_qubit(0.3))
    assert abs(np.trace(joint.matrix) - 1.0) < 1e-12
    assert np.max(np.abs(joint.matrix - joint.matrix.conj().T)) < 1e-12
    evals = np.linalg.eigvalsh(joint.matrix)
    assert evals.min() > -1e-12


def test_switch_two_definite_order_limits():
    # control |0> applies the first channel first; at q=1 the switch reduces
    # to plain composition
    rng = np.random.default_rng(13)
    rho = _pure(rng)
    ch = channels.isotropic_channel(0.2)
    joint = switch.switch_two(ch, ch, rho, switch.control_qubit(1.0))
    composed = channels.apply_channel(ch, channels.apply_channel(ch, rho))
    assert np.max(np.abs(joint.system_marginal() - composed)) < 1e-12
    sel = switch.post_select(joint, [1.0, 0.0])
    assert sel.probability == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(sel.state - composed)) < 1e-12


def _kraus_apply(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def test_switch_two_orders_two_different_channels():
    # amplitude damping and a bit flip do not commute, so the two definite
    # orders give different marginals: control |0> runs the first channel first
    gamma = 0.35
    damping = [np.array([[1, 0], [0, math.sqrt(1 - gamma)]]),
               np.array([[0, math.sqrt(gamma)], [0, 0]])]
    flip = [math.sqrt(0.7) * np.eye(2), math.sqrt(0.3) * channels.PAULI[1]]
    rho = _pure(np.random.default_rng(23))
    first_damping = _kraus_apply(flip, _kraus_apply(damping, rho))
    first_flip = _kraus_apply(damping, _kraus_apply(flip, rho))
    assert np.max(np.abs(first_damping - first_flip)) > 1e-2
    for q, want in ((1.0, first_damping), (0.0, first_flip)):
        joint = switch.switch_two(damping, flip, rho, switch.control_qubit(q))
        assert np.max(np.abs(joint.system_marginal() - want)) < 1e-12


def test_switch_two_input_validation():
    ch = channels.isotropic_channel(0.1)
    good = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        switch.switch_two(ch, ch, np.eye(3) / 3, switch.control_qubit(0.5))
    with pytest.raises(ValueError):
        switch.switch_two(ch, ch, good, switch.uniform_control(3))


def test_post_select_probabilities_sum_to_one():
    rng = np.random.default_rng(14)
    rho = _pure(rng)
    ch = channels.isotropic_channel(0.18)
    joint = switch.switch_two(ch, ch, rho, switch.control_qubit(0.44))
    plus = switch.post_select(joint, [1, 1])
    minus = switch.post_select(joint, [1, -1])
    assert plus.probability + minus.probability == pytest.approx(1.0, abs=1e-12)
    mix = plus.probability * plus.state + minus.probability * minus.state
    assert np.max(np.abs(mix - joint.system_marginal())) < 1e-10


def test_post_select_probability_matches_closed_form_trace():
    # trace of the +- output is (1 +- 2 mu (1 - 12 p^2)) / 2
    rng = np.random.default_rng(15)
    rho = _pure(rng)
    for p, q in ((0.05, 0.3), (0.2, 0.5), (1 / 3, 0.8)):
        mu = math.sqrt(q * (1 - q))
        ch = channels.isotropic_channel(p)
        joint = switch.switch_two(ch, ch, rho, switch.control_qubit(q))
        want_plus = 0.5 * (1 + 2 * mu * (1 - 12 * p * p))
        sel = switch.post_select(joint, [1, 1])
        assert sel.probability == pytest.approx(want_plus, abs=1e-12)


def test_post_select_rejects_degenerate_outcome():
    rng = np.random.default_rng(16)
    rho = _pure(rng)
    ch = channels.isotropic_channel(0.0)
    joint = switch.switch_two(ch, ch, rho, switch.control_qubit(1.0))
    with pytest.raises(switch.DegenerateOutcomeError):
        switch.post_select(joint, [0.0, 1.0])


def test_project_outcome_dimension_check():
    rng = np.random.default_rng(17)
    rho = _pure(rng)
    ch = channels.isotropic_channel(0.1)
    joint = switch.switch_two(ch, ch, rho, switch.control_qubit(0.5))
    with pytest.raises(ValueError):
        switch.project_outcome(joint, [1, 0, 0])


def test_closed_form_two_matches_brute_force_both_signs():
    rng = np.random.default_rng(18)
    for _ in range(5):
        rho = _pure(rng)
        for p in (0.0, 0.07, 0.21, 1 / 3):
            ch = channels.isotropic_channel(p)
            for q in (0.0, 0.35, 0.5, 0.92, 1.0):
                joint = switch.switch_two(ch, ch, rho, switch.control_qubit(q))
                for sign, outcome in (("+", [1, 1]), ("-", [1, -1])):
                    brute = switch.project_outcome(joint, outcome)
                    closed = switch.closed_form_two(p, q, sign, rho)
                    assert np.max(np.abs(brute - closed)) < 1e-10


def test_closed_form_two_matches_term_by_term_loop():
    # the paper's sum written as a plain double loop over Pauli pairs
    def loop(p, q, sign, rho):
        s = 1.0 if sign == "+" else -1.0
        mu = math.sqrt(q * (1 - q))
        w = np.array([1 - 3 * p, p, p, p])
        out = np.zeros((2, 2), dtype=complex)
        for i in range(4):
            for j in range(4):
                sij = channels.PAULI[i] @ channels.PAULI[j]
                sji = channels.PAULI[j] @ channels.PAULI[i]
                out += (w[i] * w[j] / 2) * (
                    q * (sij @ rho @ sji) + s * mu * (sij @ rho @ sij)
                    + s * mu * (sji @ rho @ sji) + (1 - q) * (sji @ rho @ sij)
                )
        return out

    rng = np.random.default_rng(21)
    for _ in range(50):
        p, q = rng.uniform(0, 1 / 3), rng.uniform(0, 1)
        sign, rho = ("+", "-")[rng.integers(2)], _pure(rng)
        got = switch.closed_form_two(p, q, sign, rho)
        assert np.max(np.abs(got - loop(p, q, sign, rho))) <= 1e-15


def test_closed_form_two_validates_arguments():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        switch.closed_form_two(0.1, 0.5, "x", rho)
    with pytest.raises(ValueError):
        switch.closed_form_two(0.4, 0.5, "+", rho)
    with pytest.raises(ValueError):
        switch.closed_form_two(0.1, 1.5, "+", rho)


def test_switch_n_matches_switch_two_for_two_paths():
    # switch_two and switch_n share one core, so switch_n(ch, 2) is checked
    # against the paper's term-by-term closed form instead
    rng = np.random.default_rng(19)
    rho = _pure(rng)
    jn = switch.switch_n(channels.isotropic_channel(0.17), 2, rho, switch.control_qubit(0.42))
    assert jn.control_dim == 2
    for sign, outcome in (("+", [1, 1]), ("-", [1, -1])):
        closed = switch.closed_form_two(0.17, 0.42, sign, rho)
        assert np.max(np.abs(switch.project_outcome(jn, outcome) - closed)) < 1e-12


def test_switch_n_three_paths_trace_and_dimension_guards():
    rng = np.random.default_rng(20)
    rho = _pure(rng)
    ch = channels.isotropic_channel(0.1)
    joint = switch.switch_n(ch, 3, rho, switch.uniform_control(3))
    assert joint.matrix.shape == (12, 12)
    assert abs(np.trace(joint.matrix) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        switch.switch_n(ch, 3, rho, switch.control_qubit(0.5))
    with pytest.raises(ValueError):
        switch.switch_n(ch, 5, rho, switch.uniform_control(3))
    with pytest.raises(ValueError):
        switch.switch_n(ch, 3, np.eye(3) / 3, switch.uniform_control(3))


def test_brute_route_does_not_use_the_polynomial_route(monkeypatch):
    # the brute switch is the independent oracle of the count-tensor route
    def forbidden(*args):
        raise AssertionError("brute route called the polynomial route")

    monkeypatch.setattr(switch, "branch_pair_weight_counts", forbidden)
    monkeypatch.setattr(switch, "post_selected_weight_stack", forbidden)
    rho = _pure(np.random.default_rng(24))
    joint = switch.switch_n(channels.isotropic_channel(0.15), 3, rho, switch.uniform_control(3))
    assert abs(np.trace(joint.matrix) - 1.0) < 1e-12


def test_polynomials_match_brute_force_three_paths():
    rng = np.random.default_rng(21)
    rho = _pure(rng)
    ctrl = switch.uniform_control(3)
    outcomes = (
        np.ones(6) / np.sqrt(6),
        switch.normalize_state([1, -1, -1, 1, 1, -1]),
        switch.haar_random_state(6, rng),
    )
    for p in (0.04, 0.19, 1 / 3):
        ch = channels.isotropic_channel(p)
        joint = switch.switch_n(ch, 3, rho, ctrl)
        for m in outcomes:
            brute = switch.project_outcome(joint, m)
            coeffs = switch.post_selected_polynomials(ctrl, m, 3)
            weights = [np.polynomial.polynomial.polyval(p, c) for c in coeffs]
            poly = sum(
                w * (s @ rho @ s) for w, s in zip(weights, channels.PAULI)
            )
            assert np.max(np.abs(brute - poly)) < 1e-12


def test_polynomial_weights_equal_for_nonidentity_paulis():
    # sigma_x, sigma_y, sigma_z weights coincide, which makes the
    # post-selected fidelity independent of the input state
    rng = np.random.default_rng(22)
    for n, ctrl in ((2, switch.control_qubit(0.37)), (3, switch.uniform_control(3))):
        m = switch.haar_random_state(ctrl.dim, rng)
        w = switch.post_selected_polynomials(ctrl, m, n)
        assert np.max(np.abs(w[1] - w[2])) < 1e-12
        assert np.max(np.abs(w[1] - w[3])) < 1e-12


def test_branch_pair_weight_counts_are_integer_and_symmetric():
    for n in (2, 3):
        counts = switch.branch_pair_weight_counts(n)
        d = math.factorial(n)
        assert counts.shape == (4, d, d, n + 1)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, counts.transpose(0, 2, 1, 3))
        # total tuples: summing all signed counts on the diagonal pairs
        # recovers 4^n branch assignments
        diag = sum(counts[k, a, a, z] for k in range(4) for a in range(d)
                   for z in range(n + 1))
        assert diag == d * 4 ** n


def test_haar_random_state_is_seeded_and_normalized():
    a = switch.haar_random_state(2, 123)
    b = switch.haar_random_state(2, 123)
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    c = switch.haar_random_state(6, np.random.default_rng(5))
    assert c.shape == (6,)
