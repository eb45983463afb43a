import itertools
import math

import numpy as np
import pytest

from teleswitch import analysis, channels, switch


def _pure(rng):
    v = switch.haar_random_state(2, rng)
    return np.outer(v, v.conj())


def test_permutations_lexicographic_with_parity():
    perms = switch.enumerate_permutations(3)
    assert perms == (
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    )
    # the three-path outcome family weights exactly the odd permutations
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    assert odd == [0, 1, 1, 0, 0, 1]
    assert [int(c != 0) for c in analysis.OutcomeFamily3._coeffs] == odd
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
        switch.ControlState([1e200, 1e200])
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


def _damping(gamma):
    return [np.array([[1, 0], [0, math.sqrt(1 - gamma)]]),
            np.array([[0, math.sqrt(gamma)], [0, 0]])]


_FLIP = [math.sqrt(0.7) * np.eye(2), math.sqrt(0.3) * channels.PAULI[1]]


def test_switch_two_orders_two_different_channels():
    # amplitude damping and a bit flip do not commute, so the two definite
    # orders give different marginals: control |0> runs the first channel first
    damping, flip = _damping(0.35), _FLIP
    rng = np.random.default_rng(23)
    rho = _pure(rng)
    first_damping = _kraus_apply(flip, _kraus_apply(damping, rho))
    first_flip = _kraus_apply(damping, _kraus_apply(flip, rho))
    assert np.max(np.abs(first_damping - first_flip)) > 1e-2
    for q, want in ((1.0, first_damping), (0.0, first_flip)):
        joint = switch.switch_two(damping, flip, rho, switch.control_qubit(q))
        assert np.max(np.abs(joint.system_marginal() - want)) < 1e-12
    # a stack of inputs: every row is its own one-input call, bit for bit
    rhos = np.array([rho, *(_pure(rng) for _ in range(6)), np.eye(2) / 2])
    for q in (0.0, 0.3, 1.0):
        control = switch.control_qubit(q)
        stacked = switch.switch_two(damping, flip, rhos, control)
        assert stacked.matrix.shape == (8, 4, 4)
        for row, r in zip(stacked.matrix, rhos):
            assert np.array_equal(row, switch.switch_two(damping, flip, r, control).matrix)


def test_switch_two_input_validation():
    ch = channels.isotropic_channel(0.1)
    good = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        switch.switch_two(ch, ch, np.eye(3) / 3, switch.control_qubit(0.5))
    with pytest.raises(ValueError):
        switch.switch_two(ch, ch, good, switch.uniform_control(3))
    # a stack is refused if one row is not a state, or if it has two stack axes
    for bad in (np.diag([0.5, 0.6]), np.diag([1.5, -0.5])):
        with pytest.raises(ValueError):
            switch.switch_two(ch, ch, np.array([good, bad, good]), switch.control_qubit(0.5))
    with pytest.raises(ValueError):
        switch.switch_two(ch, ch, np.array([[good, good]]), switch.control_qubit(0.5))


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
    stacked = switch.switch_two(ch, ch, np.array([rho, rho]), switch.control_qubit(1.0))
    with pytest.raises(switch.DegenerateOutcomeError):
        switch.post_select(stacked, [0.0, 1.0])


def test_project_outcome_dimension_check():
    rng = np.random.default_rng(17)
    rho = _pure(rng)
    ch = channels.isotropic_channel(0.1)
    joint = switch.switch_two(ch, ch, rho, switch.control_qubit(0.5))
    with pytest.raises(ValueError):
        switch.project_outcome(joint, [1, 0, 0])


def test_closed_form_two_matches_brute_force_both_signs():
    # both routes take the five inputs as one stack; each row of either is
    # bit-identical to its own one-input call
    rng = np.random.default_rng(18)
    rhos = np.array([_pure(rng) for _ in range(5)])
    for p in (0.0, 0.07, 0.21, 1 / 3):
        ch = channels.isotropic_channel(p)
        for q in (0.0, 0.35, 0.5, 0.92, 1.0):
            joint = switch.switch_two(ch, ch, rhos, switch.control_qubit(q))
            for sign, outcome in (("+", [1, 1]), ("-", [1, -1])):
                brute = switch.project_outcome(joint, outcome)
                closed = switch.closed_form_two(p, q, sign, rhos)
                assert brute.shape == closed.shape == (5, 2, 2)
                assert np.max(np.abs(brute - closed)) < 1e-10
                for r, rho in enumerate(rhos):
                    one = switch.switch_two(ch, ch, rho, switch.control_qubit(q))
                    assert np.array_equal(brute[r], switch.project_outcome(one, outcome))
                    assert np.array_equal(closed[r], switch.closed_form_two(p, q, sign, rho))


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


def test_switch_n_stack_rows_equal_one_input_calls():
    # joints, projected states and probabilities of a stack, row by row, bit for bit
    rng = np.random.default_rng(25)
    rhos = np.array([_pure(rng) for _ in range(5)])
    for n, p in ((2, 0.08), (3, 0.19), (4, 0.3)):
        d = math.factorial(n)
        control = switch.ControlState(switch.haar_random_state(d, rng))
        outcome = switch.haar_random_state(d, rng)
        ch = channels.isotropic_channel(p)
        joint = switch.switch_n(ch, n, rhos, control)
        sel = switch.post_select(joint, outcome)
        assert joint.matrix.shape == (5, 2 * d, 2 * d)
        assert sel.state.shape == (5, 2, 2) and sel.probability.shape == (5,)
        for r, rho in enumerate(rhos):
            one = switch.switch_n(ch, n, rho, control)
            one_sel = switch.post_select(one, outcome)
            assert np.array_equal(joint.matrix[r], one.matrix)
            assert np.array_equal(joint.system_marginal()[r], one.system_marginal())
            assert np.array_equal(sel.state[r], one_sel.state)
            assert sel.probability[r] == one_sel.probability


def _switch_by_permutation(channels_, rho, control):
    # the brute core written with one ordered product per permutation and one
    # 2x2 product per (branch, tuple): the reference of the shared-product core
    n = len(channels_)
    perms = switch.enumerate_permutations(n)
    d = len(perms)
    rho = np.asarray(rho, dtype=complex)
    kraus = [
        np.asarray(switch._kraus_of(ch), dtype=complex).reshape((-1,) + (1,) * (n - 1 - c) + (2, 2))
        for c, ch in enumerate(channels_)
    ]
    ops = []
    for perm in perms:
        op = np.eye(2, dtype=complex)
        for copy in perm:
            op = kraus[copy] @ op
        ops.append(op.reshape(-1, 2, 2))
    ops = np.stack(ops)
    rho = rho[..., None, None, :, :]
    joint = np.einsum("...atij,btlj->...ialb", ops @ rho, ops.conj(), optimize=True)
    joint *= control.density()[:, None, :]
    return joint.reshape(rho.shape[:-4] + (2 * d, 2 * d))


def test_shared_products_match_the_per_permutation_loop():
    # one product tensor per slot sequence gives the joints of one product per
    # permutation, bit for bit, for one input and for a stack
    rng = np.random.default_rng(26)
    rhos = np.array([_pure(rng) for _ in range(5)])
    for n in (2, 3, 4):
        d = math.factorial(n)
        for ch in (channels.isotropic_channel(rng.uniform(0, 1 / 3)), _damping(rng.uniform())):
            control = switch.ControlState(switch.haar_random_state(d, rng))
            for rho in (rhos[0], rhos):
                got = switch.switch_n(ch, n, rho, control).matrix
                assert np.array_equal(got, _switch_by_permutation((ch,) * n, rho, control))
    # two different channels: two product tensors
    for cha, chb in ((_damping(0.35), _FLIP), (_FLIP, channels.isotropic_channel(0.2))):
        control = switch.control_qubit(rng.uniform())
        for rho in (rhos[0], rhos):
            got = switch.switch_two(cha, chb, rho, control).matrix
            assert np.array_equal(got, _switch_by_permutation((cha, chb), rho, control))


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
            coeffs = switch.post_selected_polynomials(ctrl, m)
            weights = [np.polynomial.polynomial.polyval(p, c) for c in coeffs]
            poly = sum(
                w * (s @ rho @ s) for w, s in zip(weights, channels.PAULI)
            )
            assert np.max(np.abs(brute - poly)) < 1e-12


def test_polynomial_weights_equal_for_nonidentity_paulis():
    # sigma_x, sigma_y, sigma_z weights coincide, which makes the
    # post-selected fidelity independent of the input state
    rng = np.random.default_rng(22)
    for ctrl in (switch.control_qubit(0.37), switch.uniform_control(3)):
        m = switch.haar_random_state(ctrl.dim, rng)
        w = switch.post_selected_polynomials(ctrl, m)
        assert np.max(np.abs(w[1] - w[2])) < 1e-12
        assert np.max(np.abs(w[1] - w[3])) < 1e-12


# the Pauli product as a Levi-Civita table, written out by hand:
# sigma_a sigma_b = i^t sigma_k is _pauli_product(a, b) = (k, t)
_EPS = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def _pauli_product(a, b):
    if a == 0:
        return b, 0
    if b == 0:
        return a, 0
    if a == b:
        return 0, 0
    if (a, b) in _EPS:
        return _EPS[(a, b)], 1  # cyclic: +i
    return _EPS[(b, a)], 3  # anticyclic: -i


def _counts_by_tuple(n):
    """The count tensor by a loop over every Kraus tuple, branch and slot."""
    perms = switch.enumerate_permutations(n)
    d = len(perms)
    counts = np.zeros((4, d, d, n + 1), dtype=np.int64)
    for idx in itertools.product(range(4), repeat=n):
        ks, ts = np.empty(d, dtype=np.int64), np.empty(d, dtype=np.int64)
        for a, perm in enumerate(perms):
            k, t = 0, 0
            for copy in perm:  # perm[0] acts first => left-multiply
                k, dt = _pauli_product(idx[copy], k)
                t = (t + dt) % 4
            ks[a], ts[a] = k, t
        assert np.all(ks == ks[0])
        rel = (ts[:, None] - ts[None, :]) % 4
        assert np.all((rel == 0) | (rel == 2))
        counts[ks[0], :, :, idx.count(0)] += np.where(rel == 0, 1, -1)
    return counts


def test_count_tensor_matches_the_loop_over_tuples():
    table = [[(switch._PROD_K[a, b], switch._PROD_T[a, b]) for b in range(4)] for a in range(4)]
    assert table == [[_pauli_product(a, b) for b in range(4)] for a in range(4)]
    for n in (2, 3, 4):
        counts = switch.branch_pair_weight_counts(n)
        assert counts.dtype == np.int64
        assert not counts.flags.writeable
        assert np.array_equal(counts, _counts_by_tuple(n))


def test_a_wrong_pauli_product_breaks_an_invariant(monkeypatch):
    # sigma_x sigma_y = i sigma_z: a wrong label or phase for it must not pass
    for table, message in (("_PROD_K", "Pauli label"), ("_PROD_T", "relative branch phase")):
        wrong = getattr(switch, table).copy()
        wrong[1, 2] = (wrong[1, 2] + 1) % 4
        switch.branch_pair_weight_counts.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(switch, table, wrong)
                for n in (2, 3):
                    with pytest.raises(switch.InvariantError, match=message):
                        switch.branch_pair_weight_counts(n)
        finally:
            switch.branch_pair_weight_counts.cache_clear()


def test_branch_pair_weight_counts_are_integer_and_symmetric():
    for n in (2, 3, 4):
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


def test_sign_vectors_rebuild_the_count_tensor_exactly():
    for n, vectors in ((2, 2), (3, 8), (4, 36)):
        signs, counts = switch.sign_vector_counts(n)
        assert signs.shape == (vectors, math.factorial(n))
        assert counts.shape == (vectors, 4, n + 1)
        assert np.array_equal(np.abs(signs), np.ones_like(signs))
        assert counts.min() >= 0 and counts.sum() == 4**n
        # B[k, :, :, z] = sum_j M[j, k, z] s_j s_j^T, in integers
        rebuilt = np.einsum("ja,jb,jkz->kabz", signs, signs, counts)
        assert np.array_equal(rebuilt, switch.branch_pair_weight_counts(n))
        assert np.array_equal(counts[:, 1], counts[:, 2])
        assert np.array_equal(counts[:, 1], counts[:, 3])
        assert not signs.flags.writeable and not counts.flags.writeable


def test_gram_fold_is_an_integer_fold_of_the_sign_vector_counts():
    for n in (2, 3, 4):
        signs, counts = switch.sign_vector_counts(n)
        columns, fold = switch._gram_fold(n)
        assert np.array_equal(columns, signs.T)
        assert fold.shape == (len(signs), 2 * (n + 1))
        assert np.array_equal(fold, np.rint(fold))
        monomials = switch.pauli_basis_monomials(n)
        assert np.array_equal(fold[:, : n + 1], (counts[:, 0] + counts[:, 1]) @ monomials)
        assert np.array_equal(fold[:, n + 1:], (counts[:, 0] + 3 * counts[:, 1]) @ monomials)


_COUNTS, _TUPLE_SIGNS = switch.branch_pair_weight_counts, switch._tuple_signs


def _tampered_counts(n):
    """The count tensor with one cell off by one."""
    counts = _COUNTS(n).copy()
    counts[0, 0, 1, 0] += 1
    return counts


def _relabel_one_tuple(n):
    """_tuple_signs with one tuple's Pauli label moved from sigma_x to sigma_y."""
    k, sign, zeros = _TUPLE_SIGNS(n)
    k = k.copy()
    k[np.flatnonzero(k == 1)[0]] = 2
    return k, sign, zeros


@pytest.mark.parametrize("name, replacement, message", [
    ("branch_pair_weight_counts", _tampered_counts, "do not rebuild the count tensor"),
    # a consistent count tensor whose sigma_x and sigma_y weights differ
    ("_tuple_signs", _relabel_one_tuple, "nonidentity weights differ"),
], ids=["tampered-counts", "relabelled-tuple"])
def test_sign_vector_counts_refuse_a_broken_identity(monkeypatch, name, replacement, message):
    caches = (switch.branch_pair_weight_counts, switch.sign_vector_counts)
    for cached in caches:
        cached.cache_clear()
    try:
        monkeypatch.setattr(switch, name, replacement)
        with pytest.raises(switch.InvariantError, match=message):
            switch.sign_vector_counts(2)
    finally:
        monkeypatch.undo()
        for cached in caches:
            cached.cache_clear()


def test_post_selected_weights_use_a_cached_read_only_fold():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        d = math.factorial(n)
        gamma = np.array([switch.haar_random_state(d, rng) * switch.haar_random_state(d, rng).conj()
                          for _ in range(5)])
        # the outer-product form: w_k = sum_ab gamma_a conj(gamma_b) w_k^{ab}
        fresh = np.einsum("kabz,zj->abkj", switch.branch_pair_weight_counts(n),
                          switch.pauli_basis_monomials(n)).reshape(d * d, 4 * (n + 1))
        outer = (gamma[:, :, None] * gamma.conj()[:, None, :]).reshape(5, 1, -1)
        w = (outer.real @ fresh).reshape(5, 4, n + 1)
        num, den = switch.post_selected_weight_stack(gamma)
        assert np.allclose(num, w[:, 0] + w[:, 1], rtol=0.0, atol=1e-13)
        assert np.allclose(den, w.sum(axis=1), rtol=0.0, atol=1e-13)
        fold = switch._gram_fold(n)
        assert fold is switch._gram_fold(n)
        assert not any(a.flags.writeable for a in fold)
    # gamma's width fixes the path count, so it must be 2, 6 or 24 on a 2-D stack
    for gamma in (np.ones((5, 3)), np.ones((5, 5)), np.ones(6)):
        with pytest.raises(ValueError):
            switch.post_selected_weight_stack(gamma)


def test_haar_random_state_is_seeded_and_normalized():
    a = switch.haar_random_state(2, 123)
    b = switch.haar_random_state(2, 123)
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    c = switch.haar_random_state(6, np.random.default_rng(5))
    assert c.shape == (6,)
