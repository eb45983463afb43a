import numpy as np
import pytest

from teleswitch import analysis, channels, cli, linalg, switch


def test_pauli_weights_validate():
    w = channels.PauliWeights(0.7, 0.1, 0.1, 0.1)
    assert np.allclose(w.as_array(), [0.7, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        channels.PauliWeights(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        channels.PauliWeights(1.2, -0.2, 0.0, 0.0)


def test_kraus_operators_complete():
    ch = channels.DepolarizingChannel(channels.PauliWeights(0.4, 0.3, 0.2, 0.1))
    total = sum(k.conj().T @ k for k in ch.kraus)
    assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_isotropic_weights_domain():
    w = channels.isotropic_weights(0.2)
    assert np.allclose(w.as_array(), [0.4, 0.2, 0.2, 0.2])
    channels.isotropic_weights(1 / 3)
    with pytest.raises(ValueError):
        channels.isotropic_weights(0.34)
    with pytest.raises(ValueError):
        channels.isotropic_weights(-0.01)
    # every p-domain check shares one slack: 1/3 plus rounding and nothing further
    checks = (
        channels.isotropic_weights,
        lambda p: channels.no_switch_fidelity(p, 2),
        lambda p: analysis.SwitchParams(p, 0.5),
        lambda p: switch.closed_form_two(p, 0.5, "+", np.eye(2) / 2),
        lambda p: cli._p_grid({"p_min": 0.0, "p_max": p, "p_step": 0.1}),
    )
    for check in checks:
        check(1 / 3 + 5e-13)
        for p in (1 / 3 + 1e-11, -1e-300, np.nan):
            with pytest.raises(ValueError):
                check(p)
    # every q-domain check is [0, 1] with no slack
    q_checks = (
        switch.control_qubit,
        lambda q: analysis.SwitchParams(0.1, q),
        lambda q: switch.closed_form_two(0.1, q, "+", np.eye(2) / 2),
    )
    for check in q_checks:
        check(0.0)
        check(1.0)
        for q in (1 + 1e-15, -1e-300, np.nan):
            with pytest.raises(ValueError, match=r"q=.* outside \[0, 1\]"):
                check(q)


def test_bell_basis_orthonormal_and_singlet_first():
    basis = channels.bell_basis()
    gram = np.array([[bi.conj() @ bj for bj in basis] for bi in basis])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert abs(abs(basis[0].conj() @ singlet) - 1.0) < 1e-12


def test_weights_from_resource_roundtrip():
    w = channels.PauliWeights(0.55, 0.25, 0.15, 0.05)
    chi = sum(p * linalg.projector(b) for p, b in zip(w.as_array(), channels.bell_basis()))
    got = channels.weights_from_resource(chi).as_array()
    assert np.max(np.abs(got - w.as_array())) < 1e-12


def test_werner_state_maps_to_isotropic_weights():
    for x in (1.0, 0.8, 0.5, 0.2):
        got = channels.weights_from_resource(channels.werner_state(x)).as_array()
        want = channels.isotropic_weights((1 - x) / 4).as_array()
        assert np.max(np.abs(got - want)) < 1e-12


def test_weights_from_resource_rejects_unnormalized():
    with pytest.raises(ValueError):
        channels.weights_from_resource(np.eye(4))


def test_apply_channel_matches_direct_sum():
    rng = np.random.default_rng(8)
    v = switch.haar_random_state(2, rng)
    rho = np.outer(v, v.conj())
    ch = channels.isotropic_channel(0.15)
    got = channels.apply_channel(ch, rho)
    ps = ch.weights.as_array()
    want = sum(p * (s @ rho @ s) for p, s in zip(ps, channels.PAULI))
    assert np.max(np.abs(got - want)) < 1e-14
    assert abs(np.trace(got) - 1.0) < 1e-12


def test_apply_channel_rejects_bad_input():
    ch = channels.isotropic_channel(0.1)
    with pytest.raises(ValueError):
        channels.apply_channel(ch, np.eye(3) / 3)
    with pytest.raises(ValueError):
        channels.apply_channel(ch, np.diag([0.7, 0.7]))


def test_qubit_fidelity_pure_states_overlap():
    rng = np.random.default_rng(9)
    u = switch.haar_random_state(2, rng)
    v = switch.haar_random_state(2, rng)
    rho = np.outer(u, u.conj())
    sig = np.outer(v, v.conj())
    overlap = abs(u.conj() @ v) ** 2
    assert channels.qubit_fidelity(rho, sig) == pytest.approx(overlap, abs=1e-12)
    assert channels.qubit_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def _uhlmann_fidelity(rho, sigma):
    """Squared Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, from eigensystems."""
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    ev = np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


def test_qubit_fidelity_agrees_with_general_fidelity():
    rng = np.random.default_rng(10)
    for _ in range(5):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        n = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sig = n @ n.conj().T
        sig /= np.trace(sig).real
        assert channels.qubit_fidelity(rho, sig) == pytest.approx(
            _uhlmann_fidelity(rho, sig), abs=1e-10
        )


def test_qubit_fidelity_clamps_pure_state_determinant_noise():
    # pure-state determinants carry O(1e-17) float noise; sqrt would blow it
    # up to ~1e-9 unless clamped to exactly zero
    theta = 0.7321
    v = np.array([np.cos(theta), np.sin(theta) * np.exp(0.3j)])
    rho = np.outer(v, v.conj())
    d = rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]
    assert abs(d) < channels.DET_CLAMP
    assert channels.qubit_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-14)


def _scalar_qubit_fidelity(rho, sigma):
    # the one-pair formula in numpy's scalar complex arithmetic
    def det(m):
        d = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
        return 0.0 if abs(d) < channels.DET_CLAMP else d

    f = float(np.real(np.trace(rho @ sigma))) + 2 * np.sqrt(det(rho) * det(sigma))
    return float(min(max(f, 0.0), 1.0 + channels.FIDELITY_OVERSHOOT))


def test_qubit_fidelity_stack_rows_equal_one_pair_calls():
    # every row of a stack, its own one-pair call and the scalar formula agree
    # bit for bit
    rng = np.random.default_rng(27)

    def state(pure):
        v = switch.haar_random_state(2, rng)
        mix = 1.0 if pure else rng.uniform()
        return mix * np.outer(v, v.conj()) + (1 - mix) * np.eye(2) / 2

    rhos = np.array([state(k % 2) for k in range(400)])
    sigmas = np.array([state(k % 3) for k in range(400)])
    fids = channels.qubit_fidelity(rhos, sigmas)
    assert fids.shape == (400,)
    for f, rho, sigma in zip(fids, rhos, sigmas):
        one = channels.qubit_fidelity(rho, sigma)
        assert type(one) is float and f == one == _scalar_qubit_fidelity(rho, sigma)
    # one row that is not PSD fails the whole stack
    bad = rhos.copy()
    bad[7] = np.diag([1.2, -0.2])
    with pytest.raises(ValueError, match="PSD"):
        channels.qubit_fidelity(bad, sigmas)
    with pytest.raises(ValueError, match="2x2"):
        channels.qubit_fidelity(np.eye(3) / 3, np.eye(3) / 3)


def test_no_switch_fidelity_formula_and_arrays():
    assert channels.no_switch_fidelity(0.0, 1) == 1.0
    assert channels.no_switch_fidelity(0.1, 1) == pytest.approx(0.8)
    assert channels.no_switch_fidelity(0.1, 2) == pytest.approx(1 - 0.4 + 0.08)
    ps = np.array([0.0, 0.1, 1 / 3])
    vals = channels.no_switch_fidelity(ps, 2)
    assert vals.shape == (3,)
    assert np.allclose(vals, [1.0, 0.68, 5 / 9])
    with pytest.raises(ValueError):
        channels.no_switch_fidelity(0.5, 1)
    with pytest.raises(ValueError):
        channels.no_switch_fidelity(0.1, 0)


def test_no_switch_fidelity_matches_composition():
    rng = np.random.default_rng(11)
    v = switch.haar_random_state(2, rng)
    pure = np.outer(v, v.conj())
    for n in (1, 2, 3):
        for p in (0.0, 0.08, 0.2, 1 / 3):
            out = pure
            for _ in range(n):
                out = channels.apply_channel(channels.isotropic_channel(p), out)
            got = channels.qubit_fidelity(pure, out)
            assert got == pytest.approx(channels.no_switch_fidelity(p, n), abs=1e-12)


def test_no_switch_threshold_solves_two_thirds():
    for n in (1, 2, 3, 4):
        t = channels.no_switch_threshold(n)
        assert channels.no_switch_fidelity(t, n) == pytest.approx(2 / 3, abs=1e-12)
    assert channels.no_switch_threshold(1) == pytest.approx(1 / 6, abs=1e-15)
    assert channels.no_switch_threshold(2) == pytest.approx(0.105662432702594, abs=1e-12)
    assert channels.no_switch_threshold(3) == pytest.approx(0.076659681412341, abs=1e-12)
