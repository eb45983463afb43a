import numpy as np
import pytest

from teleswitch import linalg


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_normalize_state_unit_norm():
    v = linalg.normalize_state([3.0, 4.0j])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        linalg.normalize_state([0.0, 0.0])


@pytest.mark.parametrize("amplitudes", [[1e200, 0.0], [1e200, 1e200j], [np.inf, 0.0], [np.nan, 1.0]])
def test_normalize_state_refuses_a_non_finite_norm(amplitudes):
    # the squares of 1e200 overflow, so its norm is inf, not a reason to return zeros
    with pytest.raises(ValueError, match="not finite"):
        linalg.normalize_state(amplitudes)


@pytest.mark.parametrize("d", [2, 6, 24])
def test_normalize_state_rows_of_a_stack_equal_one_vector_calls(d):
    rng = np.random.default_rng(d)
    stack = _random_complex(rng, (300, d)) * 10.0 ** rng.uniform(-6, 6, (300, 1))
    rows = linalg.normalize_state(stack)
    assert rows.shape == stack.shape
    for row, v in zip(rows, stack):
        # bit for bit, and with the norm np.linalg.norm gives one vector
        assert np.array_equal(row, linalg.normalize_state(v))
        assert np.array_equal(row, v / np.linalg.norm(v))
    assert np.array_equal(linalg.normalize_state(stack.reshape(3, 100, d)), rows.reshape(3, 100, d))


@pytest.mark.parametrize("bad, match", [(0.0, "zero"), (np.inf, "not finite"), (1e200, "not finite")])
def test_normalize_state_refuses_a_zero_or_non_finite_row_of_a_stack(bad, match):
    stack = np.ones((4, 3), dtype=complex)
    stack[2] = [bad, 0.0, 0.0]
    with pytest.raises(ValueError, match=match):
        linalg.normalize_state(stack)


def test_tensor_product_matches_kron_and_folds():
    rng = np.random.default_rng(3)
    a, b, c = (_random_complex(rng, (2, 2)) for _ in range(3))
    assert np.allclose(linalg.tensor_product(a, b), np.kron(a, b))
    lhs = linalg.tensor_product(a, b, c)
    rhs = np.kron(np.kron(a, b), c)
    assert lhs.shape == (8, 8)
    assert np.allclose(lhs, rhs)


def test_mixed_product_identity():
    rng = np.random.default_rng(4)
    a, b, c, d = (_random_complex(rng, (2, 2)) for _ in range(4))
    lhs = linalg.tensor_product(a, b) @ linalg.tensor_product(c, d)
    rhs = linalg.tensor_product(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_partial_trace_recovers_each_factor():
    rng = np.random.default_rng(6)
    va = linalg.normalize_state(_random_complex(rng, 2))
    vb = linalg.normalize_state(_random_complex(rng, 3))
    rho_a = np.outer(va, va.conj())
    rho_b = np.outer(vb, vb.conj())
    joint = linalg.tensor_product(rho_a, rho_b)
    assert np.max(np.abs(linalg.partial_trace(joint, 2, 3, "A") - rho_a)) < 1e-12
    assert np.max(np.abs(linalg.partial_trace(joint, 2, 3, "B") - rho_b)) < 1e-12
    with pytest.raises(ValueError):
        linalg.partial_trace(joint, 2, 3, "C")
    with pytest.raises(ValueError):
        linalg.partial_trace(joint, 2, 2, "A")


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    m = _random_complex(rng, (6, 6))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho)
    for keep in ("A", "B"):
        marg = linalg.partial_trace(rho, 2, 3, keep)
        assert abs(np.trace(marg) - 1.0) < 1e-12


def test_assert_density_matrix_accepts_and_rejects():
    good = np.diag([0.25, 0.75]).astype(complex)
    assert linalg.assert_density_matrix(good) is not None
    with pytest.raises(ValueError):
        linalg.assert_density_matrix(np.diag([0.5, 0.6]))
    with pytest.raises(ValueError):
        linalg.assert_density_matrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError):
        linalg.assert_density_matrix(np.diag([1.5, -0.5]))
    # a stack passes only if every matrix in it does
    stack = np.array([good, np.eye(2) / 2, good])
    assert linalg.assert_density_matrix(stack).shape == (3, 2, 2)
    assert linalg.assert_density_matrix(stack[None]).shape == (1, 3, 2, 2)
    for bad, message in ((np.diag([0.5, 0.6]), "trace 1.1 is not 1"),
                         (np.diag([1.5, -0.5]), "not PSD"),
                         (np.array([[0.5, 0.5], [-0.5, 0.5]]), "not Hermitian")):
        with pytest.raises(ValueError, match=message):
            linalg.assert_density_matrix(np.array([good, bad, good]))
    with pytest.raises(ValueError, match="square"):
        linalg.assert_density_matrix(np.ones((3, 2, 3)) / 2)


def test_clamp_psd_eigenvalues():
    # a negative eigenvalue at rounding size passes; a real one does not,
    # in one matrix or in any row of a stack
    assert linalg.assert_density_matrix(np.diag([1.0 + 1e-12, -1e-12])) is not None
    with pytest.raises(ValueError, match="not PSD"):
        linalg.assert_density_matrix(np.diag([1.0 + 1e-3, -1e-3]))
    rows = np.array([np.diag([1.0 + 1e-12, -1e-12]), np.diag([1.0 + 1e-3, -1e-3])])
    assert linalg.assert_density_matrix(rows[:1]) is not None
    with pytest.raises(ValueError, match="min eigenvalue -1.000e-03"):
        linalg.assert_density_matrix(rows)


def test_projector_is_rank_one_idempotent():
    p = linalg.projector([1.0, 1.0])
    assert np.allclose(p, p @ p)
    assert abs(np.trace(p) - 1.0) < 1e-14
