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


def test_det2_value_and_shape_guard():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert linalg.det2(m) == pytest.approx(-2 + 0j)
    with pytest.raises(ValueError):
        linalg.det2(np.eye(3))


def test_hermitian_eigensystem_reconstructs_in_ascending_order():
    rng = np.random.default_rng(5)
    h = _random_complex(rng, (4, 4))
    h = h + h.conj().T
    w, v = linalg.hermitian_eigensystem(h)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10


def test_hermitian_eigensystem_rejects_nonhermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))


def test_clamp_psd_eigenvalues():
    w = linalg.clamp_psd_eigenvalues(np.array([1.0, -1e-12]))
    assert w[1] == 0.0
    with pytest.raises(ValueError):
        linalg.clamp_psd_eigenvalues(np.array([1.0, -1e-3]))


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


def test_projector_is_rank_one_idempotent():
    p = linalg.projector([1.0, 1.0])
    assert np.allclose(p, p @ p)
    assert abs(np.trace(p) - 1.0) < 1e-14
