"""Dense complex linear algebra for small system-control spaces.

All quantum objects in this package are plain numpy arrays: operators and
density matrices are square complex matrices, pure states are 1-d complex
vectors. Dimensions stay tiny (at most 2 * 4! = 48), so everything is dense
and eager.
"""
import numpy as np

HERMITICITY_TOL = 1e-10
PSD_CLAMP = 1e-10
STATE_NORM_TOL = 1e-12


def normalize_state(amplitudes):
    """Return a unit-norm complex state vector."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if n < STATE_NORM_TOL:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / n


def tensor_product(a, b, *rest):
    """Kronecker product; (a o b)[(i*rb+k),(j*cb+l)] = a[i,j]*b[k,l].

    Extra factors are folded in left to right.
    """
    out = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    for m in rest:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def det2(a):
    """Determinant of a 2x2 matrix, a00*a11 - a01*a10."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"det2 needs a 2x2 matrix, got {a.shape}")
    return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def is_hermitian(a, tol=HERMITICITY_TOL):
    a = np.asarray(a)
    return np.max(np.abs(a - a.conj().T)) < tol


def hermitian_eigensystem(a):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Returns (w, v) with columns v[:, k] satisfying a @ v[:, k] = w[k] * v[:, k].
    """
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    return w, v


def clamp_psd_eigenvalues(w):
    """Zero out tiny negative eigenvalues from rounding; reject real negatives."""
    w = np.asarray(w, dtype=float).copy()
    if np.any(w < -PSD_CLAMP):
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    w[w < 0] = 0.0
    return w


def partial_trace(joint, dim_a, dim_b, keep):
    """Trace out one tensor factor of a (dim_a*dim_b)-dimensional operator.

    keep="A" returns the dim_a marginal, keep="B" the dim_b marginal.
    """
    j = np.asarray(joint, dtype=complex)
    d = dim_a * dim_b
    if j.shape != (d, d):
        raise ValueError(f"joint has shape {j.shape}, expected {(d, d)}")
    t = j.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def assert_density_matrix(rho, tol=HERMITICITY_TOL):
    """Validate Hermiticity, unit trace and positivity (with clamping)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    if not is_hermitian(rho, tol):
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix trace {tr} is not 1")
    clamp_psd_eigenvalues(np.linalg.eigvalsh(rho))
    return rho


def projector(state):
    """|psi><psi| for a normalized state vector."""
    v = normalize_state(state)
    return np.outer(v, v.conj())
