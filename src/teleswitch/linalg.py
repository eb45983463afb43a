"""Dense complex linear algebra for small system-control spaces.

All quantum objects in this package are plain numpy arrays: operators and
density matrices are square complex matrices, pure states are 1-d complex
vectors. Dimensions stay tiny (at most 2 * 4! = 48), so everything is dense
and eager.
"""
import math

import numpy as np

# Numerical floors, the package's only small constants, each named by what it bounds
DENSITY_TOL = 1e-10         # a density matrix's Hermiticity, trace and negative eigenvalues
FIDELITY_OVERSHOOT = 1e-10  # how far above 1 qubit_fidelity reports F before clipping it
STATE_NORM_TOL = 1e-12      # a state vector with a smaller norm is zero
WEIGHT_SUM_TOL = 1e-9       # a channel's Pauli weights sum to 1
RANGE_SLACK = 1e-12         # a p, mu, Pauli weight or p-grid end this far past its range's end
DET_CLAMP = 1e-14           # |det| of a qubit state at an exact zero (a pure state)
DEGREE_DROP = 1e-12         # a leading coefficient, relative to the largest: the degree dropped
LHOPITAL_ZERO = 1e-9        # a derivative of den, relative to den's largest coefficient, is 0
MERIT_TIE = 1e-15           # a merit within this of the best ties with it
# an outcome that never fires, judged on three different quantities
DEGENERATE_PROB = 1e-12     # its probability at one point
SILENT_PROB = 1e-13         # the largest coefficient of its probability polynomial
ZERO_DEN = 1e-11            # |den(p)| relative to den's largest coefficient: a 0/0 point


# a norm that overflows comes out inf and is refused below, without a warning
@np.errstate(over="ignore", invalid="ignore")
def normalize_state(amplitudes):
    """Unit-norm complex states: each row of a (..., d) stack, normed along its last axis
    with np.linalg.norm's dot products, so a row equals its own one-vector call bit for bit."""
    v = np.asarray(amplitudes, dtype=complex)
    re, im = v.real, v.imag
    norms = np.sqrt(re[..., None, :] @ re[..., None] + im[..., None, :] @ im[..., None])[..., 0]
    if not ((norms >= STATE_NORM_TOL) & (norms < math.inf)).all():
        if np.isfinite(norms).all():
            raise ValueError("cannot normalize a (near-)zero vector")
        raise ValueError("cannot normalize a vector whose norm is not finite")
    return v / norms


def tensor_product(a, b, *rest):
    """Kronecker product; (a o b)[(i*rb+k),(j*cb+l)] = a[i,j]*b[k,l].

    Extra factors are folded in left to right.
    """
    out = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    for m in rest:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def partial_trace(joint, dim_a, dim_b, keep):
    """Trace out one tensor factor of a (dim_a*dim_b)-dimensional operator, or of each in a stack.

    keep="A" returns the dim_a marginal, keep="B" the dim_b marginal.
    """
    j = np.asarray(joint, dtype=complex)
    d = dim_a * dim_b
    if j.shape[-2:] != (d, d):
        raise ValueError(f"joint has shape {j.shape}, expected {(d, d)}")
    t = j.reshape(j.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if keep == "A":
        return np.einsum("...ikjk->...ij", t)
    if keep == "B":
        return np.einsum("...kikj->...ij", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def assert_density_matrix(rho):
    """Validate Hermiticity, unit trace and positivity up to rounding of each (..., d, d) matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    if not np.abs(rho - rho.conj().swapaxes(-1, -2)).max() < DENSITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if abs(tr - 1.0).max() > DENSITY_TOL:
        raise ValueError(f"density matrix trace {tr.flat[np.argmax(abs(tr - 1.0))]} is not 1")
    w = np.linalg.eigvalsh(rho)
    if np.any(w < -DENSITY_TOL):
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    return rho


def projector(state):
    """|psi><psi| for a normalized state vector."""
    v = normalize_state(state)
    return np.outer(v, v.conj())
