"""Generalized depolarizing channels and teleportation fidelity functionals.

The standard teleportation protocol through an imperfect resource state chi
acts on the teleported qubit as Lambda[rho] = sum_i p_i sigma_i rho sigma_i,
where the weights p_i are the overlaps of chi with the Bell basis. The
isotropic model fixes p1 = p2 = p3 = p and p0 = 1 - 3p with p in [0, 1/3].
"""
from dataclasses import dataclass

import numpy as np

from .linalg import (DET_CLAMP, FIDELITY_OVERSHOOT, RANGE_SLACK, WEIGHT_SUM_TOL,
                     assert_density_matrix, normalize_state, projector, tensor_product)

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

# largest noise weight p accepted as inside [0, 1/3]
P_MAX = 1 / 3 + RANGE_SLACK


def _check_p(p):
    """p, a noise weight or an array of them, if each lies in [0, 1/3]: the one check of p."""
    if not np.all((np.asarray(p) >= 0.0) & (np.asarray(p) <= P_MAX)):
        raise ValueError(f"p={p} outside [0, 1/3]")
    return p


def _check_q(q):
    """Refuse q unless it is a control weight in [0, 1]: the one check of q."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")


@dataclass(frozen=True)
class PauliWeights:
    """Probability weights (p0, p1, p2, p3) of a generalized depolarizing channel."""

    p0: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        ps = self.as_array()
        if np.any(ps < -RANGE_SLACK) or np.any(ps > 1 + RANGE_SLACK):
            raise ValueError(f"weights outside [0,1]: {ps}")
        if abs(ps.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {ps.sum()}, not 1")

    def as_array(self):
        return np.array([self.p0, self.p1, self.p2, self.p3], dtype=float)


@dataclass(frozen=True)
class DepolarizingChannel:
    """A generalized depolarizing channel with Kraus operators K_i = sqrt(p_i) sigma_i."""

    weights: PauliWeights

    @property
    def kraus(self):
        ps = self.weights.as_array()
        return tuple(np.sqrt(ps[i]) * PAULI[i] for i in range(4))


def isotropic_weights(p):
    """Weights (1-3p, p, p, p) for p in [0, 1/3]."""
    p = min(_check_p(p), 1 / 3)
    return PauliWeights(1 - 3 * p, p, p, p)


def isotropic_channel(p):
    return DepolarizingChannel(isotropic_weights(p))


def bell_basis():
    """The four Bell states (B0, B1, B2, B3) with B0 the singlet.

    B0 = (|01> - |10>)/sqrt(2) and B_i = (I o sigma_i) B0 for i = 1, 2, 3,
    so that weight i of a resource state conjugates the input by sigma_i.
    """
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    basis = [singlet]
    for i in (1, 2, 3):
        basis.append(tensor_product(SIGMA_0, PAULI[i]) @ singlet)
    return tuple(normalize_state(b) for b in basis)


def weights_from_resource(chi):
    """Bell-basis overlaps p_i = <B_i| chi |B_i> of a two-qubit resource state."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError(f"resource state must be 4x4, got {chi.shape}")
    return PauliWeights(*(float(np.real(b.conj() @ chi @ b)) for b in bell_basis()))


def werner_state(x):
    """x |psi-><psi-| + (1-x) I/4."""
    singlet = bell_basis()[0]
    return x * projector(singlet) + (1 - x) * np.eye(4, dtype=complex) / 4


def apply_channel(channel, rho):
    """Lambda[rho] = sum_i p_i sigma_i rho sigma_i on a qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {rho.shape}")
    assert_density_matrix(rho)
    ps = channel.weights.as_array()
    out = np.zeros((2, 2), dtype=complex)
    for p, s in zip(ps, PAULI):
        out += p * (s @ rho @ s)
    return out


def _clamped_det(rho):
    """det of each (..., 2, 2) state, with |det| below DET_CLAMP read as 0.

    The real part of each complex product is taken as two rounded real
    products, as numpy's scalar complex arithmetic rounds it; its vectorized
    complex multiply may fuse them and move a row's last bit.
    """
    def real_product(x, y):
        return x.real * y.real - x.imag * y.imag

    d = real_product(rho[..., 0, 0], rho[..., 1, 1]) - real_product(rho[..., 0, 1], rho[..., 1, 0])
    if np.any(d <= -DET_CLAMP):
        raise ValueError(f"determinant {d.min():.3e} is negative beyond rounding")
    return np.where(abs(d) < DET_CLAMP, 0.0, d)


def qubit_fidelity(rho, sigma):
    """F = Tr(rho sigma) + 2 sqrt(det rho * det sigma) for qubit states.

    rho and sigma are (2, 2) states or (R, 2, 2) stacks, one F per row; a pair
    of (2, 2) states gives a float.
    """
    rho = assert_density_matrix(np.asarray(rho, dtype=complex))
    sigma = assert_density_matrix(np.asarray(sigma, dtype=complex))
    if rho.shape[-2:] != (2, 2) or sigma.shape[-2:] != (2, 2) or max(rho.ndim, sigma.ndim) > 3:
        raise ValueError("qubit_fidelity needs 2x2 density matrices")
    f = np.trace(rho @ sigma, axis1=-2, axis2=-1).real + 2 * np.sqrt(
        _clamped_det(rho) * _clamped_det(sigma)
    )
    f = np.clip(f, 0.0, 1.0 + FIDELITY_OVERSHOOT)
    return float(f) if f.ndim == 0 else f


def no_switch_fidelity(p, n):
    """Teleportation fidelity of n sequential isotropic channels, 1/2 + (1-4p)^n / 2.

    Accepts a scalar or an array of noise weights.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = _check_p(np.asarray(p, dtype=float))
    out = 0.5 + 0.5 * (1 - 4 * p) ** n
    return float(out) if out.ndim == 0 else out


def no_switch_threshold(n):
    """The noise level above which n sequential channels drop to F <= 2/3.

    Solves 1/2 + (1-4p)^n / 2 = 2/3, i.e. p = (1 - 3^(-1/n))/4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1 - 3.0 ** (-1.0 / n)) / 4
