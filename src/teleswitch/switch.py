"""Channels composed in superposition of causal order, with control post-selection.

A quantum switch over n channel copies carries an n!-dimensional control whose
basis state |k> routes the copies through the k-th permutation (lexicographic
one-line order, identity first). The joint output for Kraus indices i_1..i_n is

    W (rho o rho_c) W^dag,   W = sum_k (ordered Kraus product under perm k) o |k><k|

summed over all index tuples. Measuring the control and keeping one outcome
leaves an unnormalized system state whose trace is the outcome probability.

switch_two and switch_n compute this joint directly from the Kraus operators
of any channels: the ordered products for every index tuple are built as one
batched stack per permutation, and the sum over tuples is a single einsum.
This brute route uses no Pauli algebra, so it is an independent oracle.

For isotropic Pauli channels the same multiset of Pauli factors appears in
every branch, in different orders, so branch products differ only by signs.
That reduces every post-selected state to sum_k W_k(p) sigma_k rho sigma_k
with W_k a degree-n polynomial in p; the polynomial route is exact and fast
and is cross-checked against the brute route in the tests.
"""
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _lex_permutations
from itertools import product

import numpy as np

from .channels import PAULI
from .linalg import assert_density_matrix, normalize_state, partial_trace

DEGENERATE_PROB = 1e-12

SUPPORTED_PATHS = (2, 3, 4)


class DegenerateOutcomeError(ValueError):
    """Post-selection on an outcome whose probability is below threshold."""


class InvariantError(ArithmeticError):
    """An internal identity of the polynomial route does not hold."""


@dataclass(frozen=True)
class Permutation:
    mapping: tuple
    parity: int  # +1 even, -1 odd


def enumerate_permutations(n):
    """All permutations of 0..n-1 in lexicographic one-line order."""
    if n not in SUPPORTED_PATHS:
        raise ValueError(f"n must be one of {SUPPORTED_PATHS}, got {n}")
    out = []
    for mapping in _lex_permutations(range(n)):
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if mapping[i] > mapping[j]
        )
        out.append(Permutation(mapping, +1 if inversions % 2 == 0 else -1))
    return tuple(out)


class ControlState:
    """Normalized pure control state over d = n! pathway basis states."""

    def __init__(self, amplitudes):
        v = normalize_state(amplitudes)
        if len(v) not in (2, 6, 24):
            raise ValueError(f"control dimension {len(v)} is not 2, 6 or 24")
        self.amplitudes = v
        self.amplitudes.setflags(write=False)

    @property
    def dim(self):
        return len(self.amplitudes)

    @property
    def q(self):
        if self.dim != 2:
            raise ValueError("q is only defined for a two-path control")
        return float(abs(self.amplitudes[0]) ** 2)

    @property
    def mu(self):
        q = self.q
        return math.sqrt(max(q * (1 - q), 0.0))

    def density(self):
        return np.outer(self.amplitudes, self.amplitudes.conj())


def control_qubit(q):
    """sqrt(q)|0> + sqrt(1-q)|1>."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    return ControlState(np.array([math.sqrt(q), math.sqrt(1 - q)], dtype=complex))


def uniform_control(n):
    d = math.factorial(n)
    return ControlState(np.full(d, 1 / math.sqrt(d), dtype=complex))


@dataclass(frozen=True)
class JointState:
    """System-control joint density matrix, system factor first."""

    matrix: np.ndarray
    control_dim: int

    def system_marginal(self):
        return partial_trace(self.matrix, 2, self.control_dim, "A")


@dataclass(frozen=True)
class PostSelectionResult:
    state: np.ndarray
    probability: float


def _kraus_of(channel):
    return tuple(getattr(channel, "kraus", channel))


def _switch(channels, rho, control):
    """Joint state of the channels in superposition of causal order.

    Control branch k applies the copies in the order of permutation k,
    mapping[0] first. The ordered Kraus products of every index tuple t form
    one (n!, T, 2, 2) stack O, and the joint is one contraction over tuples:
    J[(i,a),(l,b)] = c_a conj(c_b) sum_t (O[a,t] rho O[b,t]^dag)[i,l].
    """
    n = len(channels)
    perms = enumerate_permutations(n)
    d = len(perms)
    if control.dim != d:
        raise ValueError(f"control dimension {control.dim} != {n}! = {d}")
    rho = assert_density_matrix(np.asarray(rho, dtype=complex))
    if rho.shape != (2, 2):
        raise ValueError("system state must be a qubit")
    # copy c's Kraus index sits on batch axis c, so each product broadcasts
    # over every index tuple at once
    kraus = [
        np.asarray(_kraus_of(ch), dtype=complex).reshape((-1,) + (1,) * (n - 1 - c) + (2, 2))
        for c, ch in enumerate(channels)
    ]
    ops = []
    for perm in perms:
        op = np.eye(2, dtype=complex)
        for copy in perm.mapping:
            op = kraus[copy] @ op
        ops.append(op.reshape(-1, 2, 2))
    ops = np.stack(ops)
    joint = np.einsum("atij,btlj->ialb", ops @ rho, ops.conj(), optimize=True)
    joint *= control.density()[:, None, :]
    return JointState(joint.reshape(2 * d, 2 * d), d)


def switch_two(cha, chb, rho, control):
    """Two channels in superposition of causal order; control |0> runs cha first."""
    return _switch((cha, chb), rho, control)


def switch_n(channel, n, rho, control):
    """n identical channels over all n! pathway orderings."""
    return _switch((channel,) * n, rho, control)


def project_outcome(joint, outcome):
    """Unnormalized system state <m| J |m>, inner product on the control factor."""
    m = normalize_state(outcome)
    if len(m) != joint.control_dim:
        raise ValueError(
            f"outcome dimension {len(m)} != control dimension {joint.control_dim}"
        )
    j = joint.matrix.reshape(2, joint.control_dim, 2, joint.control_dim)
    return np.einsum("a,iajb,b->ij", m.conj(), j, m)


def post_select(joint, outcome):
    """Condition the joint state on a control measurement outcome."""
    sub = project_outcome(joint, outcome)
    probability = float(np.real(np.trace(sub)))
    if probability < DEGENERATE_PROB:
        raise DegenerateOutcomeError(
            f"outcome probability {probability:.3e} below {DEGENERATE_PROB}"
        )
    return PostSelectionResult(sub / probability, probability)


# _PAULI_PAIRS[i, j] = sigma_i sigma_j
_PAULI_PAIRS = np.array([[a @ b for b in PAULI] for a in PAULI])


def closed_form_two(p, q, sign, rho):
    """Unnormalized post-measurement state of the two-path switch, term by term:

    sum_ij (p_i p_j / 2) [ q S_ij rho S_ji +- mu S_ij rho S_ij
                           +- mu S_ji rho S_ji + (1-q) S_ji rho S_ij ]

    with S_ij = sigma_i sigma_j and mu = sqrt(q(1-q)); sign picks the +- branch.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if not 0.0 <= p <= 1 / 3 + 1e-12:
        raise ValueError(f"p={p} outside [0, 1/3]")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    rho = np.asarray(rho, dtype=complex)
    s = 1.0 if sign == "+" else -1.0
    mu = math.sqrt(q * (1 - q))
    weights = np.array([1 - 3 * p, p, p, p])
    sij, sji = _PAULI_PAIRS, _PAULI_PAIRS.transpose(1, 0, 2, 3)
    terms = (
        q * (sij @ rho @ sji)
        + s * mu * (sij @ rho @ sij)
        + s * mu * (sji @ rho @ sji)
        + (1 - q) * (sji @ rho @ sij)
    )
    coeffs = np.outer(weights, weights) / 2
    return (coeffs[..., None, None] * terms).reshape(16, 2, 2).sum(axis=0)


def haar_random_state(dim, rng):
    """Haar-random pure state: normalized complex standard Gaussian vector."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize_state(v)


# --------------------------------------------------------------------------
# polynomial kernel for isotropic channels
# --------------------------------------------------------------------------

# sigma_a sigma_b = i^t sigma_k encoded as _PROD[a][b] = (k, t)
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


@lru_cache(maxsize=None)
def branch_pair_weight_counts(n):
    """Signed tuple counts B[k, a, b, z] for the isotropic n-path switch.

    For Kraus tuple i with z zeros, every branch product equals (phase) sigma_k
    with a common k; the relative branch phase is +-1. Summing the signs per
    (outcome Pauli k, branch pair (a, b), zero count z) gives integer counts
    such that the pairwise super-operator weights are

        w_k^{ab}(p) = sum_z B[k, a, b, z] (1-3p)^z p^(n-z).
    """
    perms = enumerate_permutations(n)
    d = len(perms)
    counts = np.zeros((4, d, d, n + 1), dtype=np.int64)
    for idx in product(range(4), repeat=n):
        z = idx.count(0)
        ks = np.empty(d, dtype=np.int64)
        ts = np.empty(d, dtype=np.int64)
        for a, perm in enumerate(perms):
            k, t = 0, 0
            for copy in perm.mapping:  # mapping[0] acts first => left-multiply
                k, dt = _pauli_product(idx[copy], k)
                t = (t + dt) % 4
            ks[a], ts[a] = k, t
        if not np.all(ks == ks[0]):
            raise InvariantError("branch products disagree on the Pauli label")
        rel = (ts[:, None] - ts[None, :]) % 4
        if not np.all((rel == 0) | (rel == 2)):
            raise InvariantError("relative branch phase is not +-1")
        counts[ks[0], :, :, z] += np.where(rel == 0, 1, -1)
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=None)
def pauli_basis_monomials(n):
    """Monomial coefficients (ascending) of (1-3p)^z p^(n-z) for z = 0..n."""
    rows = np.zeros((n + 1, n + 1))
    for z in range(n + 1):
        poly = np.array([1.0])
        for _ in range(z):
            poly = np.polynomial.polynomial.polymul(poly, [1.0, -3.0])
        for _ in range(n - z):
            poly = np.polynomial.polynomial.polymul(poly, [0.0, 1.0])
        rows[z, : len(poly)] = poly
    rows.setflags(write=False)
    return rows


def post_selected_weight_stack(gamma, n):
    """Weights W[g, k] (ascending, degree n) for a (G, n!) stack gamma = c * conj(m).

    W is bilinear in gamma. Each row is its own matrix-vector product with the
    folded (exact, integer-valued) count tensor, so it does not depend on the
    other rows.
    """
    gamma = np.asarray(gamma, dtype=complex)
    counts = branch_pair_weight_counts(n)
    fold = np.einsum("kabz,zj->abkj", counts, pauli_basis_monomials(n)).reshape(
        counts.shape[1] ** 2, 4 * (n + 1))
    outer = (gamma[:, :, None] * gamma.conj()[:, None, :]).reshape(len(gamma), 1, -1)
    if not np.all(np.abs(outer.imag @ fold) <= 1e-12):
        raise InvariantError("post-selected weights must be real")
    return (outer.real @ fold).reshape(len(gamma), 4, n + 1)


def post_selected_polynomials(control, outcome, n):
    """Coefficients W[k] (ascending, degree n) of the post-selected state weights.

    The unnormalized state after post-selecting the outcome is
    sum_k W_k(p) sigma_k rho sigma_k; the outcome probability is sum_k W_k(p).
    """
    m = normalize_state(outcome)
    if control.dim != math.factorial(n) or len(m) != control.dim:
        raise ValueError("control/outcome dimensions must equal n!")
    return post_selected_weight_stack((control.amplitudes * m.conj())[None], n)[0]
