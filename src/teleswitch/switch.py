"""Channels composed in superposition of causal order, with control post-selection.

A quantum switch over n channel copies carries an n!-dimensional control whose
basis state |k> routes the copies through the k-th permutation (lexicographic
one-line order, identity first). The joint output for Kraus indices i_1..i_n is

    W (rho o rho_c) W^dag,   W = sum_k (ordered Kraus product under perm k) o |k><k|

summed over all index tuples. Measuring the control and keeping one outcome
leaves an unnormalized system state whose trace is the outcome probability.

switch_two and switch_n compute this joint directly from the Kraus operators
of any channels. A branch's ordered product depends only on which channel sits
in each slot, so the products of every index tuple are built once per distinct
slot sequence and each branch transposes that tensor's Kraus-index axes; each
input meets all products in one matrix product, and the sum over tuples is a
single einsum.
The joint is linear in rho, so rho may be one (2, 2) state or an (R, 2, 2) stack:
joints, projected states and probabilities then carry the leading R axis, and each
row equals its own one-state call. This brute route uses no Pauli algebra, so it
is an independent oracle.

For isotropic Pauli channels the same multiset of Pauli factors appears in
every branch, in different orders, so branch products differ only by signs.
That reduces every post-selected state to sum_k W_k(p) sigma_k rho sigma_k
with W_k a degree-n polynomial in p; the polynomial route is exact and fast
and is cross-checked against the brute route in the tests.

The polynomial route is in Gram form. Grouping the Kraus tuples by their
branch sign vector s writes the signed count tensor as a sum of squares,
B[k, :, :, z] = sum_s M[s, k, z] s s^T with integer M >= 0, so with
gamma = c * conj(m) every weight is W_k = sum_s M[s, k, .] |s . gamma|^2.
The route computes the overlaps s . gamma and folds their squares with M into
the numerator and denominator of the fidelity in the Pauli basis; both
identities are checked exactly, in integers, when the fold is built.
"""
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _lex_permutations

import numpy as np
from numpy.polynomial import polynomial as P

from .channels import PAULI, _check_p, _check_q
from .linalg import DEGENERATE_PROB, assert_density_matrix, normalize_state, partial_trace

SUPPORTED_PATHS = (2, 3, 4)

# control dimension n! -> path count n
_PATHS_BY_DIM = {math.factorial(n): n for n in SUPPORTED_PATHS}


class DegenerateOutcomeError(ValueError):
    """Post-selection on an outcome whose probability is below threshold."""


class InvariantError(ArithmeticError):
    """An internal identity of the polynomial route does not hold."""


def enumerate_permutations(n):
    """All permutations of 0..n-1 as tuples, in lexicographic one-line order."""
    if n not in SUPPORTED_PATHS:
        raise ValueError(f"n must be one of {SUPPORTED_PATHS}, got {n}")
    return tuple(_lex_permutations(range(n)))


class ControlState:
    """Normalized pure control state over d = n! pathway basis states."""

    def __init__(self, amplitudes):
        v = normalize_state(amplitudes)
        if len(v) not in _PATHS_BY_DIM:
            raise ValueError(f"control dimension {len(v)} is not 2, 6 or 24")
        self.amplitudes = v
        self.amplitudes.setflags(write=False)

    @property
    def dim(self):
        return len(self.amplitudes)

    @property
    def paths(self):
        """Number n of channel copies, with dim = n!."""
        return _PATHS_BY_DIM[self.dim]

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
    _check_q(q)
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
    perm[0] first, so slot r holds copy perm[r]. One product tensor per
    distinct sequence of channel objects, slot r's Kraus index on axis r,
    gives each branch's stack by a transpose of those axes; the branches form
    one (n!, T, 2, 2) stack O over index tuples t, O rho is one matrix product
    per input, and the joint is one contraction over tuples:
    J[(i,a),(l,b)] = c_a conj(c_b) sum_t (O[a,t] rho O[b,t]^dag)[i,l].
    rho is one (2, 2) state or an (R, 2, 2) stack, making J (2 n!, 2 n!) or (R, 2 n!, 2 n!).
    """
    n = len(channels)
    perms = enumerate_permutations(n)
    d = len(perms)
    if control.dim != d:
        raise ValueError(f"control dimension {control.dim} != {n}! = {d}")
    rho = assert_density_matrix(np.asarray(rho, dtype=complex))
    if rho.shape[-2:] != (2, 2) or rho.ndim > 3:
        raise ValueError("system state must be a qubit or a stack of qubits")
    # one Kraus stack per distinct channel and one product tensor per distinct
    # slot sequence, keyed by channel identity; slot r's Kraus index sits on
    # batch axis r, so each product broadcasts over every index tuple at once
    kraus, products, ops = {}, {}, []
    for perm in perms:
        key = tuple(id(channels[copy]) for copy in perm)
        if key not in products:
            op = np.eye(2, dtype=complex)
            for r, copy in enumerate(perm):
                if key[r] not in kraus:
                    kraus[key[r]] = np.asarray(_kraus_of(channels[copy]), dtype=complex)
                op = kraus[key[r]].reshape((-1,) + (1,) * (n - 1 - r) + (2, 2)) @ op
            products[key] = op
        # branch perm reads copy c's Kraus index from slot axis perm.index(c)
        ops.append(products[key].transpose([perm.index(c) for c in range(n)] + [n, n + 1]))
    ops = np.stack(ops).reshape(d, -1, 2, 2)
    left = (ops.reshape(-1, 2) @ rho).reshape(rho.shape[:-2] + ops.shape)
    joint = np.einsum("...atij,btlj->...ialb", left, ops.conj(), optimize=True)
    joint *= control.density()[:, None, :]
    return JointState(joint.reshape(rho.shape[:-2] + (2 * d, 2 * d)), d)


def switch_two(cha, chb, rho, control):
    """Two channels in superposition of causal order; control |0> runs cha first."""
    return _switch((cha, chb), rho, control)


def switch_n(channel, n, rho, control):
    """n identical channels over all n! pathway orderings."""
    return _switch((channel,) * n, rho, control)


def project_outcome(joint, outcome):
    """Unnormalized system state <m| J |m> on the control factor; (R, 2, 2) for a stack."""
    m = normalize_state(outcome)
    d = joint.control_dim
    if len(m) != d:
        raise ValueError(f"outcome dimension {len(m)} != control dimension {d}")
    j = joint.matrix.reshape(joint.matrix.shape[:-2] + (2, d, 2, d))
    return np.einsum("a,...iajb,b->...ij", m.conj(), j, m)


def post_select(joint, outcome):
    """Condition the joint state on a control measurement outcome; a joint of an
    (R, 2, 2) stack gives R states and R probabilities, and fails if any row does."""
    sub = project_outcome(joint, outcome)
    probability = np.real(np.trace(sub, axis1=-2, axis2=-1))
    low = probability.min()
    if low < DEGENERATE_PROB:
        raise DegenerateOutcomeError(f"outcome probability {low:.3e} below {DEGENERATE_PROB}")
    return PostSelectionResult(sub / probability[..., None, None], probability)


# _PAULI_PAIRS[i, j] = sigma_i sigma_j
_PAULI_PAIRS = np.array([[a @ b for b in PAULI] for a in PAULI])


def closed_form_two(p, q, sign, rho):
    """Unnormalized post-measurement state of the two-path switch, term by term:

    sum_ij (p_i p_j / 2) [ q S_ij rho S_ji +- mu S_ij rho S_ij
                           +- mu S_ji rho S_ji + (1-q) S_ji rho S_ij ]

    with S_ij = sigma_i sigma_j and mu = sqrt(q(1-q)); sign picks the +- branch.
    rho is one (2, 2) state or an (R, 2, 2) stack, giving one state per row.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    _check_p(p)
    _check_q(q)
    rho = np.asarray(rho, dtype=complex)[..., None, None, :, :]
    s = 1.0 if sign == "+" else -1.0
    mu = math.sqrt(q * (1 - q))
    weights = np.array([1 - 3 * p, p, p, p])
    sij, sji = _PAULI_PAIRS, _PAULI_PAIRS.transpose(1, 0, 2, 3)
    left_ij, left_ji = sij @ rho, sji @ rho
    terms = (
        q * (left_ij @ sji)
        + s * mu * (left_ij @ sij)
        + s * mu * (left_ji @ sji)
        + (1 - q) * (left_ji @ sij)
    )
    coeffs = np.outer(weights, weights) / 2
    return (coeffs[..., None, None] * terms).reshape(terms.shape[:-4] + (16, 2, 2)).sum(axis=-3)


def haar_random_state(dim, rng):
    """Haar-random pure state: normalized complex standard Gaussian vector."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize_state(v)


# --------------------------------------------------------------------------
# polynomial kernel for isotropic channels
# --------------------------------------------------------------------------

# sigma_a sigma_b = i^t sigma_k as _PROD_K[a, b] = k and _PROD_T[a, b] = t, read
# off the overlaps tr(sigma_k sigma_a sigma_b) / 2, of which one is nonzero
_OVERLAPS = np.einsum("kij,abji->abk", np.array(PAULI), _PAULI_PAIRS) / 2
_PROD_K = np.abs(_OVERLAPS).argmax(axis=-1).astype(np.int8)
_PROD_T = (np.rint(np.angle(_OVERLAPS.sum(axis=-1)) * 2 / np.pi) % 4).astype(np.int8)


@lru_cache(maxsize=None)
def _tuple_signs(n):
    """(k, s, z) of every Kraus tuple of the isotropic n-path switch, cached and read-only.

    For Kraus tuple i every branch product equals (phase) sigma_k with a common
    k[i]; branch a's phase relative to branch 0 is s[i, a] = +-1, and z[i]
    counts the tuple's identity factors.
    """
    perms = np.array(enumerate_permutations(n))
    # int8 labels and phases keep the (4^n, n!) intermediates narrow
    tuples = np.indices((4,) * n, dtype=np.int8).reshape(n, -1).T
    # labels[i, a, r]: the Pauli label in slot r of branch a for tuple i
    labels = tuples[:, perms]
    k = np.zeros(labels.shape[:2], dtype=np.int8)
    t = np.zeros_like(k)
    for r in range(n):  # perm[0] acts first => left-multiply
        k, t = _PROD_K[labels[..., r], k], (t + _PROD_T[labels[..., r], k]) % 4
    if np.any(k != k[:, :1]):
        raise InvariantError("branch products disagree on the Pauli label")
    # each branch's phase relative to branch 0 is i^0 or i^2, so sign a times
    # sign b is the relative phase of branches a and b
    rel = (t - t[:, :1]) % 4
    if np.any(rel % 2):
        raise InvariantError("relative branch phase is not +-1")
    out = k[:, 0], 1 - rel, np.count_nonzero(tuples == 0, axis=1)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def branch_pair_weight_counts(n):
    """Signed tuple counts B[k, a, b, z] for the isotropic n-path switch.

    For Kraus tuple i with z zeros, every branch product equals (phase) sigma_k
    with a common k; the relative branch phase is +-1. Summing the signs per
    (outcome Pauli k, branch pair (a, b), zero count z) gives integer counts
    such that the pairwise super-operator weights are

        w_k^{ab}(p) = sum_z B[k, a, b, z] (1-3p)^z p^(n-z).
    """
    k, sign, zeros = _tuple_signs(n)
    d = sign.shape[1]
    # each tuple adds its (a, b) sign products to the cell of its k and z
    counts = np.zeros((4, d, d, n + 1), dtype=np.int64)
    np.add.at(counts, (k, slice(None), slice(None), zeros), sign[:, :, None] * sign[:, None, :])
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=None)
def sign_vector_counts(n):
    """(s, M): the distinct branch sign vectors s[j] (S, n!) and tuple counts M[j, k, z].

    M counts the Kraus tuples with sign vector s[j], Pauli label k and z zeros,
    so the count tensor is a sum of squares, B[k, :, :, z] = sum_j M[j, k, z]
    s[j] s[j]^T; there are 2, 8 and 36 sign vectors at n = 2, 3 and 4. Both
    that identity and the equality of M's k = 1, 2, 3 slices (which makes the
    post-selected fidelity input-independent) are checked exactly here.
    """
    k, sign, zeros = _tuple_signs(n)
    signs, which = np.unique(sign, axis=0, return_inverse=True)
    counts = np.zeros((len(signs), 4, n + 1), dtype=np.int64)
    np.add.at(counts, (which.ravel(), k, zeros), 1)
    if not np.array_equal(np.einsum("ja,jb,jkz->kabz", signs, signs, counts),
                          branch_pair_weight_counts(n)):
        raise InvariantError("the sign vectors do not rebuild the count tensor")
    if not (np.array_equal(counts[:, 1], counts[:, 2]) and np.array_equal(counts[:, 1], counts[:, 3])):
        raise InvariantError("nonidentity weights differ; input independence lost")
    for a in (signs, counts):
        a.setflags(write=False)
    return signs, counts


@lru_cache(maxsize=None)
def pauli_basis_monomials(n):
    """Monomial coefficients (ascending) of (1-3p)^z p^(n-z) for z = 0..n."""
    rows = np.array([P.polymul(P.polypow([1.0, -3.0], z), P.polypow([0.0, 1.0], n - z))
                     for z in range(n + 1)])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _gram_fold(n):
    """(s^T, fold): the sign vectors as a (n!, S) matrix and the (S, 2(n + 1)) fold.

    Row j holds the Pauli-basis coefficients, M0 + M1 of num and M0 + 3 M1 of den,
    that sign vector j adds per unit |gamma . s[j]|^2. Both are read-only floats.
    """
    signs, counts = sign_vector_counts(n)
    fold = np.hstack([counts[:, 0] + counts[:, 1], counts[:, 0] + 3 * counts[:, 1]]).astype(float)
    signs = signs.T.astype(float)
    for a in (signs, fold):
        a.setflags(write=False)
    return signs, fold


def post_selected_weight_stack(gamma):
    """(num, den) as one (2, G, n + 1) array of Pauli-basis coefficients for a (G, n!) stack gamma.

    gamma = c * conj(m), and its width n! fixes n (2, 6 or 24). With Pauli weights
    W_k(p) (W_1 = W_2 = W_3), num = W_0 + W_1 and den = W_0 + 3 W_1 is the
    outcome probability; column z is the coefficient of (1-3p)^z p^(n-z). In
    Gram form each is sum_j fold[j] |gamma . s[j]|^2 over the sign vectors s[j]
    of sign_vector_counts, so every coefficient is a sum of nonnegative terms,
    and den[:, n] = den(0) = |<m|c>|^2 to one rounding. Each row is its own
    pair of vector-matrix products, so it does not depend on the other rows.
    """
    gamma = np.asarray(gamma, dtype=complex)
    if gamma.ndim != 2 or gamma.shape[1] not in _PATHS_BY_DIM:
        raise ValueError(f"gamma must be a (G, d) stack with d = 2, 6 or 24, not {gamma.shape}")
    n = _PATHS_BY_DIM[gamma.shape[1]]
    signs, fold = _gram_fold(n)
    overlap = gamma[:, None, :] @ signs
    weights = (overlap.real**2 + overlap.imag**2) @ fold
    return weights.reshape(len(gamma), 2, n + 1).transpose(1, 0, 2)


def _monomial_pair(gamma):
    """(G, 2, n + 1): num and den of post_selected_weight_stack in monomials, row by row."""
    pair = post_selected_weight_stack(gamma).transpose(1, 0, 2)
    return pair @ pauli_basis_monomials(pair.shape[2] - 1)


def post_selected_polynomials(control, outcome):
    """Coefficients W[k] (ascending, degree control.paths) of the post-selected state weights.

    The unnormalized state after post-selecting the outcome is
    sum_k W_k(p) sigma_k rho sigma_k; the outcome probability is sum_k W_k(p).
    The nonidentity weights coincide, so W comes from the monomial (num, den) as
    W_1 = W_2 = W_3 = (den - num) / 2 and W_0 = num - W_1.
    """
    m = normalize_state(outcome)
    if len(m) != control.dim:
        raise ValueError(f"outcome dimension {len(m)} != control dimension {control.dim}")
    num, den = _monomial_pair((control.amplitudes * m.conj())[None])[0]
    w1 = (den - num) / 2
    return np.stack([num - w1, w1, w1, w1])
