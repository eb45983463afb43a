"""Closed-form fidelities, advantage regions, figures of merit, and outcome search.

The post-selected fidelity of an isotropic n-path switch is a ratio
F = num/den of degree-n polynomials in the noise weight p (see
switch.post_selected_polynomials), so every quantity here reduces to
polynomial arithmetic. The figure of merit integrates max(F - 2/3, 0) over
p in [0, 1/3]: its kinks are the roots of num - (2/3) den, found as companion
matrix eigenvalues, and each smooth piece between them takes one fixed
12-node Gauss-Legendre rule. There is no adaptive refinement; merit_grid runs
this for a whole stack of outcomes at once.
"""
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .channels import _check_p, _check_q, no_switch_fidelity, no_switch_threshold
from .linalg import (DEGREE_DROP, IDENTITY_TOL, LHOPITAL_ZERO, MERIT_TIE, RANGE_SLACK, SILENT_PROB,
                     ZERO_DEN, normalize_state)
from .switch import (
    ControlState,
    DegenerateOutcomeError,
    InvariantError,
    post_selected_polynomials,
    post_selected_weight_stack,
    uniform_control,
)

CLASSICAL_THRESHOLD = 2 / 3

# nodes of the Gauss-Legendre rule applied to every smooth piece of the merit
# integrand; the rule is built on first use. Each piece is a ratio of degree-n
# polynomials, and 12 nodes keep K within 7e-17 of an independent reference
# (tests/test_analysis.py), ~1000x inside verification.MERIT
_GL_POINTS = 12
_gauss_legendre = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)

# outcomes per block of merit_grid; bounds the memory of the node arrays
_BLOCK_ROWS = 256

# p values per block of a fidelity curve; bounds the memory of P.polyval's
# Horner steps, which hold several arrays of the block's shape at a time
_BLOCK_POINTS = 4096


@dataclass(frozen=True)
class SwitchParams:
    """Noise weight p and control weight q of the two-path switch."""

    p: float
    q: float

    def __post_init__(self):
        _check_p(self.p)
        _check_q(self.q)

    @property
    def mu(self):
        return math.sqrt(max(self.q * (1 - self.q), 0.0))


@dataclass(frozen=True)
class AdvantageRegions:
    """Noise intervals with post-selected fidelity above 2/3.

    region1 = [0, p_lo); region2 = (p_hi, 1/3], empty when p_hi >= 1/3.
    """

    p_lo: float
    p_hi: float

    @property
    def region2_exists(self):
        return self.p_hi < 1 / 3 - RANGE_SLACK

    @property
    def region1(self):
        return (0.0, self.p_lo)

    @property
    def region2(self):
        return (self.p_hi, 1 / 3) if self.region2_exists else None


def switched_fidelity(params):
    """Fidelity of the two-path switch post-selected on outcome +:

    F = [1 + 2mu - p(4 + 8mu) + 8p^2(1 + mu)] / [1 + 2mu(1 - 12p^2)].
    """
    p, mu = params.p, params.mu
    num = 1 + 2 * mu - p * (4 + 8 * mu) + 8 * p * p * (1 + mu)
    den = 1 + 2 * mu * (1 - 12 * p * p)
    return num / den


def advantage_regions(mu):
    """Roots of (1+2mu)/3 - 4(1+2mu)p + 8(1+3mu)p^2 = 0 bounding the regions."""
    if not 0.0 <= mu <= 0.5 + RANGE_SLACK:
        raise ValueError(f"mu={mu} outside [0, 1/2]")
    a = 8 * (1 + 3 * mu)
    b = -4 * (1 + 2 * mu)
    c = (1 + 2 * mu) / 3
    disc = math.sqrt(b * b - 4 * a * c)
    return AdvantageRegions(float((-b - disc) / (2 * a)), float((-b + disc) / (2 * a)))


def l1_coherence(state):
    """Sum of absolute off-diagonal entries of |psi><psi| in the computational basis."""
    v = normalize_state(state)
    rho = np.outer(v, v.conj())
    return float(np.sum(np.abs(rho)) - np.sum(np.abs(np.diag(rho))))


# --------------------------------------------------------------------------
# measurement outcome families
# --------------------------------------------------------------------------


class _OutcomeFamily:
    """Outcomes over (lambda, phi): ket i is _coeffs[i] lambda e^{i phi}, or 1 where that is 0."""

    @classmethod
    def grid(cls, lams, phis):
        """(len(lams) * len(phis), d) stack of unnormalized outcomes, lambda-major."""
        lams = np.asarray(lams, dtype=float).reshape(-1, 1)
        if np.any(lams < 0):
            raise ValueError("lambda must be >= 0")
        weight = (lams * np.exp(1j * np.asarray(phis, dtype=float))).reshape(-1, 1)
        return np.where(cls._coeffs == 0, 1.0, cls._coeffs * weight)

    def vector(self):
        return normalize_state(self.grid([self.lam], [self.phi])[0])


@dataclass(frozen=True)
class OutcomeFamily2(_OutcomeFamily):
    """Two-path control outcome proportional to |0> + lambda e^{i phi} |1>."""

    lam: float
    phi: float
    paths = 2
    _coeffs = np.array([0.0, 1.0])


@dataclass(frozen=True)
class OutcomeFamily3(_OutcomeFamily):
    """Three-path outcome: even-permutation kets minus lambda e^{i phi} odd ones."""

    lam: float
    phi: float
    paths = 3
    # lexicographic permutation parities for n=3: even at 0, 3, 4
    _coeffs = np.array([0.0, -1.0, -1.0, 0.0, 0.0, -1.0])


@dataclass(frozen=True)
class AlphaOutcome:
    """Three-path outcome with odd-permutation coefficients (a1, a2, a3), even fixed at 1."""

    a1: float
    a2: float
    a3: float

    def vector(self):
        return normalize_state([1.0, self.a1, self.a2, 1.0, 1.0, self.a3])

    def label(self):
        def fmt(x):
            return f"{x:g}"

        return f"({fmt(self.a1)},{fmt(self.a2)},{fmt(self.a3)})"


# --------------------------------------------------------------------------
# rational fidelity evaluation
# --------------------------------------------------------------------------


def _ratio_polynomials(w):
    """(num, den) from weights w[..., k, :], checking the nonidentity weights agree."""
    if not np.allclose(w[..., 2:, :], w[..., 1:2, :], atol=IDENTITY_TOL):
        raise InvariantError("nonidentity weights differ; input independence lost")
    return w[..., 0, :] + w[..., 1, :], w.sum(axis=-2)


def fidelity_polynomials(control, outcome, n=None):
    """Ascending coefficient arrays (num, den) with F(p) = num(p)/den(p).

    den(p) is the outcome probability. Valid for pure system inputs; the
    three nonidentity weights coincide by Pauli relabeling, which makes the
    ratio input-independent.
    """
    if n is None:
        n = control.paths
    return _ratio_polynomials(post_selected_polynomials(control, outcome, n))


def _lhopital(num, den, p):
    n_, d_ = np.array(num), np.array(den)
    scale = np.max(np.abs(d_))
    for _ in range(len(den)):
        n_, d_ = P.polyder(n_), P.polyder(d_)
        dv = P.polyval(p, d_)
        if abs(dv) > LHOPITAL_ZERO * scale:
            return float(P.polyval(p, n_) / dv)
    raise DegenerateOutcomeError(f"outcome probability vanishes identically near p={p}")


def _ratio(num, den, ps):
    """(F, 0/0 mask) of num/den for each row of (G, deg + 1) stacks at the p values ps.

    The mask is relative to each row's den (see ZERO_DEN), so an outcome that
    fires rarely still gets its ratio; masked points take the L'Hopital limit.
    The p axis is evaluated _BLOCK_POINTS values at a time.
    """
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    out = np.empty((len(num), len(ps)))
    zero = np.empty(out.shape, dtype=bool)
    tol = ZERO_DEN * np.max(np.abs(den), axis=1, keepdims=True)
    for start in range(0, len(ps), _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        dv = P.polyval(ps[block], den.T)
        zero[:, block] = np.abs(dv) <= tol
        np.divide(P.polyval(ps[block], num.T), dv, out=out[:, block], where=~zero[:, block])
    for g, i in zip(*np.nonzero(zero)):
        out[g, i] = _lhopital(num[g], den[g], ps[i])
    return out, zero


def evaluate_fidelity(num, den, ps):
    """F(p) = num/den elementwise, filling isolated 0/0 points by L'Hopital."""
    return _ratio(np.atleast_2d(num), np.atleast_2d(den), ps)[0][0]


def _rows(controls, outcomes, n):
    """(control amplitudes, normalized outcomes, n) of a stack of rows, broadcast and checked."""
    controls = [controls] if isinstance(controls, ControlState) else controls
    if not len(controls):
        raise ValueError("the control stack is empty")
    # a stack of mixed dimensions fails here, as an inhomogeneous array
    amps = np.array([c.amplitudes for c in controls])
    amps, outcomes = np.broadcast_arrays(amps, normalize_state(np.atleast_2d(outcomes)))
    n = controls[0].paths if n is None else n
    if amps.ndim != 2 or amps.shape[1] != math.factorial(n):
        raise ValueError("outcomes must be a (d,) vector or a (G, d) stack with d = n!")
    return amps, outcomes, n


def curve_grid(controls, outcomes, ps, n=None):
    """(F, 0/0 mask) of shape (G, len(ps)): post-selected fidelity of each row at each p.

    controls and outcomes broadcast to G rows as in merit_grid; a row does not
    depend on the others. A 0/0 point gets the L'Hopital limit, and an outcome
    that never fires raises DegenerateOutcomeError.
    """
    amps, outcomes, n = _rows(controls, outcomes, n)
    num, den = _ratio_polynomials(post_selected_weight_stack(amps * outcomes.conj(), n))
    return _ratio(num, den, ps)


def fidelity_profile(control, outcome, ps, n=None):
    """Post-selected fidelity at each p, continuous through isolated degeneracies."""
    return curve_grid(control, outcome, ps, n)[0][0]


# --------------------------------------------------------------------------
# figure of merit
# --------------------------------------------------------------------------


def _root_real_parts(g):
    """Real parts of the roots of each row of g (ascending), padded with zeros.

    Rows of full degree share one batched companion-matrix eigenvalue call;
    rows that drop a degree are trimmed and solved one by one.
    """
    rows, deg = g.shape[0], g.shape[1] - 1
    out = np.zeros((rows, deg))
    big = np.abs(g) > DEGREE_DROP * np.max(np.abs(g), axis=1, keepdims=True)
    full = big[:, -1]
    if full.any():
        companion = np.zeros((int(full.sum()), deg, deg))
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        companion[:, :, -1] = -g[full, :-1] / g[full, -1:]
        # rotated like numpy's polyroots, which reduces the rounding error
        out[full] = np.linalg.eigvals(companion[:, ::-1, ::-1]).real
    for i in np.nonzero(~full)[0]:
        kept = np.flatnonzero(big[i])
        if kept.size and kept[-1] > 0:
            roots = P.polyroots(g[i, : kept[-1] + 1]).real
            out[i, : len(roots)] = roots
    return out


def _merit_block(amps, outcomes, n):
    """K for a block of (control amplitudes, normalized outcome) rows."""
    num, den = _ratio_polynomials(post_selected_weight_stack(amps * outcomes.conj(), n))
    silent = np.max(np.abs(den), axis=1) < SILENT_PROB
    if silent.any():
        if amps.shape[1] != 2:
            raise DegenerateOutcomeError(
                "outcome probability is identically zero and the control is not a qubit"
            )
        # the orthogonal complement fires with certainty; gamma = c * conj(complement)
        complement = np.stack([-outcomes[silent, 1], outcomes[silent, 0]], axis=1)
        weights = post_selected_weight_stack(amps[silent] * complement, n)
        num[silent], den[silent] = _ratio_polynomials(weights)
    # every root's real part becomes a cut: a cut at a point that is not a
    # crossing of F = 2/3 only splits a smooth piece, and roots outside the
    # interval clip to its ends and give empty pieces
    kinks = np.clip(_root_real_parts(num - CLASSICAL_THRESHOLD * den), 0.0, 1 / 3)
    ends = np.zeros((len(num), 1))
    cuts = np.sort(np.hstack([ends, kinks, ends + 1 / 3]), axis=1)
    half = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    gl_nodes, gl_weights = _gauss_legendre(_GL_POINTS)
    nodes = (cuts[:, :-1] + half)[..., None] + half[..., None] * gl_nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = (
            P.polyval(nodes, num.T[..., None, None], tensor=False)
            / P.polyval(nodes, den.T[..., None, None], tensor=False)
            - CLASSICAL_THRESHOLD
        )
    # an empty piece may sit on a 0/0 end point; its nodes carry no weight
    excess = np.where((half[..., None] > 0) & (excess > 0), excess, 0.0)
    return (excess * half[..., None] * gl_weights).reshape(len(num), -1).sum(axis=1)


def merit_grid(controls, outcomes, n=None):
    """K = integral over p in [0, 1/3] of max(F(p) - 2/3, 0) for a stack of rows.

    controls is one ControlState or a sequence of G of them; outcomes is one
    (d,) vector or a (G, d) stack; the two broadcast to G rows and K has
    shape (G,). A row's K does not depend on the other rows.

    An outcome that never fires (probability identically zero) is replaced by
    its orthogonal complement when the control is two-dimensional, since the
    complement then fires with certainty; larger controls raise instead.
    """
    amps, outcomes, n = _rows(controls, outcomes, n)
    merits = np.empty(len(amps))
    for i in range(0, len(amps), _BLOCK_ROWS):
        block = slice(i, i + _BLOCK_ROWS)
        merits[block] = _merit_block(amps[block], outcomes[block], n)
    return merits


def figure_of_merit(outcome, control, n=None):
    """K = integral over p in [0, 1/3] of max(F(p) - 2/3, 0): merit_grid for one outcome."""
    outcome = outcome.vector() if hasattr(outcome, "vector") else outcome
    return float(merit_grid(control, outcome, n)[0])


def no_switch_merit(n):
    """K of n sequential channels without a switch.

    F_n - 2/3 = (1 - 4p)^n / 2 - 1/6 is nonnegative exactly on [0, p_n*], so
    K is the polynomial's antiderivative at the analytic threshold.
    """
    excess = 0.5 * P.polypow([1.0, -4.0], n)
    excess[0] += 0.5 - CLASSICAL_THRESHOLD
    return float(P.polyval(no_switch_threshold(n), P.polyint(excess)))


def k_total(control):
    """Integral over p of the joint fidelity between rho o rho_c and the
    pre-measurement switch output, for pure system and control states.
    """
    if control.dim != 2:
        raise ValueError("k_total is defined for the two-path switch")
    # the joint fidelity has the weights of gamma = |c|^2, summed like num
    w = post_selected_weight_stack(np.abs(control.amplitudes)[None] ** 2, 2)[0]
    return float(P.polyval(1 / 3, P.polyint(w[0] + w[1])))


def optimize_outcome(control, family, lambdas, phis):
    """Exhaustive (lambda, phi) grid search of the figure of merit.

    Returns ((lambda, phi), K) at the argmax; ties break toward smaller
    lambda, then smaller phi.
    """
    lambdas, phis = sorted(lambdas), sorted(phis)
    if not lambdas or not phis:
        raise ValueError("empty search grid")
    merits = merit_grid(control, family.grid(lambdas, phis)).tolist()
    best = 0
    for i, k in enumerate(merits):
        if k > merits[best] + MERIT_TIE:
            best = i
    return (lambdas[best // len(phis)], phis[best % len(phis)]), merits[best]


def alpha_fidelity_profile(alphas, ps):
    """(F, degenerate) of shape (len(alphas), len(ps)) for the uniform three-path control.

    alphas holds AlphaOutcome or (a1, a2, a3) items. At a 0/0 point (e.g. the
    alternating outcome at p = 0, where the outcome never fires) F is not the
    limit but the fidelity of the control-traced marginal, which equals the
    no-switch triple-channel fidelity, and the point is flagged degenerate.
    """
    outcomes = [(a if hasattr(a, "vector") else AlphaOutcome(*a)).vector() for a in alphas]
    fs, zero = curve_grid(uniform_control(3), outcomes, ps, 3)
    return np.where(zero, no_switch_fidelity(ps, 3), fs), zero
