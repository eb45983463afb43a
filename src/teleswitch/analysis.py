"""Closed-form fidelities, advantage regions, figures of merit, and outcome search.

The post-selected fidelity of an isotropic n-path switch is a ratio
F = num/den of degree-n polynomials in the noise weight p, so every quantity
here reduces to polynomial arithmetic. num and den come from one route,
switch.post_selected_weight_stack, in Gram form: squared overlaps |s . gamma|^2
of gamma = c * conj(m) with the branch sign vectors s, folded with integer
counts, so den(0) = |<m|c>|^2 keeps its digits however small it is. The figure
of merit integrates max(F - 2/3, 0) over p in [0, 1/3]: its kinks are the
roots of g = num - (2/3) den, in closed form for two and three paths (a
quadratic and a deflated cubic) and as companion matrix eigenvalues for four,
and each smooth piece between them takes one fixed 12-node Gauss-Legendre
rule, with g and den evaluated at every node in one Horner pass and
F - 2/3 = g/den. There is no adaptive refinement; merit_grid runs this for a
whole stack of outcomes at once.
"""
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .channels import _check_p, _check_q, no_switch_fidelity, no_switch_threshold
from .linalg import (DEGREE_DROP, LHOPITAL_ZERO, MERIT_TIE, RANGE_SLACK, SILENT_PROB, ZERO_DEN,
                     normalize_state)
from .switch import ControlState, DegenerateOutcomeError, post_selected_weight_stack, uniform_control

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
    """Sum of absolute off-diagonal entries of |psi><psi| in the computational basis.

    A (G, d) stack gives one value per row, each equal to its own one-state call.
    """
    v = normalize_state(state)
    rho = np.abs(v[..., :, None] * v.conj()[..., None, :])
    coherence = np.sum(rho, axis=(-2, -1)) - np.sum(np.diagonal(rho, axis1=-2, axis2=-1), axis=-1)
    return float(coherence) if coherence.ndim == 0 else coherence


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
    _coeffs = np.array([0.0, 1.0])


@dataclass(frozen=True)
class OutcomeFamily3(_OutcomeFamily):
    """Three-path outcome: even-permutation kets minus lambda e^{i phi} odd ones."""

    lam: float
    phi: float
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


def fidelity_polynomials(control, outcome):
    """Ascending coefficient arrays (num, den) of degree control.paths with F(p) = num(p)/den(p).

    den(p) is the outcome probability. Valid for pure system inputs; the
    three nonidentity weights coincide by Pauli relabeling, which makes the
    ratio input-independent. The one-row case of curve_grid's polynomials.
    """
    amps, outcomes = _rows(control, outcome)
    num, den = post_selected_weight_stack(amps * outcomes.conj())
    return num[0], den[0]


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


def _amplitudes(controls):
    """(G, d) amplitudes of one ControlState, a sequence of G, or a (G, d) array.

    An array's rows are normalized as ControlState normalizes its amplitudes.
    """
    if isinstance(controls, np.ndarray):
        if controls.ndim != 2:
            raise ValueError("control amplitudes must be a (G, d) array")
        return normalize_state(controls)
    controls = [controls] if isinstance(controls, ControlState) else controls
    if not len(controls):
        raise ValueError("the control stack is empty")
    # a stack of mixed dimensions fails here, as an inhomogeneous array
    return np.array([c.amplitudes for c in controls])


def _rows(controls, outcomes):
    """(control amplitudes, normalized outcomes) of a stack of rows, checked and broadcast."""
    amps = _amplitudes(controls)
    outcomes = normalize_state(np.atleast_2d(outcomes))
    if outcomes.ndim != 2 or outcomes.shape[1] != amps.shape[1]:
        raise ValueError("outcomes must be a (d,) vector or a (G, d) stack with the control's d")
    return np.broadcast_arrays(amps, outcomes)


def curve_grid(controls, outcomes, ps):
    """(F, 0/0 mask) of shape (G, len(ps)): post-selected fidelity of each row at each p.

    controls and outcomes broadcast to G rows as in merit_grid; a row does not
    depend on the others. A 0/0 point gets the L'Hopital limit, and an outcome
    that never fires raises DegenerateOutcomeError.
    """
    amps, outcomes = _rows(controls, outcomes)
    num, den = post_selected_weight_stack(amps * outcomes.conj())
    return _ratio(num, den, ps)


def fidelity_profile(control, outcome, ps, n=None):
    """Post-selected fidelity at each p, continuous through isolated degeneracies."""
    if n not in (None, control.paths):
        raise ValueError(f"n = {n}, but the control fixes n = {control.paths}")
    return curve_grid(control, outcome, ps)[0][0]


# --------------------------------------------------------------------------
# figure of merit
# --------------------------------------------------------------------------


def _quadratic_real_parts(a, b, c):
    """(m, 2) real parts of the roots of a x^2 + b x + c, each row by the
    cancellation-free formula: q = -(b + sign(b) sqrt(disc)) / 2 gives the roots
    q/a and c/q (both 0 when q = 0), and a complex pair gives -b/2a twice."""
    disc = b * b - 4 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.stack([q / a, np.where(q != 0, c / q, 0.0)], axis=1)
    return np.where((disc < 0)[:, None], (-0.5 * b / a)[:, None], roots)


@np.errstate(divide="ignore", invalid="ignore")
def _cubic_real_parts(a, b, c, d):
    """(m, 3) real parts of the roots of a x^3 + b x^2 + c x + d, each row in closed form.

    One real root r of the monic x^3 + A x^2 + B x + C comes from Cardano's
    formula when the cubic has one real root, else it is the trigonometric root
    of largest magnitude; two Newton steps polish it. Deflating r leaves the
    quadratic x^2 + e x + f: backward (f = -C/r, e = (f - B)/r) when
    |r|^3 > |C|, so a far root does not swamp the small ones, and forward
    (e = A + r, f = B + r e) otherwise, which takes r = 0 when C = 0. The
    quadratic takes _quadratic_real_parts.
    """
    A, B, C = b / a, c / a, d / a
    # depressed cubic t^3 + s t + h = 0 in t = x + A/3
    shift = A / 3
    s = B - A * shift
    h = C - shift * (B - 2 * shift * shift)
    disc = (h / 2) ** 2 + (s / 3) ** 3
    u = np.cbrt(-h / 2 - np.copysign(np.sqrt(np.maximum(disc, 0.0)), h))
    cardano = u - s / (3 * u)
    m = np.sqrt(np.maximum(-s / 3, 0.0))
    angle = np.arccos(np.minimum(np.abs(h) / (2 * m**3), 1.0)) / 3
    trigonometric = np.where(m > 0, np.copysign(2 * m * np.cos(angle), -h), 0.0)
    r = np.where(disc > 0, cardano, trigonometric) - shift
    value = ((r + A) * r + B) * r + C
    for _ in range(2):
        # a step is kept only where it shrinks |value|: at a multiple root the
        # slope is rounding noise and a full step would throw r off
        step = r - value / ((3 * r + 2 * A) * r + B)
        step_value = ((step + A) * step + B) * step + C
        better = np.abs(step_value) < np.abs(value)
        r, value = np.where(better, step, r), np.where(better, step_value, value)
    backward = np.abs(r) ** 3 > np.abs(C)
    f = np.where(backward, -C / r, B + r * (A + r))
    e = np.where(backward, (f - B) / r, A + r)
    return np.column_stack([r, _quadratic_real_parts(np.ones_like(e), e, f)])


def _full_degree_real_parts(g):
    """(m, deg) real parts of the roots of rows g whose leading coefficient is nonzero."""
    deg = g.shape[1] - 1
    if deg == 2:
        return _quadratic_real_parts(*g[:, ::-1].T)
    if deg == 3:
        return _cubic_real_parts(*g[:, ::-1].T)
    companion = np.zeros((len(g), deg, deg))
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    companion[:, :, -1] = -g[:, :-1] / g[:, -1:]
    # rotated like numpy's polyroots, which reduces the rounding error
    return np.linalg.eigvals(companion[:, ::-1, ::-1]).real


def _root_real_parts(g):
    """Real parts of the roots of each row of g (ascending), padded with zeros.

    Rows of full degree 2 or 3 are solved in closed form (_quadratic_real_parts,
    _cubic_real_parts), all rows at once; rows of full degree 4 share one
    batched companion-matrix eigenvalue call. Rows that drop a degree are
    trimmed and solved one by one.
    """
    rows, deg = g.shape[0], g.shape[1] - 1
    big = np.abs(g) > DEGREE_DROP * np.max(np.abs(g), axis=1, keepdims=True)
    full = big[:, -1]
    if full.all():
        return _full_degree_real_parts(g)
    out = np.zeros((rows, deg))
    if full.any():
        out[full] = _full_degree_real_parts(g[full])
    for i in np.nonzero(~full)[0]:
        kept = np.flatnonzero(big[i])
        if kept.size and kept[-1] > 0:
            roots = P.polyroots(g[i, : kept[-1] + 1]).real
            out[i, : len(roots)] = roots
    return out


def _merit_block(amps, outcomes):
    """K for a block of (control amplitudes, normalized outcome) rows."""
    num, den = post_selected_weight_stack(amps * outcomes.conj())
    silent = np.max(np.abs(den), axis=1) < SILENT_PROB
    if silent.any():
        if amps.shape[1] != 2:
            raise DegenerateOutcomeError(
                "outcome probability is identically zero and the control is not a qubit"
            )
        # the orthogonal complement fires with certainty; gamma = c * conj(complement)
        complement = np.stack([-outcomes[silent, 1], outcomes[silent, 0]], axis=1)
        num[silent], den[silent] = post_selected_weight_stack(amps[silent] * complement)
    # F - 2/3 = g / den with the kink polynomial g = num - (2/3) den. Every root's
    # real part becomes a cut: a cut at a point that is not a crossing of F = 2/3
    # only splits a smooth piece, and roots outside the interval clip to its ends
    # and give empty pieces
    g = num - CLASSICAL_THRESHOLD * den
    kinks = np.sort(np.clip(_root_real_parts(g), 0.0, 1 / 3), axis=1)
    ends = np.zeros((len(g), 1))
    cuts = np.hstack([ends, kinks, ends + 1 / 3])
    half = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    gl_nodes, gl_weights = _gauss_legendre(_GL_POINTS)
    nodes = (cuts[:, :-1] + half)[..., None] + half[..., None] * gl_nodes
    # g and den at every node in one Horner pass over the stacked coefficients
    coeffs = np.stack([g, den])[..., None, None]
    values = np.empty((2,) + nodes.shape)
    values[...] = coeffs[:, :, -1]
    for j in range(coeffs.shape[2] - 2, -1, -1):
        values *= nodes
        values += coeffs[:, :, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = values[0] / values[1]
    # an empty piece may sit on a 0/0 end point; its nodes carry no weight. np.where
    # keeps a -0.0 excess out of the sum, which np.maximum would let through
    excess = np.where((half[..., None] > 0) & (excess > 0), excess, 0.0)
    return (excess * half[..., None] * gl_weights).reshape(len(g), -1).sum(axis=1)


def merit_grid(controls, outcomes):
    """K = integral over p in [0, 1/3] of max(F(p) - 2/3, 0) for a stack of rows.

    controls is one ControlState, a sequence of G or a (G, d) amplitude array
    (normalized per row), whose d = n! fixes n; outcomes is one (d,) vector or
    a (G, d) stack; the two broadcast to G rows
    and K has shape (G,). A row's K does not depend on the other rows.

    An outcome that never fires (probability identically zero) is replaced by
    its orthogonal complement when the control is two-dimensional, since the
    complement then fires with certainty; larger controls raise instead.
    """
    amps, outcomes = _rows(controls, outcomes)
    merits = np.empty(len(amps))
    for i in range(0, len(amps), _BLOCK_ROWS):
        block = slice(i, i + _BLOCK_ROWS)
        merits[block] = _merit_block(amps[block], outcomes[block])
    return merits


def figure_of_merit(outcome, control):
    """K = integral over p in [0, 1/3] of max(F(p) - 2/3, 0): merit_grid for one outcome."""
    outcome = outcome.vector() if hasattr(outcome, "vector") else outcome
    return float(merit_grid(control, outcome)[0])


def no_switch_merit(n):
    """K of n sequential channels without a switch.

    F_n - 2/3 = (1 - 4p)^n / 2 - 1/6 is nonnegative exactly on [0, p_n*], so
    K is the polynomial's antiderivative at the analytic threshold.
    """
    excess = 0.5 * P.polypow([1.0, -4.0], n)
    excess[0] += 0.5 - CLASSICAL_THRESHOLD
    return float(P.polyval(no_switch_threshold(n), P.polyint(excess)))


def k_total_grid(controls):
    """k_total of each two-path control of a stack (a ControlState, a sequence or an array)."""
    amps = _amplitudes(controls)
    if amps.shape[1] != 2:
        raise ValueError("k_total is defined for the two-path switch")
    # the joint fidelity has the weights of gamma = |c|^2, summed like num
    num, _ = post_selected_weight_stack(np.abs(amps) ** 2)
    return P.polyval(1 / 3, P.polyint(num, axis=1).T)


def k_total(control):
    """Integral over p of the joint fidelity between rho o rho_c and the
    pre-measurement switch output, for pure system and control states.
    """
    return float(k_total_grid(control)[0])


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
    fs, zero = curve_grid(uniform_control(3), outcomes, ps)
    return np.where(zero, no_switch_fidelity(ps, 3), fs), zero
