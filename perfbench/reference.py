"""References for the correctness gate, built apart from the code under test.

Figures of merit are checked against the brute Kraus route: the outcome
probability den(p) and num(p) = F(p) den(p) are sampled from ``switch_two`` or
``switch_n`` at n + 2 noise levels and fitted by least squares as degree-n
polynomials (exact up to rounding). Then max(F - 2/3, 0) is integrated between
the real roots of num - (2/3) den with Gauss-Legendre quadrature. Closed forms (F1, F2, F3, the alternating outcome,
the no-switch K2) are written out here from the paper, not imported.
"""
import csv
import io
import math

import numpy as np
from numpy.polynomial import polynomial as P

THRESHOLD = 2 / 3
MERIT_TOL = 1e-9  # the package's own figure-of-merit tolerance
FIDELITY_TOL = 1e-10  # CSV values carry 12 significant digits

_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def k2_exact():
    """K2 = integral of 1 - 4p + 8p^2 - 2/3 from 0 to (1 - 3^(-1/2))/4.

    Equals 0.016037507477490 to 15 digits.
    """
    x = (1 - 3 ** -0.5) / 4
    return x / 3 - 2 * x * x + 8 * x**3 / 3


def f1(p):
    return 1 - 2 * p


def f2(p):
    return 1 - 4 * p + 8 * p * p


def f3(p):
    return 0.5 + (1 - 4 * p) ** 3 / 2


def f_alternating(p):
    """Three-path outcome with even kets +1 and odd kets -1."""
    return 1 / 3 + 2 * p


def unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def outcome2(lam, phi):
    return unit([1.0, lam * np.exp(1j * phi)])


def outcome3(lam, phi):
    odd = -lam * np.exp(1j * phi)
    return unit([1.0, odd, odd, 1.0, 1.0, odd])


def alpha_outcome(a1, a2, a3):
    return unit([1.0, a1, a2, 1.0, 1.0, a3])


def qubit_control(ts, q):
    return ts.switch.ControlState(np.array([math.sqrt(q), math.sqrt(1 - q)], dtype=complex))


def uniform_control(ts, n):
    d = math.factorial(n)
    return ts.switch.ControlState(np.full(d, d**-0.5, dtype=complex))


_PSI = unit([math.cos(0.3), np.exp(0.7j) * math.sin(0.3)])
_RHO = np.outer(_PSI, _PSI.conj())  # pure input; the fidelity does not depend on it


def brute_fidelity(ts, control, outcome, n, p, rho=_RHO):
    """(F, probability) of the post-selected output from the Kraus route."""
    channel = ts.channels.isotropic_channel(p)
    if n == 2 and control.dim == 2:
        joint = ts.switch.switch_two(channel, channel, rho, control)
    else:
        joint = ts.switch.switch_n(channel, n, rho, control)
    result = ts.switch.post_select(joint, outcome)
    return ts.channels.qubit_fidelity(rho, result.state), result.probability


def brute_polynomials(ts, control, outcome, n):
    """(num, den) ascending, fitted from the brute route at n + 2 noise levels."""
    k = np.arange(n + 2)
    ps = 1 / 6 + 0.15 * np.cos((2 * k + 1) * np.pi / (2 * (n + 2)))
    fs, probs = zip(*(brute_fidelity(ts, control, outcome, n, p) for p in ps))
    probs = np.array(probs)
    den = P.polyfit(ps, probs, n)
    num = P.polyfit(ps, np.array(fs) * probs, n)
    return num, den


def gl_merit(num, den):
    """Integral over [0, 1/3] of max(num/den - 2/3, 0), split at the crossings."""
    g = P.polysub(num, THRESHOLD * np.asarray(den))
    g = np.trim_zeros(g, "b")
    roots = P.polyroots(g) if len(g) > 1 else np.array([])
    cuts = sorted(
        {0.0, 1 / 3}
        | {float(r.real) for r in roots if abs(r.imag) < 1e-9 and 0 < r.real < 1 / 3}
    )
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        x = 0.5 * (b - a) * _GL_X + 0.5 * (a + b)
        f = P.polyval(x, num) / P.polyval(x, den) - THRESHOLD
        if np.median(f) > 0:
            total += 0.5 * (b - a) * float(np.dot(_GL_W, f))
    return total


def brute_merit(ts, control, outcome, n):
    """K from the brute route.

    An outcome that never fires on a qubit control is replaced by its
    orthogonal complement, which then fires with certainty: the package's
    documented convention for figures of merit.
    """
    if control.dim == 2 and brute_fidelity_or_none(ts, control, outcome, n) is None:
        m = unit(outcome)
        outcome = np.array([-np.conj(m[1]), np.conj(m[0])])
    return gl_merit(*brute_polynomials(ts, control, outcome, n))


def brute_fidelity_or_none(ts, control, outcome, n, p=0.2):
    """brute_fidelity at one noise level, or None when the outcome never fires."""
    try:
        return brute_fidelity(ts, control, outcome, n, p)
    except ts.switch.DegenerateOutcomeError:
        return None


def brute_joint_merit(ts, q):
    """Integral over [0, 1/3] of Tr[(rho o rho_c) J(p)] for the two-path switch.

    J is the pre-measurement joint output; the integrand is a degree-2
    polynomial in p, fitted from four brute samples and integrated exactly.
    """
    control = qubit_control(ts, q)
    joint_in = np.kron(_RHO, control.density())
    ps = np.array([0.03, 0.12, 0.21, 0.30])
    vals = []
    for p in ps:
        channel = ts.channels.isotropic_channel(p)
        joint = ts.switch.switch_two(channel, channel, _RHO, control).matrix
        vals.append(float(np.real(np.trace(joint_in @ joint))))
    poly = P.polyint(P.polyfit(ps, vals, 2))
    return float(P.polyval(1 / 3, poly) - P.polyval(0.0, poly))


def parse_csv(text):
    """(header, rows) of a CSV table written by the CLI."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def p_grid(step):
    """The CLI's p grid over [0, 1/3] for a given step, by its documented rule."""
    grid = np.arange(0.0, 1 / 3 + step / 2, step)
    if grid[-1] < 1 / 3 - 1e-12:
        grid = np.append(grid, 1 / 3)
    return np.minimum(grid, 1 / 3)


def close(a, b, tol):
    return abs(float(a) - float(b)) <= tol
