"""Deterministic self-checks spanning the linear algebra, channel, switch, and
analysis layers.

Every check is seeded, so repeated runs produce byte-identical reports. The
expected values are closed forms: analytic integrals and root solves written
out here, independent of the polynomial merit engine.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import analysis, channels, linalg, switch


def no_switch_merit_exact(n):
    """Integral of (1 - 4p)^n / 2 - 1/6 from 0 to u = (1 - 3^(-1/n)) / 4."""
    u = (1 - 3 ** (-1 / n)) / 4
    return (1 - 3 ** (-(n + 1) / n)) / (8 * (n + 1)) - u / 6


def merit_plus_balanced_exact():
    """K of outcome + at q = 1/2 from the antiderivative of the paper's closed form.

    There F - 2/3 = -5/3 + (2 - 4p)/(1 - 6p^2), positive on [0, p_lo) and
    (p_hi, 1/3] with p_lo, p_hi = (6 -+ sqrt 6)/30.
    """
    def antiderivative(p):
        return (-5 * p / 3 + 2 / math.sqrt(6) * math.atanh(math.sqrt(6) * p)
                + math.log(1 - 6 * p * p) / 3)

    p_lo, p_hi = (6 - math.sqrt(6)) / 30, (6 + math.sqrt(6)) / 30
    return antiderivative(p_lo) + antiderivative(1 / 3) - antiderivative(p_hi)


def mu_threshold_bisection(tol=1e-10):
    """Locate the region2 existence boundary by bisection on mu."""
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if analysis.advantage_regions(mid).region2_exists:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _haar_qubit_density(rng):
    v = switch.haar_random_state(2, rng)
    return np.outer(v, v.conj())


def run_all(seed=42):
    """Run every check; returns a list of CheckResult in a fixed order."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, passed, detail=""):
        results.append(CheckResult(name, bool(passed), detail))

    # --- linear algebra -----------------------------------------------------
    a, b, c, d = (
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)
    )
    lhs = linalg.tensor_product(a, b) @ linalg.tensor_product(c, d)
    rhs = linalg.tensor_product(a @ c, b @ d)
    err = np.max(np.abs(lhs - rhs))
    check("kron_mixed_product", err < 1e-12, f"max dev {err:.3e}")

    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    vals, vecs = linalg.hermitian_eigensystem(h)
    err = np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h))
    ordered = np.all(np.diff(vals) >= -1e-12)
    check(
        "eigensystem_reconstruction",
        err < 1e-10 and ordered,
        f"max dev {err:.3e}, ascending {ordered}",
    )

    rho_a = _haar_qubit_density(rng)
    rho_b = _haar_qubit_density(rng)
    kept = linalg.partial_trace(linalg.tensor_product(rho_a, rho_b), 2, 2, "A")
    err = np.max(np.abs(kept - rho_a))
    check("partial_trace_factor", err < 1e-12, f"max dev {err:.3e}")

    # --- channels ------------------------------------------------------------
    ch = channels.isotropic_channel(0.21)
    comp = sum(k.conj().T @ k for k in ch.kraus)
    err = np.max(np.abs(comp - np.eye(2)))
    check("kraus_completeness", err < 1e-12, f"max dev {err:.3e}")

    basis = channels.bell_basis()
    gram = np.array([[bi.conj() @ bj for bj in basis] for bi in basis])
    err = np.max(np.abs(gram - np.eye(4)))
    check("bell_basis_orthonormality", err < 1e-12, f"max dev {err:.3e}")

    err = 0.0
    for x in (1.0, 0.7, 0.4):
        got = channels.weights_from_resource(channels.werner_state(x)).as_array()
        want = channels.isotropic_weights((1 - x) / 4).as_array()
        err = max(err, float(np.max(np.abs(got - want))))
    check("werner_resource_weights", err < 1e-12, f"max dev {err:.3e}")

    err = 0.0
    psi = switch.haar_random_state(2, rng)
    pure = np.outer(psi, psi.conj())
    for n in (1, 2, 3):
        for p in (0.0, 0.1, 1 / 3):
            out = pure
            for _ in range(n):
                out = channels.apply_channel(channels.isotropic_channel(p), out)
            err = max(
                err,
                abs(
                    channels.qubit_fidelity(pure, out)
                    - channels.no_switch_fidelity(p, n)
                ),
            )
    check("no_switch_formula_matches_composition", err < 1e-12, f"max dev {err:.3e}")

    err = 0.0
    for n in (1, 2, 3):
        t = channels.no_switch_threshold(n)
        lo, hi = 0.0, 1 / 3
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if channels.no_switch_fidelity(mid, n) > 2 / 3:
                lo = mid
            else:
                hi = mid
        err = max(err, abs(t - 0.5 * (lo + hi)))
        err = max(err, abs(channels.no_switch_fidelity(t, n) - 2 / 3))
    check("thresholds_match_root_solve", err < 1e-10, f"max dev {err:.3e}")

    # --- two-path switch -----------------------------------------------------
    err = 0.0
    rho = _haar_qubit_density(rng)
    for p in (0.05, 0.2, 1 / 3):
        for q in (0.3, 0.5, 0.9):
            ch = channels.isotropic_channel(p)
            joint = switch.switch_two(ch, ch, rho, switch.control_qubit(q))
            for sign, outcome in (("+", [1, 1]), ("-", [1, -1])):
                brute = switch.project_outcome(joint, outcome)
                closed = switch.closed_form_two(p, q, sign, rho)
                err = max(err, float(np.max(np.abs(brute - closed))))
    check("closed_form_matches_brute_force", err < 1e-10, f"max dev {err:.3e}")

    ch = channels.isotropic_channel(1 / 3)
    joint = switch.switch_two(ch, ch, pure, switch.control_qubit(0.5))
    sel = switch.post_select(joint, [1, 1])
    fid = channels.qubit_fidelity(pure, sel.state)
    check(
        "lossless_point",
        abs(fid - 1) < 1e-10 and abs(sel.probability - 1 / 3) < 1e-10,
        f"F={fid:.12f}, prob={sel.probability:.12f}",
    )

    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    basis_u, _ = np.linalg.qr(g)
    joint = switch.switch_two(
        channels.isotropic_channel(0.17),
        channels.isotropic_channel(0.17),
        rho,
        switch.control_qubit(0.42),
    )
    probs, acc = [], np.zeros((2, 2), dtype=complex)
    for col in basis_u.T:
        sub = switch.project_outcome(joint, col)
        probs.append(float(np.real(np.trace(sub))))
        acc += sub
    perr = abs(sum(probs) - 1.0)
    serr = float(np.max(np.abs(acc - joint.system_marginal())))
    check(
        "outcome_completeness",
        perr < 1e-12 and serr < 1e-10,
        f"prob sum dev {perr:.3e}, state dev {serr:.3e}",
    )

    fids = []
    ch = channels.isotropic_channel(0.2)
    joint_control = switch.control_qubit(0.37)
    for _ in range(50):
        v = switch.haar_random_state(2, rng)
        rho_in = np.outer(v, v.conj())
        sel = switch.post_select(switch.switch_two(ch, ch, rho_in, joint_control), [1, 1])
        fids.append(channels.qubit_fidelity(rho_in, sel.state))
    spread = max(fids) - min(fids)
    check("input_independence_haar", spread < 1e-10, f"spread {spread:.3e}")

    # --- advantage analysis ----------------------------------------------------
    err = 0.0
    for mu in (0.3, 0.5):
        q = 0.5 * (1 + math.sqrt(1 - 4 * mu * mu))
        regions = analysis.advantage_regions(mu)
        for edge in (regions.p_lo, regions.p_hi):
            f = analysis.switched_fidelity(analysis.SwitchParams(edge, q))
            err = max(err, abs(f - 2 / 3))
    dev = abs(mu_threshold_bisection() - 1 / 6)
    check(
        "advantage_region_boundaries",
        err < 1e-9 and dev < 1e-9,
        f"max |F-2/3| {err:.3e}, threshold dev {dev:.3e}",
    )

    err = max(abs(analysis.no_switch_merit(n) - no_switch_merit_exact(n)) for n in (1, 2, 3))
    check("merit_reference_values", err < 1e-13, f"max dev {err:.3e}")

    k_plus = analysis.figure_of_merit([1, 1], switch.control_qubit(0.5))
    err = abs(k_plus - merit_plus_balanced_exact())
    check("merit_exact_reference", err < 1e-13, f"|dK| {err:.3e}")

    # --- multi-path ----------------------------------------------------------
    rho = _haar_qubit_density(rng)
    jn = switch.switch_n(channels.isotropic_channel(0.17), 2, rho, switch.control_qubit(0.42))
    err = max(
        float(np.max(np.abs(switch.project_outcome(jn, outcome)
                            - switch.closed_form_two(0.17, 0.42, sign, rho))))
        for sign, outcome in (("+", [1, 1]), ("-", [1, -1]))
    )
    check("n2_reduction_of_switch_n", err < 1e-12, f"max dev {err:.3e}")

    alt = analysis.AlphaOutcome(-1, -1, -1)
    prof = analysis.alpha_fidelity_profile(alt, [0.0, 0.05, 0.1, 0.25, 1 / 3])
    err = max(
        abs(pt.fidelity - (1 / 3 + 2 * pt.p)) for pt in prof if not pt.degenerate
    )
    lossless = abs(prof[-1].fidelity - 1.0)
    at_zero = prof[0].degenerate and abs(prof[0].fidelity - 1.0) < 1e-12
    num, den = analysis.fidelity_polynomials(switch.uniform_control(3), alt.vector(), 3)
    prob_err = abs(np.polynomial.polynomial.polyval(1 / 3, den) - 2 / 9)
    k_err = abs(analysis.figure_of_merit(alt.vector(), switch.uniform_control(3)) - 1 / 36)
    check(
        "three_path_alternating_outcome",
        err < 1e-9 and lossless < 1e-9 and at_zero and prob_err < 1e-10 and k_err < 1e-13,
        f"linearity dev {err:.3e}, F(1/3) dev {lossless:.3e}, prob dev {prob_err:.3e}",
    )

    phis = np.arange(0.0, math.pi / 6 + 1e-12, math.pi / 720)
    ks = analysis.merit_grid(
        switch.uniform_control(3), analysis.OutcomeFamily3.grid([1.0], phis)
    )
    peak = float(phis[int(np.argmax(ks))])
    base_err = abs(ks[0] - 1 / 36)
    check(
        "three_path_phase_peak",
        abs(peak - math.pi / 12) < math.pi / 36 and base_err < 1e-13,
        f"peak phi {peak:.6f}, K(1,0) dev {base_err:.3e}",
    )

    k_half = analysis.k_total(switch.control_qubit(0.5))
    k_one = analysis.k_total(switch.control_qubit(1.0))
    err = max(abs(k_half - 5 / 27), abs(k_one - 17 / 81))
    check("joint_fidelity_integrals", err < 1e-13, f"max dev {err:.3e}")

    return results


def report_lines(results):
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.detail}" if r.detail else f"[{status}] {r.name}")
    return lines
