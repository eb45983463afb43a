"""Deterministic self-checks of every layer, kept as one ordered registry, CHECKS.

A check is a function (rng, size) -> {quantity: deviation} on the inputs
`size` names (a check without a size ignores it). It passes when every
deviation is strictly below its tolerance; a NaN deviation fails. `run_all`
runs every check at its quick size with one seeded rng, so its reports are
byte-identical across runs; the acceptance tests run the same functions at the
full sizes and seeds of the paper's criteria. The expected values are closed
forms and root solves written out here, independent of the merit engine.
"""
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import analysis, channels, linalg, switch

# tolerances; a deviation passes when it is strictly below its tolerance
EXACT = 1e-12   # identities between O(1) results computed two ways
BRUTE = 1e-10   # the brute Kraus route, or a bisection, against a closed form
ROOT = 1e-9     # points located by a quadratic formula or bisection, and curves and
                # merits of the polynomial route at the bound the criteria set them
MERIT = 1e-13   # the merit engine against an exact integral
PAPER = 1e-6    # a merit the paper prints to six decimals
PHASE_PEAK = math.pi / 36  # how far the three-path phase-scan peak may sit from pi/12
FLAG = 0.5      # a condition that must hold, as deviation 0 (holds) or 1 (fails)
ORDER = 0.0     # a strict ordering a < b, as the signed difference a - b


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


def _bisect(above, lo, hi, tol):
    """The point of [lo, hi] where the predicate `above` turns true, to within tol."""
    mid = 0.5 * (lo + hi)
    # a tol below the float spacing at the root stops where lo and hi are adjacent
    while hi - lo > tol and lo < mid < hi:
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return mid


def mu_threshold_bisection(tol=1e-10):
    """Locate the region2 existence boundary by bisection on mu."""
    return _bisect(lambda mu: analysis.advantage_regions(mu).region2_exists, 0.0, 0.5, tol)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    deviations: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)


# a registry entry: the check function, its tolerance per quantity and its quick size
Check = namedtuple("Check", "name run tolerances quick")

# every check in report order, appended by _check as this module is imported
CHECKS = []


def _check(tolerances, quick=None):
    def register(run):
        CHECKS.append(Check(run.__name__, run, tolerances, quick))
        return run
    return register


def _haar_density(rng):
    v = switch.haar_random_state(2, rng)
    return np.outer(v, v.conj())


def _max_dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _post_selected_plus(p, q, rho):
    ch = channels.isotropic_channel(p)
    return switch.post_select(switch.switch_two(ch, ch, rho, switch.control_qubit(q)), [1, 1])


def _two_path_outcome(joint, p, q, rho):
    """Largest elementwise gap between the projected joint and closed_form_two, both signs."""
    return max(
        _max_dev(switch.project_outcome(joint, outcome), switch.closed_form_two(p, q, sign, rho))
        for sign, outcome in (("+", [1, 1]), ("-", [1, -1]))
    )


@_check({"max_dev": EXACT})
def kron_mixed_product(rng, _size):
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
    lhs = linalg.tensor_product(a, b) @ linalg.tensor_product(c, d)
    return {"max_dev": _max_dev(lhs, linalg.tensor_product(a @ c, b @ d))}


@_check({"max_dev": EXACT})
def partial_trace_factor(rng, _size):
    rho_a, rho_b = _haar_density(rng), _haar_density(rng)
    kept = linalg.partial_trace(linalg.tensor_product(rho_a, rho_b), 2, 2, "A")
    return {"max_dev": _max_dev(kept, rho_a)}


@_check({"max_dev": EXACT})
def kraus_completeness(_rng, _size):
    ch = channels.isotropic_channel(0.21)
    return {"max_dev": _max_dev(sum(k.conj().T @ k for k in ch.kraus), np.eye(2))}


@_check({"max_dev": EXACT})
def bell_basis_orthonormality(_rng, _size):
    basis = channels.bell_basis()
    gram = np.array([[bi.conj() @ bj for bj in basis] for bi in basis])
    return {"max_dev": _max_dev(gram, np.eye(4))}


@_check({"max_dev": EXACT})
def werner_resource_weights(_rng, _size):
    return {"max_dev": max(
        _max_dev(channels.weights_from_resource(channels.werner_state(x)).as_array(),
                 channels.isotropic_weights((1 - x) / 4).as_array()) for x in (1.0, 0.7, 0.4))}


@_check({"max_dev": EXACT}, quick=((0.0, 0.1, 1 / 3), (1, 2, 3)))
def no_switch_formula_matches_composition(rng, size):
    """size: (ps, ns); n channels composed on one Haar input against no_switch_fidelity(p, n)."""
    ps, ns = size
    pure = _haar_density(rng)
    dev = 0.0
    for p in ps:
        out = pure
        for n in range(1, max(ns) + 1):
            out = channels.apply_channel(channels.isotropic_channel(p), out)
            if n in ns:
                dev = max(dev, abs(channels.qubit_fidelity(pure, out)
                                   - channels.no_switch_fidelity(p, n)))
    return {"max_dev": dev}


@_check({"max_dev": BRUTE})
def thresholds_match_root_solve(_rng, _size):
    dev = 0.0
    for n in (1, 2, 3):
        t = channels.no_switch_threshold(n)
        root = _bisect(lambda p: channels.no_switch_fidelity(p, n) <= 2 / 3, 0.0, 1 / 3, 1e-15)
        dev = max(dev, abs(t - root), abs(channels.no_switch_fidelity(t, n) - 2 / 3))
    return {"max_dev": dev}


@_check({"max_dev": BRUTE}, quick=(1, (0.05, 0.2, 1 / 3), (0.3, 0.5, 0.9)))
def closed_form_matches_brute_force(rng, size):
    """size: (inputs, ps, qs); closed_form_two against switch_two, one stacked call per (p, q)."""
    inputs, ps, qs = size
    rhos = np.array([_haar_density(rng) for _ in range(inputs)])
    dev = 0.0
    for p in ps:
        ch = channels.isotropic_channel(p)
        for q in qs:
            joint = switch.switch_two(ch, ch, rhos, switch.control_qubit(q))
            dev = max(dev, _two_path_outcome(joint, p, q, rhos))
    return {"max_dev": dev}


@_check({"max_dev": BRUTE}, quick=((0.25,), (0.7,)))
def switched_fidelity_matches_pipeline(rng, size):
    """size: (ps, qs); the paper's closed-form F of outcome + against the brute pipeline."""
    rho = _haar_density(rng)
    return {"max_dev": max(
        abs(channels.qubit_fidelity(rho, _post_selected_plus(p, q, rho).state)
            - analysis.switched_fidelity(analysis.SwitchParams(p, q)))
        for p in size[0] for q in size[1])}


@_check({"F_dev": BRUTE, "prob_dev": BRUTE})
def lossless_point(rng, _size):
    pure = _haar_density(rng)
    sel = _post_selected_plus(1 / 3, 0.5, pure)
    return {"F_dev": abs(channels.qubit_fidelity(pure, sel.state) - 1),
            "prob_dev": abs(sel.probability - 1 / 3)}


@_check({"prob_sum_dev": EXACT, "state_dev": BRUTE}, quick=(0.17, 0.42))
def outcome_completeness(rng, size):
    """size: (p, q); the computational, Hadamard and one random control basis."""
    p, q = size
    rho = _haar_density(rng)
    random_basis, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ch = channels.isotropic_channel(p)
    joint = switch.switch_two(ch, ch, rho, switch.control_qubit(q))
    prob_dev = state_dev = 0.0
    for basis in (np.eye(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2), random_basis):
        subs = [switch.project_outcome(joint, col) for col in basis.T]
        prob_dev = max(prob_dev, abs(sum(float(np.real(np.trace(s))) for s in subs) - 1.0))
        state_dev = max(state_dev, _max_dev(sum(subs), joint.system_marginal()))
    return {"prob_sum_dev": prob_dev, "state_dev": state_dev}


@_check({"spread": BRUTE}, quick=50)
def input_independence_haar(rng, size):
    """size: the number of Haar inputs at p = 0.2, q = 0.37, outcome +, switched as one stack."""
    rhos = np.array([_haar_density(rng) for _ in range(size)])
    states = _post_selected_plus(0.2, 0.37, rhos).state
    fids = channels.qubit_fidelity(rhos, states)
    return {"spread": fids.max() - fids.min()}


@_check({"edge_dev": ROOT, "threshold_dev": ROOT, "region2_iff_mu_above_1/6": FLAG,
         "region2_step_down": ORDER}, quick=((0.3, 0.5), 10))
def advantage_region_boundaries(_rng, size):
    """size: (mus, points); F = 2/3 at the edges, and F rising over region2 at mu = 1/2."""
    mus, points = size
    edge_dev = 0.0
    for mu in mus:
        q = 0.5 * (1 + math.sqrt(1 - 4 * mu * mu))
        regions = analysis.advantage_regions(mu)
        for edge in (regions.p_lo, regions.p_hi):
            if 0.0 <= edge <= 1 / 3:
                f = analysis.switched_fidelity(analysis.SwitchParams(edge, q))
                edge_dev = max(edge_dev, abs(f - 2 / 3))
    exists_iff = (not analysis.advantage_regions(1 / 6).region2_exists
                  and analysis.advantage_regions(1 / 6 + 1e-6).region2_exists)
    ps = np.linspace(analysis.advantage_regions(0.5).p_hi, 1 / 3, points)
    fs = [analysis.switched_fidelity(analysis.SwitchParams(p, 0.5)) for p in ps]
    return {"edge_dev": edge_dev,
            "threshold_dev": abs(mu_threshold_bisection() - 1 / 6),
            "region2_iff_mu_above_1/6": float(not exists_iff),
            "region2_step_down": float(np.max(-np.diff(fs)))}


@_check({"max_dev": MERIT, "K2_vs_paper": PAPER})
def merit_reference_values(_rng, _size):
    merits = {n: analysis.no_switch_merit(n) for n in (1, 2, 3)}
    return {"max_dev": max(abs(k - no_switch_merit_exact(n)) for n, k in merits.items()),
            "K2_vs_paper": abs(merits[2] - 0.016038)}


@_check({"K_plus_dev": MERIT, "argmax_is_(1,0)": FLAG}, quick=((0.0, 1.0, 2.0), (0.0, math.pi / 8)))
def merit_exact_reference(_rng, size):
    """size: (lambdas, phis) of the q = 1/2 search grid, whose argmax must be (1, 0)."""
    control = switch.control_qubit(0.5)
    argmax, _ = analysis.optimize_outcome(control, analysis.OutcomeFamily2, *size)
    k_plus = analysis.figure_of_merit([1, 1], control)
    return {"K_plus_dev": abs(k_plus - merit_plus_balanced_exact()),
            "argmax_is_(1,0)": float(argmax != (1.0, 0.0))}


@_check({"max_dev": EXACT})
def n2_reduction_of_switch_n(rng, _size):
    rho = _haar_density(rng)
    joint = switch.switch_n(channels.isotropic_channel(0.17), 2, rho, switch.control_qubit(0.42))
    return {"max_dev": _two_path_outcome(joint, 0.17, 0.42, rho)}


@_check({"max_dev": BRUTE}, quick=((3, (0.22,)), (4, (0.2,))))
def polynomial_matches_brute_force(rng, size):
    """size: ((n, ps), ...); fidelity_profile against switch_n for one Haar outcome per n."""
    dev = 0.0
    for n, ps in size:
        ctrl = switch.uniform_control(n)
        outcome = switch.haar_random_state(math.factorial(n), rng)
        rho = _haar_density(rng)
        for p, f in zip(ps, analysis.fidelity_profile(ctrl, outcome, ps)):
            sel = switch.post_select(switch.switch_n(channels.isotropic_channel(p), n, rho, ctrl),
                                     outcome)
            dev = max(dev, abs(f - channels.qubit_fidelity(rho, sel.state)))
    return {"max_dev": dev}


@_check({"linearity_dev": ROOT, "F(1/3)_dev": ROOT, "F(0)_is_flagged_1": FLAG,
         "prob_dev": BRUTE, "K_dev": MERIT})
def three_path_alternating_outcome(_rng, _size):
    alt = analysis.AlphaOutcome(-1, -1, -1)
    ps = np.array([0.0, 0.05, 0.1, 0.25, 1 / 3])
    (fs,), (zero,) = analysis.alpha_fidelity_profile([alt], ps)
    ctrl = switch.uniform_control(3)
    _, den = analysis.fidelity_polynomials(ctrl, alt.vector())
    return {"linearity_dev": float(np.max(np.abs(fs - (1 / 3 + 2 * ps))[~zero])),
            "F(1/3)_dev": abs(fs[-1] - 1.0),
            "F(0)_is_flagged_1": float(not (zero[0] and fs[0] == 1.0)),
            "prob_dev": abs(np.polynomial.polynomial.polyval(1 / 3, den) - 2 / 9),
            "K_dev": abs(analysis.figure_of_merit(alt.vector(), ctrl) - 1 / 36)}


@_check({"peak_offset": PHASE_PEAK, "K(1,0)_dev": MERIT, "family_min_below_floor": ROOT},
        quick=((0.5, 2.0), (0.0, math.pi / 2)))
def three_path_phase_peak(_rng, size):
    """size: (lambdas, phis) of a family sample whose least K must reach the paper's 0.011252."""
    phis = np.arange(0.0, math.pi / 6 + 1e-12, math.pi / 720)
    family = analysis.OutcomeFamily3.grid
    ks = analysis.merit_grid(switch.uniform_control(3),
                             np.concatenate([family([1.0], phis), family(*size)]))
    peak = float(phis[int(np.argmax(ks[:len(phis)]))])
    return {"peak_offset": abs(peak - math.pi / 12),
            "K(1,0)_dev": abs(ks[0] - 1 / 36),
            "family_min_below_floor": 0.011252 - float(np.min(ks[len(phis):]))}


@_check({"max_dev": MERIT, "q=1_outcome_spread": ROOT, "K(|0>)_minus_K(+)": ORDER,
         "K_total(1/2)_minus_K_total(1)": ORDER})
def joint_fidelity_integrals(_rng, _size):
    k_half, k_one = (analysis.k_total(switch.control_qubit(q)) for q in (0.5, 1.0))
    # outcomes +, -, |0> and |1>; merit_grid normalizes each row
    outcomes = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    at_one = analysis.merit_grid(switch.control_qubit(1.0), outcomes)
    plus, zero = analysis.merit_grid(switch.control_qubit(0.5), outcomes[[0, 2]])
    return {"max_dev": max(abs(k_half - 5 / 27), abs(k_one - 17 / 81)),
            "q=1_outcome_spread": float(np.ptp(at_one)),
            "K(|0>)_minus_K(+)": zero - plus,
            "K_total(1/2)_minus_K_total(1)": k_half - k_one}


def run_check(check, rng, size):
    """Run one check at `size`; raises if its quantities are not its tolerance keys."""
    deviations = check.run(rng, size)
    if deviations.keys() != check.tolerances.keys():
        raise ValueError(f"check {check.name} returned {sorted(deviations)}, "
                         f"expected {sorted(check.tolerances)}")
    deviations = {k: float(deviations[k]) for k in check.tolerances}
    passed = all(deviations[k] < tol for k, tol in check.tolerances.items())
    detail = ", ".join(f"{k} {v:.3e}" for k, v in deviations.items())
    return CheckResult(check.name, passed, detail, deviations, dict(check.tolerances))


def run_all(seed=42):
    """Run every check at its quick size; returns a list of CheckResult in CHECKS order."""
    rng = np.random.default_rng(seed)
    return [run_check(check, rng, check.quick) for check in CHECKS]


def report_lines(results):
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.detail}" if r.detail else f"[{status}] {r.name}")
    return lines
