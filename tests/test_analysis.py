import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from teleswitch import analysis, channels, linalg, switch, verification
from teleswitch.linalg import normalize_state

POLYVAL = np.polynomial.polynomial.polyval


def test_switch_params_validate():
    params = analysis.SwitchParams(0.2, 0.5)
    assert params.mu == pytest.approx(0.5)
    with pytest.raises(ValueError):
        analysis.SwitchParams(0.4, 0.5)
    with pytest.raises(ValueError):
        analysis.SwitchParams(0.2, -0.1)


def test_switched_fidelity_spot_values():
    # balanced control: F(1/4) = 3/5 and F(1/3) = 1 exactly
    assert analysis.switched_fidelity(analysis.SwitchParams(0.25, 0.5)) == pytest.approx(0.6)
    assert analysis.switched_fidelity(analysis.SwitchParams(1 / 3, 0.5)) == pytest.approx(1.0)
    # definite order reduces to the two-channel baseline
    for p in (0.0, 0.1, 0.3):
        assert analysis.switched_fidelity(analysis.SwitchParams(p, 1.0)) == pytest.approx(
            channels.no_switch_fidelity(p, 2), abs=1e-12
        )


def test_switched_fidelity_matches_polynomial_ratio():
    for q in (0.0, 0.3, 0.5, 0.85, 1.0):
        num, den = analysis.fidelity_polynomials(switch.control_qubit(q), [1, 1])
        for p in (0.0, 0.12, 0.29, 1 / 3):
            got = analysis.evaluate_fidelity(num, den, p)[0]
            want = analysis.switched_fidelity(analysis.SwitchParams(p, q))
            assert got == pytest.approx(want, abs=1e-12)


def test_advantage_regions_boundaries_sit_on_threshold():
    for mu in (0.0, 0.2, 1 / 3, 0.5):
        regions = analysis.advantage_regions(mu)
        q = 0.5 * (1 + math.sqrt(1 - 4 * mu * mu))
        f_lo = analysis.switched_fidelity(analysis.SwitchParams(regions.p_lo, q))
        assert f_lo == pytest.approx(2 / 3, abs=1e-12)
        if regions.p_hi <= 1 / 3:
            f_hi = analysis.switched_fidelity(analysis.SwitchParams(regions.p_hi, q))
            assert f_hi == pytest.approx(2 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        analysis.advantage_regions(0.6)


def test_advantage_region_values_at_maximal_superposition():
    regions = analysis.advantage_regions(0.5)
    assert regions.p_lo == pytest.approx((6 - math.sqrt(6)) / 30, abs=1e-12)
    assert regions.p_hi == pytest.approx((6 + math.sqrt(6)) / 30, abs=1e-12)
    assert regions.region2_exists
    assert regions.region1[0] == 0.0
    lo, hi = regions.region2
    assert hi == pytest.approx(1 / 3)


def test_region2_existence_threshold():
    assert not analysis.advantage_regions(1 / 6).region2_exists
    assert not analysis.advantage_regions(1 / 6 - 1e-6).region2_exists
    assert not analysis.advantage_regions(0.1).region2_exists
    assert analysis.advantage_regions(1 / 6 + 1e-6).region2_exists
    assert abs(verification.mu_threshold_bisection() - 1 / 6) < 1e-9


def test_fidelity_strictly_increasing_in_region2():
    regions = analysis.advantage_regions(0.5)
    ps = np.linspace(regions.p_hi, 1 / 3, 100)
    fs = [analysis.switched_fidelity(analysis.SwitchParams(p, 0.5)) for p in ps]
    assert np.all(np.diff(fs) > 0)


def test_l1_coherence_of_control_states():
    assert analysis.l1_coherence([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert analysis.l1_coherence([1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    for q in (0.5, 0.7, 0.9):
        c = switch.control_qubit(q)
        assert analysis.l1_coherence(c.amplitudes) == pytest.approx(2 * c.mu, abs=1e-12)


def test_outcome_family_vectors():
    plus = analysis.OutcomeFamily2(1.0, 0.0).vector()
    assert np.allclose(plus, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    rot = analysis.OutcomeFamily2(1.0, math.pi).vector()
    assert np.allclose(rot, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    with pytest.raises(ValueError):
        analysis.OutcomeFamily2(-0.5, 0.0).vector()
    alt = analysis.OutcomeFamily3(1.0, 0.0).vector()
    assert np.allclose(alt, np.array([1, -1, -1, 1, 1, -1]) / math.sqrt(6))
    assert analysis.AlphaOutcome(-1, -1, 0).label() == "(-1,-1,0)"
    assert np.allclose(
        analysis.AlphaOutcome(-1, -1, -1).vector(),
        np.array([1, -1, -1, 1, 1, -1]) / math.sqrt(6),
    )


def test_evaluate_fidelity_uses_lhopital_at_removable_zero():
    # the alternating three-path outcome has probability ~ p^2 near 0 with
    # fidelity limit 1/3
    ctrl = switch.uniform_control(3)
    m = analysis.OutcomeFamily3(1.0, 0.0).vector()
    num, den = analysis.fidelity_polynomials(ctrl, m)
    assert abs(POLYVAL(0.0, den)) < 1e-14
    assert analysis.evaluate_fidelity(num, den, 0.0)[0] == pytest.approx(1 / 3, abs=1e-10)


def test_evaluate_fidelity_keeps_rare_outcomes_off_lhopital():
    # outcome |1> at q = 1 - 1e-12 fires with probability ~1e-12 at every p,
    # and there the switch reduces to plain composition: F = F2
    ps = np.linspace(0.0, 1 / 3, 7)
    control = switch.control_qubit(1 - 1e-12)
    got = analysis.fidelity_profile(control, [0, 1], ps)
    assert np.max(np.abs(got - channels.no_switch_fidelity(ps, 2))) < 1e-12


def test_alternating_outcome_profile_is_linear():
    ctrl = switch.uniform_control(3)
    m = analysis.OutcomeFamily3(1.0, 0.0).vector()
    num, den = analysis.fidelity_polynomials(ctrl, m)
    for p in (0.01, 0.05, 0.1, 0.2, 1 / 3):
        got = analysis.evaluate_fidelity(num, den, p)[0]
        assert got == pytest.approx(1 / 3 + 2 * p, abs=1e-10)
    assert POLYVAL(1 / 3, den) == pytest.approx(2 / 9, abs=1e-12)


def _merit_plus_balanced_exact():
    """K(+, q = 1/2) from the antiderivative of the closed-form switched fidelity.

    At mu = 1/2, F - 2/3 = -5/3 + (2 - 4p)/(1 - 6p^2); integrate it over the
    advantage regions [0, p_lo) and (p_hi, 1/3].
    """
    def antiderivative(p):
        return (-5 * p / 3 + 2 / math.sqrt(6) * math.atanh(math.sqrt(6) * p)
                + math.log(1 - 6 * p * p) / 3)

    regions = analysis.advantage_regions(0.5)
    (a, b), (c, d) = regions.region1, regions.region2
    return antiderivative(b) - antiderivative(a) + antiderivative(d) - antiderivative(c)


def test_figure_of_merit_reference_values():
    assert analysis.no_switch_merit(1) == pytest.approx(1 / 36, abs=1e-13)
    x = (1 - 3 ** -0.5) / 4
    k2 = x / 3 - 2 * x * x + 8 * x**3 / 3
    assert analysis.no_switch_merit(2) == pytest.approx(k2, abs=1e-13)
    assert analysis.no_switch_merit(3) == pytest.approx(0.011250873156791, abs=1e-12)
    k_alt = analysis.figure_of_merit(
        analysis.OutcomeFamily3(1.0, 0.0), switch.uniform_control(3)
    )
    assert k_alt == pytest.approx(1 / 36, abs=1e-13)


def test_figure_of_merit_matches_closed_form_antiderivative():
    exact = _merit_plus_balanced_exact()
    # sympy's closed form evaluated to 19 digits
    assert exact == pytest.approx(0.0239146687632213929, abs=1e-15)
    k_plus = analysis.figure_of_merit([1, 1], switch.control_qubit(0.5))
    assert k_plus == pytest.approx(exact, abs=1e-13)


def test_figure_of_merit_definite_order_equals_no_switch():
    k0 = analysis.figure_of_merit([1.0, 0.0], switch.control_qubit(0.5))
    assert k0 == pytest.approx(analysis.no_switch_merit(2), abs=1e-10)


def test_figure_of_merit_complement_convention_for_silent_outcome():
    # outcome |1> never fires against control |0>; its complement fires with
    # certainty and carries the definite-order curve
    k_silent = analysis.figure_of_merit(np.array([0.0, 1.0]), switch.control_qubit(1.0))
    k_complement = analysis.figure_of_merit(np.array([1.0, 0.0]), switch.control_qubit(1.0))
    assert k_silent == pytest.approx(k_complement, abs=1e-12)


def test_merit_grid_rows_match_single_outcomes():
    # one control against an outcome stack, and per-row controls against one outcome
    controls = [switch.control_qubit(q) for q in (0.0, 0.3, 0.5, 1.0)]
    outcomes = analysis.OutcomeFamily2.grid([0.0, 0.7, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
    ks = analysis.merit_grid(controls[2], outcomes)
    assert ks.tolist() == [analysis.figure_of_merit(m, controls[2]) for m in outcomes]
    ks = analysis.merit_grid(controls, [0.0, 1.0])
    assert ks.tolist() == [analysis.figure_of_merit([0.0, 1.0], c) for c in controls]
    # at q = 1 the outcome |1> never fires and takes the complement's K
    assert ks[-1] == pytest.approx(analysis.no_switch_merit(2), abs=1e-13)
    assert analysis.merit_grid(controls[0], np.empty((0, 2))).shape == (0,)
    with pytest.raises(ValueError):
        analysis.merit_grid(controls[0], [np.nan, 1.0])
    with pytest.raises(ValueError):
        analysis.merit_grid(controls[0], [0.0, 0.0])
    # an empty or mixed-dimension control stack has no path count, and the
    # outcomes must be one vector or a 2-D stack as wide as the controls
    mixed = [controls[0], switch.uniform_control(3)]
    for stack, outcome in (([], [[1.0]]), ([], [1.0, 1.0]), (mixed, [1.0, 1.0]),
                           (controls, [1.0, 0.0, 0.0]), (controls[0], np.ones(6)),
                           (controls[0], [1.0]), (controls[0], np.ones((2, 2, 2)))):
        with pytest.raises(ValueError):
            analysis.merit_grid(stack, outcome)
        with pytest.raises(ValueError):
            analysis.curve_grid(stack, outcome, [0.1])


def test_outcome_family_grid_is_lambda_major():
    lams, phis = [0.0, 0.5, 2.0], [0.0, 1.0]
    stack = analysis.OutcomeFamily3.grid(lams, phis)
    assert stack.shape == (6, 6)
    # grid leaves the rows unnormalized (merit_grid and curve_grid normalize
    # each row once); vector() is the normalized row, bit for bit
    normalized = normalize_state(stack)
    for i, (lam, phi) in enumerate((lam, phi) for lam in lams for phi in phis):
        assert np.array_equal(normalized[i], analysis.OutcomeFamily3(lam, phi).vector())
    with pytest.raises(ValueError):
        analysis.OutcomeFamily2.grid([1.0, -0.5], [0.0])


def test_k_total_closed_forms():
    assert analysis.k_total(switch.control_qubit(0.5)) == pytest.approx(5 / 27, abs=1e-13)
    assert analysis.k_total(switch.control_qubit(1.0)) == pytest.approx(17 / 81, abs=1e-13)
    with pytest.raises(ValueError):
        analysis.k_total(switch.uniform_control(3))


def test_k_total_is_outcome_independent_by_construction():
    # the joint is taken before the control measurement: k_total takes no
    # outcome, and a relative control phase (a relabelled outcome basis)
    # leaves it unchanged
    c = switch.control_qubit(0.7)
    phased = switch.ControlState(c.amplitudes * np.array([1, 1j]))
    assert list(inspect.signature(analysis.k_total).parameters) == ["control"]
    assert analysis.k_total(phased) == pytest.approx(analysis.k_total(c), abs=1e-15)


def test_k_total_matches_brute_force_quadrature():
    # joint fidelity between rho o rho_c and the pre-measurement output,
    # integrated on a coarse Simpson grid
    rng = np.random.default_rng(23)
    v = switch.haar_random_state(2, rng)
    rho = np.outer(v, v.conj())
    control = switch.control_qubit(0.73)
    joint_in = np.kron(rho, control.density())
    ps = np.linspace(0.0, 1 / 3, 201)
    vals = []
    for p in ps:
        ch = channels.isotropic_channel(p)
        out = switch.switch_two(ch, ch, rho, control)
        vals.append(float(np.real(np.trace(joint_in @ out.matrix))))
    h = ps[1] - ps[0]
    brute = h / 3 * (vals[0] + vals[-1] + 4 * sum(vals[1:-1:2]) + 2 * sum(vals[2:-1:2]))
    assert analysis.k_total(control) == pytest.approx(brute, abs=1e-8)


def test_control_stacks_as_arrays_match_their_control_states():
    # raw (sqrt(q), sqrt(1 - q)) rows are normalized as ControlState normalizes them
    qs = np.linspace(0.0, 1.0, 17)
    raw = np.sqrt(np.stack([qs, 1 - qs], axis=1)).astype(complex)
    controls = [switch.ControlState(row) for row in raw]
    outcomes = np.random.default_rng(26).standard_normal((len(qs), 2))
    assert np.array_equal(analysis.merit_grid(raw, outcomes), analysis.merit_grid(controls, outcomes))
    totals = analysis.k_total_grid(raw)
    assert np.array_equal(totals, analysis.k_total_grid(controls))
    assert totals.tolist() == [analysis.k_total(c) for c in controls]
    coherence = analysis.l1_coherence(raw)
    assert coherence.tolist() == [analysis.l1_coherence(row) for row in raw]
    for bad in (np.ones((3, 3)), np.ones(2)):
        with pytest.raises(ValueError):
            analysis.merit_grid(bad, [1.0, 0.0])
    with pytest.raises(ValueError):
        analysis.k_total_grid(np.ones((2, 6)))


def test_optimize_outcome_picks_plus_and_breaks_ties_deterministically():
    control = switch.control_qubit(0.5)
    lambdas = [0.0, 0.5, 1.0, 1.5, 2.0]
    phis = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    (lam, phi), k = analysis.optimize_outcome(
        control, analysis.OutcomeFamily2, lambdas, phis
    )
    assert (lam, phi) == (1.0, 0.0)
    assert k == pytest.approx(0.023914668763221, abs=1e-9)


def test_alpha_fidelity_profile_flags_degenerate_points():
    (fs,), (zero,) = analysis.alpha_fidelity_profile(
        [analysis.AlphaOutcome(-1, -1, -1)], [0.0, 0.1, 1 / 3]
    )
    assert zero[0] and fs[0] == pytest.approx(1.0)
    assert not zero[1]
    assert fs[1] == pytest.approx(1 / 3 + 0.2, abs=1e-10)
    assert fs[2] == pytest.approx(1.0, abs=1e-10)
    (smooth,), (smooth_zero,) = analysis.alpha_fidelity_profile(
        [analysis.AlphaOutcome(1, 1, 1)], [0.0, 0.1]
    )
    assert not smooth_zero.any()
    assert smooth[0] == pytest.approx(1.0, abs=1e-12)
    # a stack of both: only the alternating row is flagged, only at p = 0
    alphas = [analysis.AlphaOutcome(-1, -1, -1), (1, 1, 1)]
    ps = np.linspace(0.0, 1 / 3, 7)
    stack, stack_zero = analysis.alpha_fidelity_profile(alphas, ps)
    assert np.array_equal(np.argwhere(stack_zero), [[0, 0]])
    assert stack[0, 0] == 1.0
    for i, alpha in enumerate(alphas):
        one, one_zero = analysis.alpha_fidelity_profile([alpha], ps)
        assert np.array_equal(one[0], stack[i]) and np.array_equal(one_zero[0], stack_zero[i])


def test_curve_grid_fills_zero_over_zero_points_with_the_limit():
    # outcome minus at q = 1/2: num = 2p^2 and den = 6p^2, so F is 1/3 and p = 0 is 0/0
    ps = np.array([0.0, 0.1, 1 / 3])
    fs, zero = analysis.curve_grid(switch.control_qubit(0.5), [1, -1], ps)
    assert zero.tolist() == [[True, False, False]]
    assert np.allclose(fs, 1 / 3, rtol=0.0, atol=1e-12)


def test_curve_grid_blocks_the_p_axis_bit_for_bit(monkeypatch):
    # p runs downward, so the 0/0 point of minus at q = 1/2 (p = 0) sits in the last block
    ps = np.linspace(1 / 3, 0.0, 2 * analysis._BLOCK_POINTS + 3)
    controls = [switch.control_qubit(q) for q in (0.5, 0.3)]
    fs, zero = analysis.curve_grid(controls, [1, -1], ps)
    assert list(zip(*np.nonzero(zero))) == [(0, len(ps) - 1)]
    assert fs[0, -1] == pytest.approx(1 / 3, abs=1e-12)
    monkeypatch.setattr(analysis, "_BLOCK_POINTS", len(ps))
    whole_fs, whole_zero = analysis.curve_grid(controls, [1, -1], ps)
    assert np.array_equal(fs, whole_fs) and np.array_equal(zero, whole_zero)


def test_alternating_outcome_is_flagged_at_p_zero_only():
    # den = 2 p^2 and num = (1/3 + 2p) den: p = 0 is the one 0/0 point however
    # close to it p comes, with the limit 1/3 for the curve and F3 = 1 for three-path
    ps = np.array([0.0, 1e-9, 1e-6, 3e-6])
    alternating = analysis.AlphaOutcome(-1, -1, -1)
    curve, curve_zero = analysis.curve_grid(switch.uniform_control(3), alternating.vector(), ps)
    profile, profile_zero = analysis.alpha_fidelity_profile([alternating], ps)
    for fs, zero, at_zero in ((curve, curve_zero, 1 / 3), (profile, profile_zero, 1.0)):
        assert zero.tolist() == [[True, False, False, False]]
        assert fs[0, 0] == pytest.approx(at_zero, abs=1e-15)
        assert np.allclose(fs[0, 1:], 1 / 3 + 2 * ps[1:], rtol=0.0, atol=1e-15)


def test_near_alternating_outcomes_are_noiseless_at_p_zero():
    # (-1, -1, -1 + eps) fires at p = 0 with probability eps^2 / 36 > 0, where the
    # channels are noiseless: F(0) = 1 is a plain ratio, not a 0/0 point
    outcomes = [analysis.AlphaOutcome(-1, -1, -1 + eps) for eps in np.logspace(-9, -5, 5)]
    fs, zero = analysis.curve_grid(switch.uniform_control(3), [a.vector() for a in outcomes], [0.0])
    assert np.array_equal(fs, np.ones((5, 1))) and not zero.any()
    fs, zero = analysis.alpha_fidelity_profile(outcomes, [0.0])
    assert np.array_equal(fs, np.ones((5, 1))) and not zero.any()


def test_curves_lie_in_their_bounds_and_flag_only_the_ends():
    # in the Pauli basis F is a weighted mean of ratios N_z/D_z in [1/3, 1], and den
    # vanishes only at p = 0 (D_n = 0) or p = 1/3 (D_0 = 0); the last two rows are
    # exact 0/0 cases: minus at q = 1/2 at p = 0, and an outcome with both ends 0/0
    rng = np.random.default_rng(2805)
    ps = np.linspace(0.0, 1 / 3, 101)
    for n in (2, 3, 4):
        controls, outcomes = _random_reference_rows(n, rng, rows=100)
        fs, zero = analysis.curve_grid(controls, outcomes, ps)
        assert 1 / 3 <= fs.min() and fs.max() <= 1.0 and not zero.any()
    for control, outcome, ends in ((switch.control_qubit(0.5), [1, -1], [True, False]),
                                   (switch.uniform_control(3), [-1, -1, 0, 1, 0, 1], [True, True])):
        num, den = switch.post_selected_weight_stack(control.amplitudes[None] * np.conj(outcome))
        assert [den[0, -1] == 0, den[0, 0] == 0] == ends
        fs, zero = analysis.curve_grid(control, outcome, ps)
        assert np.allclose(fs, 1 / 3, rtol=0.0, atol=1e-15)
        assert zero[0, [0, -1]].tolist() == ends and not zero[0, 1:-1].any()


def test_curves_refuse_a_p_outside_the_noise_range():
    control = switch.control_qubit(0.5)
    num, den = analysis.fidelity_polynomials(control, [1, 1])
    for p in (0.5, -0.1, 1.0, math.nan, 1 / 3 + 1e-9):
        with pytest.raises(ValueError, match="outside"):
            analysis.fidelity_profile(control, [1, 1], [0.1, p])
        with pytest.raises(ValueError, match="outside"):
            analysis.evaluate_fidelity(num, den, p)
    # a p within the slack past 1/3 takes the 1/3 end, where F = 1 for outcome +
    fs, zero = analysis.curve_grid(control, [1, 1], [1 / 3, channels.P_MAX])
    assert fs[0, 0] == fs[0, 1] == pytest.approx(1.0, abs=1e-15) and not zero.any()


def test_fidelity_profile_matches_brute_force_for_three_paths():
    rng = np.random.default_rng(24)
    ctrl = switch.uniform_control(3)
    m = switch.haar_random_state(6, rng)
    ps = np.array([0.06, 0.22, 0.31])
    fs = analysis.fidelity_profile(ctrl, m, ps)
    v = switch.haar_random_state(2, rng)
    rho = np.outer(v, v.conj())
    for p, f in zip(ps, fs):
        joint = switch.switch_n(channels.isotropic_channel(p), 3, rho, ctrl)
        sel = switch.post_select(joint, m)
        assert f == pytest.approx(channels.qubit_fidelity(rho, sel.state), abs=1e-10)


def test_fidelity_profile_matches_brute_force_for_four_paths():
    rng = np.random.default_rng(25)
    ctrl = switch.uniform_control(4)
    m = switch.haar_random_state(24, rng)
    v = switch.haar_random_state(2, rng)
    rho = np.outer(v, v.conj())
    f = analysis.fidelity_profile(ctrl, m, [0.2])[0]
    sel = switch.post_select(switch.switch_n(channels.isotropic_channel(0.2), 4, rho, ctrl), m)
    assert f == pytest.approx(channels.qubit_fidelity(rho, sel.state), abs=1e-10)
    # the control fixes the path count; a given n must agree with it
    for wrong in (2, 3):
        with pytest.raises(ValueError):
            analysis.fidelity_profile(ctrl, m, [0.2], wrong)


# --------------------------------------------------------------------------
# kinks in closed form
# --------------------------------------------------------------------------
#
# _root_real_parts solves full-degree quadratics and cubics in closed form.
# Each family below compares the sorted real parts with those of numpy's
# polyroots, on the roots that can become cuts of [0, 1/3] (those in
# [-0.1, 0.5]) where far roots are present.


def _polyroots_real_parts(g):
    return np.array([np.sort(np.polynomial.polynomial.polyroots(row).real) for row in g])


def _closed_form_real_parts(g):
    solve = analysis._quadratic_real_parts if g.shape[1] == 3 else analysis._cubic_real_parts
    return np.sort(solve(*g[:, ::-1].T), axis=1)


def _from_roots(roots):
    """Ascending real coefficients with the given roots, scaled to a largest coefficient of 1."""
    g = np.array([np.polynomial.polynomial.polyfromroots(r).real for r in roots])
    return g / np.max(np.abs(g), axis=1, keepdims=True)


def _near_interval(values):
    return (values >= -0.1) & (values <= 0.5)


@pytest.mark.parametrize("deg", [2, 3])
def test_closed_form_roots_match_polyroots_on_random_coefficients(deg):
    g = np.random.default_rng(2500 + deg).standard_normal((2000, deg + 1))
    expected = _polyroots_real_parts(g)
    got = _closed_form_real_parts(g)
    assert np.all(np.abs(got - expected) <= 1e-11 * np.maximum(1.0, np.abs(expected)))
    assert np.array_equal(np.sort(analysis._root_real_parts(g), axis=1), got)


def test_closed_form_cubic_matches_polyroots_on_three_small_roots():
    roots = np.random.default_rng(2510).uniform(-0.1, 0.5, (2000, 3))
    g = _from_roots(roots)
    assert np.abs(_closed_form_real_parts(g) - _polyroots_real_parts(g)).max() < 1e-9


@pytest.mark.parametrize("far", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_closed_form_cubic_deflates_a_far_real_root(far):
    # the leading coefficient is ~1/far of the largest, above DEGREE_DROP, so
    # every row takes the closed form; plain Cardano loses the small roots here
    rng = np.random.default_rng(2520)
    roots = np.column_stack([rng.uniform(-0.1, 0.5, (500, 2)), far * rng.choice([-1.0, 1.0], 500)])
    g = _from_roots(roots)
    assert np.all(np.abs(g[:, -1]) > linalg.DEGREE_DROP)
    got = np.sort(analysis._root_real_parts(g), axis=1)
    expected = _polyroots_real_parts(g)
    near = _near_interval(expected)
    assert near.sum() == 1000
    assert np.abs(got - expected)[near].max() < 1e-10


@pytest.mark.parametrize("far", [1e3, 1e5, 1e7, 1e9])
def test_closed_form_cubic_deflates_a_far_complex_pair(far):
    rng = np.random.default_rng(2530)
    pair = far * np.exp(1j * rng.uniform(0.0, math.pi, 500))
    g = _from_roots(np.column_stack([rng.uniform(-0.1, 0.5, 500), pair, pair.conj()]))
    got, expected = _closed_form_real_parts(g), _polyroots_real_parts(g)
    near = _near_interval(expected)
    assert near.sum() >= 500
    assert np.abs(got - expected)[near].max() < 1e-11


@pytest.mark.parametrize("pattern, tol", [([0, 0], 1e-15), ([0, 0, 1], 1e-6), ([0, 0, 0], 1e-5)])
def test_closed_form_multiple_roots_are_as_accurate_as_polyroots(pattern, tol):
    # a double root is known to ~sqrt(eps), a triple one to ~eps^(1/3), either way;
    # the quadratic formula finds an exact double root exactly
    exact = np.random.default_rng(2540 + len(pattern)).uniform(0.0, 1 / 3, (500, 2))[:, pattern]
    g, exact = _from_roots(exact), np.sort(exact, axis=1)
    closed = np.abs(_closed_form_real_parts(g) - exact).max()
    assert closed < tol
    assert closed <= max(np.abs(_polyroots_real_parts(g) - exact).max(), 1e-15)


def test_closed_form_quadratic_edge_cases():
    g = np.array([
        [0.0, 0.0, 2.0],    # q = 0: a double root at 0
        [0.0, 0.0, -1e-3],
        [1.0, 0.0, 1.0],    # disc < 0: the pair's real part -b/2a
        [5.0, -2.0, 1.0],
        [1.0, 3.0, 2.0],    # b > 0: q = -(b + sqrt(disc))/2 keeps its digits
        [-2.0, 0.0, 2.0],
    ])
    assert _closed_form_real_parts(g).tolist() == [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                                   [1.0, 1.0], [-1.0, -0.5], [-1.0, 1.0]]
    pairs = np.random.default_rng(2550).uniform(-1.0, 1.0, (500, 2)) @ [[1, 1], [1j, -1j]]
    g = _from_roots(pairs)
    assert np.all(g[:, 1] ** 2 < 4 * g[:, 0] * g[:, 2])
    assert np.abs(_closed_form_real_parts(g) - _polyroots_real_parts(g)).max() < 1e-15


# --------------------------------------------------------------------------
# an independent merit reference
# --------------------------------------------------------------------------
#
# K integrates max(F - 2/3, 0) over p in [0, 1/3]. The reference below shares
# only the polynomials num and den with merit_grid (the same normalized rows
# through post_selected_weight_stack's Gram form): it finds kinks by
# bisecting sign changes of num - (2/3) den on a fine grid (no companion
# matrices), and integrates each piece between them with a composite 8-node
# Gauss-Legendre rule whose panels double until two passes agree.

_REF_GRID = np.linspace(0.0, 1 / 3, 4097)
_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(8)
_REF_AGREE = 1e-17
_REF_MAX_PANELS = 2**12


def _reference_polynomials(controls, outcomes):
    """Monomial (num, den) of each row; a qubit outcome that never fires takes its complement."""
    amps, outcomes = analysis._rows(controls, outcomes)
    gamma = amps * outcomes.conj()
    silent = ~gamma.any(axis=1)
    if silent.any():
        # the orthogonal complement (-m1*, m0*) fires with certainty
        perp = np.stack([-outcomes[silent, 1].conj(), outcomes[silent, 0].conj()], axis=1)
        gamma[silent] = amps[silent] * perp.conj()
    num, den = switch.post_selected_weight_stack(gamma)
    monomials = switch.pauli_basis_monomials(num.shape[1] - 1)
    return num @ monomials, den @ monomials


def _reference_cuts(g):
    """(rows, m) sorted cuts of [0, 1/3]: its ends, every bisected sign change of
    each row of g on _REF_GRID, and every grid point where g is exactly 0."""
    vals = POLYVAL(_REF_GRID, g.T)
    sign = np.sign(vals)
    rows, cells = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
    lo, hi = _REF_GRID[cells], _REF_GRID[cells + 1]
    coef = g[rows].T
    lo_sign = sign[rows, cells]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        left = np.sign(POLYVAL(mid, coef, tensor=False)) == lo_sign
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    zero_rows, zero_cells = np.nonzero(sign == 0)
    rows = np.concatenate([rows, zero_rows])
    points = np.concatenate([0.5 * (lo + hi), _REF_GRID[zero_cells]])
    cuts = [np.concatenate([[0.0], points[rows == r], [1 / 3]]) for r in range(len(g))]
    width = max(map(len, cuts))
    # rows with fewer cuts are padded with empty pieces at 1/3
    return np.sort([np.pad(c, (0, width - len(c)), constant_values=1 / 3) for c in cuts], axis=1)


def _reference_merit(controls, outcomes):
    """K of each row; NaN where the doubled panels never agreed to _REF_AGREE."""
    num, den = _reference_polynomials(controls, outcomes)
    cuts = _reference_cuts(num - analysis.CLASSICAL_THRESHOLD * den)
    merits = np.full(len(num), np.nan)
    active, previous, panels = np.arange(len(num)), None, 1
    while panels <= _REF_MAX_PANELS and len(active):
        lo, hi = cuts[active, :-1, None], cuts[active, 1:, None]
        edges = lo + (hi - lo) * np.linspace(0.0, 1.0, panels + 1)
        half = 0.5 * np.diff(edges, axis=-1)[..., None]
        nodes = edges[..., :-1, None] + half * (1 + _REF_NODES)
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = (POLYVAL(nodes, num[active].T[..., None, None, None], tensor=False)
                      / POLYVAL(nodes, den[active].T[..., None, None, None], tensor=False)
                      - analysis.CLASSICAL_THRESHOLD)
        excess = np.where((half > 0) & (excess > 0), excess, 0.0)
        total = (excess * half * _REF_WEIGHTS).reshape(len(active), -1).sum(axis=1)
        if previous is not None:
            agree = np.abs(total - previous) <= _REF_AGREE
            merits[active[agree]] = total[agree]
            active, total = active[~agree], total[~agree]
        previous, panels = total, 2 * panels
    return merits


def _random_reference_rows(n, rng, rows=300):
    d = math.factorial(n)
    controls = [switch.ControlState(switch.haar_random_state(d, rng)) for _ in range(rows)]
    return controls, rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))


def _near_orthogonal_rows(n, rng):
    """Outcomes m = m_perp + delta c, nearly orthogonal to the control c: rare at small p."""
    deltas = np.repeat([0.0, 1e-9, 1e-6, 1e-3, 1e-1], 12)
    controls, outcomes = _random_reference_rows(n, rng, len(deltas))
    amps = np.array([c.amplitudes for c in controls])
    perp = outcomes - np.sum(amps.conj() * outcomes, axis=1, keepdims=True) * amps
    return controls, perp + deltas[:, None] * amps


def _alpha_rows():
    """Three-path alpha outcomes (-1, -1, -1 +- eps): den has a root at or near p = 0."""
    eps = np.logspace(-9, -1, 17)
    a3 = np.concatenate([-1 - eps, -1 + eps, [-1.0]])
    outcomes = [analysis.AlphaOutcome(-1, -1, a).vector() for a in a3]
    return switch.uniform_control(3), np.array(outcomes)


def _silent_rows():
    """Qubit rows whose outcome never fires, so K is the complement's."""
    phis = np.linspace(0.0, 2 * math.pi, 7)
    controls = [switch.control_qubit(1.0)] * 7 + [switch.control_qubit(0.0)] * 7
    outcomes = np.concatenate([np.stack([0 * phis, np.exp(1j * phis)], axis=1),
                               np.stack([np.exp(1j * phis), 0 * phis], axis=1)])
    return controls, outcomes


def _orthogonal_rows(rng, rows=12):
    """Qubit rows whose outcome is orthogonal to the control, so num - (2/3) den = g2 p^2.

    At n = 2, g = g0 (1 - 12p) + g2 p^2 has a double root at p = 0 (g0 = 0, these
    rows) or at p = 1/6 (g2 = 36 g0), which the fom-scan grids never reach: on
    them g2 <= 30 g0.
    """
    controls = [switch.ControlState(switch.haar_random_state(2, rng)) for _ in range(rows)]
    amps = np.array([c.amplitudes for c in controls])
    return controls, np.stack([-amps[:, 1].conj(), amps[:, 0].conj()], axis=1)


def _kink_polynomials(controls, outcomes):
    num, den = _reference_polynomials(controls, outcomes)
    return num - analysis.CLASSICAL_THRESHOLD * den


def _cubic_discriminant(g):
    d, c, b, a = g.T
    return 18 * a * b * c * d - 4 * b**3 * d + (b * c) ** 2 - 4 * a * c**3 - 27 * (a * d) ** 2


def _double_root_rows(rng, rows=12, pool=20000):
    """Three-path rows whose num - (2/3) den has a double root inside (0, 1/3).

    g = num - (2/3) den is positive at p = 0 and falls there. An outcome whose g
    crosses 0 three times in [0, 1/3] moves along a segment toward one whose g
    has a complex pair and is negative at 1/3, and bisection of the cubic's
    discriminant stops where two real roots merge. Rows whose merged pair lies
    outside (0, 1/3) are dropped.
    """
    control = switch.uniform_control(3)
    outcomes = rng.standard_normal((pool, 6)) + 1j * rng.standard_normal((pool, 6))
    g = _kink_polynomials(control, outcomes)
    sign = np.sign(POLYVAL(_REF_GRID[::16], g.T))
    crossings = np.sum(sign[:, :-1] != sign[:, 1:], axis=1)
    start = np.repeat(outcomes[crossings == 3], 4, axis=0)
    end = np.resize(outcomes[(_cubic_discriminant(g) < 0) & (sign[:, -1] < 0)], start.shape)
    lo, hi = np.zeros(len(start)), np.ones(len(start))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        moved = start + mid[:, None] * (end - start)
        three = _cubic_discriminant(_kink_polynomials(control, moved)) > 0
        lo, hi = np.where(three, mid, lo), np.where(three, hi, mid)
    outcomes = start + lo[:, None] * (end - start)
    roots = np.sort_complex([np.polynomial.polynomial.polyroots(row)
                             for row in _kink_polynomials(control, outcomes)])
    merged = ((np.abs(np.diff(roots, axis=1)) < 1e-6)
              & (roots[:, 1:].real > 0) & (roots[:, 1:].real < 1 / 3)).any(axis=1)
    assert merged.sum() >= rows
    return control, outcomes[merged][:rows]


_REFERENCE_ROWS = {
    "random-n2": lambda: _random_reference_rows(2, np.random.default_rng(1702)),
    "random-n3": lambda: _random_reference_rows(3, np.random.default_rng(1703)),
    "random-n4": lambda: _random_reference_rows(4, np.random.default_rng(1704)),
    "near-orthogonal-n2": lambda: _near_orthogonal_rows(2, np.random.default_rng(1712)),
    "near-orthogonal-n3": lambda: _near_orthogonal_rows(3, np.random.default_rng(1713)),
    "near-orthogonal-n4": lambda: _near_orthogonal_rows(4, np.random.default_rng(1714)),
    "alpha-near-alternating": _alpha_rows,
    "silent-n2": _silent_rows,
    "double-root-n2": lambda: _orthogonal_rows(np.random.default_rng(1722)),
    "double-root-n3": lambda: _double_root_rows(np.random.default_rng(1723)),
}


@pytest.mark.parametrize("name", list(_REFERENCE_ROWS))
def test_merit_grid_matches_an_independent_reference(name):
    controls, outcomes = _REFERENCE_ROWS[name]()
    reference = _reference_merit(controls, outcomes)
    # NaN marks a row whose doubled panels never agreed
    assert not np.isnan(reference).any()
    deviation = np.abs(analysis.merit_grid(controls, outcomes) - reference)
    assert deviation.max() < verification.MERIT


def test_merit_reference_matches_closed_forms():
    half = switch.control_qubit(0.5)
    plus, definite = _reference_merit(half, [[1.0, 1.0], [1.0, 0.0]])
    assert plus == pytest.approx(_merit_plus_balanced_exact(), abs=1e-15)
    assert definite == pytest.approx(analysis.no_switch_merit(2), abs=1e-15)
    alternating = analysis.OutcomeFamily3(1.0, 0.0).vector()
    assert _reference_merit(switch.uniform_control(3), alternating)[0] == pytest.approx(
        1 / 36, abs=1e-15)


# --------------------------------------------------------------------------
# the outcome probability at p = 0, exactly
# --------------------------------------------------------------------------
#
# At p = 0 the channels are noiseless, so den(0) = |<m|c>|^2. The Gram form
# computes it as one squared sum, so it keeps its digits however small the
# overlap; the outer-product form summed d^2 terms of size |c_a m_b| and lost
# them (den(0) = -3.5e-18 for the eps = 1e-9 row below, against 2.8e-20).

_EPSILONS = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5)


def _eps_rows():
    """The alpha outcomes (-1, -1, -1 + eps): K - 1/36 = 0.0224 eps to first order."""
    return [analysis.AlphaOutcome(-1, -1, -1 + eps).vector() for eps in _EPSILONS]


def _exact_overlap_squared(control, outcome):
    """|<m|c>|^2 as a Fraction, from the float amplitudes of c and of the normalized m."""
    m = normalize_state(outcome)
    re = sum(Fraction(a.real) * Fraction(b.real) + Fraction(a.imag) * Fraction(b.imag)
             for a, b in zip(m, control.amplitudes))
    im = sum(Fraction(a.real) * Fraction(b.imag) - Fraction(a.imag) * Fraction(b.real)
             for a, b in zip(m, control.amplitudes))
    return re * re + im * im


def test_merit_of_near_alternating_outcomes_is_linear_in_eps():
    merits = analysis.merit_grid(switch.uniform_control(3), _eps_rows())
    excess = merits - 1 / 36
    assert np.all(excess > 0)
    slopes = excess / np.array(_EPSILONS)
    assert np.abs(slopes / slopes[_EPSILONS.index(1e-6)] - 1).max() < 1e-3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_outcome_probability_at_zero_noise_is_the_exact_overlap(n):
    # near-orthogonal rows, plus the eps rows at n = 3
    controls, outcomes = _near_orthogonal_rows(n, np.random.default_rng(2600 + n))
    rows = list(zip(controls, outcomes))
    if n == 3:
        rows += [(switch.uniform_control(3), m) for m in _eps_rows()]
    for control, outcome in rows:
        den0 = analysis.fidelity_polynomials(control, outcome)[1][0]
        exact = _exact_overlap_squared(control, outcome)
        assert den0 >= 0
        # |den(0) - |<m|c>|^2| <= 1e-15 |<m|c>|, squared to stay in the rationals
        assert (Fraction(den0) - exact) ** 2 <= Fraction(1e-15) ** 2 * exact
