import inspect
import math

import numpy as np
import pytest

from teleswitch import analysis, channels, switch, verification
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
        num, den = analysis.fidelity_polynomials(switch.control_qubit(q), [1, 1], 2)
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
    num, den = analysis.fidelity_polynomials(ctrl, m, 3)
    assert abs(POLYVAL(0.0, den)) < 1e-14
    assert analysis.evaluate_fidelity(num, den, 0.0)[0] == pytest.approx(1 / 3, abs=1e-10)


def test_evaluate_fidelity_keeps_rare_outcomes_off_lhopital():
    # outcome |1> at q = 1 - 1e-12 fires with probability ~1e-12 at every p,
    # and there the switch reduces to plain composition: F = F2
    ps = np.linspace(0.0, 1 / 3, 7)
    control = switch.control_qubit(1 - 1e-12)
    got = analysis.fidelity_profile(control, [0, 1], ps, 2)
    assert np.max(np.abs(got - channels.no_switch_fidelity(ps, 2))) < 1e-12


def test_alternating_outcome_profile_is_linear():
    ctrl = switch.uniform_control(3)
    m = analysis.OutcomeFamily3(1.0, 0.0).vector()
    num, den = analysis.fidelity_polynomials(ctrl, m, 3)
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
    # an empty or mixed-dimension control stack has no path count
    mixed = [controls[0], switch.uniform_control(3)]
    for stack, outcome in (([], [[1.0]]), ([], [1.0, 1.0]), (mixed, [1.0, 1.0])):
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
    fs, zero = analysis.curve_grid(switch.control_qubit(0.5), [1, -1], ps, 2)
    assert zero.tolist() == [[True, False, False]]
    assert np.allclose(fs, 1 / 3, rtol=0.0, atol=1e-12)


def test_curve_grid_blocks_the_p_axis_bit_for_bit(monkeypatch):
    # p runs downward, so the 0/0 point of minus at q = 1/2 (p = 0) sits in the last block
    ps = np.linspace(1 / 3, 0.0, 2 * analysis._BLOCK_POINTS + 3)
    controls = [switch.control_qubit(q) for q in (0.5, 0.3)]
    fs, zero = analysis.curve_grid(controls, [1, -1], ps, 2)
    assert list(zip(*np.nonzero(zero))) == [(0, len(ps) - 1)]
    assert fs[0, -1] == pytest.approx(1 / 3, abs=1e-12)
    monkeypatch.setattr(analysis, "_BLOCK_POINTS", len(ps))
    whole_fs, whole_zero = analysis.curve_grid(controls, [1, -1], ps, 2)
    assert np.array_equal(fs, whole_fs) and np.array_equal(zero, whole_zero)


def test_fidelity_profile_matches_brute_force_for_three_paths():
    rng = np.random.default_rng(24)
    ctrl = switch.uniform_control(3)
    m = switch.haar_random_state(6, rng)
    ps = np.array([0.06, 0.22, 0.31])
    fs = analysis.fidelity_profile(ctrl, m, ps, 3)
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
    f = analysis.fidelity_profile(ctrl, m, [0.2], 4)[0]
    sel = switch.post_select(switch.switch_n(channels.isotropic_channel(0.2), 4, rho, ctrl), m)
    assert f == pytest.approx(channels.qubit_fidelity(rho, sel.state), abs=1e-10)


# --------------------------------------------------------------------------
# an independent merit reference
# --------------------------------------------------------------------------
#
# K integrates max(F - 2/3, 0) over p in [0, 1/3]. The reference below shares
# only the polynomials num and den with merit_grid (the same normalized rows
# through post_selected_weight_stack and _ratio_polynomials): it finds kinks by
# bisecting sign changes of num - (2/3) den on a fine grid (no companion
# matrices), and integrates each piece between them with a composite 8-node
# Gauss-Legendre rule whose panels double until two passes agree.

_REF_GRID = np.linspace(0.0, 1 / 3, 4097)
_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(8)
_REF_AGREE = 1e-17
_REF_MAX_PANELS = 2**12


def _reference_polynomials(controls, outcomes, n):
    """(num, den) of each row; a qubit outcome that never fires takes its complement."""
    amps, outcomes, n = analysis._rows(controls, outcomes, n)
    gamma = amps * outcomes.conj()
    silent = ~gamma.any(axis=1)
    if silent.any():
        # the orthogonal complement (-m1*, m0*) fires with certainty
        perp = np.stack([-outcomes[silent, 1].conj(), outcomes[silent, 0].conj()], axis=1)
        gamma[silent] = amps[silent] * perp.conj()
    return analysis._ratio_polynomials(switch.post_selected_weight_stack(gamma, n))


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


def _reference_merit(controls, outcomes, n):
    """K of each row; NaN where the doubled panels never agreed to _REF_AGREE."""
    num, den = _reference_polynomials(controls, outcomes, n)
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
    return controls, rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d)), n


def _near_orthogonal_rows(n, rng):
    """Outcomes m = m_perp + delta c, nearly orthogonal to the control c: rare at small p."""
    deltas = np.repeat([0.0, 1e-9, 1e-6, 1e-3, 1e-1], 12)
    controls, outcomes, _ = _random_reference_rows(n, rng, len(deltas))
    amps = np.array([c.amplitudes for c in controls])
    perp = outcomes - np.sum(amps.conj() * outcomes, axis=1, keepdims=True) * amps
    return controls, perp + deltas[:, None] * amps, n


def _alpha_rows():
    """Three-path alpha outcomes (-1, -1, -1 +- eps): den has a root at or near p = 0."""
    eps = np.logspace(-9, -1, 17)
    a3 = np.concatenate([-1 - eps, -1 + eps, [-1.0]])
    outcomes = [analysis.AlphaOutcome(-1, -1, a).vector() for a in a3]
    return switch.uniform_control(3), np.array(outcomes), 3


def _silent_rows():
    """Qubit rows whose outcome never fires, so K is the complement's."""
    phis = np.linspace(0.0, 2 * math.pi, 7)
    controls = [switch.control_qubit(1.0)] * 7 + [switch.control_qubit(0.0)] * 7
    outcomes = np.concatenate([np.stack([0 * phis, np.exp(1j * phis)], axis=1),
                               np.stack([np.exp(1j * phis), 0 * phis], axis=1)])
    return controls, outcomes, 2


_REFERENCE_ROWS = {
    "random-n2": lambda: _random_reference_rows(2, np.random.default_rng(1702)),
    "random-n3": lambda: _random_reference_rows(3, np.random.default_rng(1703)),
    "random-n4": lambda: _random_reference_rows(4, np.random.default_rng(1704)),
    "near-orthogonal-n2": lambda: _near_orthogonal_rows(2, np.random.default_rng(1712)),
    "near-orthogonal-n3": lambda: _near_orthogonal_rows(3, np.random.default_rng(1713)),
    "near-orthogonal-n4": lambda: _near_orthogonal_rows(4, np.random.default_rng(1714)),
    "alpha-near-alternating": _alpha_rows,
    "silent-n2": _silent_rows,
}


@pytest.mark.parametrize("name", list(_REFERENCE_ROWS))
def test_merit_grid_matches_an_independent_reference(name):
    controls, outcomes, n = _REFERENCE_ROWS[name]()
    reference = _reference_merit(controls, outcomes, n)
    # NaN marks a row whose doubled panels never agreed
    assert not np.isnan(reference).any()
    deviation = np.abs(analysis.merit_grid(controls, outcomes, n) - reference)
    assert deviation.max() < verification.MERIT


def test_merit_reference_matches_closed_forms():
    half = switch.control_qubit(0.5)
    plus, definite = _reference_merit(half, [[1.0, 1.0], [1.0, 0.0]], 2)
    assert plus == pytest.approx(_merit_plus_balanced_exact(), abs=1e-15)
    assert definite == pytest.approx(analysis.no_switch_merit(2), abs=1e-15)
    alternating = analysis.OutcomeFamily3(1.0, 0.0).vector()
    assert _reference_merit(switch.uniform_control(3), alternating, 3)[0] == pytest.approx(
        1 / 36, abs=1e-15)
