import math

import numpy as np
import pytest

from teleswitch import verification

NAMES = [
    "kron_mixed_product",
    "partial_trace_factor",
    "kraus_completeness",
    "bell_basis_orthonormality",
    "werner_resource_weights",
    "no_switch_formula_matches_composition",
    "thresholds_match_root_solve",
    "closed_form_matches_brute_force",
    "switched_fidelity_matches_pipeline",
    "lossless_point",
    "outcome_completeness",
    "input_independence_haar",
    "advantage_region_boundaries",
    "merit_reference_values",
    "merit_exact_reference",
    "n2_reduction_of_switch_n",
    "polynomial_matches_brute_force",
    "three_path_alternating_outcome",
    "three_path_phase_peak",
    "joint_fidelity_integrals",
]


def test_suite_passes_and_names_its_checks_in_order():
    results = verification.run_all(42)
    assert [r.name for r in results] == NAMES
    failed = [r for r in results if not r.passed]
    assert not failed, f"failed checks: {[(r.name, r.detail) for r in failed]}"


def test_suite_is_deterministic_for_a_seed():
    a = verification.run_all(7)
    b = verification.run_all(7)
    assert a == b


def test_report_lines_carry_status_prefix():
    lines = verification.report_lines(verification.run_all(42))
    assert all(line.startswith(("[PASS]", "[FAIL]")) for line in lines)
    assert len(lines) == len(NAMES)


def _returning(check, deviations):
    return check._replace(run=lambda rng, size: deviations)


@pytest.mark.parametrize("check", verification.CHECKS, ids=lambda c: c.name)
def test_each_quantity_fails_at_its_tolerance_and_on_nan(check):
    below = {k: tol - 1.0 for k, tol in check.tolerances.items()}
    assert verification.run_check(_returning(check, below), None, None).passed
    for key, tol in check.tolerances.items():
        for bad in (tol, math.nan):
            result = verification.run_check(_returning(check, {**below, key: bad}), None, None)
            assert not result.passed, (key, bad)


def test_run_check_refuses_a_missing_or_extra_quantity():
    check = verification.CHECKS[0]
    devs = {k: 0.0 for k in check.tolerances}
    for wrong in ({}, {**devs, "extra": 0.0}):
        with pytest.raises(ValueError, match=check.name):
            verification.run_check(_returning(check, wrong), np.random.default_rng(0), None)
