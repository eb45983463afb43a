"""Acceptance gate: the ten criteria, each run as registry checks at full size.

`teleswitch verify` runs every check of `verification.CHECKS` at its quick
size. Each criterion here runs the checks that carry it on the criterion's own
grid and seed, with the registry's tolerances. A check that no criterion names
takes no size, so the quick run of tests/test_verification.py is its full run.
Every check prints one [PASS]/[FAIL] line (bypassing capture) with its
deviations.
"""
import math

import numpy as np

from teleswitch import verification

CHECKS = {check.name: check for check in verification.CHECKS}
P21, Q21 = np.linspace(0.0, 1 / 3, 21), np.linspace(0.0, 1.0, 21)

# criterion -> (check, full size, seed) of each check that carries it
CRITERIA = {
    1: [("switched_fidelity_matches_pipeline", (P21, Q21), 101)],
    2: [("no_switch_formula_matches_composition", (np.linspace(0.0, 1 / 3, 35), (1, 2)), 102),
        ("thresholds_match_root_solve", None, 102)],
    3: [("lossless_point", None, 103)],
    4: [("advantage_region_boundaries", ((0.0, 0.1, 1 / 6, 0.25, 0.4, 0.5), 100), 104)],
    5: [("closed_form_matches_brute_force", (20, P21, Q21), 105)],
    6: [("outcome_completeness", (0.23, 0.61), 106)],
    7: [("input_independence_haar", 100, 107)],
    8: [("merit_reference_values", None, 108),
        ("merit_exact_reference",
         (np.linspace(0.0, 2.0, 11), [k * math.pi / 8 for k in range(16)]), 108)],
    9: [("n2_reduction_of_switch_n", None, 109),
        ("polynomial_matches_brute_force", ((3, (0.06, 0.22, 0.31)), (4, (0.2,))), 24),
        ("three_path_alternating_outcome", None, 109),
        ("three_path_phase_peak",
         ((0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
          (0.0, math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2,
           2 * math.pi / 3, math.pi)), 109)],
    10: [("joint_fidelity_integrals", None, 110)],
}


def _gate(criterion, capsys):
    failed = []
    for name, size, seed in CRITERIA[criterion]:
        result = verification.run_check(CHECKS[name], np.random.default_rng(seed), size)
        with capsys.disabled():
            print(f"\n[{'PASS' if result.passed else 'FAIL'}] criterion {criterion:2d} "
                  f"{name}: {result.detail}")
        if not result.passed:
            failed.append((name, result.deviations, result.tolerances))
    assert not failed


def test_every_sized_check_has_a_criterion():
    named = [name for checks in CRITERIA.values() for name, _, _ in checks]
    assert len(named) == len(set(named)) and set(named) <= set(CHECKS)
    assert {name for name, check in CHECKS.items() if check.quick is not None} <= set(named)


def test_criterion_01_closed_form_vs_simulation(capsys):
    _gate(1, capsys)


def test_criterion_02_baselines_and_thresholds(capsys):
    _gate(2, capsys)


def test_criterion_03_lossless_point(capsys):
    _gate(3, capsys)


def test_criterion_04_advantage_regions(capsys):
    _gate(4, capsys)


def test_criterion_05_closed_form_elementwise(capsys):
    _gate(5, capsys)


def test_criterion_06_measurement_completeness(capsys):
    _gate(6, capsys)


def test_criterion_07_input_independence(capsys):
    _gate(7, capsys)


def test_criterion_08_figure_of_merit(capsys):
    _gate(8, capsys)


def test_criterion_09_three_paths(capsys):
    _gate(9, capsys)


def test_criterion_10_tradeoff(capsys):
    _gate(10, capsys)
