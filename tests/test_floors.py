"""The table of numerical floors in linalg.py: each floor at its edge, and no floor outside it.

A floor is a positive float literal below 1e-6. Every one in the modules below
is a named entry of linalg's table, which is written as top-level
`NAME = <literal>` lines; each entry has at least one edge case here.
"""
import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from teleswitch import analysis, channels, cli, linalg, switch

SRC = Path(__file__).resolve().parents[1] / "src" / "teleswitch"
MODULES = ("linalg", "channels", "switch", "analysis", "cli")
LARGEST_FLOOR = 1e-6


def _is_floor(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < node.value < LARGEST_FLOOR)


def _parse(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _table(tree):
    """{name: literal node} of the top-level floor assignments of linalg's parse tree."""
    return {stmt.targets[0].id: stmt.value for stmt in tree.body
            if isinstance(stmt, ast.Assign) and _is_floor(stmt.value)}


@pytest.mark.parametrize("module", MODULES)
def test_no_floor_outside_the_table(module):
    tree = _parse(module)
    table = {id(node) for node in _table(tree).values()} if module == "linalg" else set()
    stray = [node.lineno for node in ast.walk(tree) if _is_floor(node) and id(node) not in table]
    assert not stray, f"{module}.py writes a floor outside linalg's table, at lines {stray}"


def _accepts(call, *args):
    try:
        call(*args)
    except (ValueError, ArithmeticError):
        return False
    return True


def _tie(x):
    # merits 1/2 and 1/2 + x: a tie keeps the first grid point
    with mock.patch.object(analysis, "merit_grid", return_value=np.array([0.5, 0.5 + x])):
        best, _ = analysis.optimize_outcome(None, analysis.OutcomeFamily2, [0.0, 1.0], [0.0])
    return best == (0.0, 0.0)


# (floor, accepted(x): whether the rule lets x through, x inside and outside the edge in
# units of the floor); a value is accepted on one side of the edge and refused on the other
EDGES = [
    ("DENSITY_TOL", lambda x: _accepts(linalg.assert_density_matrix, np.diag([1 + x, -x])), 0.5, 2),
    # F = (1 + x/2)^2 of diag(1 + x/2, 0) with itself comes through unclipped
    ("FIDELITY_OVERSHOOT",
     lambda x: channels.qubit_fidelity(*2 * [np.diag([1 + x / 2, 0])]) - 1 > 0.9 * x, 0.5, 1.5),
    ("STATE_NORM_TOL", lambda x: _accepts(linalg.normalize_state, [x, 0.0]), 2, 0.5),
    ("WEIGHT_SUM_TOL", lambda x: _accepts(channels.PauliWeights, 0.5 + x, 0.5, 0.0, 0.0), 0.5, 2),
    ("RANGE_SLACK", lambda x: _accepts(channels.isotropic_weights, 1 / 3 + x), 0.5, 2),
    ("RANGE_SLACK", lambda x: _accepts(analysis.advantage_regions, 0.5 + x), 0.5, 2),
    ("RANGE_SLACK", lambda x: _accepts(channels.PauliWeights, 1 + x, -x, 0.0, 0.0), 0.5, 2),
    ("RANGE_SLACK", lambda x: not analysis.AdvantageRegions(0.0, 1 / 3 - x).region2_exists, 0.5, 2),
    # a p grid that ends this close to p_max gets no extra point at p_max
    ("RANGE_SLACK",
     lambda x: len(cli._p_grid({"p_min": 0.0, "p_max": 0.25 + x, "p_step": 0.25})) == 2, 0.5, 2),
    ("DET_CLAMP", lambda x: _accepts(channels._clamped_det,
                                     np.array([[1.0, math.sqrt(x)], [math.sqrt(x), 0.0]])), 0.5, 2),
    # x p^3 + p^2 - 1 keeps its root near -1/x, found by the closed-form cubic
    ("DEGREE_DROP",
     lambda x: analysis._root_real_parts(np.array([[-1.0, 0.0, 1.0, x]])).min() < -2, 2, 0.5),
    # x p^2 + p - 1 keeps its root near -1/x
    ("DEGREE_DROP", lambda x: analysis._root_real_parts(np.array([[-1.0, 1.0, x]])).min() < -2, 2, 0.5),
    # den = x p + p^2 at p = 0: its first derivative x is not zero, so F = num'/den' = 1/x
    ("LHOPITAL_ZERO", lambda x: analysis._lhopital([0.0, 1.0, 0.0], [0.0, x, 1.0], 0.0) != 0, 2, 0.5),
    ("MERIT_TIE", _tie, 0.5, 2),
    ("DEGENERATE_PROB", lambda x: _accepts(
        switch.post_select, switch.JointState(np.kron(np.eye(2) / 2, np.diag([1 - x, x])), 2),
        [0.0, 1.0]), 2, 0.5),
    # the outcome overlaps the control |0> of six paths by about x: it fires, or it never
    # does and, with no qubit complement, raises
    ("SILENT_PROB", lambda x: _accepts(
        analysis.merit_grid, switch.ControlState(np.eye(6)[0]), [math.sqrt(x), 1, 0, 0, 0, 0]),
     2, 0.5),
    ("ZERO_DEN", lambda x: not analysis._ratio(np.array([[0.0, 1.0]]), np.array([[x, 1.0]]),
                                               [0.0])[1][0, 0], 2, 0.5),
]


def test_every_floor_has_an_edge_case():
    assert sorted(set(name for name, *_ in EDGES)) == sorted(_table(_parse("linalg")))


@pytest.mark.parametrize("name, accepted, inside, outside", EDGES,
                         ids=[f"{name}-{i}" for i, (name, *_) in enumerate(EDGES)])
def test_floor_edge(name, accepted, inside, outside):
    floor = getattr(linalg, name)
    assert accepted(inside * floor)
    assert not accepted(outside * floor)
