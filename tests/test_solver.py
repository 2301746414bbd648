import importlib.util
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack import _solver, assoc, metrics
from test_cli import _run_python

SPECIAL = [math.inf, -math.inf, math.nan]


def _outcome(solve, cost, maximize):
    """(rows, cols) as lists, or the exception type and message."""
    try:
        rows, cols = solve(cost.copy(), maximize=maximize)
    except Exception as e:  # the comparison is the point: any error must match
        return type(e), str(e)
    return rows.dtype, rows.tolist(), cols.dtype, cols.tolist()


@st.composite
def cost_matrices(draw):
    """Square and both rectangular orientations up to 6 x 6, from a few tied
    integers or any finite float, with up to three cells set to +-inf or NaN."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cell = draw(st.sampled_from([st.integers(-2, 2).map(float),
                                 st.floats(-1e6, 1e6, allow_nan=False)]))
    cost = np.array(draw(st.lists(cell, min_size=n * m, max_size=n * m)),
                    dtype=float).reshape(n, m)
    if n * m:
        for k, v in draw(st.lists(st.tuples(st.integers(0, n * m - 1),
                                            st.sampled_from(SPECIAL)), max_size=3)):
            cost.flat[k] = v
    return cost


def test_solver_is_loaded_from_the_extension_file():
    dirs = importlib.util.find_spec("scipy").submodule_search_locations
    assert _solver._extension_path(dirs) is not None
    assert assoc.linear_sum_assignment is _solver.linear_sum_assignment
    assert metrics.linear_sum_assignment is _solver.linear_sum_assignment


@settings(max_examples=400, deadline=None)
@given(cost_matrices(), st.booleans())
def test_solver_matches_scipy_optimize(cost, maximize):
    assert (_outcome(_solver.linear_sum_assignment, cost, maximize)
            == _outcome(scipy.optimize.linear_sum_assignment, cost, maximize))


@pytest.mark.parametrize("cost", [
    np.zeros((0, 0)), np.zeros((0, 4)), np.zeros((4, 0)),
    np.zeros((4, 4)), np.ones((3, 5)), np.ones((5, 3)),
    np.array([[math.inf, 1.0], [1.0, math.inf]]),
    np.full((2, 2), math.inf), np.array([[math.nan, 1.0]]), np.array([[-math.inf]]),
])
@pytest.mark.parametrize("maximize", [False, True])
def test_solver_matches_scipy_optimize_on_edge_cases(cost, maximize):
    assert (_outcome(_solver.linear_sum_assignment, cost, maximize)
            == _outcome(scipy.optimize.linear_sum_assignment, cost, maximize))


def test_without_the_extension_file_falls_back_to_scipy_optimize(tmp_path):
    assert _solver._extension_path([str(tmp_path)]) is None
    solve = _solver.load_linear_sum_assignment([str(tmp_path)])
    assert solve is scipy.optimize.linear_sum_assignment


def test_assoc_and_metrics_import_without_scipy_optimize():
    """Neither module imports scipy.optimize; importing it afterwards still
    works, and both routes solve alike."""
    done = _run_python("-c", """
import sys
import numpy as np
import sartrack.assoc, sartrack.metrics
print("scipy.optimize" in sys.modules)
import scipy.optimize
cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
for solve in (sartrack.assoc.linear_sum_assignment, scipy.optimize.linear_sum_assignment,
              scipy.optimize._lsap.linear_sum_assignment):
    print(*(a.tolist() for a in solve(cost)))
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False"] + ["[0, 1, 2] [1, 0, 2]"] * 3
