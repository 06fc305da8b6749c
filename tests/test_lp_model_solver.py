"""Tests for the LP builder and the HiGHS solve wrapper."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import LPSolveError
from repro.lp import LinearProgram, solve_lp
from repro.types import SolverStatus


class TestLinearProgramBuilder:
    def test_variable_bookkeeping(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0, upper=2.0)
        y = lp.add_variable(objective=0.5)
        assert (x, y) == (0, 1)
        assert lp.num_variables == 2
        ids = lp.add_variables(3, objective=[1, 2, 3])
        assert ids == [2, 3, 4]

    def test_add_variables_scalar_objective(self):
        lp = LinearProgram()
        ids = lp.add_variables(4, objective=2.0)
        assert lp.num_variables == 4
        mats = lp.matrices()
        np.testing.assert_allclose(mats["c"], [2, 2, 2, 2])
        assert ids == [0, 1, 2, 3]

    def test_rejects_empty_bounds(self):
        lp = LinearProgram()
        with pytest.raises(LPSolveError):
            lp.add_variable(lower=2.0, upper=1.0)
        with pytest.raises(LPSolveError):
            lp.add_variable(upper=np.nan)

    def test_rejects_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        lp.add_variable()
        with pytest.raises(LPSolveError):
            lp.add_le_constraint({5: 1.0}, 1.0)

    def test_matrices_shapes(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0)
        y = lp.add_variable(objective=1.0)
        lp.add_le_constraint({x: 1.0, y: 2.0}, 4.0)
        lp.add_eq_constraint({x: 1.0}, 1.0)
        mats = lp.matrices()
        assert mats["A_ub"].shape == (1, 2)
        assert mats["A_eq"].shape == (1, 2)
        np.testing.assert_allclose(mats["b_ub"], [4.0])
        np.testing.assert_allclose(mats["b_eq"], [1.0])

    def test_row_blocks_match_one_row_per_call(self):
        rows = [0, 0, 1, 1, 2]
        cols = [2, 0, 1, 2, 0]
        vals = [1.5, -1.0, 0.0, 2.0, 4.0]
        rhs = [1.0, 2.0, 3.0]
        block = LinearProgram()
        block.add_variables(3, objective=[1.0, 2.0, 3.0])
        assert block.add_eq_constraint({1: 1.0}, 0.5) == 0
        assert block.add_eq_rows(rows, cols, vals, rhs) == range(1, 4)
        assert block.add_le_rows(rows, cols, vals, rhs) == range(0, 3)
        scalar = LinearProgram()
        scalar.add_variables(3, objective=[1.0, 2.0, 3.0])
        scalar.add_eq_constraint({1: 1.0}, 0.5)
        for add in (scalar.add_eq_constraint, scalar.add_le_constraint):
            add({2: 1.5, 0: -1.0}, 1.0)
            add({1: 0.0, 2: 2.0}, 2.0)
            add({0: 4.0}, 3.0)
        got, want = block.matrices(), scalar.matrices()
        for key in ("A_ub", "A_eq"):
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(
                    getattr(got[key], part), getattr(want[key], part)
                )
        # The zero coefficient is dropped and columns come out sorted.
        assert got["A_eq"].nnz == 5
        np.testing.assert_array_equal(got["A_eq"].indices[1:3], [0, 2])
        for key in ("c", "b_ub", "b_eq", "bounds"):
            np.testing.assert_array_equal(got[key], want[key])
        assert got["bounds"].shape == (3, 2)

    def test_row_blocks_reject_bad_indices(self):
        lp = LinearProgram()
        lp.add_variables(2)
        with pytest.raises(LPSolveError):
            lp.add_le_rows([0], [2], [1.0], [1.0])
        with pytest.raises(LPSolveError):
            lp.add_eq_rows([1], [0], [1.0], [1.0])
        with pytest.raises(LPSolveError):
            lp.add_eq_rows([0, 0], [0], [1.0], [1.0])
        assert lp.num_le_constraints == lp.num_eq_constraints == 0

    def test_objective_mismatch_rejected(self):
        lp = LinearProgram()
        with pytest.raises(LPSolveError):
            lp.add_variables(2, objective=[1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_data_rejected(self, bad):
        lp = LinearProgram()
        with pytest.raises(LPSolveError):
            lp.add_variable(objective=bad)
        lp.add_variables(2)
        with pytest.raises(LPSolveError):
            lp.add_le_constraint({0: bad}, 1.0)
        with pytest.raises(LPSolveError):
            lp.add_eq_constraint({0: 1.0}, bad)
        assert lp.num_variables == 2
        assert lp.num_le_constraints == lp.num_eq_constraints == 0

    def test_columnwise_stacks_le_rows_above_eq_rows(self):
        lp = LinearProgram()
        lp.add_variables(3, objective=[1.0, 2.0, 3.0], upper=4.0)
        lp.add_eq_constraint({2: 1.0, 0: 2.0}, 5.0)
        lp.add_le_constraint({1: 3.0}, 6.0)
        lp.add_le_constraint({0: 1.0, 2: -1.0}, 7.0)
        form = lp.columnwise()
        assert form.num_le == 2
        assert form.matrix.format == "csc"
        np.testing.assert_array_equal(
            form.matrix.toarray(), [[0, 3, 0], [1, 0, -1], [2, 0, 1]]
        )
        np.testing.assert_array_equal(form.row_lower, [-np.inf, -np.inf, 5.0])
        np.testing.assert_array_equal(form.row_upper, [6.0, 7.0, 5.0])
        np.testing.assert_array_equal(form.col_upper, [4.0] * 3)
        np.testing.assert_array_equal(form.c, [1.0, 2.0, 3.0])


class TestSolver:
    def test_simple_maximization(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0, upper=2.0)
        y = lp.add_variable(objective=1.0, upper=2.0)
        lp.add_le_constraint({x: 1.0, y: 1.0}, 3.0)
        sol = solve_lp(lp)
        assert sol.ok
        assert sol.objective == pytest.approx(3.0)
        assert sol.x[x] + sol.x[y] == pytest.approx(3.0)

    def test_empty_program(self):
        sol = solve_lp(LinearProgram())
        assert sol.ok and sol.objective == 0.0

    def test_no_variables_feasible_rows_keep_dual_shapes(self):
        lp = LinearProgram()
        lp.add_le_rows([], [], [], [0.0, 1.5])
        lp.add_eq_rows([], [], [], [0.0])
        sol = solve_lp(lp)
        assert sol.ok and sol.objective == 0.0
        assert sol.x.shape == (0,)
        np.testing.assert_array_equal(sol.ineq_duals, [0.0, 0.0])
        np.testing.assert_array_equal(sol.eq_duals, [0.0])

    @pytest.mark.parametrize("le_rhs, eq_rhs", [(-1.0, 0.0), (0.0, 2.0), (-1.0, 2.0)])
    def test_no_variables_unsatisfiable_row_is_infeasible(self, le_rhs, eq_rhs):
        lp = LinearProgram()
        lp.add_le_rows([], [], [], [le_rhs])
        lp.add_eq_rows([], [], [], [eq_rhs])
        with pytest.raises(LPSolveError):
            solve_lp(lp)
        sol = solve_lp(lp, raise_on_failure=False)
        assert sol.status is SolverStatus.INFEASIBLE
        assert sol.ineq_duals.shape == (1,) and sol.eq_duals.shape == (1,)
        assert np.isnan(sol.objective)

    def test_equality_constraints(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=2.0, upper=10.0)
        y = lp.add_variable(objective=1.0, upper=10.0)
        lp.add_eq_constraint({x: 1.0, y: 1.0}, 5.0)
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(10.0)  # x = 5, y = 0
        assert sol.x[x] == pytest.approx(5.0)

    def test_infeasible_raises_by_default(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0)
        lp.add_le_constraint({x: 1.0}, -5.0)  # x >= 0 and x <= -5
        with pytest.raises(LPSolveError):
            solve_lp(lp)
        sol = solve_lp(lp, raise_on_failure=False)
        assert sol.status is SolverStatus.INFEASIBLE
        assert not sol.ok

    def test_unbounded_detected(self):
        lp = LinearProgram()
        lp.add_variable(objective=1.0)  # no upper bound, no constraints
        sol = solve_lp(lp, raise_on_failure=False)
        assert sol.status is SolverStatus.UNBOUNDED

    def test_duals_of_knapsack_constraint(self):
        # max 3a + 2b  s.t. a + b <= 1, 0 <= a, b <= 1: dual of the packing
        # constraint is 2 (the second-best density), a classic shadow price.
        lp = LinearProgram()
        a = lp.add_variable(objective=3.0, upper=1.0)
        b = lp.add_variable(objective=2.0, upper=1.0)
        row = lp.add_le_constraint({a: 1.0, b: 1.0}, 1.0)
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(3.0)
        assert sol.ineq_duals[row] >= 2.0 - 1e-6
        assert sol.ineq_duals[row] <= 3.0 + 1e-6

    def test_value_of_subset(self):
        lp = LinearProgram()
        ids = lp.add_variables(3, objective=[1.0, 2.0, 3.0], upper=1.0)
        sol = solve_lp(lp)
        np.testing.assert_allclose(sol.value_of(ids[1:]), [1.0, 1.0])

    def test_program_solve_shortcut(self):
        lp = LinearProgram()
        lp.add_variable(objective=4.0, upper=2.5)
        assert lp.solve().objective == pytest.approx(10.0)


@settings(max_examples=25, deadline=None)
@given(
    capacities=st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=1, max_size=4),
    values=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=6),
)
def test_property_fractional_knapsack_matches_greedy(capacities, values):
    """For a single packing constraint the LP optimum equals the greedy
    fractional-knapsack value (items have unit weight)."""
    capacity = float(capacities[0])
    lp = LinearProgram()
    ids = [lp.add_variable(objective=v, upper=1.0) for v in values]
    lp.add_le_constraint({i: 1.0 for i in ids}, capacity)
    sol = solve_lp(lp)

    remaining = capacity
    expected = 0.0
    for v in sorted(values, reverse=True):
        take = min(1.0, remaining)
        if take <= 0:
            break
        expected += v * take
        remaining -= take
    assert sol.objective == pytest.approx(expected, rel=1e-6, abs=1e-6)


def test_old_scipy_fails_at_import_naming_the_requirement():
    code = (
        "import scipy; scipy.__version__ = '1.16.2'\n"
        "try:\n"
        "    import repro.lp\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert "scipy>=1.17" in out.stdout and "1.16.2" in out.stdout
