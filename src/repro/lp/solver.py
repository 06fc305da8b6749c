"""Direct HiGHS solve of a :class:`~repro.lp.model.LinearProgram`.

The program is handed to HiGHS as one ``HighsLp`` through the bindings
scipy ships, with the option values :func:`scipy.optimize.linprog`
(``method="highs"``) sets, so HiGHS sees the model ``linprog`` would give
it and returns the same bits; only ``linprog``'s Python layers (input
cleaning, matrix restacking, option validation, bound marginals) are
skipped.  ``linprog``'s post-solve feasibility check is kept.
"""

from __future__ import annotations

import numpy as np
import scipy

from repro.exceptions import LPSolveError
from repro.lp.model import LinearProgram, LPSolution
from repro.types import SolverStatus

# The bindings are private to scipy; 1.17 is the version this module is
# verified against (tests/test_lp_assembly_oracle.py).
try:
    if np.lib.NumpyVersion(scipy.__version__) < "1.17.0":
        raise ImportError(f"found scipy {scipy.__version__}")
    from scipy.optimize._highspy import _core as _highs
    from scipy.optimize._highspy._core import simplex_constants as _simplex
except ImportError as exc:
    raise ImportError(
        "repro.lp needs scipy>=1.17: it calls HiGHS through "
        f"scipy.optimize._highspy._core ({exc})"
    ) from exc

__all__ = ["solve_lp"]

_MODEL = _highs.HighsModelStatus
# As ``linprog`` maps HiGHS model statuses (a model HiGHS rejects counts as
# infeasible); every other status is ``ERROR``.
_STATUS_MAP = {
    _MODEL.kOptimal: SolverStatus.OPTIMAL,
    _MODEL.kTimeLimit: SolverStatus.ITERATION_LIMIT,
    _MODEL.kIterationLimit: SolverStatus.ITERATION_LIMIT,
    _MODEL.kInfeasible: SolverStatus.INFEASIBLE,
    _MODEL.kModelError: SolverStatus.INFEASIBLE,
    _MODEL.kUnbounded: SolverStatus.UNBOUNDED,
}

# The options ``linprog(method="highs")`` passes on when given none.
HIGHS_OPTIONS = {
    "presolve": "on",
    "highs_debug_level": _highs.HighsDebugLevel.kHighsDebugLevelNone,
    "log_to_console": False,
    "output_flag": False,
    "simplex_strategy": _simplex.SimplexStrategy.kSimplexStrategyDual,
}
_OPTIONS = _highs.HighsOptions()
for _key, _value in HIGHS_OPTIONS.items():
    setattr(_OPTIONS, _key, _value)

# ``linprog``'s acceptance tolerance: ``sqrt(tol) * 10`` with ``tol = 1e-9``.
_TOL = np.sqrt(1e-9) * 10


def _highs_inf(values: np.ndarray) -> np.ndarray:
    """Map ``±inf`` to ``±kHighsInf`` in place."""
    infs = np.isinf(values)
    values[infs] = np.sign(values[infs]) * _highs.kHighsInf
    return values


def solve_lp(program: LinearProgram, *, raise_on_failure: bool = True) -> LPSolution:
    """Solve a :class:`~repro.lp.model.LinearProgram` (maximization form).

    HiGHS (dual simplex after presolve) is the only solver.

    Parameters
    ----------
    program:
        The assembled program.
    raise_on_failure:
        When ``True`` (default) a non-optimal status raises
        :class:`~repro.exceptions.LPSolveError`; otherwise the failed status
        is returned in the solution object.

    Notes
    -----
    HiGHS minimizes, so the objective is negated on the way in and the
    returned objective / duals are flipped back to the maximization
    convention: inequality duals are reported non-negative (shadow price of
    relaxing ``<=`` by one unit increases the maximum by that price).

    An optimum is demoted to ``ERROR`` when it contains NaNs, breaks a
    variable bound, or leaves a ``<=`` slack below ``-tol`` or an ``==``
    residual above ``tol`` in magnitude, ``tol = sqrt(1e-9) * 10``, exactly
    as :func:`scipy.optimize.linprog` does.  A program without variables is
    decided here: optimal with value 0 when every row holds at ``x = ()``
    (``b_ub >= 0`` and ``b_eq == 0``), infeasible otherwise.
    """
    form = program.columnwise()
    n_ub = form.num_le
    if program.num_variables == 0:
        feasible = bool(np.all((form.row_lower <= 0.0) & (form.row_upper >= 0.0)))
        if not feasible:
            return _failed(program, SolverStatus.INFEASIBLE, "a row fails at x = ()",
                           raise_on_failure)
        return LPSolution(
            status=SolverStatus.OPTIMAL,
            objective=0.0,
            x=np.zeros(0),
            ineq_duals=np.zeros(n_ub),
            eq_duals=np.zeros(program.num_eq_constraints),
        )

    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = program.num_variables
    lp.num_row_ = lp.a_matrix_.num_row_ = form.matrix.shape[0]
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.col_cost_ = -form.c
    lp.col_lower_ = _highs_inf(form.col_lower.copy())
    lp.col_upper_ = _highs_inf(form.col_upper.copy())
    lp.row_lower_ = _highs_inf(form.row_lower)
    lp.row_upper_ = row_upper = _highs_inf(form.row_upper)
    lp.a_matrix_.start_ = form.matrix.indptr
    lp.a_matrix_.index_ = form.matrix.indices
    lp.a_matrix_.value_ = form.matrix.data

    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return _failed(program, SolverStatus.INFEASIBLE, "HiGHS rejected the model",
                       raise_on_failure)
    run_failed = highs.run() == _highs.HighsStatus.kError
    model_status = highs.getModelStatus()
    if run_failed or model_status != _MODEL.kOptimal:
        status = _STATUS_MAP.get(model_status, SolverStatus.ERROR)
        if status.ok:  # a failed run leaves no solution to read
            status = SolverStatus.ERROR
        return _failed(program, status, highs.modelStatusToString(model_status),
                       raise_on_failure)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = row_upper - np.array(solution.row_value)
    feasible = not (
        np.isnan(x).any()
        or np.isnan(fun)
        or np.isnan(slack).any()
        or not np.all((x >= form.col_lower - _TOL) & (x <= form.col_upper + _TOL))
        or (slack[:n_ub] < -_TOL).any()
        or (np.abs(slack[n_ub:]) > _TOL).any()
    )
    if not feasible:
        return _failed(
            program, SolverStatus.ERROR,
            f"the optimum violates the constraints by more than {_TOL:.2E}",
            raise_on_failure,
        )

    # HiGHS reports row duals for the minimization problem; for the
    # maximization problem the shadow price of a <= constraint is the
    # negated dual, which is non-negative.
    duals = -np.array(solution.row_dual)
    return LPSolution(
        status=SolverStatus.OPTIMAL,
        objective=float(-fun),
        x=x,
        ineq_duals=duals[:n_ub],
        eq_duals=duals[n_ub:],
    )


def _failed(
    program: LinearProgram, status: SolverStatus, message: str, raise_on_failure: bool
) -> LPSolution:
    if raise_on_failure:
        raise LPSolveError(f"LP solve failed with status {status.value!r}: {message}")
    return LPSolution(
        status=status,
        objective=float("nan"),
        x=np.full(program.num_variables, np.nan),
        ineq_duals=np.full(program.num_le_constraints, np.nan),
        eq_duals=np.full(program.num_eq_constraints, np.nan),
    )
