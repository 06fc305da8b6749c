"""A small sparse linear-program builder.

The builder exists so that LP assembly code reads like the mathematical
formulation — one constraint per call, or a whole block of rows as COO
arrays when a formulation tiles one pattern many times — while the
matrix handed to the solver is sparse from the start; no dense
intermediate is ever materialized.

The canonical form used internally is::

    maximize     c @ x
    subject to   A_ub @ x <= b_ub
                 A_eq @ x == b_eq
                 lb <= x <= ub

The solver receives it in HiGHS's row-bounded form (see
:meth:`LinearProgram.columnwise`): one column-wise matrix with the ``<=``
rows stacked above the ``==`` rows and ``row_lower <= A @ x <= row_upper``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import LPSolveError
from repro.types import SolverStatus

__all__ = ["ColumnwiseLP", "LinearProgram", "LPSolution"]


@dataclass(frozen=True)
class LPSolution:
    """The result of solving a :class:`LinearProgram`.

    Attributes
    ----------
    status:
        Normalized solver status.
    objective:
        Objective value of the returned point (in the *maximization* sense
        used by the builder), ``nan`` when no point is available.
    x:
        Primal values indexed like the builder's variables.
    ineq_duals:
        Dual multipliers of the ``<=`` constraints, one per constraint in the
        order added, with the sign convention that they are non-negative for
        a maximization problem (shadow price of relaxing the constraint).
    eq_duals:
        Dual multipliers of the ``==`` constraints.
    """

    status: SolverStatus
    objective: float
    x: np.ndarray
    ineq_duals: np.ndarray
    eq_duals: np.ndarray

    @property
    def ok(self) -> bool:
        return self.status.ok

    def value_of(self, indices: Sequence[int]) -> np.ndarray:
        """Primal values of a subset of variables."""
        return self.x[np.asarray(indices, dtype=np.int64)]


class ColumnwiseLP(NamedTuple):
    """A :class:`LinearProgram` stacked into one column-wise matrix.

    ``matrix`` is canonical CSC (sorted row indices, no duplicates) whose
    first ``num_le`` rows are the ``<=`` rows and the rest the ``==`` rows;
    ``row_lower`` is ``-inf`` on the ``<=`` rows and ``b_eq`` on the ``==``
    rows, ``row_upper`` is ``b_ub`` then ``b_eq``.  ``c`` is the
    maximization objective.
    """

    c: np.ndarray
    matrix: sparse.csc_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    num_le: int


def _concat(chunks: list[np.ndarray], dtype=np.float64) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)


@dataclass
class _RowBlock:
    """The rows of one constraint sense, stored as COO chunks.

    Row indices are absolute; entries with a zero coefficient are dropped on
    the way in, so the assembled CSR matrix holds only structural nonzeros.
    """

    rows: list[np.ndarray] = field(default_factory=list)
    cols: list[np.ndarray] = field(default_factory=list)
    vals: list[np.ndarray] = field(default_factory=list)
    rhs: list[np.ndarray] = field(default_factory=list)
    count: int = 0

    def add(self, rows, cols, vals, rhs, num_variables: int) -> range:
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=np.float64)
        rhs = np.array(rhs, dtype=np.float64, ndmin=1)
        if not rows.shape == cols.shape == vals.shape or rows.ndim != 1:
            raise LPSolveError("row, column and value arrays must be 1-D and aligned")
        if cols.size:
            if cols.min() < 0 or cols.max() >= num_variables:
                bad = cols[(cols < 0) | (cols >= num_variables)][0]
                raise LPSolveError(f"unknown variable index {bad}")
            if rows.min() < 0 or rows.max() >= rhs.size:
                raise LPSolveError(f"row index out of range for {rhs.size} row(s)")
        if not (np.isfinite(vals).all() and np.isfinite(rhs).all()):
            raise LPSolveError("coefficients and right-hand sides must be finite")
        keep = vals != 0.0
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        start = self.count
        rows += start
        self.rows.append(rows)
        self.cols.append(cols)
        self.vals.append(vals)
        self.rhs.append(rhs)
        self.count += rhs.size
        return range(start, self.count)

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The block's ``(rows, cols, vals, rhs)``, chunks concatenated."""
        return (
            _concat(self.rows, np.int64),
            _concat(self.cols, np.int64),
            _concat(self.vals),
            _concat(self.rhs),
        )

    def assemble(self, num_variables: int):
        if not self.count:
            return None, None
        rows, cols, vals, rhs = self.coo()
        matrix = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(self.count, num_variables)
        ).tocsr()
        return matrix, rhs


def _single_row(terms: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = len(terms)
    cols = np.fromiter(terms.keys(), dtype=np.int64, count=k)
    vals = np.fromiter(terms.values(), dtype=np.float64, count=k)
    return np.zeros(k, dtype=np.int64), cols, vals


@dataclass
class LinearProgram:
    """Incrementally build a sparse LP in maximization form.

    Variables and rows can be added one at a time or as whole blocks of
    arrays; both land in the same chunked array storage.

    Examples
    --------
    >>> lp = LinearProgram()
    >>> x = lp.add_variable(objective=1.0, upper=2.0)
    >>> y = lp.add_variable(objective=1.0, upper=2.0)
    >>> _ = lp.add_le_constraint({x: 1.0, y: 1.0}, 3.0)
    >>> sol = lp.solve()
    >>> round(sol.objective, 6)
    3.0
    """

    _objective: list[np.ndarray] = field(default_factory=list)
    _lower: list[np.ndarray] = field(default_factory=list)
    _upper: list[np.ndarray] = field(default_factory=list)
    _num_variables: int = 0
    _ub: _RowBlock = field(default_factory=_RowBlock)
    _eq: _RowBlock = field(default_factory=_RowBlock)

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return self._num_variables

    @property
    def num_le_constraints(self) -> int:
        return self._ub.count

    @property
    def num_eq_constraints(self) -> int:
        return self._eq.count

    def add_variable(
        self,
        *,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
    ) -> int:
        """Add a variable and return its index."""
        return self.add_variables(1, objective=objective, lower=lower, upper=upper)[0]

    def add_variables(
        self,
        count: int,
        *,
        objective: float | Sequence[float] = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
    ) -> list[int]:
        """Add ``count`` variables sharing bounds; returns their indices."""
        if not lower <= upper:
            raise LPSolveError(f"variable bounds [{lower}, {upper}] are empty")
        if np.isscalar(objective):
            obj = np.full(count, float(objective))
        else:
            obj = np.array(objective, dtype=np.float64)
            if obj.shape != (count,):
                raise LPSolveError("objective vector length mismatch")
        if not np.isfinite(obj).all():
            raise LPSolveError("objective coefficients must be finite")
        start = self._num_variables
        self._objective.append(obj)
        self._lower.append(np.full(count, float(lower)))
        self._upper.append(np.full(count, float(upper)))
        self._num_variables += count
        return list(range(start, self._num_variables))

    def add_le_rows(self, rows, cols, vals, rhs) -> range:
        """Add the block ``A @ x <= rhs`` given as COO triplets.

        ``rows`` index into ``rhs`` (0-based within the block), ``cols`` are
        variable indices; returns the constraint row indices of the block.
        """
        return self._ub.add(rows, cols, vals, rhs, self._num_variables)

    def add_eq_rows(self, rows, cols, vals, rhs) -> range:
        """Add the block ``A @ x == rhs``; see :meth:`add_le_rows`."""
        return self._eq.add(rows, cols, vals, rhs, self._num_variables)

    def add_le_constraint(self, terms: Mapping[int, float], rhs: float) -> int:
        """Add ``sum_j terms[j] * x_j <= rhs``; returns the constraint row index."""
        return self.add_le_rows(*_single_row(terms), (rhs,))[0]

    def add_eq_constraint(self, terms: Mapping[int, float], rhs: float) -> int:
        """Add ``sum_j terms[j] * x_j == rhs``; returns the constraint row index."""
        return self.add_eq_rows(*_single_row(terms), (rhs,))[0]

    # ------------------------------------------------------------------ #
    # Assembly / solving
    # ------------------------------------------------------------------ #
    def matrices(self) -> dict:
        """Return the two constraint blocks in :func:`scipy.optimize.linprog` form.

        Keys: ``c`` (maximization objective), ``A_ub``, ``b_ub``, ``A_eq``,
        ``b_eq`` and ``bounds`` (an ``(n, 2)`` array of ``(lb, ub)`` rows).
        The matrices are canonical CSR (sorted column indices, no explicit
        zeros); empty constraint blocks are ``None``.  The solver itself
        takes :meth:`columnwise`.
        """
        n = self._num_variables
        A_ub, b_ub = self._ub.assemble(n)
        A_eq, b_eq = self._eq.assemble(n)
        bounds = np.column_stack(
            (_concat(self._lower), _concat(self._upper))
        )
        return {
            "c": _concat(self._objective),
            "A_ub": A_ub,
            "b_ub": b_ub,
            "A_eq": A_eq,
            "b_eq": b_eq,
            "bounds": bounds,
        }

    def columnwise(self) -> ColumnwiseLP:
        """Stack both blocks into one CSC matrix in a single COO -> CSC step."""
        ub_rows, ub_cols, ub_vals, b_ub = self._ub.coo()
        eq_rows, eq_cols, eq_vals, b_eq = self._eq.coo()
        num_le = self._ub.count
        matrix = sparse.coo_matrix(
            (
                np.concatenate((ub_vals, eq_vals)),
                (
                    np.concatenate((ub_rows, eq_rows + num_le)),
                    np.concatenate((ub_cols, eq_cols)),
                ),
            ),
            shape=(num_le + self._eq.count, self._num_variables),
        ).tocsc()
        return ColumnwiseLP(
            c=_concat(self._objective),
            matrix=matrix,
            row_lower=np.concatenate((np.full(num_le, -np.inf), b_eq)),
            row_upper=np.concatenate((b_ub, b_eq)),
            col_lower=_concat(self._lower),
            col_upper=_concat(self._upper),
            num_le=num_le,
        )

    def solve(self, *, raise_on_failure: bool = True) -> LPSolution:
        """Solve the LP with HiGHS; see :func:`repro.lp.solver.solve_lp`."""
        from repro.lp.solver import solve_lp

        return solve_lp(self, raise_on_failure=raise_on_failure)
