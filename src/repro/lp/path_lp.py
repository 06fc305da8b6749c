"""Path formulation of the fractional UFP, solved by column generation.

This is the LP exactly as written in Figure 1 of the paper (variables indexed
by simple paths), solved without enumerating all paths: a restricted master
problem over a growing set of path columns is re-solved, and new columns are
priced in with a shortest-path computation under the current capacity duals
``y_e`` — a path of request ``r`` has positive reduced cost exactly when
``v_r - z_r - d_r * sum_{e in p} y_e > 0``, i.e. when the corresponding dual
constraint is violated, the same "most violated constraint" view that drives
the paper's primal-dual algorithm.

Besides the optimum (which matches the edge formulation of
:mod:`repro.lp.fractional_ufp` and is cross-checked in the tests), the result
keeps the per-request path distribution ``{path: x_s}``, which is what the
randomized-rounding baseline samples from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import LPSolveError
from repro.flows.instance import UFPInstance
from repro.graphs.shortest_path import single_source_dijkstra
from repro.lp.model import LinearProgram
from repro.lp.solver import solve_lp
from repro.types import SolverStatus

__all__ = ["PathColumn", "PathLPResult", "solve_path_lp"]


@dataclass(frozen=True)
class PathColumn:
    """One path column of the restricted master problem."""

    request_index: int
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        object.__setattr__(self, "edge_ids", tuple(int(e) for e in self.edge_ids))


@dataclass(frozen=True)
class PathLPResult:
    """Solution of the path LP.

    Attributes
    ----------
    objective:
        The fractional optimum.
    columns:
        All generated path columns.
    weights:
        Array aligned with ``columns``: the optimal ``x_s`` of each column.
    capacity_duals:
        Final dual prices ``y_e`` of the capacity constraints.
    request_duals:
        Final dual prices ``z_r`` of the per-request constraints.
    iterations:
        Number of master re-solves performed.
    status:
        Solver status of the final master solve.
    """

    objective: float
    columns: tuple[PathColumn, ...]
    weights: np.ndarray
    capacity_duals: np.ndarray
    request_duals: np.ndarray
    iterations: int
    status: SolverStatus = SolverStatus.OPTIMAL

    @property
    def ok(self) -> bool:
        return self.status.ok

    def path_distribution(self, request_index: int) -> list[tuple[PathColumn, float]]:
        """The ``(column, weight)`` pairs of one request with positive weight."""
        out: list[tuple[PathColumn, float]] = []
        for col, w in zip(self.columns, self.weights):
            if col.request_index == int(request_index) and w > 1e-12:
                out.append((col, float(w)))
        return out

    def routed_fraction(self, request_index: int) -> float:
        """Total fractional acceptance ``sum_s x_s`` of one request."""
        return float(sum(w for _, w in self.path_distribution(request_index)))


def _initial_columns(instance: UFPInstance) -> list[PathColumn]:
    """Seed the master with the hop-count shortest path of every routable request."""
    graph = instance.graph
    unit = np.ones(graph.num_edges, dtype=np.float64)
    columns: list[PathColumn] = []
    by_source: dict[int, list[int]] = {}
    for idx, req in enumerate(instance.requests):
        by_source.setdefault(req.source, []).append(idx)
    for source, idxs in by_source.items():
        targets = {instance.requests[i].target for i in idxs}
        tree = single_source_dijkstra(graph, source, unit, targets=targets)
        for i in idxs:
            target = instance.requests[i].target
            if tree.reachable(target):
                vertices, edges = tree.path_to(target)
                columns.append(PathColumn(i, vertices, edges))
    return columns


def solve_path_lp(
    instance: UFPInstance,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-7,
    raise_on_failure: bool = True,
) -> PathLPResult:
    """Solve the Figure 1 relaxation by column generation.

    Parameters
    ----------
    max_iterations:
        Safety cap on the number of master re-solves; exceeding it raises
        :class:`~repro.exceptions.LPSolveError` because a truncated column
        generation would silently under-estimate the optimum.
    tolerance:
        Reduced-cost tolerance for admitting new columns.
    """
    graph = instance.graph
    m = graph.num_edges
    num_requests = instance.num_requests
    if num_requests == 0:
        return PathLPResult(
            objective=0.0,
            columns=(),
            weights=np.zeros(0),
            capacity_duals=np.zeros(m),
            request_duals=np.zeros(0),
            iterations=0,
        )

    columns: list[PathColumn] = _initial_columns(instance)
    known: set[tuple[int, tuple[int, ...]]] = {
        (c.request_index, c.edge_ids) for c in columns
    }

    if not columns:
        # No request is routable at all.
        return PathLPResult(
            objective=0.0,
            columns=(),
            weights=np.zeros(0),
            capacity_duals=np.zeros(m),
            request_duals=np.zeros(num_requests),
            iterations=0,
        )

    last_solution = None
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        # Build and solve the restricted master problem.
        lp = LinearProgram()
        owners = [instance.requests[col.request_index] for col in columns]
        lp.add_variables(
            len(columns), objective=[req.value for req in owners], upper=np.inf
        )
        # Capacity rows: d_r on every column whose path uses the edge.
        capacity_rows = lp.add_le_rows(
            [e for col in columns for e in col.edge_ids],
            [ci for ci, col in enumerate(columns) for _ in col.edge_ids],
            [req.demand for req, col in zip(owners, columns) for _ in col.edge_ids],
            graph.capacities,
        )
        # Request rows: the columns of request r share X_r <= 1.
        request_rows = lp.add_le_rows(
            [col.request_index for col in columns],
            np.arange(len(columns)),
            np.ones(len(columns)),
            np.ones(num_requests),
        )

        last_solution = solve_lp(lp, raise_on_failure=raise_on_failure)
        if not last_solution.ok:
            return PathLPResult(
                objective=float("nan"),
                columns=tuple(columns),
                weights=np.full(len(columns), np.nan),
                capacity_duals=np.full(m, np.nan),
                request_duals=np.full(num_requests, np.nan),
                iterations=iterations,
                status=last_solution.status,
            )

        y = last_solution.ineq_duals[np.asarray(capacity_rows, dtype=np.int64)]
        z = last_solution.ineq_duals[np.asarray(request_rows, dtype=np.int64)]
        # Guard against tiny negative duals from the solver.
        y = np.maximum(y, 0.0)

        # Pricing: for every request, the shortest path under y; add it when
        # its reduced cost v_r - z_r - d_r * len is positive.
        added = False
        by_source: dict[int, list[int]] = {}
        for idx, req in enumerate(instance.requests):
            by_source.setdefault(req.source, []).append(idx)
        for source, idxs in by_source.items():
            targets = {instance.requests[i].target for i in idxs}
            tree = single_source_dijkstra(graph, source, y, targets=targets)
            for i in idxs:
                req = instance.requests[i]
                if not tree.reachable(req.target):
                    continue
                length = tree.distance(req.target)
                reduced_cost = req.value - z[i] - req.demand * length
                if reduced_cost > tolerance:
                    vertices, edges = tree.path_to(req.target)
                    key = (i, tuple(edges))
                    if key not in known:
                        known.add(key)
                        columns.append(PathColumn(i, vertices, edges))
                        added = True
        if not added:
            break
    else:
        raise LPSolveError(
            f"column generation did not converge within {max_iterations} iterations"
        )

    weights = np.asarray(last_solution.x[: len(columns)], dtype=np.float64)
    capacity_duals = last_solution.ineq_duals[np.asarray(capacity_rows, dtype=np.int64)]
    request_duals = last_solution.ineq_duals[np.asarray(request_rows, dtype=np.int64)]
    return PathLPResult(
        objective=float(last_solution.objective),
        columns=tuple(columns),
        weights=weights,
        capacity_duals=capacity_duals,
        request_duals=request_duals,
        iterations=iterations,
        status=last_solution.status,
    )
