"""The fractional relaxation of the unsplittable flow ILP (Figure 1).

The paper's primal program (Figure 1) is written over simple paths; the
edge-flow formulation solved here is its standard polynomial-size
equivalent: for every request ``r`` and every arc ``a`` a variable
``g_{r,a} in [0, 1]`` gives the *fraction* of the request's demand routed
through that arc, with flow conservation at every vertex other than the
terminals and a per-request variable ``X_r in [0, 1]`` for the total routed
fraction.  Capacities couple the requests: ``sum_r d_r * (flow of r on edge
e) <= c_e``, where for an undirected edge both arc orientations count toward
the same capacity.  Disabled edges (substrate faults) contribute no arcs,
as in every shortest-path routine, but keep their capacity row so the
duals stay indexed by edge id.

The program is assembled from arrays: the conservation rows are one
per-vertex pattern tiled across requests, the capacity rows one pattern
broadcast over demands, and the results are read back by slicing.

The objective ``max sum_r v_r X_r`` equals the optimum of the relaxation of
the Figure 1 ILP, so it upper bounds the integral optimum — which is how
every experiment uses it.  With ``repetitions=True`` the per-request cap
``X_r <= 1`` is dropped, matching the relaxation of the Figure 5 ILP
(unsplittable flow with repetitions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import LPSolveError
from repro.flows.instance import UFPInstance
from repro.lp.model import LinearProgram, LPSolution
from repro.lp.solver import solve_lp
from repro.types import SolverStatus

__all__ = ["FractionalUFPResult", "solve_fractional_ufp"]


@dataclass(frozen=True)
class FractionalUFPResult:
    """Solution of the fractional UFP relaxation.

    Attributes
    ----------
    objective:
        The fractional optimum ``sum_r v_r X_r``.
    routed_fraction:
        Array over requests: the fraction ``X_r`` of each request routed
        (may exceed 1 in repetitions mode).
    edge_flows:
        Array of shape ``(num_requests, num_edges)`` with the demand units of
        each request crossing each logical edge (both orientations summed for
        undirected graphs).
    capacity_duals:
        Dual values ``y_e`` of the capacity constraints (the LP analogue of
        the algorithm's edge weights).
    status:
        Solver status (always optimal unless ``raise_on_failure=False``).
    """

    objective: float
    routed_fraction: np.ndarray
    edge_flows: np.ndarray
    capacity_duals: np.ndarray
    status: SolverStatus

    @property
    def ok(self) -> bool:
        return self.status.ok

    def edge_loads(self) -> np.ndarray:
        """Total demand load per edge of the fractional solution."""
        return self.edge_flows.sum(axis=0)


def solve_fractional_ufp(
    instance: UFPInstance,
    *,
    repetitions: bool = False,
    raise_on_failure: bool = True,
) -> FractionalUFPResult:
    """Solve the fractional relaxation of ``instance``.

    Parameters
    ----------
    instance:
        The UFP instance.
    repetitions:
        When ``True`` the per-request cap ``X_r <= 1`` is dropped (Figure 5
        relaxation); the optimum is then only bounded by the capacities.
    raise_on_failure:
        Raise :class:`~repro.exceptions.LPSolveError` on non-optimal status.

    Notes
    -----
    The multicommodity-flow relaxation may route a request along several
    paths or even around cycles; cycles never help the objective so the
    optimal basis returned by HiGHS does not contain them, but no
    post-processing relies on their absence.
    """
    graph = instance.graph
    m = graph.num_edges
    num_requests = instance.num_requests

    if m == 0:
        raise LPSolveError("cannot solve the relaxation of a graph with no edges")
    if num_requests == 0:
        return FractionalUFPResult(
            objective=0.0,
            routed_fraction=np.zeros(0),
            edge_flows=np.zeros((0, m)),
            capacity_duals=np.zeros(m),
            status=SolverStatus.OPTIMAL,
        )

    lp, live = _build_program(instance, repetitions=repetitions)
    solution: LPSolution = solve_lp(lp, raise_on_failure=raise_on_failure)

    if not solution.ok:
        return FractionalUFPResult(
            objective=float("nan"),
            routed_fraction=np.full(num_requests, np.nan),
            edge_flows=np.full((num_requests, m), np.nan),
            capacity_duals=np.full(m, np.nan),
            status=solution.status,
        )

    # Per-edge flow: the edge's arcs summed left to right from 0.0, then
    # scaled by the demand (undirected edges own two adjacent arc columns).
    g = solution.x[num_requests:].reshape(num_requests, -1)
    if graph.directed:
        total = 0.0 + g
    else:
        total = 0.0 + g[:, 0::2] + g[:, 1::2]
    demands = np.array([req.demand for req in instance.requests], dtype=np.float64)
    edge_flows = np.zeros((num_requests, m), dtype=np.float64)
    edge_flows[:, live] = demands[:, None] * total

    return FractionalUFPResult(
        objective=float(solution.objective),
        routed_fraction=solution.x[:num_requests].copy(),
        edge_flows=edge_flows,
        capacity_duals=solution.ineq_duals[:m].copy(),
        status=solution.status,
    )


def _build_program(
    instance: UFPInstance, *, repetitions: bool
) -> tuple[LinearProgram, np.ndarray]:
    """Assemble the edge-flow LP of ``instance`` from arrays.

    Returns the program and the ids of the live (not disabled) edges, whose
    arcs — one per directed edge, two adjacent ones per undirected edge —
    index the ``g`` block.  The layout is:

    * variables: ``X_r`` for every request, then ``g_{r,a}`` request-major,
      so ``g_{r,a}`` is column ``R + r*A + a``;
    * one conservation row per (request, vertex), request-major, for every
      vertex with a live arc plus the request's own terminals:
      ``out - in - X_r = 0`` at the source, ``out - in + X_r = 0`` at the
      target, ``out - in = 0`` elsewhere;
    * one capacity row per edge id (empty for a disabled edge, so the duals
      stay indexed by edge id): ``sum_r d_r * sum_{a of e} g_{r,a} <= c_e``.
    """
    graph = instance.graph
    n = graph.num_vertices
    m = graph.num_edges
    requests = instance.requests
    num_requests = len(requests)

    disabled = graph.disabled_edges
    live = np.array([e for e in range(m) if e not in disabled], dtype=np.int64)
    ends = np.array([graph.edge_endpoints(int(e)) for e in live], dtype=np.int64)
    ends = ends.reshape(-1, 2)
    if graph.directed:
        arc_tails, arc_heads, arc_edge = ends[:, 0], ends[:, 1], live
    else:
        arc_tails = ends.ravel()
        arc_heads = ends[:, ::-1].ravel()
        arc_edge = np.repeat(live, 2)
    num_arcs = arc_edge.size

    sources = np.array([req.source for req in requests], dtype=np.int64)
    targets = np.array([req.target for req in requests], dtype=np.int64)
    values = np.array([req.value for req in requests], dtype=np.float64)
    demands = np.array([req.demand for req in requests], dtype=np.float64)

    lp = LinearProgram()
    upper = np.inf if repetitions else 1.0
    lp.add_variables(num_requests, objective=values, upper=upper)
    lp.add_variables(num_requests * num_arcs, upper=upper)

    # g columns, shape (R, A): request-major offset plus the arc index.
    g_cols = num_requests + (
        np.arange(num_requests, dtype=np.int64)[:, None] * num_arcs
        + np.arange(num_arcs, dtype=np.int64)
    )
    request_ids = np.arange(num_requests, dtype=np.int64)

    # Conservation: the per-vertex template (which vertices carry a row)
    # tiled over requests, plus each request's terminal rows.
    has_row = np.zeros((num_requests, n), dtype=bool)
    has_row[:, arc_tails] = True
    has_row[:, arc_heads] = True
    has_row[request_ids, sources] = True
    has_row[request_ids, targets] = True
    row_of = np.cumsum(has_row).reshape(num_requests, n) - 1
    num_rows = int(row_of[-1, -1]) + 1
    rows = np.concatenate((
        row_of[:, arc_tails].ravel(),
        row_of[:, arc_heads].ravel(),
        row_of[request_ids, sources],
        row_of[request_ids, targets],
    ))
    cols = np.concatenate((g_cols.ravel(), g_cols.ravel(), request_ids, request_ids))
    vals = np.concatenate((
        np.ones(g_cols.size),
        np.full(g_cols.size, -1.0),
        np.full(num_requests, -1.0),
        np.ones(num_requests),
    ))
    lp.add_eq_rows(rows, cols, vals, np.zeros(num_rows))

    # Capacity: row e collects d_r on every g_{r,a} with a an arc of e.
    lp.add_le_rows(
        np.broadcast_to(arc_edge, g_cols.shape).ravel(),
        g_cols.ravel(),
        np.broadcast_to(demands[:, None], g_cols.shape).ravel(),
        graph.capacities,
    )
    return lp, live
