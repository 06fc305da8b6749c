"""Exact-equality oracle for the array-built Figure 1 relaxation.

``loop_fractional_ufp`` is the per-scalar builder the edge LP used before it
was assembled from arrays: one Python append per variable and per nonzero,
one dict per conservation row, lists turned into COO and then CSR, bounds
handed to HiGHS as a list of pairs, and the results recovered by an
``r x m x arc`` loop.  It keeps that store to itself, so it does not lean
on :class:`repro.lp.LinearProgram` at all.  The one change from the old
builder is the disabled-edge fix: disabled edges contribute no arcs.

The array builder must hand HiGHS the very same problem — ``c``, bounds,
right-hand sides and the CSR ``data`` / ``indices`` / ``indptr`` of both
constraint blocks, byte for byte — and so return bit-equal objectives,
routed fractions, edge flows and capacity duals.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from repro.flows import Request, UFPInstance, random_instance
from repro.graphs import CapacitatedGraph
from repro.lp.fractional_ufp import _build_program, solve_fractional_ufp
from repro.scenarios.regimes import build_cell_instance
from repro.scenarios.specs import enumerate_cells, normalize_suite
from repro.scenarios.suites import get_suite


class _LoopProgram:
    """The list-of-scalars LP store, assembled through COO like before."""

    def __init__(self) -> None:
        self.c: list[float] = []
        self.bounds: list[tuple[float, float]] = []
        self.ub: tuple[list, list, list, list] = ([], [], [], [])
        self.eq: tuple[list, list, list, list] = ([], [], [], [])

    def add_variable(self, objective: float, upper: float) -> int:
        self.c.append(float(objective))
        self.bounds.append((0.0, float(upper)))
        return len(self.c) - 1

    def add_row(self, block, terms: dict[int, float], rhs: float) -> int:
        rows, cols, vals, rhs_list = block
        row = len(rhs_list)
        for var, coeff in terms.items():
            if coeff != 0.0:
                rows.append(row)
                cols.append(int(var))
                vals.append(float(coeff))
        rhs_list.append(float(rhs))
        return row

    def matrices(self) -> dict:
        n = len(self.c)
        out = {"c": np.asarray(self.c, dtype=np.float64), "bounds": self.bounds}
        for key, (rows, cols, vals, rhs) in (("ub", self.ub), ("eq", self.eq)):
            out[f"A_{key}"] = sparse.coo_matrix(
                (vals, (rows, cols)), shape=(len(rhs), n)
            ).tocsr()
            out[f"b_{key}"] = np.asarray(rhs, dtype=np.float64)
        return out


def loop_fractional_ufp(instance: UFPInstance, *, repetitions: bool = False):
    """Build with scalar loops, solve like ``solve_lp`` did, recover by loops.

    Returns ``(matrices, objective, routed, edge_flows, capacity_duals)``.
    """
    graph = instance.graph
    n = graph.num_vertices
    m = graph.num_edges
    num_requests = instance.num_requests

    arc_tails: list[int] = []
    arc_heads: list[int] = []
    arc_edge: list[int] = []
    for eid in range(m):
        if eid in graph.disabled_edges:
            continue
        u, v = graph.edge_endpoints(eid)
        arc_tails.append(u)
        arc_heads.append(v)
        arc_edge.append(eid)
        if not graph.directed:
            arc_tails.append(v)
            arc_heads.append(u)
            arc_edge.append(eid)
    num_arcs = len(arc_edge)

    lp = _LoopProgram()
    upper = np.inf if repetitions else 1.0
    x_vars = [lp.add_variable(req.value, upper) for req in instance.requests]
    g_vars = np.empty((num_requests, num_arcs), dtype=np.int64)
    for r in range(num_requests):
        for a in range(num_arcs):
            g_vars[r, a] = lp.add_variable(0.0, upper)

    out_arcs_of: list[list[int]] = [[] for _ in range(n)]
    in_arcs_of: list[list[int]] = [[] for _ in range(n)]
    for a in range(num_arcs):
        out_arcs_of[arc_tails[a]].append(a)
        in_arcs_of[arc_heads[a]].append(a)

    for r, req in enumerate(instance.requests):
        for v in range(n):
            terms: dict[int, float] = {}
            for a in out_arcs_of[v]:
                terms[int(g_vars[r, a])] = terms.get(int(g_vars[r, a]), 0.0) + 1.0
            for a in in_arcs_of[v]:
                terms[int(g_vars[r, a])] = terms.get(int(g_vars[r, a]), 0.0) - 1.0
            if v == req.source:
                terms[x_vars[r]] = terms.get(x_vars[r], 0.0) - 1.0
                lp.add_row(lp.eq, terms, 0.0)
            elif v == req.target:
                terms[x_vars[r]] = terms.get(x_vars[r], 0.0) + 1.0
                lp.add_row(lp.eq, terms, 0.0)
            elif terms:
                lp.add_row(lp.eq, terms, 0.0)

    capacity_rows: list[int] = []
    arcs_of_edge: list[list[int]] = [[] for _ in range(m)]
    for a in range(num_arcs):
        arcs_of_edge[arc_edge[a]].append(a)
    for eid in range(m):
        terms = {}
        for r, req in enumerate(instance.requests):
            for a in arcs_of_edge[eid]:
                terms[int(g_vars[r, a])] = req.demand
        capacity_rows.append(lp.add_row(lp.ub, terms, graph.edge_capacity(eid)))

    mats = lp.matrices()
    result = linprog(
        c=-mats["c"],
        A_ub=mats["A_ub"],
        b_ub=mats["b_ub"],
        A_eq=mats["A_eq"],
        b_eq=mats["b_eq"],
        bounds=mats["bounds"],
        method="highs",
        options=None,
    )
    assert result.status == 0, result.message
    x = np.asarray(result.x, dtype=np.float64)
    ineq_duals = -np.asarray(result.ineqlin.marginals, dtype=np.float64)

    routed = np.array([x[i] for i in x_vars], dtype=np.float64)
    edge_flows = np.zeros((num_requests, m), dtype=np.float64)
    for r, req in enumerate(instance.requests):
        for eid in range(m):
            total = 0.0
            for a in arcs_of_edge[eid]:
                total += float(x[int(g_vars[r, a])])
            edge_flows[r, eid] = req.demand * total
    capacity_duals = ineq_duals[np.asarray(capacity_rows, dtype=np.int64)]
    return mats, float(-result.fun), routed, edge_flows, capacity_duals


def _same_bits(a, b) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_oracle(instance: UFPInstance, *, repetitions: bool = False) -> None:
    mats, objective, routed, edge_flows, capacity_duals = loop_fractional_ufp(
        instance, repetitions=repetitions
    )
    lp, _live = _build_program(instance, repetitions=repetitions)
    built = lp.matrices()
    _same_bits(built["c"], mats["c"])
    _same_bits(built["bounds"], np.asarray(mats["bounds"], dtype=np.float64))
    for key in ("ub", "eq"):
        _same_bits(built[f"b_{key}"], mats[f"b_{key}"])
        new, old = built[f"A_{key}"], mats[f"A_{key}"]
        assert new.format == old.format == "csr"
        assert new.shape == old.shape
        _same_bits(new.data, old.data)
        _same_bits(new.indices, old.indices)
        _same_bits(new.indptr, old.indptr)

    result = solve_fractional_ufp(instance, repetitions=repetitions)
    _same_bits(np.float64(result.objective), np.float64(objective))
    _same_bits(result.routed_fraction, routed)
    _same_bits(result.edge_flows, edge_flows)
    _same_bits(result.capacity_duals, capacity_duals)


def _graph_cases() -> dict[str, UFPInstance]:
    directed = CapacitatedGraph(
        4, [(0, 1, 2.0), (1, 3, 1.5), (0, 2, 1.0), (2, 3, 2.5), (1, 2, 0.7)],
        directed=True,
    )
    undirected = CapacitatedGraph(4, directed.edge_list(), directed=False)
    parallel = CapacitatedGraph(
        3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.5), (1, 0, 0.5)], directed=False
    )
    requests = [
        Request(0, 3, 1.0, 4.0),
        Request(1, 3, 0.5, 1.0),
        Request(0, 2, 0.8, 2.0),
    ]
    return {
        "directed": UFPInstance(directed, requests),
        "undirected": UFPInstance(undirected, requests + [Request(3, 0, 0.6, 3.0)]),
        "parallel": UFPInstance(
            parallel, [Request(0, 2, 1.0, 3.0), Request(2, 0, 0.9, 2.0), Request(1, 0, 0.4, 1.0)]
        ),
        # Vertex 3 has no arcs at all: its request keeps terminal rows only.
        "disconnected": UFPInstance(
            CapacitatedGraph(4, [(0, 1, 1.0), (1, 2, 1.0)], directed=True),
            [Request(0, 3, 1.0, 5.0), Request(0, 2, 1.0, 1.0), Request(3, 1, 0.5, 2.0)],
        ),
        "disabled_directed": UFPInstance(
            directed.with_disabled_edges([1, 4]), requests
        ),
        "disabled_undirected": UFPInstance(
            parallel.with_disabled_edges([0]),
            [Request(0, 2, 1.0, 3.0), Request(2, 0, 0.9, 2.0)],
        ),
    }


@pytest.mark.parametrize("repetitions", [False, True])
@pytest.mark.parametrize("case", sorted(_graph_cases()))
def test_hand_built_graphs_match_oracle(case, repetitions):
    assert_matches_oracle(_graph_cases()[case], repetitions=repetitions)


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_instances_match_oracle(seed, directed):
    instance = random_instance(
        num_vertices=9,
        edge_probability=0.3,
        capacity=3.0,
        num_requests=12,
        directed=directed,
        seed=seed,
    )
    assert_matches_oracle(instance, repetitions=seed % 2 == 1)


_DEMO_CELLS = enumerate_cells(normalize_suite(get_suite("demo")))


@pytest.mark.parametrize("cell", _DEMO_CELLS, ids=[c.key for c in _DEMO_CELLS])
def test_demo_cells_match_oracle(cell):
    instance, _topology, _base = build_cell_instance(cell)
    assert_matches_oracle(instance)
