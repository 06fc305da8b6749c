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

The second half checks the hand-off itself.  :func:`repro.lp.solve_lp`
builds the ``HighsLp`` directly; :func:`linprog_solve` is ``solve_lp`` as
it was, the program's CSR blocks through :func:`scipy.optimize.linprog`.
Spies on ``_highs_wrapper`` (what ``linprog`` hands its HiGHS layer) and
on ``_Highs`` (the model and options HiGHS finally receives, on both
paths) must see byte-identical models and option values, and the two
solutions must be byte-identical, failures included.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import _linprog_highs, linprog
from scipy.optimize._highspy import _core

import repro.lp.fractional_muca as fractional_muca_module
import repro.lp.path_lp as path_lp_module
from repro.auctions import random_auction
from repro.flows import Request, UFPInstance, random_instance
from repro.graphs import CapacitatedGraph
from repro.lp import LinearProgram, LPSolution, solve_lp
from repro.lp.fractional_ufp import _build_program, solve_fractional_ufp
from repro.lp.solver import HIGHS_OPTIONS
from repro.scenarios.regimes import build_cell_instance
from repro.scenarios.specs import enumerate_cells, normalize_suite
from repro.scenarios.suites import get_suite
from repro.types import SolverStatus


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


# --------------------------------------------------------------------- #
# The direct HiGHS hand-off vs ``linprog``
# --------------------------------------------------------------------- #
_LINPROG_STATUS = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.ITERATION_LIMIT,
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.ERROR,
}


def linprog_solve(program: LinearProgram) -> LPSolution:
    """``solve_lp`` as it was before it called HiGHS directly."""
    mats = program.matrices()
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
    status = _LINPROG_STATUS[int(result.status)]
    n_ub = program.num_le_constraints
    n_eq = program.num_eq_constraints
    if not status.ok:
        return LPSolution(
            status=status,
            objective=float("nan"),
            x=np.full(program.num_variables, np.nan),
            ineq_duals=np.full(n_ub, np.nan),
            eq_duals=np.full(n_eq, np.nan),
        )
    return LPSolution(
        status=status,
        objective=float(-result.fun),
        x=np.asarray(result.x, dtype=np.float64),
        ineq_duals=(
            -np.asarray(result.ineqlin.marginals, dtype=np.float64)
            if n_ub else np.zeros(0)
        ),
        eq_duals=(
            -np.asarray(result.eqlin.marginals, dtype=np.float64)
            if n_eq else np.zeros(0)
        ),
    )


_OPTION_NAMES = sorted(n for n in dir(_core.HighsOptions()) if not n.startswith("_"))
_FLOAT_FIELDS = ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_")
_INT_FIELDS = ("start_", "index_")


def _read_back(lp) -> dict:
    """A ``HighsLp`` as HiGHS stores it: doubles and ``HighsInt`` as bytes."""
    matrix = lp.a_matrix_
    out = {
        "shape": (lp.num_col_, lp.num_row_, matrix.num_col_, matrix.num_row_),
        "format": matrix.format_,
        "sense": lp.sense_,
        "offset": lp.offset_,
        "integrality": list(lp.integrality_),
        "value_": np.asarray(matrix.value_, dtype=np.float64).tobytes(),
    }
    for name in _FLOAT_FIELDS:
        out[name] = np.asarray(getattr(lp, name), dtype=np.float64).tobytes()
    for name in _INT_FIELDS:
        out[name] = np.asarray(getattr(matrix, name), dtype=np.int64).tobytes()
    return out


class _HandOff:
    """Spies recording what each path gives HiGHS; ``take()`` drains them."""

    def __init__(self, monkeypatch) -> None:
        self.models: list[dict] = []
        self.options: list[dict] = []
        self.wrapper_calls: list[dict] = []
        spy = self

        class SpyHighs(_core._Highs):
            def passOptions(self, options):
                spy.options.append({n: getattr(options, n) for n in _OPTION_NAMES})
                return super().passOptions(options)

            def passModel(self, lp):
                spy.models.append(_read_back(lp))
                return super().passModel(lp)

        real_wrapper = _linprog_highs._highs_wrapper

        def spy_wrapper(c, indptr, indices, data, lhs, rhs, lb, ub, integrality, options):
            spy.wrapper_calls.append({
                "c": c.copy(), "indptr": indptr.copy(), "indices": indices.copy(),
                "data": data.copy(), "lhs": lhs.copy(), "rhs": rhs.copy(),
                "lb": lb.copy(), "ub": ub.copy(), "integrality": integrality.copy(),
                "options": dict(options),
            })
            return real_wrapper(c, indptr, indices, data, lhs, rhs, lb, ub,
                                integrality, options)

        monkeypatch.setattr(_core, "_Highs", SpyHighs)
        monkeypatch.setattr(_linprog_highs, "_highs_wrapper", spy_wrapper)

    def take(self) -> tuple[list, list, list]:
        out = (self.models, self.options, self.wrapper_calls)
        self.models, self.options, self.wrapper_calls = [], [], []
        return out


@pytest.fixture
def handoff(monkeypatch) -> _HandOff:
    return _HandOff(monkeypatch)


def _linprog_options(options: dict) -> dict:
    """The options ``_highs_wrapper`` actually sets, as it converts them."""
    out = {}
    for key, value in options.items():
        if value is None or key == "sense":
            continue
        if key == "presolve":
            value = "on" if value else "off"
        out[key] = value
    return out


def assert_same_handoff(handoff: _HandOff, program: LinearProgram) -> SolverStatus:
    """Solve both ways; the model, options and solution must match byte for byte."""
    direct = solve_lp(program, raise_on_failure=False)
    direct_models, direct_options, direct_wrapped = handoff.take()
    oracle = linprog_solve(program)
    linprog_models, linprog_options, (wrapped,) = handoff.take()

    assert direct_wrapped == []
    assert direct_models == linprog_models and len(direct_models) == 1
    assert direct_options == linprog_options and len(direct_options) == 1
    assert _linprog_options(wrapped["options"]) == HIGHS_OPTIONS
    assert wrapped["integrality"].size == 0

    # The arrays ``linprog`` hands its wrapper, against the program's own
    # column-wise form (dtype included), with ``kHighsInf`` standing for inf.
    form = program.columnwise()
    _same_bits(wrapped["c"], -form.c)
    _same_bits(wrapped["indptr"], form.matrix.indptr)
    _same_bits(wrapped["indices"], form.matrix.indices)
    _same_bits(wrapped["data"], form.matrix.data)
    assert _core.kHighsInf == np.inf
    for key, ours in (("lhs", form.row_lower), ("rhs", form.row_upper),
                      ("lb", form.col_lower), ("ub", form.col_upper)):
        _same_bits(wrapped[key], ours)

    assert direct.status is oracle.status
    _same_bits(np.float64(direct.objective), np.float64(oracle.objective))
    for field in ("x", "ineq_duals", "eq_duals"):
        _same_bits(getattr(direct, field), getattr(oracle, field))
    return direct.status


def _capture_programs(monkeypatch, module) -> list[LinearProgram]:
    """Record every program ``module`` hands to ``solve_lp``."""
    programs: list[LinearProgram] = []

    def recording_solve_lp(program, **kwargs):
        programs.append(program)
        return solve_lp(program, **kwargs)

    monkeypatch.setattr(module, "solve_lp", recording_solve_lp)
    return programs


def _demo_instances(seed: int) -> list[UFPInstance]:
    spec = get_suite("demo")
    spec["seed"] = seed
    seen: dict[str, UFPInstance] = {}
    for cell in enumerate_cells(normalize_suite(spec)):
        instance_key = cell.key.rsplit("/", 1)[0]
        if instance_key not in seen:
            seen[instance_key] = build_cell_instance(cell)[0]
    return list(seen.values())


@pytest.mark.parametrize("seed", [7, 11, 13])
def test_demo_cell_handoff_matches_linprog(handoff, seed):
    instances = _demo_instances(seed)
    assert len(instances) == 12
    for instance in instances:
        lp, _live = _build_program(instance, repetitions=False)
        assert assert_same_handoff(handoff, lp) is SolverStatus.OPTIMAL


@pytest.mark.parametrize("repetitions", [False, True])
def test_oracle_corpus_handoff_matches_linprog(handoff, repetitions):
    instances = list(_graph_cases().values()) + [
        random_instance(
            num_vertices=9, edge_probability=0.3, capacity=3.0, num_requests=12,
            directed=directed, seed=seed,
        )
        for seed in range(4)
        for directed in (True, False)
    ]
    for instance in instances:
        lp, _live = _build_program(instance, repetitions=repetitions)
        assert assert_same_handoff(handoff, lp) is SolverStatus.OPTIMAL


@pytest.mark.parametrize("seed", [0, 1])
def test_fractional_muca_handoff_matches_linprog(handoff, monkeypatch, seed):
    programs = _capture_programs(monkeypatch, fractional_muca_module)
    auction = random_auction(num_items=12, num_bids=40, multiplicity=3.0, seed=seed)
    fractional_muca_module.solve_fractional_muca(auction)
    (program,) = programs
    handoff.take()
    assert assert_same_handoff(handoff, program) is SolverStatus.OPTIMAL


@pytest.mark.parametrize("directed", [True, False])
def test_path_lp_column_generation_handoff_matches_linprog(handoff, monkeypatch, directed):
    programs = _capture_programs(monkeypatch, path_lp_module)
    instance = random_instance(
        num_vertices=10, edge_probability=0.3, capacity=1.0, num_requests=12,
        directed=directed, seed=5,
    )
    path_lp_module.solve_path_lp(instance)
    assert len(programs) == 4  # three rounds add columns
    handoff.take()
    for program in programs:
        assert assert_same_handoff(handoff, program) is SolverStatus.OPTIMAL


def _status_cases() -> dict[str, LinearProgram]:
    infeasible = LinearProgram()
    x = infeasible.add_variable(objective=1.0)
    infeasible.add_le_constraint({x: 1.0}, -5.0)

    unbounded = LinearProgram()
    unbounded.add_variable(objective=1.0)

    unbounded_rows = LinearProgram()
    a, b, z = unbounded_rows.add_variables(3, objective=[1.0, 0.0, 1.0], lower=-np.inf)
    unbounded_rows.add_le_constraint({a: 1.0, b: -1.0}, 1.0)
    unbounded_rows.add_eq_constraint({z: 1.0}, 2.0)

    infeasible_eq = LinearProgram()
    a, b = infeasible_eq.add_variables(2, objective=[1.0, 2.0], upper=1.0)
    infeasible_eq.add_eq_constraint({a: 1.0, b: 1.0}, 3.0)

    rows_only = LinearProgram()
    rows_only.add_variables(3, objective=[1.0, -1.0, 0.5], lower=-1.0, upper=2.0)

    free_eq = LinearProgram()
    a, b = free_eq.add_variables(2, objective=[2.0, 1.0], lower=-np.inf, upper=3.0)
    free_eq.add_eq_constraint({a: 1.0, b: 1.0}, 1.0)
    return {
        "infeasible": infeasible,
        "unbounded": unbounded,
        "unbounded_rows": unbounded_rows,
        "infeasible_eq": infeasible_eq,
        "rows_only": rows_only,
        "free_eq": free_eq,
    }


_PINNED_STATUS = {
    "infeasible": SolverStatus.INFEASIBLE,
    "unbounded": SolverStatus.UNBOUNDED,
    "unbounded_rows": SolverStatus.UNBOUNDED,
    "infeasible_eq": SolverStatus.INFEASIBLE,
    "rows_only": SolverStatus.OPTIMAL,
    "free_eq": SolverStatus.OPTIMAL,
}


@pytest.mark.parametrize("case", sorted(_PINNED_STATUS))
def test_statuses_pinned_to_linprog(handoff, case):
    assert assert_same_handoff(handoff, _status_cases()[case]) is _PINNED_STATUS[case]


_PERTURBATIONS = {
    # (which vector, index, shift) -> the status both paths must report
    "bound": (("col_value", 0, 1.0), SolverStatus.ERROR),
    "slack": (("row_value", 0, 1e-3), SolverStatus.ERROR),
    "residual": (("row_value", 1, -1e-3), SolverStatus.ERROR),
    "nan": (("col_value", 1, np.nan), SolverStatus.ERROR),
    "within_tolerance": (("row_value", 0, 1e-5), SolverStatus.OPTIMAL),
}


@pytest.mark.parametrize("case", sorted(_PERTURBATIONS))
def test_post_solve_check_demotes_like_linprog(handoff, monkeypatch, case):
    (vector, index, shift), expected = _PERTURBATIONS[case]

    class PerturbedHighs(_core._Highs):
        def getSolution(self):
            solution = super().getSolution()
            values = list(getattr(solution, vector))
            values[index] += shift
            setattr(solution, vector, values)
            return solution

    monkeypatch.setattr(_core, "_Highs", PerturbedHighs)
    lp = LinearProgram()
    x, y = lp.add_variables(2, objective=[1.0, 1.0], upper=2.0)
    lp.add_le_constraint({x: 1.0, y: 1.0}, 3.0)
    lp.add_eq_constraint({x: 1.0, y: -1.0}, 0.0)
    assert assert_same_handoff(handoff, lp) is expected
