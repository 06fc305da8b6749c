"""Micro-benchmarks of the hot primitives underneath the experiments.

These are not tied to a paper artifact; they document the cost of the
building blocks (Dijkstra pricing, one Bounded-UFP run, the fractional LP,
the Garg–Könemann FPTAS, critical-value payment computation) so regressions
in the substrates are visible independently of the experiment sweeps.

The ``*_kernel`` rows sweep the same workload across the compute-kernel
tiers of :mod:`repro.kernels` (``lists`` / ``numpy`` / ``numba``); all
tiers are bit-identical, so any timing difference is pure implementation
speed.  Record them with::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_primitives.py -q \
        -k kernel --benchmark-json=benchmarks/BENCH_KERNELS.json

The committed ``benchmarks/BENCH_KERNELS.json`` documents the measured
tier speedups on the reference machine (the perf gate itself stays on the
lists tier; see ``bench_pr4_gate.py``).

The ``tree_crossover`` rows are the evidence for
``repro.graphs.shortest_path.COMPILED_MIN_VERTICES``: one full tree by the
Python heap loop and by the compiled csgraph path, on a graph below the
crossover (the 12-vertex contended graph) and one above it (the
360-vertex region composite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_primitives.py -q \
        -k tree_crossover
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core import bounded_muca, bounded_ufp
from repro.flows import random_instance
from repro.auctions import random_auction
from repro.fractional import garg_konemann_fractional_ufp
from repro.graphs import multi_region_topology, random_digraph, single_source_dijkstra
from repro.graphs.shortest_path import (
    COMPILED_MIN_VERTICES,
    compiled_tree,
    dijkstra_lists,
)
from repro.kernels import get_kernel, kernel_available, use_kernel
from repro.lp import solve_fractional_ufp
from repro.mechanism import compute_ufp_payments


def _kernel_tier_params():
    """All compute-kernel tiers, with the numba row skipped (not failed)
    when the optional dependency is absent."""
    params = []
    for name in ("lists", "numpy", "numba"):
        marks = []
        if name == "numba" and not kernel_available("numba"):
            marks.append(
                pytest.mark.skip(
                    reason="the numba kernel tier needs the optional numba "
                    "dependency (pip install 'repro-bounded-ufp[numba]')"
                )
            )
        params.append(pytest.param(name, marks=marks))
    return params


KERNEL_TIERS = _kernel_tier_params()


@pytest.fixture(scope="module")
def medium_instance():
    return random_instance(
        num_vertices=20, edge_probability=0.2, capacity=50.0,
        num_requests=80, demand_range=(0.3, 1.0), seed=13,
    )


@pytest.fixture(scope="module")
def medium_auction():
    return random_auction(
        num_items=30, num_bids=200, multiplicity=40.0, bundle_size_range=(1, 5), seed=13
    )


def test_bench_dijkstra_pricing(benchmark):
    """One shortest-path tree on a 300-vertex random digraph."""
    graph = random_digraph(300, 0.03, 10.0, seed=5)
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.01, 1.0, size=graph.num_edges)
    result = benchmark(lambda: single_source_dijkstra(graph, 0, weights))
    assert result.distance(0) == 0.0


def test_bench_bounded_ufp_medium(benchmark, medium_instance):
    """A full Bounded-UFP run on an 80-request instance."""
    allocation = benchmark(lambda: bounded_ufp(medium_instance, 0.3))
    assert allocation.is_feasible()


def test_bench_bounded_muca_medium(benchmark, medium_auction):
    """A full Bounded-MUCA run on a 200-bid auction."""
    allocation = benchmark(lambda: bounded_muca(medium_auction, 0.3))
    assert allocation.is_feasible()


def test_bench_fractional_lp(benchmark, medium_instance):
    """The edge-flow LP relaxation of the 80-request instance."""
    result = benchmark.pedantic(
        lambda: solve_fractional_ufp(medium_instance), rounds=1, iterations=1
    )
    assert result.ok


def test_bench_garg_konemann(benchmark, medium_instance):
    """The combinatorial FPTAS on the same instance (eps = 0.2)."""
    result = benchmark.pedantic(
        lambda: garg_konemann_fractional_ufp(medium_instance, 0.2),
        rounds=1,
        iterations=1,
    )
    assert result.objective > 0.0


@pytest.mark.parametrize("kernel_name", KERNEL_TIERS)
def test_bench_dijkstra_kernel_micro(benchmark, kernel_name):
    """One shortest-path tree through each compute-kernel tier directly.

    Same 300-vertex digraph as ``test_bench_dijkstra_pricing``, but calling
    ``kernel.dijkstra`` without the validating wrapper so the rows isolate
    the tiers' tree paths (the compiled csgraph path of the lists and numpy
    tiers, the numba JIT heap).  One warm-up call outside the timed region
    absorbs the one-off costs the tiers amortize in real runs (CSR
    materialization, JIT compilation)."""
    graph = random_digraph(300, 0.03, 10.0, seed=5)
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.01, 1.0, size=graph.num_edges)
    with use_kernel(kernel_name):
        kernel = get_kernel()
        wlist = weights.tolist() if kernel.wants_weights_list else None
        kernel.dijkstra(graph, weights, wlist, 0)  # warm-up
        dist, _pv, _pe = benchmark(
            lambda: kernel.dijkstra(graph, weights, wlist, 0)
        )
    assert dist[0] == 0.0


def _crossover_graph(name):
    if name == "contended12":
        # The graph of the contended payments workload (12 vertices).
        return random_instance(
            num_vertices=12, edge_probability=0.25, capacity=15.0,
            num_requests=120, demand_range=(0.5, 1.0), seed=13,
        ).graph
    # The global region solve's composite (360 vertices, 495 edges).
    return multi_region_topology(10, 6, 5, 60.0, 30.0, 15.0, seed=13)


@pytest.mark.parametrize("tree_path", ["lists", "compiled"])
@pytest.mark.parametrize("graph_name", ["contended12", "region360"])
def test_bench_tree_crossover(benchmark, graph_name, tree_path):
    """One full tree under the initial weights ``1/c``, by each path, on
    each side of ``COMPILED_MIN_VERTICES``.  Both paths return the same
    tree; the rows time only the path.  One warm-up call builds the cached
    CSR structures outside the timed region."""
    graph = _crossover_graph(graph_name)
    assert (graph.num_vertices < COMPILED_MIN_VERTICES) == (
        graph_name == "contended12"
    )
    weights = 1.0 / graph.capacities
    if tree_path == "compiled":
        run = partial(compiled_tree, graph, weights, 0)
    else:
        indptr, heads, eids = graph.csr_lists()
        run = partial(
            dijkstra_lists, graph.num_vertices, indptr, heads, eids,
            weights.tolist(), 0,
        )
    expected = run()
    tree = benchmark(run)
    assert tree == expected


@pytest.mark.parametrize("kernel_name", KERNEL_TIERS)
def test_bench_payments_replay_medium_kernel(benchmark, kernel_name, jobs):
    """Trace-replay payments on the contended medium instance, per tier.

    The same workload as the gate's ``payments_replay_medium`` row (which
    stays on the default lists tier so ``compare_bench.py`` keeps gating
    single-core reference performance).  The instance is rebuilt inside each
    parametrization so one tier's per-graph tree memo cannot warm another's
    timing."""
    instance = random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=120, demand_range=(0.5, 1.0), seed=13,
    )
    with use_kernel(kernel_name):
        algorithm = partial(bounded_ufp, epsilon=0.3)
        allocation = bounded_ufp(instance, 0.3)
        payments = benchmark.pedantic(
            lambda: compute_ufp_payments(
                algorithm, instance, allocation, jobs=jobs, use_trace=True
            ),
            rounds=3,
            iterations=1,
        )
    assert (payments > 0).sum() == allocation.num_selected


@pytest.mark.parametrize("kernel_name", KERNEL_TIERS)
def test_bench_campaign_cell_small_kernel(benchmark, kernel_name):
    """One small scenario-campaign cell end to end, per kernel tier.

    Mirrors the gate's ``campaign_cell_small`` row.  This cell is
    LP-dominated, so the tiers are expected to sit close together — the row
    pair documents that the kernel layer adds no dispatch overhead where it
    cannot win."""
    from repro.scenarios import enumerate_cells, run_cell

    suite = {
        "name": "bench",
        "seed": 17,
        "topologies": [{"name": "wan", "family": "waxman", "num_vertices": 16}],
        "regimes": [
            {
                "name": "stress",
                "capacity": {"scale_log_m": 3.0, "min": 2.0},
                "num_requests": 30,
            }
        ],
        "modes": [{"name": "offline", "kind": "offline", "bound": "lp"}],
    }
    (cell,) = enumerate_cells(suite)

    with use_kernel(kernel_name):
        outcome = benchmark.pedantic(
            lambda: run_cell(cell), rounds=3, iterations=1
        )
    record = outcome.rows[0]
    assert record["claims_ok"] and record["admitted"] > 0


def test_bench_critical_value_payments(benchmark, jobs):
    """Critical-value payments for the winners of a 15-request instance.

    Honors ``--jobs N``: the per-winner bisections fan out over a process
    pool with byte-identical payments (see ``repro.parallel``)."""
    instance = random_instance(
        num_vertices=8, edge_probability=0.4, capacity=10.0,
        num_requests=15, demand_range=(0.4, 1.0), seed=3,
    )

    def run():
        allocation = bounded_ufp(instance, 0.4)
        return compute_ufp_payments(
            lambda declared: bounded_ufp(declared, 0.4),
            instance,
            allocation,
            jobs=jobs,
        )

    payments = benchmark.pedantic(run, rounds=1, iterations=1)
    assert np.all(payments >= 0.0)
