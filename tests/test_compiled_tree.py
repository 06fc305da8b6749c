"""Differential tests for the compiled shortest-path tree path.

:func:`repro.graphs.shortest_path.compiled_tree` takes distances from
``scipy.sparse.csgraph.dijkstra`` and reconstructs parents in numpy; it
must return exactly what the Python heap loop returns.  Most test graphs
sit below the size crossover (``COMPILED_MIN_VERTICES``), so the tree-level
tests here call ``compiled_tree`` directly and compare it byte for byte
with :func:`dijkstra_lists` and :func:`reference_dijkstra`: distances,
parent vertices, parent edges and the pricing engine's edge mask.  The
declining cases (parallel arcs, a zero weight, ``fl(d + w) == d``, an
overflowing sum) must return ``None`` while :func:`shortest_path_tree`
still returns the reference tree.  The engine-level test runs
``bounded_ufp`` on a composite above the crossover against
:mod:`repro.core.reference` and against the Python tree path's counters.
"""

from __future__ import annotations

import importlib
import struct

import numpy as np
import pytest
from tree_paths import use_tree_path

from test_differential_fuzz import DIJKSTRA_SEEDS, _assert_same_allocation

from repro.core import bounded_ufp
from repro.core.pricing_engine import _PricedTree
from repro.core.reference import reference_bounded_ufp
from repro.flows import Request, UFPInstance
from repro.graphs import CapacitatedGraph
from repro.graphs.generators import (
    grid_graph,
    multi_region_leaves,
    multi_region_topology,
    random_digraph,
    random_graph,
)
from repro.graphs.shortest_path import (
    COMPILED_MIN_VERTICES,
    compiled_tree,
    dijkstra_lists,
    reference_dijkstra,
    shortest_path_tree,
)
from repro.utils.prng import ensure_rng

# The package re-exports a function named shortest_path; take the module.
sp = importlib.import_module("repro.graphs.shortest_path")

pytestmark = pytest.mark.fuzz


def _float_bytes(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _mask(graph, source, tree) -> int:
    return _PricedTree(source, *tree, graph.num_edges).edge_mask


def _lists_tree(graph, weights, source):
    indptr, heads, eids = graph.csr_lists()
    return dijkstra_lists(
        graph.num_vertices, indptr, heads, eids, weights.tolist(), source
    )


def _assert_tree_equals_oracles(graph, weights, source, tree) -> None:
    """``tree`` equals the Python loop and the reference, byte for byte."""
    lists = _lists_tree(graph, weights, source)
    ref = reference_dijkstra(graph, source, weights)
    assert _float_bytes(tree[0]) == _float_bytes(lists[0])
    assert _float_bytes(tree[0]) == ref.distances.tobytes()
    assert tree[1] == lists[1] == ref.parent_vertex.tolist()
    assert tree[2] == lists[2] == ref.parent_edge.tolist()
    ref_mask = sum(1 << e for e in ref.used_edge_ids())
    assert _mask(graph, source, tree) == _mask(graph, source, lists) == ref_mask


def _assert_compiled_matches(graph, weights, sources=None) -> None:
    weights = np.asarray(weights, dtype=np.float64)
    for source in range(graph.num_vertices) if sources is None else sources:
        tree = compiled_tree(graph, weights, source)
        assert tree is not None, f"compiled path declined source {source}"
        _assert_tree_equals_oracles(graph, weights, source, tree)


# --------------------------------------------------------------------- #
# The fuzz corpus, every source, crossover bypassed
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", DIJKSTRA_SEEDS)
def test_fuzz_corpus_matches_lists_and_reference(seed):
    # Same graph and weight draws as test_dijkstra_matches_reference.
    rng = ensure_rng(seed)
    num_vertices = int(rng.integers(4, 20))
    build = random_digraph if seed % 2 else random_graph
    graph = build(
        num_vertices,
        float(rng.uniform(0.1, 0.6)),
        (0.5, 5.0),
        seed=rng,
        ensure_connected=bool(rng.integers(0, 2)),
    )
    weights = rng.uniform(1e-6, 10.0, size=graph.num_edges)
    _assert_compiled_matches(graph, weights)


@pytest.mark.parametrize("seed", DIJKSTRA_SEEDS[:10])
@pytest.mark.parametrize("directed", [False, True])
def test_initial_weights_with_uniform_capacities_are_tie_heavy(seed, directed):
    """``y = 1/c`` with one capacity makes every arc weigh the same: most
    vertices have several tight in-arcs and the tie-break decides."""
    rng = ensure_rng(seed)
    build = random_digraph if directed else random_graph
    graph = build(
        int(rng.integers(8, 40)), float(rng.uniform(0.1, 0.4)), 10.0, seed=rng
    )
    _assert_compiled_matches(graph, 1.0 / graph.capacities)


@pytest.mark.parametrize("directed", [False, True])
def test_grid_and_region_composite_initial_weights(directed):
    for graph in (
        grid_graph(9, 9, 4.0, directed=directed, seed=1),
        multi_region_topology(
            4, 3, 4, 60.0, 30.0, 15.0, seed=2, directed=directed
        ),
    ):
        weights = 1.0 / graph.capacities
        _assert_compiled_matches(graph, weights, range(0, graph.num_vertices, 3))


@pytest.mark.parametrize("seed", DIJKSTRA_SEEDS[:10])
def test_disabled_edges_are_never_parents(seed):
    rng = ensure_rng(seed)
    graph = random_graph(24, 0.25, (1.0, 5.0), seed=rng)
    disabled = rng.choice(graph.num_edges, size=graph.num_edges // 3, replace=False)
    graph = graph.with_disabled_edges(int(e) for e in disabled)
    weights = rng.uniform(0.1, 3.0, size=graph.num_edges)
    _assert_compiled_matches(graph, weights)
    for source in range(graph.num_vertices):
        used = set(compiled_tree(graph, weights, source)[2])
        assert not used & set(graph.disabled_edges)


def test_unreachable_vertices_keep_inf_and_no_parent():
    # Two directed components plus an isolated vertex.
    edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0), (3, 4, 1.0), (4, 3, 1.0)]
    graph = CapacitatedGraph(6, edges, directed=True)
    weights = np.array([0.5, 0.25, 0.75, 1.0, 1.0])
    _assert_compiled_matches(graph, weights)
    dist, parent_vertex, parent_edge = compiled_tree(graph, weights, 0)
    assert dist[3:] == [float("inf")] * 3
    assert parent_vertex[3:] == parent_edge[3:] == [-1] * 3


# --------------------------------------------------------------------- #
# Declining cases: compiled_tree returns None, the size-selected entry
# point still returns the reference tree even above the crossover
# --------------------------------------------------------------------- #
def _padded(edges, n=COMPILED_MIN_VERTICES):
    """``edges`` on a graph padded with isolated vertices up to ``n``, so
    :func:`shortest_path_tree` would pick the compiled path."""
    return CapacitatedGraph(n, edges, directed=True)


def _assert_declines_and_falls_back(graph, weights, source=0) -> None:
    weights = np.asarray(weights, dtype=np.float64)
    assert graph.num_vertices >= COMPILED_MIN_VERTICES
    assert compiled_tree(graph, weights, source) is None
    tree = shortest_path_tree(graph, weights, None, source)
    _assert_tree_equals_oracles(graph, weights, source, tree)


def test_parallel_arcs_decline():
    graph = _padded([(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)])
    _assert_declines_and_falls_back(graph, [2.0, 1.0, 1.0])


def test_zero_weight_declines():
    graph = _padded([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    _assert_declines_and_falls_back(graph, [0.0, 1.0, 3.0])


def test_absorbed_weight_declines():
    """``fl(1.0 + 1e-17) == 1.0``: vertex 2 ends at its tail's distance, so
    it has no strictly tight in-arc and the proof does not cover it."""
    assert 1.0 + 1e-17 == 1.0
    graph = _padded([(0, 1, 1.0), (1, 2, 1.0)])
    _assert_declines_and_falls_back(graph, [1.0, 1e-17])


def test_overflowing_sum_declines():
    """``1e308 + 1e308 == inf``: vertex 2 is unreachable for the Python
    loop (no strict improvement over ``inf``) and must stay so."""
    graph = _padded([(0, 1, 1.0), (1, 2, 1.0)])
    _assert_declines_and_falls_back(graph, [1e308, 1e308])


def test_crossover_selects_the_path(monkeypatch):
    calls = []
    real = sp.compiled_tree
    monkeypatch.setattr(
        sp, "compiled_tree", lambda *args: calls.append(args[2]) or real(*args)
    )
    small = grid_graph(3, 3, 1.0)
    large = grid_graph(10, 10, 1.0)
    assert small.num_vertices < COMPILED_MIN_VERTICES <= large.num_vertices
    shortest_path_tree(small, 1.0 / small.capacities, None, 0)
    assert calls == []
    shortest_path_tree(large, 1.0 / large.capacities, None, 5)
    assert calls == [5]


# --------------------------------------------------------------------- #
# Engine level: a solve above the crossover
# --------------------------------------------------------------------- #
_COUNTERS = (
    "pricing_dijkstra_calls",
    "pricing_kernel_calls",
    "pricing_tree_reuses",
    "pricing_trees_invalidated",
)


def _region_instance(seed: int) -> UFPInstance:
    rng = ensure_rng(seed)
    regions, cores, leaves = 5, 4, 4
    graph = multi_region_topology(
        regions, cores, leaves, 60.0, 30.0, 15.0, seed=int(rng.integers(2**31))
    )
    pool = multi_region_leaves(regions, cores, leaves)
    requests = []
    for _ in range(60):
        u, v = rng.choice(pool, size=2, replace=False)
        requests.append(
            Request(
                int(u), int(v),
                demand=float(rng.uniform(0.2, 1.0)),
                value=float(rng.uniform(0.5, 2.0)),
            )
        )
    return UFPInstance(graph, requests)


@pytest.mark.parametrize("seed", [3, 11])
def test_bounded_ufp_above_crossover_matches_reference_and_counters(
    seed, monkeypatch
):
    assert _region_instance(seed).graph.num_vertices >= COMPILED_MIN_VERTICES
    compiled = []
    real = sp.compiled_tree

    def spy(*args):
        tree = real(*args)
        compiled.append(tree is not None)
        return tree

    monkeypatch.setattr(sp, "compiled_tree", spy)
    actual = bounded_ufp(_region_instance(seed), 0.5)
    # Non-vacuous: the engine's trees came from the compiled path.
    assert compiled and all(compiled)
    assert actual.num_selected > 0
    _assert_same_allocation(actual, reference_bounded_ufp(_region_instance(seed), 0.5))
    # Fresh instance: the per-graph tree memo must not carry trees over.
    with use_tree_path("lists"):
        python = bounded_ufp(_region_instance(seed), 0.5)
    for key in _COUNTERS:
        assert actual.stats.extra[key] == python.stats.extra[key], key
    assert actual.stats.extra["pricing_dijkstra_calls"] == len(compiled)
