"""Shortest path computations under mutable per-edge weights.

The primal-dual algorithms of the paper (``Bounded-UFP`` and
``Bounded-UFP-Repeat``) repeatedly ask for the shortest ``s_r -> t_r`` path
under the *current* dual weights ``y_e >= 0``.  Weights are always
non-negative, so Dijkstra with a binary heap is correct; Bellman-Ford is
provided as an independent oracle for differential testing.

Every shortest-path tree of the library is bit-identical to
:func:`reference_dijkstra`, the original straightforward numpy-indexing
implementation kept as the differential-testing oracle.  Its tie-breaking
is the contract: heap entries are ``(dist, vertex)`` tuples (so equal
distances settle in vertex order), and a relaxation only overwrites a
parent on a strict improvement (so the first arc, in CSR order from the
earliest-settled tail, that attains the final distance is the parent).

Two ways to compute a full tree
-------------------------------
:func:`shortest_path_tree` is the one full-tree entry point (the compute
kernels call it whenever no ``targets`` early exit is requested).  It picks
the implementation by graph size:

* :func:`dijkstra_lists` — the hot loop over flat Python lists (the CSR
  adjacency pre-extracted once per graph via
  :meth:`~repro.graphs.graph.CapacitatedGraph.csr_lists`) and an
  array-backed binary heap.  It serves graphs below
  :data:`COMPILED_MIN_VERTICES`, every ``targets`` early exit, and every
  graph the compiled path declines.
* :func:`compiled_tree` — graphs with at least
  :data:`COMPILED_MIN_VERTICES` vertices get their distances from
  ``scipy.sparse.csgraph.dijkstra`` on a CSR matrix cached on
  :attr:`CapacitatedGraph.substrate_cache` (only its ``data`` vector,
  ``weights[arc_edge_ids]``, is rewritten per call); the parents are then
  *reconstructed* in numpy under the lists kernel's tie-breaking.  The
  crossover is measured: the compiled path's cost per tree is mostly a
  fixed cost (the csgraph call and the reconstruction), the Python loop's
  grows with the graph, and the two break even at ~80-90 vertices on
  region composites and grids (~60 on denser random graphs).  On the
  12-vertex contended graph the Python loop is ~6x faster, on the
  360-vertex region composite the compiled path is ~3.5x faster
  (``benchmarks/bench_micro_primitives.py -k tree_crossover`` keeps one
  row on each side).
  It declines — returns ``None`` so the caller runs the Python loop — on
  graphs with parallel arcs (the CSR constructor would sum them), on any
  weight ``<= 0`` (the proof below needs ``w > 0``), and whenever the
  reconstruction leaves a reachable vertex without a parent.

Why the compiled tree is bit-identical
--------------------------------------
*Distances.*  IEEE addition is monotone, so with non-negative weights any
Dijkstra settles vertices in non-decreasing distance order and the value
it stores at ``v`` is the minimum, over all ``s -> v`` paths, of the path
weight summed left to right in float64.  That minimum does not depend on
the heap or the tie-breaking, so csgraph's ``d[u] + w`` relaxations and
the lists kernel's produce the same double at every vertex.

*Parents.*  Call an arc ``u -> v`` *tight* when ``dist[u] + w == dist[v]``
and ``dist[u] < dist[v]`` (strictly).  The lists kernel's parent of ``v``
is the first relaxation, in processing order, that attains the final
``dist[v]``; tails are processed in settle order, i.e. by ``(dist,
vertex id)``, and arcs of one tail in CSR order.  A tail with
``dist[u] < dist[v]`` settles before ``v``, so its tight arc is relaxed
while ``v`` is open, and the first such relaxation sets ``dist[v]`` to its
final value; no later one is a strict improvement.  Hence, whenever ``v``
has a tight arc, its parent is the tight arc minimizing ``(dist[u], vertex
id of u, CSR position)``.  The CSR arrays are stable-sorted by tail, so
the arc index orders ``(vertex id, CSR position)`` and the winner is the
tight arc with the smallest ``(dist[tail], arc index)`` — one ``lexsort``
over the tight arcs.  The argument needs every reachable vertex but the
source to have a tight arc, and no unreachable one to have one.  Both can
fail only in float corner cases — ``fl(d + w) == d`` for a tiny ``w > 0``,
or ``d + w`` overflowing to ``inf`` — so the reconstruction counts its
parents and the compiled path declines on a mismatch.

The resulting trees are independent of how they were computed, so nothing
downstream — the pricing engine's tree cache and its invalidation index,
the tree memo, the hashed counters — depends on which path ran.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass

import numpy as np

from repro.exceptions import NoPathError
from repro.graphs.graph import CapacitatedGraph

__all__ = [
    "ShortestPathResult",
    "COMPILED_MIN_VERTICES",
    "compiled_tree",
    "dijkstra_lists",
    "shortest_path_tree",
    "single_source_dijkstra",
    "reference_dijkstra",
    "shortest_path",
    "bellman_ford",
]

#: Graphs with at least this many vertices take their full trees from
#: :func:`compiled_tree`; smaller ones stay on :func:`dijkstra_lists`.
COMPILED_MIN_VERTICES = 96

_CSGRAPH_CACHE_KEY = "shortest_path/csgraph"


@dataclass(frozen=True)
class ShortestPathResult:
    """The shortest-path tree of one source vertex.

    Attributes
    ----------
    source:
        The source vertex the tree is rooted at.
    distances:
        Array of length ``n``; ``distances[v]`` is the weight of the shortest
        path from ``source`` to ``v`` (``inf`` when unreachable).
    parent_vertex:
        ``parent_vertex[v]`` is the predecessor of ``v`` on its shortest path
        (``-1`` for the source and unreachable vertices).
    parent_edge:
        ``parent_edge[v]`` is the edge id used to enter ``v`` (``-1`` when
        not applicable).
    """

    source: int
    distances: np.ndarray
    parent_vertex: np.ndarray
    parent_edge: np.ndarray

    def reachable(self, target: int) -> bool:
        return bool(np.isfinite(self.distances[target]))

    def distance(self, target: int) -> float:
        return float(self.distances[target])

    def path_to(self, target: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Return ``(vertex_path, edge_id_path)`` from the source to ``target``.

        Raises :class:`~repro.exceptions.NoPathError` if ``target`` is not
        reachable from the source.
        """
        target = int(target)
        if not self.reachable(target):
            raise NoPathError(f"vertex {target} unreachable from {self.source}")
        vertices: list[int] = [target]
        edges: list[int] = []
        v = target
        while v != self.source:
            e = int(self.parent_edge[v])
            p = int(self.parent_vertex[v])
            edges.append(e)
            vertices.append(p)
            v = p
        vertices.reverse()
        edges.reverse()
        return tuple(vertices), tuple(edges)

    def used_edge_ids(self) -> set[int]:
        """The set of edge ids appearing as parent edges anywhere in the tree.

        This is the invalidation footprint used by the tree caches: as long
        as no weight of an edge in this set changes (and no weight decreases
        at all), a rerun of Dijkstra would reproduce this exact tree.
        """
        used = set(self.parent_edge.tolist())
        used.discard(-1)
        return used


def _validate_weights(graph: CapacitatedGraph, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (graph.num_edges,):
        raise ValueError(
            f"weights must have shape ({graph.num_edges},), got {weights.shape}"
        )
    if graph.num_edges and float(weights.min()) < 0.0:
        raise ValueError("Dijkstra requires non-negative weights")
    return weights


def dijkstra_lists(
    n: int,
    indptr: list[int],
    adj_heads: list[int],
    adj_edge_ids: list[int],
    w: list[float],
    source: int,
    targets: set[int] | None = None,
) -> tuple[list[float], list[int], list[int]]:
    """The Dijkstra hot loop over flat Python lists.

    Returns ``(dist, parent_vertex, parent_edge)`` as plain lists
    (unreachable vertices carry ``inf`` / ``-1``).  Serves every ``targets``
    early exit and the full trees of small graphs (see
    :func:`shortest_path_tree`).  Arithmetic and tie-breaking are
    bit-identical to :func:`reference_dijkstra`.
    """
    inf = float("inf")
    dist = [inf] * n
    parent_vertex = [-1] * n
    parent_edge = [-1] * n
    settled = bytearray(n)

    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    # Copy: the early-exit set is drained as targets settle, and callers may
    # reuse theirs across several sources.
    remaining = set(targets) if targets is not None else None

    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for k in range(indptr[u], indptr[u + 1]):
            v = adj_heads[k]
            if settled[v]:
                continue
            nd = d + w[adj_edge_ids[k]]
            if nd < dist[v]:
                dist[v] = nd
                parent_vertex[v] = u
                parent_edge[v] = adj_edge_ids[k]
                heappush(heap, (nd, v))

    return dist, parent_vertex, parent_edge


def _csgraph_structure(graph: CapacitatedGraph):
    """Per-graph cached ``(matrix, lock, arc_tails, arc_heads, arc_eids,
    ints)``, or ``None`` when the graph has parallel arcs.

    ``matrix`` is a CSR matrix over the graph's own arc order whose
    ``data`` is rewritten on every call, under ``lock`` (threads may share
    a graph); ``ints`` is an object array of ``range(-1, max(n, m))`` so
    parent lists are built from shared int objects (a memoized tree then
    holds no ints of its own).
    """
    cached = graph.substrate_cache.get(_CSGRAPH_CACHE_KEY)
    if cached is None:
        from scipy.sparse import csr_matrix

        n = graph.num_vertices
        indptr = graph.indptr
        arc_heads = graph.adjacency_heads
        arc_tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        pair_keys = arc_tails * n + arc_heads
        if np.unique(pair_keys).size < pair_keys.size:
            cached = (None,)
        else:
            matrix = csr_matrix(
                (np.ones(arc_heads.size), arc_heads.astype(np.int32),
                 indptr.astype(np.int32)),
                shape=(n, n),
            )
            ints = np.array(range(-1, max(n, graph.num_edges)), dtype=object)
            cached = (
                matrix, threading.Lock(), arc_tails, arc_heads,
                graph.adjacency_edge_ids, ints,
            )
        graph.substrate_cache[_CSGRAPH_CACHE_KEY] = cached
    return cached if cached[0] is not None else None


def compiled_tree(
    graph: CapacitatedGraph, weights: np.ndarray, source: int
) -> tuple[list[float], list[int], list[int]] | None:
    """One full tree from ``scipy.sparse.csgraph.dijkstra``, or ``None``.

    Returns ``(dist, parent_vertex, parent_edge)`` as plain lists, equal to
    what :func:`dijkstra_lists` returns, or ``None`` outside the contract
    (parallel arcs, a weight ``<= 0``, a reachable vertex without a
    strictly tight in-arc — see the module docstring).  Ignores
    :data:`COMPILED_MIN_VERTICES`; :func:`shortest_path_tree` applies it.
    """
    structure = _csgraph_structure(graph)
    if structure is None:
        return None
    matrix, lock, arc_tails, arc_heads, arc_eids, ints = structure
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    with lock:
        arc_w = matrix.data
        np.take(weights, arc_eids, out=arc_w, mode="clip")
        if arc_w.size and not arc_w.min() > 0.0:
            return None
        dist = csgraph_dijkstra(matrix, directed=True, indices=source)
        dist_tail = dist[arc_tails]
        with np.errstate(over="ignore"):
            sums = dist_tail + arc_w
    dist_head = dist[arc_heads]
    tight = np.flatnonzero((sums == dist_head) & (dist_tail < dist_head))
    heads = arc_heads[tight]
    order = np.lexsort((tight, dist_tail[tight], heads))
    heads = heads[order]
    first = np.empty(heads.size, dtype=bool)
    first[:1] = True
    np.not_equal(heads[1:], heads[:-1], out=first[1:])
    winners = tight[order[first]]
    # Every reachable vertex but the source needs exactly one parent (an
    # overflowed ``d + w == inf`` arc also lands here and declines).
    if winners.size != np.count_nonzero(dist < np.inf) - 1:
        return None
    parent_vertex = np.full(graph.num_vertices, -1, dtype=np.int64)
    parent_edge = parent_vertex.copy()
    win_heads = arc_heads[winners]
    parent_vertex[win_heads] = arc_tails[winners]
    parent_edge[win_heads] = arc_eids[winners]
    return (
        dist.tolist(),
        ints[parent_vertex + 1].tolist(),
        ints[parent_edge + 1].tolist(),
    )


def shortest_path_tree(
    graph: CapacitatedGraph,
    weights: np.ndarray,
    weights_list: list[float] | None,
    source: int,
) -> tuple[list[float], list[int], list[int]]:
    """The full shortest-path tree of ``source`` as ``(dist, parent_vertex,
    parent_edge)`` lists, by the size-selected path of the module docstring.

    ``weights`` is the float64 weight vector (assumed validated);
    ``weights_list`` its ``tolist()`` form if the caller has it cached.
    """
    if graph.num_vertices >= COMPILED_MIN_VERTICES:
        tree = compiled_tree(graph, weights, source)
        if tree is not None:
            return tree
    indptr, heads, eids = graph.csr_lists()
    w = weights_list if weights_list is not None else weights.tolist()
    return dijkstra_lists(graph.num_vertices, indptr, heads, eids, w, source)


def single_source_dijkstra(
    graph: CapacitatedGraph,
    source: int,
    weights: np.ndarray,
    *,
    targets: set[int] | frozenset[int] | None = None,
) -> ShortestPathResult:
    """Dijkstra from ``source`` under non-negative per-edge ``weights``.

    Parameters
    ----------
    graph:
        The capacitated graph (provides CSR adjacency and edge ids).
    source:
        Source vertex.
    weights:
        Array of length ``graph.num_edges`` with the weight of each logical
        edge (undirected edges have one weight used in both directions).
    targets:
        Optional early-exit set: once every vertex in ``targets`` has been
        settled the search stops.  Distances of unsettled vertices are left
        as ``inf`` even if they are reachable, so only use the result for the
        requested targets in that case.

    Notes
    -----
    The output is bit-for-bit identical to :func:`reference_dijkstra` —
    same distances, same parents, same extracted paths.  Full trees go
    through the active compute kernel, hence :func:`shortest_path_tree`;
    the ``targets`` early exit always runs the Python loop.
    """
    from repro.kernels import get_kernel

    n = graph.num_vertices
    source = int(source)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    weights = _validate_weights(graph, weights)
    remaining = None if targets is None else set(int(t) for t in targets)
    dist, parent_vertex, parent_edge = get_kernel().dijkstra(
        graph, weights, None, source, remaining
    )

    return ShortestPathResult(
        source=source,
        distances=np.asarray(dist, dtype=np.float64),
        parent_vertex=np.asarray(parent_vertex, dtype=np.int64),
        parent_edge=np.asarray(parent_edge, dtype=np.int64),
    )


def reference_dijkstra(
    graph: CapacitatedGraph,
    source: int,
    weights: np.ndarray,
    *,
    targets: set[int] | frozenset[int] | None = None,
) -> ShortestPathResult:
    """The original numpy-indexing Dijkstra, kept as a differential oracle.

    Semantically (and bit-for-bit) equivalent to
    :func:`single_source_dijkstra`; slower because the relaxation loop boxes
    a numpy scalar per arc.
    """
    n = graph.num_vertices
    source = int(source)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    weights = _validate_weights(graph, weights)

    dist = np.full(n, np.inf, dtype=np.float64)
    parent_vertex = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)

    indptr = graph.indptr
    adj_heads = graph.adjacency_heads
    adj_edge_ids = graph.adjacency_edge_ids

    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    remaining = set(int(t) for t in targets) if targets is not None else None

    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        lo, hi = indptr[u], indptr[u + 1]
        heads = adj_heads[lo:hi]
        eids = adj_edge_ids[lo:hi]
        for k in range(heads.shape[0]):
            v = int(heads[k])
            if settled[v]:
                continue
            e = int(eids[k])
            nd = d + float(weights[e])
            if nd < dist[v]:
                dist[v] = nd
                parent_vertex[v] = u
                parent_edge[v] = e
                heapq.heappush(heap, (nd, v))

    return ShortestPathResult(
        source=source,
        distances=dist,
        parent_vertex=parent_vertex,
        parent_edge=parent_edge,
    )


def shortest_path(
    graph: CapacitatedGraph,
    source: int,
    target: int,
    weights: np.ndarray,
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Return ``(vertex_path, edge_id_path, length)`` for one ``s -> t`` pair.

    Raises :class:`~repro.exceptions.NoPathError` when ``target`` is not
    reachable from ``source``.
    """
    result = single_source_dijkstra(graph, source, weights, targets={int(target)})
    if not result.reachable(int(target)):
        raise NoPathError(f"no path from {source} to {target}")
    vertices, edges = result.path_to(int(target))
    return vertices, edges, result.distance(int(target))


def bellman_ford(
    graph: CapacitatedGraph,
    source: int,
    weights: np.ndarray,
) -> ShortestPathResult:
    """Bellman-Ford single-source shortest paths.

    Slower than Dijkstra but independent of the heap implementation — used in
    tests as a differential oracle.  Negative weights are accepted (the
    algorithms never produce them, but the oracle should not assume that);
    negative cycles raise ``ValueError``.
    """
    n = graph.num_vertices
    m = graph.num_edges
    source = int(source)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m,):
        raise ValueError(f"weights must have shape ({m},), got {weights.shape}")

    dist = np.full(n, np.inf, dtype=np.float64)
    parent_vertex = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0

    # The arc list — (tail, head, edge_id), both orientations for undirected
    # graphs — is cached on the graph.
    arcs = graph.bellman_ford_arcs()

    for _ in range(n - 1):
        changed = False
        for u, v, eid in arcs:
            if np.isfinite(dist[u]) and dist[u] + weights[eid] < dist[v] - 1e-15:
                dist[v] = dist[u] + weights[eid]
                parent_vertex[v] = u
                parent_edge[v] = eid
                changed = True
        if not changed:
            break
    else:
        # One more pass to detect negative cycles reachable from the source.
        for u, v, eid in arcs:
            if np.isfinite(dist[u]) and dist[u] + weights[eid] < dist[v] - 1e-9:
                raise ValueError("negative cycle detected")

    return ShortestPathResult(
        source=source,
        distances=dist,
        parent_vertex=parent_vertex,
        parent_edge=parent_edge,
    )
