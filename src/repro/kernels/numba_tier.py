"""Numba compute kernel: JIT-compiled array-heap Dijkstra (optional tier).

Importing this module raises ``ImportError`` when numba is absent; the
registry turns that into a silent numpy fallback for env-var resolution
and a fast failure for explicit :func:`repro.kernels.set_kernel` calls.

Bit-identity argument
---------------------
The JIT loop mirrors :func:`repro.graphs.shortest_path.dijkstra_lists`
statement for statement: the relaxation is the same two-operand float64
sum ``nd = d + w[eid]`` (no reassociation, no fma — numba is configured
without ``fastmath``), parents overwrite only on strict improvement, and
the heap orders entries by ``(dist, vertex)`` exactly as ``heapq`` orders
the reference's tuples.  The pushed entries of one run are *distinct* as
pairs (a vertex is re-pushed only on a strict distance improvement), so
the pop sequence of any conforming binary heap is the unique sorted order
of the live entries — implementation differences in sift details cannot
change which vertex settles next, hence every ``nd`` is computed from the
same operands in the same order as the reference.  The parity suite
re-checks this on the pinned corpus whenever numba is present.

The commit-path methods (dual update, bundle scoring) are inherited from
the numpy tier unchanged: re-deriving ``exp`` inside a JIT region could
round differently from numpy's ufunc, and the determinism contract
outranks the last factor of speed there.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit
except ImportError as _exc:  # pragma: no cover - exercised only sans numba
    raise ImportError(
        "the 'numba' compute kernel requires the optional numba dependency "
        "(pip install 'repro-bounded-ufp[numba]')"
    ) from _exc

from repro.graphs.shortest_path import dijkstra_lists
from repro.kernels.numpy_tier import NumpyKernel

__all__ = ["NumbaKernel", "load_numba_kernel"]

_CSR_CACHE_KEY = "kernels/numba_csr"


@njit(cache=False)
def _dijkstra_arrays(n, indptr, heads, eids, w, source):  # pragma: no cover
    inf = np.inf
    dist = np.full(n, inf, dtype=np.float64)
    parent_vertex = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    settled = np.zeros(n, dtype=np.uint8)

    cap = heads.shape[0] + 1
    heap_d = np.empty(cap, dtype=np.float64)
    heap_v = np.empty(cap, dtype=np.int64)
    size = 0

    dist[source] = 0.0
    heap_d[0] = 0.0
    heap_v[0] = source
    size = 1

    while size > 0:
        d = heap_d[0]
        u = heap_v[0]
        # Pop: move the last entry to the root and sift down under the
        # (dist, vertex) lexicographic order heapq uses on tuples.
        size -= 1
        if size > 0:
            ld = heap_d[size]
            lv = heap_v[size]
            pos = 0
            while True:
                child = 2 * pos + 1
                if child >= size:
                    break
                right = child + 1
                if right < size and (
                    heap_d[right] < heap_d[child]
                    or (heap_d[right] == heap_d[child] and heap_v[right] < heap_v[child])
                ):
                    child = right
                if heap_d[child] < ld or (heap_d[child] == ld and heap_v[child] < lv):
                    heap_d[pos] = heap_d[child]
                    heap_v[pos] = heap_v[child]
                    pos = child
                else:
                    break
            heap_d[pos] = ld
            heap_v[pos] = lv

        if settled[u]:
            continue
        settled[u] = 1
        for k in range(indptr[u], indptr[u + 1]):
            v = heads[k]
            if settled[v]:
                continue
            nd = d + w[eids[k]]
            if nd < dist[v]:
                dist[v] = nd
                parent_vertex[v] = u
                parent_edge[v] = eids[k]
                # Push (nd, v): sift up under the same lexicographic order.
                pos = size
                size += 1
                while pos > 0:
                    parent = (pos - 1) // 2
                    if nd < heap_d[parent] or (
                        nd == heap_d[parent] and v < heap_v[parent]
                    ):
                        heap_d[pos] = heap_d[parent]
                        heap_v[pos] = heap_v[parent]
                        pos = parent
                    else:
                        break
                heap_d[pos] = nd
                heap_v[pos] = v

    return dist, parent_vertex, parent_edge


def _csr_arrays(graph):
    cached = graph.substrate_cache.get(_CSR_CACHE_KEY)
    if cached is None:
        indptr, heads, eids = graph.csr_lists()
        cached = (
            np.asarray(indptr, dtype=np.int64),
            np.asarray(heads, dtype=np.int64),
            np.asarray(eids, dtype=np.int64),
        )
        graph.substrate_cache[_CSR_CACHE_KEY] = cached
    return cached


class NumbaKernel(NumpyKernel):
    """JIT tier: compiled Dijkstra, numpy commit path."""

    name = "numba"
    # Takes the float64 weight vector directly; callers skip the
    # weights.tolist() materialisation entirely under this tier.
    wants_weights_list = False

    def dijkstra(self, graph, weights, weights_list, source, targets=None):
        if targets is not None:
            # The early-exit path is cold (payment probes and the partition
            # solver ask for full trees); keep the reference loop rather
            # than carrying a second JIT specialization.
            indptr, heads, eids = graph.csr_lists()
            w = weights_list if weights_list is not None else weights.tolist()
            return dijkstra_lists(
                graph.num_vertices, indptr, heads, eids, w, source, targets
            )
        indptr, heads, eids = _csr_arrays(graph)
        w = np.ascontiguousarray(weights, dtype=np.float64)
        dist, pv, pe = _dijkstra_arrays(
            graph.num_vertices, indptr, heads, eids, w, source
        )
        return dist.tolist(), pv.tolist(), pe.tolist()


_KERNEL = None


def load_numba_kernel() -> NumbaKernel:
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = NumbaKernel()
    return _KERNEL
