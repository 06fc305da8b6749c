"""Reference compute kernel: the seed's pure-Python hot loops, verbatim.

This tier *is* the specification.  The numpy and numba tiers are accepted
only because the parity suite shows them bit-identical to the outputs of
this module on the pinned fuzz corpus; any future kernel must clear the
same bar.  The Dijkstra wrapper delegates to
:func:`repro.graphs.shortest_path.shortest_path_tree` for full trees (the
size-selected tree path, bit-identical to the Python loop) and to
:func:`~repro.graphs.shortest_path.dijkstra_lists` for ``targets`` early
exits; the dual-update / bundle-scoring bodies are the exact expressions
hoisted out of ``DualWeights.apply_selection`` and
``BundlePricingEngine.__init__``.

:class:`_EdgeSetIndex` is the reference form of the pricing engine's
tree-cache invalidation index, kept as the test oracle for the bitmask
index the engine uses (:class:`repro.kernels.numpy_tier._BitmaskIndex`).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.shortest_path import dijkstra_lists, shortest_path_tree

__all__ = ["ListsKernel"]


def _bundle_scores(weights, flat, starts, values):
    """Per-bundle price/value scores over the flattened CSR bundle layout.

    Shared by every tier: ``np.add.reduceat`` already walks the flat edge
    array in one C pass, and the ``* (1.0 - 1e-9)`` shave (which keeps a
    bundle whose price sits exactly at its value admissible) must use the
    same single rounding in all tiers.
    """
    prices = np.add.reduceat(weights[flat], starts)
    return (prices / values) * (1.0 - 1e-9)


class _EdgeSetIndex:
    """Reference invalidation index for the pricing engine's tree cache.

    Maps each cached shortest-path tree to the set of edge ids it uses and
    each edge id to the sources whose trees use it — the seed's
    ``_edge_sources`` bookkeeping, kept as the differential oracle of the
    bitmask index the engine runs.
    """

    __slots__ = ("_edge_sources", "_tree_edges")

    def __init__(self):
        self._edge_sources: dict[int, set[int]] = {}
        self._tree_edges: dict[int, frozenset[int]] = {}

    def register(self, source: int, tree) -> None:
        """Index ``tree`` for ``source``.  The engine contract is that
        ``source`` is not currently indexed (its previous tree, if any, was
        evicted through :meth:`invalidate`/:meth:`discard` first)."""
        edge_set = frozenset(_iter_mask_bits(tree.edge_mask))
        self._tree_edges[source] = edge_set
        for eid in edge_set:
            self._edge_sources.setdefault(eid, set()).add(source)

    def invalidate(self, edge_ids) -> list[int]:
        """Sources whose trees touch any of ``edge_ids``; drops them from
        the index.  The caller evicts the trees and bumps epochs."""
        hit: set[int] = set()
        for eid in edge_ids:
            sources = self._edge_sources.get(eid)
            if sources:
                hit |= sources
        for source in hit:
            for eid in self._tree_edges.pop(source, ()):  # pragma: no branch
                sources = self._edge_sources.get(eid)
                if sources is not None:
                    sources.discard(source)
                    if not sources:
                        del self._edge_sources[eid]
        return sorted(hit)

    def discard(self, source: int) -> None:
        for eid in self._tree_edges.pop(source, ()):
            sources = self._edge_sources.get(eid)
            if sources is not None:
                sources.discard(source)
                if not sources:
                    del self._edge_sources[eid]

    def clear(self) -> None:
        self._edge_sources.clear()
        self._tree_edges.clear()

    def snapshot(self):
        """Immutable checkpoint payload (tagged so either index flavor can
        restore from either snapshot)."""
        return (
            "sets",
            tuple(sorted((s, es) for s, es in self._tree_edges.items())),
        )

    def restore(self, payload) -> None:
        self.clear()
        tag, entries = payload
        if tag == "sets":
            for source, edge_set in entries:
                self._tree_edges[source] = frozenset(edge_set)
                for eid in self._tree_edges[source]:
                    self._edge_sources.setdefault(eid, set()).add(source)
        elif tag == "masks":
            for source, mask in entries:
                edge_set = frozenset(_iter_mask_bits(mask))
                self._tree_edges[source] = edge_set
                for eid in edge_set:
                    self._edge_sources.setdefault(eid, set()).add(source)
        else:  # pragma: no cover - future-proofing
            raise ValueError(f"unknown invalidation snapshot tag {tag!r}")


def _iter_mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ListsKernel:
    """The pure-Python reference tier (always available, the default)."""

    name = "lists"
    #: Whether :meth:`dijkstra` wants the pre-materialised ``weights_list``
    #: (callers that cache ``weights.tolist()`` pass it through; array
    #: tiers set this False and take the ndarray directly).
    wants_weights_list = True

    def dijkstra(self, graph, weights, weights_list, source, targets=None):
        """One shortest-path tree as parallel Python lists.

        ``weights`` is the float64 dual vector, ``weights_list`` its
        ``tolist()`` form (computed here when the caller has not cached
        it).  Returns ``(dist, parent_vertex, parent_edge)`` exactly as
        :func:`dijkstra_lists` does.
        """
        if targets is None:
            return shortest_path_tree(graph, weights, weights_list, source)
        indptr, heads, eids = graph.csr_lists()
        w = weights_list if weights_list is not None else weights.tolist()
        return dijkstra_lists(
            graph.num_vertices, indptr, heads, eids, w, source, targets
        )

    def dual_update(self, y, capacities, ids, epsilon, B, demand):
        """Apply the multiplicative dual update in place; returns the
        budget increment ``sum c_e (y_e' - y_e)`` as a float."""
        caps = capacities[ids]
        old = y[ids]
        new = old * np.exp(epsilon * B * demand / caps)
        y[ids] = new
        return float(caps @ (new - old))

    def bundle_scores(self, weights, flat, starts, values):
        return _bundle_scores(weights, flat, starts, values)
