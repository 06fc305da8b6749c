"""Numpy compute kernel: vectorized dual update, bit-identical by proof.

One optimization over the lists tier, on the round-loop commit path (the
Dijkstra heap itself is sequential and gains nothing from numpy, so this
tier inherits the lists tier's tree path).  The module also holds the
pricing engine's tree-cache invalidation index, which every tier shares.

**Multiplier-table dual update.**  The reference computes
``y[ids] * np.exp(eps * B * d / caps[ids])`` per committed path.  Payment
bisections and trace replays apply the *same* ``(eps, B, d)`` triple
against the *same* capacity vector hundreds of times, so this tier
precomputes ``np.exp(eps * B * d / capacities)`` once over the whole
vector and gathers ``mult[ids]`` thereafter.  Bit-identity is not a hope
but a property: IEEE-754 division is correctly rounded per element, so
``(s / capacities)[ids] == s / capacities[ids]`` exactly, and numpy's
``exp`` ufunc is positionally stable (``np.exp(x)[ids] == np.exp(x[ids])``
— the same scalar routine is applied per element regardless of vector
shape; the kernel test suite re-verifies this on every run).  Tables live
in a module-global store keyed by capacity-vector identity with weakref
eviction, because the hot consumers (payment probes) build a *fresh*
``DualWeights`` per probe around a *shared* capacity array — a per-object
cache would miss every time.

**Bitmask invalidation index.**  The pricing engine's tree cache keeps,
per cached source, the set of edge ids its tree uses, and evicts trees
whose edges got repriced.  Python ints are arbitrary-width bit vectors
with C-speed bitwise ops, so :class:`_BitmaskIndex` stores each tree's
edge set as one int mask (built once per tree, without a per-edge Python
loop, by the engine) and each invalidation as one OR + AND-scan.  It is
the engine's only index, whatever the kernel; the dict-of-sets
:class:`repro.kernels.lists._EdgeSetIndex` stays as its test oracle.
Only bookkeeping differs between the two — the *set* of evicted sources
is provably equal, and the caller evicts in sorted order.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.kernels.lists import ListsKernel, _bundle_scores, _iter_mask_bits

__all__ = ["NumpyKernel"]

#: Above this edge count a full-vector exp table costs more than the
#: per-path gathers it saves under typical path lengths; fall back to the
#: reference arithmetic (bit-identical either way, so the threshold is
#: purely a performance choice).
_TABLE_MAX_EDGES = 4096
#: Per-capacity-vector cap on distinct (epsilon, B, demand) tables.
_TABLE_MAX_ENTRIES = 128

# capacity-array id -> (weakref to the array, {(eps, B, demand): table}).
# Keyed by id() with a weakref finalizer so a freed capacity vector drops
# its tables; the finalizer double-checks identity to survive id reuse.
_TABLE_STORE: dict[int, tuple[weakref.ref, dict]] = {}


def _multiplier_table(capacities, epsilon, B, demand):
    key = id(capacities)
    entry = _TABLE_STORE.get(key)
    if entry is None or entry[0]() is not capacities:
        def _evict(_ref, _key=key):
            stored = _TABLE_STORE.get(_key)
            if stored is not None and stored[0]() is None:
                del _TABLE_STORE[_key]

        entry = (weakref.ref(capacities, _evict), {})
        _TABLE_STORE[key] = entry
    tables = entry[1]
    tkey = (epsilon, B, demand)
    table = tables.get(tkey)
    if table is None:
        if len(tables) >= _TABLE_MAX_ENTRIES:
            tables.clear()
        table = np.exp(epsilon * B * demand / capacities)
        tables[tkey] = table
    return table


class _BitmaskIndex:
    """Tree-cache invalidation index over Python-int bitmasks."""

    __slots__ = ("_tree_masks", "_union_mask")

    def __init__(self):
        self._tree_masks: dict[int, int] = {}
        # OR of all registered masks: lets a miss (the common case for
        # off-tree repricings) exit after one AND instead of a full scan.
        self._union_mask = 0

    def register(self, source: int, tree) -> None:
        mask = tree.edge_mask
        self._tree_masks[source] = mask
        self._union_mask |= mask

    def invalidate(self, edge_ids) -> list[int]:
        probe = 0
        for eid in edge_ids:
            probe |= 1 << eid
        if not (probe & self._union_mask):
            return []
        hit = [s for s, m in self._tree_masks.items() if m & probe]
        if hit:
            for source in hit:
                del self._tree_masks[source]
            union = 0
            for m in self._tree_masks.values():
                union |= m
            self._union_mask = union
        return sorted(hit)

    def discard(self, source: int) -> None:
        if self._tree_masks.pop(source, None) is not None:
            union = 0
            for m in self._tree_masks.values():
                union |= m
            self._union_mask = union

    def clear(self) -> None:
        self._tree_masks.clear()
        self._union_mask = 0

    def snapshot(self):
        return ("masks", tuple(sorted(self._tree_masks.items())))

    def restore(self, payload) -> None:
        self.clear()
        tag, entries = payload
        if tag == "masks":
            for source, mask in entries:
                self._tree_masks[source] = mask
                self._union_mask |= mask
        elif tag == "sets":
            for source, edge_set in entries:
                mask = 0
                for eid in edge_set:
                    mask |= 1 << eid
                self._tree_masks[source] = mask
                self._union_mask |= mask
        else:  # pragma: no cover - future-proofing
            raise ValueError(f"unknown invalidation snapshot tag {tag!r}")

    # Exposed for the parity tests (reconstructs the reference view).
    def edge_sets(self) -> dict[int, frozenset[int]]:
        return {
            s: frozenset(_iter_mask_bits(m)) for s, m in self._tree_masks.items()
        }


class NumpyKernel(ListsKernel):
    """Vectorized tier: reference Dijkstra, table-driven commit path."""

    name = "numpy"
    wants_weights_list = True

    def dual_update(self, y, capacities, ids, epsilon, B, demand):
        if capacities.shape[0] > _TABLE_MAX_EDGES:
            return super().dual_update(y, capacities, ids, epsilon, B, demand)
        mult = _multiplier_table(capacities, epsilon, B, demand)
        old = y[ids]
        new = old * mult[ids]
        y[ids] = new
        return float(capacities[ids] @ (new - old))

    def bundle_scores(self, weights, flat, starts, values):
        return _bundle_scores(weights, flat, starts, values)
