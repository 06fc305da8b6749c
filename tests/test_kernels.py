"""The compute-kernel layer: registry semantics and per-primitive parity.

The broad end-to-end parity matrix lives in ``test_backend_parity.py``;
this module covers the kernel layer itself:

* registry semantics — explicit selection beats env, unknown env names
  warn-and-fall-back, a missing numba downgrades silently (covered in
  ``test_env_precedence.py``), ``use_kernel`` restores;
* the floating-point properties the numpy tier's bit-identity *proof*
  rests on (positional stability of ``np.exp`` and scalar division) —
  if a numpy build ever broke these, this is the test that should fail
  first, with a message pointing at the right invariant;
* per-primitive differential tests: ``dual_update`` against the reference
  arithmetic, the bitmask invalidation index against the edge-set index,
  ``bundle_scores`` across tiers;
* end-to-end: traced payments and campaign-store content hashes are
  bit-identical across kernels and across ``jobs=``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import kernels
from repro.core.bounded_ufp import bounded_ufp
from repro.core.dual_state import DualWeights
from repro.flows.generators import random_instance
from repro.kernels.lists import ListsKernel, _EdgeSetIndex
from repro.kernels.numpy_tier import NumpyKernel, _BitmaskIndex
from repro.mechanism.payments import compute_ufp_payments
from repro.utils.prng import ensure_rng


@pytest.fixture(autouse=True)
def _restore_kernel():
    previous = kernels.get_kernel()
    yield
    kernels._active_kernel = previous


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_default_is_lists(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        kernels._active_kernel = None
        assert kernels.get_kernel().name == "lists"

    def test_set_and_use_kernel(self):
        kernels.set_kernel("lists")
        with kernels.use_kernel("numpy") as k:
            assert k.name == "numpy"
            assert kernels.get_kernel() is k
        assert kernels.get_kernel().name == "lists"

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="bogus"):
            kernels.set_kernel("bogus")

    def test_available_kernels_listing(self):
        assert kernels.available_kernels() == ["lists", "numba", "numpy"]
        assert kernels.kernel_available("lists")
        assert kernels.kernel_available("numpy")
        assert not kernels.kernel_available("bogus")

    def test_kernel_instances_are_singletons(self):
        assert kernels.set_kernel("numpy") is kernels.set_kernel("numpy")

    def test_tier_inheritance(self):
        # numpy extends lists (shared dijkstra + bundle scoring); if numba
        # is present it must extend numpy (shared commit path).
        assert isinstance(kernels.set_kernel("numpy"), ListsKernel)
        if kernels.kernel_available("numba"):
            assert isinstance(kernels.set_kernel("numba"), NumpyKernel)


# --------------------------------------------------------------------- #
# The floating-point invariants behind the numpy tier's bit-identity
# --------------------------------------------------------------------- #
class TestBitIdentityInvariants:
    def test_np_exp_is_positionally_stable(self):
        """``np.exp(x)[ids] == np.exp(x[ids])`` bit for bit: the ufunc
        applies the same scalar routine per element regardless of vector
        shape.  The multiplier-table dual update is built on this."""
        rng = ensure_rng(20070611)
        x = rng.uniform(-30.0, 30.0, size=4096)
        ids = rng.integers(0, x.size, size=512)
        np.testing.assert_array_equal(np.exp(x)[ids], np.exp(x[ids]))

    def test_scalar_division_is_positionally_stable(self):
        """``(s / x)[ids] == s / x[ids]`` bit for bit (IEEE division is
        correctly rounded per element)."""
        rng = ensure_rng(20070612)
        x = rng.uniform(0.1, 50.0, size=4096)
        ids = rng.integers(0, x.size, size=512)
        np.testing.assert_array_equal((3.7 / x)[ids], 3.7 / x[ids])


# --------------------------------------------------------------------- #
# dual_update
# --------------------------------------------------------------------- #
def _random_dual_case(seed, m):
    rng = ensure_rng(seed)
    capacities = rng.uniform(1.0, 30.0, size=m)
    y = 1.0 / capacities.copy()
    k = int(rng.integers(1, max(2, m // 3)))
    ids = np.unique(rng.integers(0, m, size=k))
    return capacities, y, ids, float(rng.uniform(0.2, 1.0))


class TestDualUpdate:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("m", [5, 64, 4096, 5000])
    def test_numpy_matches_lists_bit_for_bit(self, seed, m):
        """Both the table path (m <= 4096) and the large-m fallback must
        reproduce the reference update and delta exactly."""
        capacities, y0, ids, demand = _random_dual_case(seed, m)
        lists_k, numpy_k = ListsKernel(), NumpyKernel()
        y_a, y_b = y0.copy(), y0.copy()
        delta_a = lists_k.dual_update(y_a, capacities, ids, 0.5, 3.0, demand)
        delta_b = numpy_k.dual_update(y_b, capacities, ids, 0.5, 3.0, demand)
        np.testing.assert_array_equal(y_a, y_b)
        assert delta_a == delta_b

    def test_repeated_demands_hit_the_table(self, monkeypatch):
        """The multiplier table is shared across DualWeights instances on
        the same capacity array (the payment-probe access pattern)."""
        from repro.kernels import numpy_tier

        calls = {"exp": 0}
        real_exp = np.exp

        def counting_exp(x, *a, **kw):
            calls["exp"] += 1
            return real_exp(x, *a, **kw)

        monkeypatch.setattr(numpy_tier.np, "exp", counting_exp)
        capacities = ensure_rng(7).uniform(1.0, 10.0, size=64)
        k = NumpyKernel()
        for _ in range(5):
            y = 1.0 / capacities.copy()
            ids = np.arange(8)
            k.dual_update(y, capacities, ids, 0.5, 3.0, 0.75)
        assert calls["exp"] == 1  # one table build, four gathers

    def test_dualweights_dispatches_through_kernel(self):
        """End to end through DualWeights: both tiers land on the same
        weights, budget and last increment."""
        capacities = ensure_rng(11).uniform(1.0, 10.0, size=32)
        results = []
        for name in ("lists", "numpy"):
            with kernels.use_kernel(name):
                d = DualWeights(capacities, 0.5)
                for step in range(6):
                    d.apply_selection(
                        np.arange(step, step + 5, dtype=np.int64),
                        0.5 + 0.05 * step,
                        assume_unique=True,
                    )
                results.append(
                    (d.weights.tobytes(), d.budget, d.last_budget_increment)
                )
        assert results[0] == results[1]


# --------------------------------------------------------------------- #
# Invalidation index
# --------------------------------------------------------------------- #
class _FakeTree:
    def __init__(self, edge_set):
        self.edge_mask = sum(1 << e for e in set(edge_set))


class TestInvalidationIndex:
    @pytest.mark.parametrize("seed", range(15))
    def test_bitmask_index_matches_edge_set_index(self, seed):
        """Differential test: a random register/invalidate/discard workload
        evicts the identical source sets from both index flavors."""
        rng = ensure_rng(seed)
        a, b = _EdgeSetIndex(), _BitmaskIndex()
        live: dict[int, _FakeTree] = {}
        for step in range(120):
            op = int(rng.integers(0, 4))
            if op <= 1:  # register (engine contract: evict before re-register)
                source = int(rng.integers(0, 12))
                if source in live:
                    a.discard(source)
                    b.discard(source)
                tree = _FakeTree(
                    int(e) for e in rng.integers(0, 64, size=rng.integers(1, 9))
                )
                live[source] = tree
                a.register(source, tree)
                b.register(source, tree)
            elif op == 2:  # invalidate a random edge set
                edges = [int(e) for e in rng.integers(0, 64, size=3)]
                hit_a = a.invalidate(edges)
                hit_b = b.invalidate(edges)
                assert hit_a == hit_b
                for s in hit_a:
                    live.pop(s, None)
            else:  # discard one source
                source = int(rng.integers(0, 12))
                a.discard(source)
                b.discard(source)
                live.pop(source, None)

    def test_snapshots_restore_across_flavors(self):
        """A checkpoint taken under one kernel restores under the other
        (replays may cross tiers)."""
        trees = {1: _FakeTree({2, 5}), 3: _FakeTree({5, 9}), 7: _FakeTree({0})}
        a, b = _EdgeSetIndex(), _BitmaskIndex()
        for s, t in trees.items():
            a.register(s, t)
            b.register(s, t)
        # sets-snapshot into a bitmask index and vice versa.
        b2 = _BitmaskIndex()
        b2.restore(a.snapshot())
        a2 = _EdgeSetIndex()
        a2.restore(b.snapshot())
        assert b2.invalidate([5]) == [1, 3]
        assert a2.invalidate([5]) == [1, 3]
        assert b2.invalidate([0]) == [7]
        assert a2.invalidate([0]) == [7]


# --------------------------------------------------------------------- #
# Bundle scoring
# --------------------------------------------------------------------- #
class TestBundleScores:
    @pytest.mark.parametrize("seed", range(10))
    def test_tiers_agree_bit_for_bit(self, seed):
        rng = ensure_rng(seed)
        n = int(rng.integers(1, 30))
        sizes = rng.integers(1, 6, size=n)
        flat = rng.integers(0, 40, size=int(sizes.sum()))
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        weights = rng.uniform(0.01, 2.0, size=40)
        values = rng.uniform(0.5, 5.0, size=n)
        out = [
            k.bundle_scores(weights, flat, starts, values)
            for k in (ListsKernel(), NumpyKernel())
        ]
        np.testing.assert_array_equal(out[0], out[1])


# --------------------------------------------------------------------- #
# Dijkstra (numba tier, guarded)
# --------------------------------------------------------------------- #
@pytest.mark.skipif(
    not kernels.kernel_available("numba"), reason="the numba kernel needs numba"
)
class TestNumbaDijkstra:
    @pytest.mark.parametrize("seed", range(25))
    def test_jit_tree_matches_lists_bit_for_bit(self, seed):
        from repro.graphs.generators import random_digraph, random_graph

        rng = ensure_rng(seed)
        n = int(rng.integers(4, 24))
        build = random_digraph if seed % 2 else random_graph
        graph = build(
            n,
            float(rng.uniform(0.1, 0.6)),
            (0.5, 5.0),
            seed=rng,
            ensure_connected=bool(rng.integers(0, 2)),
        )
        weights = rng.uniform(1e-6, 10.0, size=graph.num_edges)
        source = int(rng.integers(0, n))
        wl = weights.tolist()
        ref = ListsKernel().dijkstra(graph, weights, wl, source)
        jit = kernels.set_kernel("numba").dijkstra(graph, weights, None, source)
        assert jit[0] == ref[0]
        assert jit[1] == ref[1]
        assert jit[2] == ref[2]


# --------------------------------------------------------------------- #
# End to end: payments and store hashes across kernels and jobs
# --------------------------------------------------------------------- #
def _payment_instance(seed):
    return random_instance(
        num_vertices=12,
        edge_probability=0.3,
        capacity=12.0,
        num_requests=30,
        demand_range=(0.5, 1.0),
        seed=seed,
    )


def _available_tiers():
    tiers = ["lists", "numpy"]
    if kernels.kernel_available("numba"):
        tiers.append("numba")
    return tiers


class TestEndToEndParity:
    @pytest.mark.parametrize("use_trace", [True, False])
    def test_traced_payments_identical_across_kernels(self, use_trace):
        outputs = []
        for name in _available_tiers():
            with kernels.use_kernel(name):
                inst = _payment_instance(23)
                allocation = bounded_ufp(inst, 0.3)
                payments = compute_ufp_payments(
                    lambda i, **kw: bounded_ufp(i, 0.3, **kw),
                    inst,
                    allocation,
                    use_trace=use_trace,
                )
                outputs.append(
                    (
                        tuple((r.request_index, r.edge_ids) for r in allocation.routed),
                        float(allocation.value),
                        payments.tobytes(),
                    )
                )
        assert all(out == outputs[0] for out in outputs[1:])

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_store_content_hash_identical_across_kernels(self, tmp_path, jobs):
        """The acceptance headline: a campaign's store hash is the same
        under every kernel tier, at jobs=1 and jobs=4."""
        from repro.scenarios.runner import run_campaign
        from repro.scenarios.store import ResultStore

        suite = {
            "name": "kernel-hash",
            "seed": 17,
            "topologies": [
                {"name": "wax", "family": "waxman", "num_vertices": 12}
            ],
            "regimes": [
                {
                    "name": "mid",
                    "capacity": {"scale_log_m": 2.0, "min": 2.0},
                    "num_requests": 14,
                }
            ],
            "modes": [
                {"name": "off", "kind": "offline", "bound": "none"},
                {
                    "name": "pay",
                    "kind": "offline",
                    "bound": "none",
                    "payments": True,
                },
            ],
        }
        hashes = []
        for name in _available_tiers():
            with kernels.use_kernel(name):
                store = ResultStore(tmp_path / f"{name}-{jobs}")
                result = run_campaign(suite, store=store, jobs=jobs)
                assert result.all_cells_ok
                hashes.append(store.content_hash(result.records))
        assert len(set(hashes)) == 1

    def test_kernel_name_surfaces_in_stats_not_records(self):
        """kernel_name rides RunStats.extra; records carry only the
        tier-invariant kernel_calls count (store-hash safety)."""
        from repro.scenarios.runner import run_campaign

        with kernels.use_kernel("numpy"):
            inst = _payment_instance(5)
            allocation = bounded_ufp(inst, 0.5)
            assert allocation.stats.extra["kernel_name"] == "numpy"
            assert allocation.stats.extra["pricing_kernel_calls"] > 0

            suite = {
                "name": "tiny",
                "seed": 5,
                "topologies": [
                    {"name": "g", "family": "grid", "rows": 3, "cols": 3}
                ],
                "regimes": [
                    {"name": "r", "capacity": 6.0, "num_requests": 6}
                ],
                "modes": [{"name": "off", "kind": "offline", "bound": "none"}],
            }
            result = run_campaign(suite)
            for record in result.records.values():
                assert "kernel_calls" in record
                assert not any("kernel_name" in k for k in record)
                json.dumps(record["kernel_calls"])  # numeric, serializable

    def test_report_kernel_header_line(self):
        from repro.scenarios.report import render_report

        text = render_report(
            {"cell": {"topology": "g", "value": 1.0, "kernel_calls": 3.0}},
            title="t",
            kernel="numpy",
            content_hash="abc123",
        )
        assert "compute kernel: numpy" in text
        assert "store hash: abc123" in text
        assert "kernel_calls" in text
