"""Tests for the fault-injection subsystem (:mod:`repro.faults`).

Four layers: spec/schedule unit tests (validation, determinism, zero
intensity), the auction's degradation hooks (revocation, refund,
requeue, LIFO shrink, exact revert), the ``run_with_faults`` driver with
its jam/fee accounting, and the differential contract — a zero-intensity
schedule must be bit-identical to the fault-free path on both shortest-path
tree paths and under both admission policies.
"""

from __future__ import annotations

import numpy as np
import pytest
from tree_paths import use_tree_path

from repro.exceptions import InvalidInstanceError
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    JAM_NAME_PREFIX,
    is_jam_request,
    normalize_fault_spec,
    run_with_faults,
)
from repro.faults.schedule import _scripted_only
from repro.flows import Request, random_instance
from repro.graphs import CapacitatedGraph
from repro.online import Batch, OnlineAuction, bursty_arrivals


def _two_route_graph() -> CapacitatedGraph:
    # Edge 0 is the direct (and initially cheapest) 0 -> 3 route; edges
    # 1 and 2 form the 0 -> 1 -> 3 detour the auction falls back to.
    # Capacities are roomy (B = 16) so the budget stopping rule
    # e^{eps(B-1)} stays far above the initial budget of m.
    return CapacitatedGraph(
        4, [(0, 3, 16.0), (0, 1, 16.0), (1, 3, 16.0)], directed=True
    )


def _single_edge_graph(capacity: float = 16.0) -> CapacitatedGraph:
    return CapacitatedGraph(2, [(0, 1, capacity)], directed=True)


# ---------------------------------------------------------------------- #
# Spec / schedule
# ---------------------------------------------------------------------- #
class TestFaultSpec:
    def test_defaults_are_zero_intensity(self):
        spec = normalize_fault_spec(None)
        assert spec["edge_failure_rate"] == 0.0
        assert FaultSchedule({}, seed=0).zero_intensity

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown fault spec"):
            normalize_fault_spec({"edge_fail_rate": 1.0})

    @pytest.mark.parametrize(
        "bad",
        [
            {"edge_failure_rate": -0.1},
            {"jam_rate": -1.0},
            {"failure_duration": -1},
            {"churn_edges": 0},
            {"churn_factor_range": (0.0, 1.0)},
            {"jam_value_range": (2.0, 1.0)},
            {"events": [{"batch": 0, "kind": "explode"}]},
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(InvalidInstanceError):
            normalize_fault_spec(bad)

    def test_scripted_events_parsed(self):
        spec = normalize_fault_spec(
            {"events": [{"batch": 2, "kind": "resize", "edges": [1, 3], "factor": 0.5}]}
        )
        (event,) = spec["events"]
        assert event == FaultEvent(batch=2, kind="resize", edge_ids=(1, 3), factor=0.5)

    def test_scripted_events_defeat_zero_intensity(self):
        schedule = FaultSchedule(
            {"events": [{"batch": 0, "kind": "fail", "edges": [0]}]}, seed=0
        )
        assert not schedule.zero_intensity


class TestFaultSchedule:
    def test_zero_intensity_draws_nothing(self):
        graph = _two_route_graph()
        schedule = FaultSchedule({}, seed=123)
        state_before = schedule._rng.bit_generator.state
        for batch in range(5):
            assert schedule.events_before_batch(batch, graph) == []
        assert schedule._rng.bit_generator.state == state_before

    def test_same_seed_same_events(self):
        spec = {
            "edge_failure_rate": 1.0,
            "failure_duration": 2,
            "churn_rate": 0.8,
            "jam_rate": 1.5,
        }
        graph = _two_route_graph()

        def history(seed):
            schedule = FaultSchedule(dict(spec), seed=seed)
            events = []
            for batch in range(6):
                events.extend(schedule.events_before_batch(batch, graph))
            return events

        a, b = history(7), history(7)
        assert a == b
        # FaultEvent equality ignores the jam payloads; compare those too.
        jam_a = [e.requests for e in a if e.kind == "jam"]
        jam_b = [e.requests for e in b if e.kind == "jam"]
        assert jam_a == jam_b
        assert history(8) != a

    def test_failures_schedule_their_repairs(self):
        schedule = FaultSchedule(
            {"edge_failure_rate": 5.0, "failure_duration": 2}, seed=1
        )
        graph = _two_route_graph()
        events0 = schedule.events_before_batch(0, graph)
        fails = [e for e in events0 if e.kind == "fail"]
        assert fails
        repairs = []
        for batch in range(1, 4):
            # The schedule only reads the disabled set from the graph; keep
            # it static here to isolate the deferral logic.
            repairs.extend(
                e
                for e in schedule.events_before_batch(batch, graph)
                if e.kind == "repair"
            )
        assert {e.edge_ids for e in fails} <= {e.edge_ids for e in repairs}
        assert all(e.batch == 2 for e in repairs[:1])

    def test_jam_requests_are_tagged_and_valid(self):
        schedule = FaultSchedule({"jam_rate": 4.0}, seed=3)
        graph = _two_route_graph()
        jams = [
            r
            for batch in range(4)
            for e in schedule.events_before_batch(batch, graph)
            if e.kind == "jam"
            for r in e.requests
        ]
        assert jams
        assert all(is_jam_request(r) for r in jams)
        assert all(r.source != r.target for r in jams)
        names = [r.name for r in jams]
        assert len(set(names)) == len(names)
        assert not is_jam_request(Request(0, 1, 1.0, 1.0, name="honest"))
        assert names[0] == f"{JAM_NAME_PREFIX}0"


# ---------------------------------------------------------------------- #
# Auction degradation hooks
# ---------------------------------------------------------------------- #
class TestAuctionDegradation:
    def test_fail_edge_revokes_and_reroutes(self):
        auction = OnlineAuction(_two_route_graph(), 0.5)
        auction.submit([Request(0, 3, 1.0, 5.0, name="a")])
        assert auction.num_admitted == 1
        events = auction.fail_edges([0])
        assert len(events) == 1
        event = events[0]
        assert event.reason == "edge_failure" and event.requeued
        assert auction.num_admitted == 0
        auction.submit([])  # drain: the requeued victim re-routes
        allocation = auction.finalize()
        assert allocation.num_selected == 1
        (routed,) = allocation.routed
        assert set(routed.edge_ids) == {1, 2}
        assert len(allocation.revocations) == 1

    def test_fail_edge_without_allocations_revokes_nothing(self):
        auction = OnlineAuction(_two_route_graph(), 0.5)
        assert auction.fail_edges([1]) == []
        auction.submit([Request(0, 3, 1.0, 5.0)])
        allocation = auction.finalize()
        assert allocation.num_selected == 1
        assert set(allocation.routed[0].edge_ids) == {0}

    def test_unroutable_victim_is_dropped_not_livelocked(self):
        auction = OnlineAuction(_single_edge_graph(), 0.5)
        auction.submit([Request(0, 1, 1.0, 5.0)])
        (event,) = auction.fail_edges([0])
        assert event.requeued
        auction.submit([])
        allocation = auction.finalize()
        assert allocation.num_selected == 0
        assert len(allocation.revocations) == 1

    def test_repair_restores_routability(self):
        auction = OnlineAuction(_single_edge_graph(), 0.5)
        auction.fail_edges([0])
        auction.submit([Request(0, 1, 1.0, 5.0)])
        assert auction.num_admitted == 0
        auction.repair_edges([0])
        auction.submit([Request(0, 1, 1.0, 4.0)])
        allocation = auction.finalize()
        assert allocation.num_selected == 1

    def test_requeue_budget_exhausts(self):
        auction = OnlineAuction(_two_route_graph(), 0.5, max_requeues=0)
        auction.submit([Request(0, 3, 1.0, 5.0)])
        (event,) = auction.fail_edges([0])
        assert not event.requeued
        auction.submit([])
        allocation = auction.finalize()
        # A detour exists, but the victim's requeue budget was zero.
        assert allocation.num_selected == 0

    def test_resize_shrink_revokes_lifo(self):
        auction = OnlineAuction(_single_edge_graph(2.0), 1.0, max_requeues=0)
        auction.submit([Request(0, 1, 1.0, 5.0, name="first")])
        auction.submit([Request(0, 1, 1.0, 4.0, name="second")])
        assert auction.num_admitted == 2
        events = auction.resize_edges([0], 0.5)
        assert [e.reason for e in events] == ["capacity_shrink"]
        allocation = auction.finalize()
        assert [item.request.name for item in allocation.routed] == ["first"]
        assert allocation.is_feasible()

    def test_capacity_guard_blocks_overload_after_shrink(self):
        """Lemma 3.3 guarantees feasibility only while c_e >= B; after a
        shrink below B the dual price lags one admission behind, so the
        fault-mode capacity guard must physically reject the admission
        that would overload the shrunk edge (and drop it, not requeue —
        the no-livelock rule)."""
        auction = OnlineAuction(_single_edge_graph(16.0), 0.5)
        auction.submit([Request(0, 1, 1.0, 5.0, name="r0")])
        # Shrink to 1.6: r0's load of 1.0 still fits, no revocation.
        assert auction.resize_edges([0], 0.1) == []
        # The edge's dual weight is still near its roomy 1/16-scale value,
        # so the price alone would admit r1 — and overload the edge.
        auction.submit([Request(0, 1, 1.0, 5.0, name="r1")])
        allocation = auction.finalize()
        assert [item.request.name for item in allocation.routed] == ["r0"]
        assert allocation.is_feasible()

    def test_resize_rejects_nonpositive_factor(self):
        auction = OnlineAuction(_single_edge_graph(), 0.5)
        with pytest.raises(InvalidInstanceError):
            auction.resize_edges([0], 0.0)

    def test_revert_is_bit_exact(self):
        graph = _two_route_graph()
        original = graph.capacities.copy()
        auction = OnlineAuction(graph, 0.5)
        auction.resize_edges([0, 2], 1.0 / 3.0)
        auction.resize_edges([0], 7.0)
        auction.revert_edges([0, 2])
        assert np.array_equal(auction.graph.capacities, original)

    def test_budget_is_preserved_across_resize(self):
        auction = OnlineAuction(_two_route_graph(), 0.5)
        auction.submit([Request(0, 3, 1.0, 5.0)])
        budget_before = auction.duals.budget
        auction.resize_edges([1], 3.0)
        # c_e * y_e is invariant under the rescale, so the stopping rule
        # sees no jump from the churn itself.
        assert auction.duals.budget == pytest.approx(budget_before, rel=1e-12)

    def test_failed_edge_remembers_its_price(self):
        auction = OnlineAuction(_single_edge_graph(2.0), 1.0)
        auction.submit([Request(0, 1, 1.0, 5.0)])
        weight_before = auction.duals.weights[0]
        assert weight_before > 0.5  # the admission raised it
        auction.fail_edges([0])
        auction.repair_edges([0])
        assert auction.duals.weights[0] == weight_before

    def test_refund_and_compensation_accounting(self):
        auction = OnlineAuction(
            _single_edge_graph(2.0),
            1.0,
            compute_payments=True,
            compensation_rate=0.25,
            max_requeues=0,
        )
        # Three rivals for two units of capacity: the two winners each pay
        # (up to bisection tolerance) the displaced value 2.
        auction.submit(
            [
                Request(0, 1, 1.0, 5.0, name="a"),
                Request(0, 1, 1.0, 3.0, name="b"),
                Request(0, 1, 1.0, 2.0, name="c"),
            ]
        )
        assert auction.num_admitted == 2
        revenue_before = float(sum(auction._payments.values()))
        assert revenue_before == pytest.approx(4.0, abs=1e-2)
        events = auction.fail_edges([0])
        assert len(events) == 2
        assert sum(e.refunded for e in events) == pytest.approx(revenue_before)
        assert sum(e.compensation for e in events) == pytest.approx(
            0.25 * revenue_before
        )
        allocation = auction.finalize()
        assert allocation.revenue == 0.0
        assert allocation.total_refunded == pytest.approx(revenue_before)
        assert allocation.total_compensation == pytest.approx(0.25 * revenue_before)
        assert allocation.value_revoked == pytest.approx(8.0)
        assert allocation.stats.extra["fault_revocations"] == 2.0

    def test_mutation_noop_does_not_flip_fault_mode(self):
        auction = OnlineAuction(_two_route_graph(), 0.5)
        assert auction.repair_edges([0]) == []  # nothing was failed
        assert auction.resize_edges([1], 1.0) == []
        assert not auction._faults_active


# ---------------------------------------------------------------------- #
# The fault-run driver
# ---------------------------------------------------------------------- #
class TestRunWithFaults:
    def _stream(self, requests, size=3):
        return bursty_arrivals(requests, burst_size=size, shuffle=False)

    def test_scripted_outage_window(self):
        # The only edge fails before batch 1 and is repaired before batch 2.
        # r0 (admitted in batch 0) is revoked and — being unroutable at that
        # moment — dropped, like r1 which arrives during the outage; no
        # victim is parked waiting for a repair (the no-livelock rule).
        # r2 arrives after the repair and is admitted normally.
        auction = OnlineAuction(_single_edge_graph(), 0.5)
        requests = [Request(0, 1, 1.0, 4.0, name=f"r{i}") for i in range(3)]
        schedule = _scripted_only(
            [
                FaultEvent(batch=1, kind="fail", edge_ids=(0,)),
                FaultEvent(batch=2, kind="repair", edge_ids=(0,)),
            ]
        )
        allocation, report = run_with_faults(
            auction, self._stream(requests, size=1), schedule
        )
        assert [item.request.name for item in allocation.routed] == ["r2"]
        assert report.revocations == 1
        assert report.num_batches == 3

    def test_jam_and_fee_accounting(self):
        instance = random_instance(num_vertices=12, capacity=6.0, num_requests=10, seed=5)
        auction = OnlineAuction(
            instance.graph, 0.5, compute_payments=True, name=instance.name
        )
        schedule = FaultSchedule(
            {
                "jam_rate": 2.0,
                "jam_value_range": (0.01, 0.05),
                "upfront_fee": 0.1,
            },
            seed=11,
        )
        allocation, report = run_with_faults(
            auction, self._stream(list(instance.requests)), schedule
        )
        assert report.jam_arrived > 0
        total_requests = allocation.instance.num_requests
        assert total_requests == 10 + report.jam_arrived
        assert report.upfront_fees == pytest.approx(0.1 * total_requests)
        assert report.upfront_fees_jam == pytest.approx(0.1 * report.jam_arrived)
        assert report.honest_admitted + report.jam_admitted == allocation.num_selected
        assert report.honest_value + report.jam_value_admitted == pytest.approx(
            float(allocation.value)
        )
        assert report.net_revenue == pytest.approx(
            allocation.revenue + report.upfront_fees - report.compensation
        )
        extra = report.as_extra()
        assert extra["fault_jam_arrived"] == float(report.jam_arrived)
        assert extra["fault_net_revenue"] == pytest.approx(report.net_revenue)

    def test_same_seed_is_bit_identical(self):
        def run():
            instance = random_instance(num_vertices=10, capacity=4.0, num_requests=12, seed=9)
            auction = OnlineAuction(instance.graph, 0.5, compute_payments=True)
            schedule = FaultSchedule(
                {
                    "edge_failure_rate": 0.8,
                    "failure_duration": 1,
                    "churn_rate": 0.5,
                    "churn_factor_range": (0.3, 1.4),
                    "jam_rate": 1.0,
                },
                seed=21,
            )
            return run_with_faults(
                auction, self._stream(list(instance.requests)), schedule
            )

        alloc_a, report_a = run()
        alloc_b, report_b = run()
        assert [i.request_index for i in alloc_a.routed] == [
            i.request_index for i in alloc_b.routed
        ]
        assert [i.edge_ids for i in alloc_a.routed] == [
            i.edge_ids for i in alloc_b.routed
        ]
        assert np.array_equal(alloc_a.payments, alloc_b.payments)
        assert report_a.as_extra() == report_b.as_extra()

    def test_faulted_run_stays_feasible(self):
        instance = random_instance(num_vertices=10, capacity=3.0, num_requests=16, seed=13)
        auction = OnlineAuction(instance.graph, 0.5)
        schedule = FaultSchedule(
            {
                "edge_failure_rate": 1.0,
                "failure_duration": 1,
                "churn_rate": 1.0,
                "churn_factor_range": (0.1, 0.5),
                "churn_duration": 1,
            },
            seed=17,
        )
        allocation, _report = run_with_faults(
            auction, self._stream(list(instance.requests)), schedule
        )
        assert allocation.is_feasible()


# ---------------------------------------------------------------------- #
# Differential: zero intensity == fault-free, bit for bit
# ---------------------------------------------------------------------- #
class TestZeroIntensityDifferential:
    def _instance(self):
        # Fresh per call: the per-graph tree memo must not be shared between
        # the two runs under comparison, or the shortest-path counters of
        # the second run would be masked by the first run's warm cache.
        # The parameters give real contention (some rejections, nonzero
        # payments), so the comparison is not vacuous.
        return random_instance(
            num_vertices=8,
            capacity=10.0,
            num_requests=40,
            demand_range=(0.5, 1.0),
            seed=3,
        )

    def _auction(self, graph, admission):
        return OnlineAuction(
            graph, 0.5, admission=admission, compute_payments=True
        )

    @pytest.mark.parametrize("admission", ["greedy", "threshold"])
    @pytest.mark.parametrize("tree_path", ["lists", "scipy"])
    def test_bit_identity(self, admission, tree_path):
        with use_tree_path(tree_path):
            base_instance = self._instance()
            baseline = self._auction(base_instance.graph, admission).run(
                bursty_arrivals(
                    list(base_instance.requests), burst_size=4, shuffle=False
                )
            )
            fault_instance = self._instance()
            faulted, report = run_with_faults(
                self._auction(fault_instance.graph, admission),
                bursty_arrivals(
                    list(fault_instance.requests), burst_size=4, shuffle=False
                ),
                FaultSchedule({}, seed=999),
            )
        assert [i.request_index for i in baseline.routed] == [
            i.request_index for i in faulted.routed
        ]
        assert [i.edge_ids for i in baseline.routed] == [
            i.edge_ids for i in faulted.routed
        ]
        assert np.array_equal(baseline.payments, faulted.payments)
        assert float(baseline.value) == float(faulted.value)
        assert baseline.stats.shortest_path_calls == faulted.stats.shortest_path_calls
        assert faulted.revocations == []
        assert "fault_revocations" not in faulted.stats.extra
        assert report.events == [] and report.jam_arrived == 0

    def test_none_schedule_is_the_fault_free_driver(self):
        base_instance = self._instance()
        baseline = self._auction(base_instance.graph, "greedy").run(
            bursty_arrivals(list(base_instance.requests), burst_size=4, shuffle=False)
        )
        fault_instance = self._instance()
        faulted, _ = run_with_faults(
            self._auction(fault_instance.graph, "greedy"),
            bursty_arrivals(list(fault_instance.requests), burst_size=4, shuffle=False),
            None,
        )
        assert np.array_equal(baseline.payments, faulted.payments)
        assert float(baseline.value) == float(faulted.value)
