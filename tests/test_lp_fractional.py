"""Tests for the fractional UFP / MUCA relaxations, the path LP and duality helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flows import Request, UFPInstance, random_instance
from repro.graphs import CapacitatedGraph
from repro.lp import (
    check_weak_duality,
    solve_fractional_muca,
    solve_fractional_ufp,
    solve_path_lp,
    ufp_dual_objective,
)
from repro.lp.duality import minimum_normalized_path_length, ufp_dual_is_feasible


class TestFractionalUFP:
    def test_single_edge_contention(self, contended_instance):
        result = solve_fractional_ufp(contended_instance)
        # Capacity 2, three unit requests of values 5, 3, 2: best fractional
        # solution routes the two most valuable ones.
        assert result.objective == pytest.approx(8.0)
        assert result.ok
        np.testing.assert_allclose(result.edge_loads(), [2.0], atol=1e-6)

    def test_uncontended_routes_everything(self, diamond_instance):
        result = solve_fractional_ufp(diamond_instance)
        assert result.objective == pytest.approx(diamond_instance.total_value)
        np.testing.assert_allclose(
            result.routed_fraction, np.ones(3), atol=1e-6
        )

    def test_splitting_beats_unsplittable(self):
        """The relaxation may split one request across two paths."""
        graph = CapacitatedGraph(4, [(0, 1, 0.5), (1, 3, 0.5), (0, 2, 0.5), (2, 3, 0.5)],
                                 directed=True)
        instance = UFPInstance(graph, [Request(0, 3, 1.0, 10.0)])
        result = solve_fractional_ufp(instance)
        # Each path carries half the demand.
        assert result.objective == pytest.approx(10.0)

    def test_repetitions_mode_unbounded_by_request_cap(self, diamond_instance):
        plain = solve_fractional_ufp(diamond_instance)
        repeated = solve_fractional_ufp(diamond_instance, repetitions=True)
        assert repeated.objective >= plain.objective - 1e-9
        # With repetitions the best-density request saturates the capacity,
        # so the optimum strictly exceeds the capped one here.
        assert repeated.objective > plain.objective + 1.0

    def test_capacity_duals_nonnegative_and_cover_requests(self, contended_instance):
        result = solve_fractional_ufp(contended_instance)
        assert np.all(result.capacity_duals >= -1e-9)
        # The single edge is saturated, so its dual is at least the value
        # density of the marginal (losing) request.
        assert result.capacity_duals[0] >= 2.0 - 1e-6

    def test_disconnected_request_gets_zero(self):
        graph = CapacitatedGraph(3, [(0, 1, 5.0)], directed=True)
        instance = UFPInstance(graph, [Request(0, 2, 1.0, 4.0), Request(0, 1, 1.0, 1.0)])
        result = solve_fractional_ufp(instance)
        assert result.objective == pytest.approx(1.0)
        assert result.routed_fraction[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_requests(self, diamond_graph):
        instance = UFPInstance(diamond_graph, [])
        result = solve_fractional_ufp(instance)
        assert result.objective == 0.0

    def test_undirected_capacity_shared_between_orientations(self):
        graph = CapacitatedGraph(2, [(0, 1, 1.0)], directed=False)
        instance = UFPInstance(
            graph, [Request(0, 1, 1.0, 1.0), Request(1, 0, 1.0, 1.0)]
        )
        result = solve_fractional_ufp(instance)
        # Both directions share the single unit of capacity.
        assert result.objective == pytest.approx(1.0)


class TestPathLP:
    def test_matches_edge_formulation_on_random_instances(self):
        for seed in range(3):
            instance = random_instance(
                num_vertices=8, edge_probability=0.35, capacity=3.0,
                num_requests=12, demand_range=(0.5, 1.0), seed=seed,
            )
            edge_form = solve_fractional_ufp(instance)
            path_form = solve_path_lp(instance)
            assert path_form.objective == pytest.approx(edge_form.objective, rel=1e-5, abs=1e-6)

    def test_disabled_edge_carries_no_flow_in_either_formulation(self):
        # Regression: the edge LP used to route over disabled edges, which
        # the path LP (and every shortest-path tree) never sees.
        graph = CapacitatedGraph(
            2, [(0, 1, 1.0), (0, 1, 1.0)], directed=True, disabled_edges=[1]
        )
        instance = UFPInstance(graph, [Request(0, 1, 1.0, 1.0), Request(0, 1, 1.0, 1.0)])
        edge_form = solve_fractional_ufp(instance)
        path_form = solve_path_lp(instance)
        assert edge_form.objective == pytest.approx(1.0)
        assert edge_form.objective == pytest.approx(path_form.objective)
        assert edge_form.edge_loads() == pytest.approx([1.0, 0.0])
        assert edge_form.capacity_duals.shape == (2,)

    def test_matches_on_contended_single_edge(self, contended_instance):
        result = solve_path_lp(contended_instance)
        assert result.objective == pytest.approx(8.0)
        # Path distribution of the winning requests sums to ~1.
        assert result.routed_fraction(0) == pytest.approx(1.0, abs=1e-6)
        assert result.routed_fraction(2) == pytest.approx(0.0, abs=1e-6)

    def test_column_generation_terminates_and_reports_iterations(self, diamond_instance):
        result = solve_path_lp(diamond_instance)
        assert result.iterations >= 1
        assert result.ok

    def test_path_distribution_entries_are_valid_paths(self, diamond_instance):
        result = solve_path_lp(diamond_instance)
        for idx in range(diamond_instance.num_requests):
            for column, weight in result.path_distribution(idx):
                assert weight > 0
                assert column.vertices[0] == diamond_instance.requests[idx].source
                assert column.vertices[-1] == diamond_instance.requests[idx].target

    def test_empty_instance(self, diamond_graph):
        result = solve_path_lp(UFPInstance(diamond_graph, []))
        assert result.objective == 0.0


class TestFractionalMUCA:
    def test_tiny_auction_optimum(self, tiny_auction):
        result = solve_fractional_muca(tiny_auction)
        # All four bids fit within multiplicity 2 of each item.
        assert result.objective == pytest.approx(10.0)
        assert result.ok

    def test_contention_forces_choice(self):
        from repro.auctions import Bid, MUCAInstance

        instance = MUCAInstance(
            np.array([1.0]),
            [Bid((0,), 5.0), Bid((0,), 3.0), Bid((0,), 1.0)],
        )
        result = solve_fractional_muca(instance)
        assert result.objective == pytest.approx(5.0)
        assert result.item_duals[0] >= 3.0 - 1e-6

    def test_item_without_bids_gets_zero_dual(self):
        from repro.auctions import Bid, MUCAInstance

        instance = MUCAInstance(np.array([1.0, 1.0]), [Bid((0,), 2.0)])
        result = solve_fractional_muca(instance)
        assert result.objective == pytest.approx(2.0)
        assert result.item_duals[1] == pytest.approx(0.0, abs=1e-9)

    def test_empty_auction(self):
        from repro.auctions import MUCAInstance

        result = solve_fractional_muca(MUCAInstance(np.array([2.0]), []))
        assert result.objective == 0.0


class TestDualityHelpers:
    def test_dual_objective(self, contended_instance):
        y = np.array([1.5])
        z = np.array([1.0, 0.0, 0.0])
        # sum c_e y_e = 2 * 1.5 = 3, plus z = 1.
        assert ufp_dual_objective(contended_instance, y, z) == pytest.approx(4.0)
        assert ufp_dual_objective(contended_instance, y) == pytest.approx(3.0)

    def test_dual_feasibility_check(self, contended_instance):
        # y = 5 on the single edge covers every request's value (v <= d * y).
        assert ufp_dual_is_feasible(contended_instance, np.array([5.0]))
        assert not ufp_dual_is_feasible(contended_instance, np.array([1.0]))
        # Adding z duals can restore feasibility.
        assert ufp_dual_is_feasible(
            contended_instance, np.array([1.0]), np.array([4.0, 2.0, 1.0])
        )

    def test_minimum_normalized_path_length(self, contended_instance):
        y = np.array([2.0])
        # alpha = min_r d/v * dist = 1/5 * 2 = 0.4.
        assert minimum_normalized_path_length(contended_instance, y) == pytest.approx(0.4)
        subset = minimum_normalized_path_length(contended_instance, y, request_subset={2})
        assert subset == pytest.approx(1.0)

    def test_lp_duals_are_dual_feasible(self, contended_instance):
        result = solve_fractional_ufp(contended_instance)
        # Edge duals alone need the z_r complement; with z_r chosen as the
        # positive parts of the slack they certify the optimum.
        z = np.array(
            [
                max(0.0, req.value - req.demand * float(result.capacity_duals[0]))
                for req in contended_instance.requests
            ]
        )
        assert ufp_dual_is_feasible(contended_instance, result.capacity_duals, z)
        dual_value = ufp_dual_objective(contended_instance, result.capacity_duals, z)
        assert check_weak_duality(result.objective, dual_value)

    def test_check_weak_duality(self):
        assert check_weak_duality(3.0, 3.0)
        assert check_weak_duality(2.9, 3.0)
        assert not check_weak_duality(3.1, 3.0)
