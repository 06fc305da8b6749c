"""Trace-replay equivalence: checkpointed probes vs from-scratch runs.

The contract of :mod:`repro.core.trace` is *bit-identity*: a probe answered
by suffix-resume replay (divergence-round computation, checkpoint restore,
threshold answers from excluded continuations, MUCA certificates) must
equal the from-scratch run of the solver on the perturbed instance — same
selections, same paths, same floats.  This suite replays the pinned
differential-fuzz corpus (the same seed derivation as
``test_differential_fuzz``) through the replayers:

* single-probe allocations for ``bounded_ufp`` / ``bounded_ufp_repeat`` /
  ``bounded_muca`` vs the solvers run from scratch on the perturbed input;
* critical-value payments with ``use_trace=True`` vs ``use_trace=False``,
  on both shortest-path tree paths (``scipy`` forces the compiled csgraph
  path at every graph size);
* truthfulness audits with and without tracing;
* online batch payments (greedy and threshold policies) with and without
  tracing, plus ``jobs=4 == jobs=1`` with tracing on;
* every bisection probe's threshold answer vs a forced full replay, for
  every winner (offline, repetitions, greedy and threshold drains, audits
  with a misreported demand), plus hand-built continuation end states and
  safety-band boundaries.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from test_differential_fuzz import (  # noqa: E402  (corpus shared with the fuzz suite)
    MUCA_SEEDS,
    ONLINE_SEEDS,
    REPEAT_SEEDS,
    UFP_SEEDS,
    _assert_same_allocation,
    _ufp_instance,
)

from repro.auctions import correlated_auction, random_auction
from repro.core import (
    ReplayStats,
    TraceRecorder,
    bounded_muca,
    bounded_ufp,
    bounded_ufp_repeat,
    make_replayer,
)
from repro.core.dual_state import DualWeights
from repro.core.pricing_engine import PathPricingEngine
from repro.core.trace import TraceReplayer, _lower, _upper
from repro.flows import Request, UFPInstance, random_instance
from repro.graphs import CapacitatedGraph
from repro.graphs.shortest_path import reference_dijkstra
from repro.mechanism import compute_muca_payments, compute_ufp_payments
from repro.mechanism.payments import _trace_critical_value_ufp
from repro.mechanism.verification import (
    audit_muca_truthfulness,
    audit_ufp_truthfulness,
)
from repro.online import OnlineAuction, bursty_arrivals
from repro.online.auction import drain_engine
from repro.utils.prng import ensure_rng

pytestmark = pytest.mark.fuzz

#: Value multipliers probed per request: deep-low (trivially-inert region),
#: bisection-like mids, the declaration itself, and a raise.
PROBE_FACTORS = (0.03, 0.4, 1.0, 2.5)


def _muca_auction(seed: int):
    rng = ensure_rng(seed)
    num_items = int(rng.integers(4, 16))
    build = random_auction if seed % 2 else correlated_auction
    kwargs = dict(
        num_items=num_items,
        num_bids=int(rng.integers(3, 40)),
        multiplicity=float(rng.uniform(4.0, 20.0)),
        bundle_size_range=(1, min(4, num_items)),
        seed=rng,
    )
    if build is correlated_auction:
        kwargs["num_popular"] = min(3, num_items)
    return build(**kwargs)


def _probe_indices(instance_size: int, seed: int) -> list[int]:
    rng = ensure_rng(seed ^ 0x5EED)
    count = min(3, instance_size)
    return sorted(int(i) for i in rng.choice(instance_size, size=count, replace=False))


@pytest.mark.parametrize("seed", UFP_SEEDS)
def test_ufp_probe_replay_matches_scratch(seed):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    recorder = TraceRecorder()
    bounded_ufp(instance, epsilon, trace=recorder)
    replayer = make_replayer(recorder.trace)
    for idx in _probe_indices(instance.num_requests, seed):
        request = instance.requests[idx]
        for factor in PROBE_FACTORS:
            probe = request.with_value(request.value * factor)
            expected = bounded_ufp(instance.replace_request(idx, probe), epsilon)
            _assert_same_allocation(replayer.probe(idx, probe), expected)
            assert replayer.probe_selected(idx, probe) == expected.is_selected(idx)


@pytest.mark.parametrize("seed", REPEAT_SEEDS)
def test_repeat_probe_replay_matches_scratch(seed):
    instance = _ufp_instance(seed, max_requests=10)
    epsilon = [0.5, 1.0][seed % 2]
    recorder = TraceRecorder()
    bounded_ufp_repeat(instance, epsilon, trace=recorder)
    replayer = make_replayer(recorder.trace)
    for idx in _probe_indices(instance.num_requests, seed):
        request = instance.requests[idx]
        for factor in PROBE_FACTORS:
            probe = request.with_value(request.value * factor)
            expected = bounded_ufp_repeat(instance.replace_request(idx, probe), epsilon)
            _assert_same_allocation(replayer.probe(idx, probe), expected)
            assert replayer.probe_selected(idx, probe) == expected.is_selected(idx)


@pytest.mark.parametrize("seed", MUCA_SEEDS)
def test_muca_probe_replay_matches_scratch(seed):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    recorder = TraceRecorder()
    bounded_muca(auction, epsilon, trace=recorder)
    replayer = make_replayer(recorder.trace)
    for idx in _probe_indices(auction.num_bids, seed):
        bid = auction.bids[idx]
        for factor in PROBE_FACTORS:
            value = bid.value * factor
            expected = bounded_muca(auction.replace_bid(idx, bid.with_value(value)), epsilon)
            assert replayer.probe_winners(idx, value) == expected.winners
            assert replayer.probe_selected(idx, value) == expected.is_winner(idx)


# --------------------------------------------------------------------- #
# Payments: trace vs from-scratch, both shortest-path tree paths
# --------------------------------------------------------------------- #
PAYMENT_SEEDS = UFP_SEEDS[::6]  # every 6th corpus case: payments cost ~|R| runs each


@pytest.mark.parametrize("tree_path", ["lists", "scipy"])
@pytest.mark.parametrize("seed", PAYMENT_SEEDS)
def test_ufp_payments_bit_identical(seed, tree_path):
    from tree_paths import use_tree_path

    with use_tree_path(tree_path):
        instance = _ufp_instance(seed)
        epsilon = [0.3, 0.5, 1.0][seed % 3]
        algorithm = partial(bounded_ufp, epsilon=epsilon)
        allocation = bounded_ufp(instance, epsilon)
        plain = compute_ufp_payments(algorithm, instance, allocation)
        stats: dict = {}
        traced = compute_ufp_payments(
            algorithm, instance, allocation, use_trace=True, replay_stats=stats
        )
    np.testing.assert_array_equal(plain, traced)
    if allocation.num_selected:
        assert stats["replay_probes"] >= 0


@pytest.mark.parametrize("seed", MUCA_SEEDS[::6])
def test_muca_payments_bit_identical(seed):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    algorithm = partial(bounded_muca, epsilon=epsilon)
    allocation = bounded_muca(auction, epsilon)
    plain = compute_muca_payments(algorithm, auction, allocation)
    traced = compute_muca_payments(algorithm, auction, allocation, use_trace=True)
    np.testing.assert_array_equal(plain, traced)


def test_payments_jobs_invariant_with_trace():
    instance = random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=60, demand_range=(0.5, 1.0), seed=13,
    )
    algorithm = partial(bounded_ufp, epsilon=0.3)
    allocation = bounded_ufp(instance, 0.3)
    serial = compute_ufp_payments(algorithm, instance, allocation, use_trace=True, jobs=1)
    fanned = compute_ufp_payments(algorithm, instance, allocation, use_trace=True, jobs=4)
    np.testing.assert_array_equal(serial, fanned)


def _assert_replay_stats_sinks(compute, algorithm, instance, allocation):
    """``replay_stats`` takes a dict (filled) or a ReplayStats (added into)."""
    as_dict: dict = {}
    expected = compute(
        algorithm, instance, allocation, use_trace=True, replay_stats=as_dict
    )
    as_stats = ReplayStats()
    for _ in range(2):
        payments = compute(
            algorithm, instance, allocation, use_trace=True, replay_stats=as_stats
        )
        np.testing.assert_array_equal(payments, expected)
    assert as_dict["replay_probes"] > 0
    assert {key: value / 2 for key, value in as_stats.as_extra().items()} == as_dict


def test_ufp_replay_stats_sink_forms():
    # The contended shape: the budget rule fires, so winners need probes.
    instance = random_instance(
        num_vertices=12, edge_probability=0.25, capacity=15.0,
        num_requests=60, demand_range=(0.5, 1.0), seed=13,
    )
    allocation = bounded_ufp(instance, 0.3)
    _assert_replay_stats_sinks(
        compute_ufp_payments, partial(bounded_ufp, epsilon=0.3), instance, allocation
    )


def test_muca_replay_stats_sink_forms():
    auction = _muca_auction(MUCA_SEEDS[0])
    allocation = bounded_muca(auction, 0.3)
    assert allocation.winners
    _assert_replay_stats_sinks(
        compute_muca_payments, partial(bounded_muca, epsilon=0.3), auction, allocation
    )


# --------------------------------------------------------------------- #
# Audits: trace vs from-scratch
# --------------------------------------------------------------------- #
def _report_key(report):
    return (
        report.agents_audited,
        report.misreports_tried,
        report.max_gain,
        [
            (d.agent_index, d.true_type, d.misreported_type,
             d.truthful_utility, d.deviating_utility)
            for d in report.profitable_deviations
        ],
    )


@pytest.mark.parametrize("seed", UFP_SEEDS[::12])
def test_ufp_audit_bit_identical(seed):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    rule = partial(bounded_ufp, epsilon=epsilon)
    agents = _probe_indices(instance.num_requests, seed)
    plain = audit_ufp_truthfulness(
        rule, instance, agents=agents, misreports_per_agent=4, seed=seed
    )
    traced = audit_ufp_truthfulness(
        rule, instance, agents=agents, misreports_per_agent=4, seed=seed,
        use_trace=True,
    )
    assert _report_key(plain) == _report_key(traced)


@pytest.mark.parametrize("seed", MUCA_SEEDS[::12])
def test_muca_audit_bit_identical(seed):
    auction = _muca_auction(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]
    rule = partial(bounded_muca, epsilon=epsilon)
    agents = _probe_indices(auction.num_bids, seed)
    plain = audit_muca_truthfulness(
        rule, auction, agents=agents, misreports_per_agent=4, seed=seed
    )
    traced = audit_muca_truthfulness(
        rule, auction, agents=agents, misreports_per_agent=4, seed=seed,
        use_trace=True,
    )
    assert _report_key(plain) == _report_key(traced)


def test_audit_jobs_invariant_with_trace():
    instance = random_instance(
        num_vertices=10, edge_probability=0.3, capacity=25.0,
        num_requests=18, seed=42,
    )
    rule = partial(bounded_ufp, epsilon=0.3)
    serial = audit_ufp_truthfulness(
        rule, instance, agents=list(range(10)), misreports_per_agent=4,
        seed=7, use_trace=True, jobs=1,
    )
    fanned = audit_ufp_truthfulness(
        rule, instance, agents=list(range(10)), misreports_per_agent=4,
        seed=7, use_trace=True, jobs=4,
    )
    assert _report_key(serial) == _report_key(fanned)


# --------------------------------------------------------------------- #
# Online batch payments: trace vs from-scratch drains
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("admission,threshold", [("greedy", 1.0), ("threshold", 1.5)])
@pytest.mark.parametrize("seed", ONLINE_SEEDS)
def test_online_payments_bit_identical(seed, admission, threshold):
    instance = _ufp_instance(seed)
    epsilon = [0.3, 0.5, 1.0][seed % 3]

    def stream(use_trace):
        auction = OnlineAuction(
            instance.graph, epsilon,
            admission=admission, score_threshold=threshold,
            compute_payments=True, use_trace=use_trace,
        )
        return auction.run(
            bursty_arrivals(list(instance.requests), burst_size=5, seed=seed % 97)
        )

    plain = stream(False)
    traced = stream(True)
    np.testing.assert_array_equal(plain.payments, traced.payments)
    assert [r.request_index for r in plain.routed] == [
        r.request_index for r in traced.routed
    ]


# --------------------------------------------------------------------- #
# Trace bookkeeping
# --------------------------------------------------------------------- #
def test_traced_run_reports_stats_and_matches_untraced():
    instance = random_instance(
        num_vertices=12, edge_probability=0.3, capacity=20.0,
        num_requests=30, demand_range=(0.4, 1.0), seed=3,
    )
    recorder = TraceRecorder()
    traced = bounded_ufp(instance, 0.4, trace=recorder)
    plain = bounded_ufp(instance, 0.4)
    _assert_same_allocation(traced, plain)
    assert traced.stats.extra["trace_rounds"] == recorder.trace.num_rounds
    assert traced.stats.extra["trace_checkpoints"] == recorder.trace.num_checkpoints
    assert recorder.trace.completed
    # Checkpoint 0 plus at least one more on a 30-round run.
    assert recorder.trace.num_checkpoints >= 2


def test_checkpoint_count_stays_bounded_on_long_runs():
    instance = random_instance(
        num_vertices=8, edge_probability=0.5, capacity=60.0,
        num_requests=12, demand_range=(0.3, 0.6), seed=11,
    )
    recorder = TraceRecorder()
    bounded_ufp_repeat(instance, 0.5, trace=recorder, max_iterations=2000)
    trace = recorder.trace
    assert trace.num_rounds > 100  # repetitions make this a long run
    assert trace.num_checkpoints <= 17 + 1  # max_checkpoints plus the final one


# --------------------------------------------------------------------- #
# Threshold answers vs forced full replays
# --------------------------------------------------------------------- #
def _forced(replayer):
    """A probe oracle that always runs the live replay: ``probe`` and
    ``probe_selections`` want every round, so they never take the
    threshold path."""
    if replayer.trace.mode == "drain":
        return lambda index, request: any(
            r.index == index for r in replayer.probe_selections(index, request)
        )
    return lambda index, request: replayer.probe(index, request).is_selected(index)


def _checked(replayer):
    """Make ``replayer.probe_selected`` assert every answer against a forced
    full replay of the same probe."""
    fast = replayer.probe_selected
    forced = _forced(replayer)

    def probe_selected(index, request):
        answer = fast(index, request)
        assert answer == forced(index, request), (index, request)
        return answer

    replayer.probe_selected = probe_selected
    return replayer


def _check_every_winner(checked, winners, declared=None):
    """Run every winner's critical-value bisection through a replayer from
    :func:`_checked`; returns how many probes the threshold answered."""
    before = checked.stats.threshold_answers
    for idx in winners:
        _trace_critical_value_ufp(
            checked, idx, relative_tolerance=1e-6, absolute_tolerance=1e-9,
            declared=None if declared is None else declared(idx),
        )
    return checked.stats.threshold_answers - before


def _offline_replayer(solver, instance, epsilon):
    recorder = TraceRecorder()
    allocation = solver(instance, epsilon, trace=recorder)
    return make_replayer(recorder.trace), sorted(allocation.selected_indices())


def _contended_instance(seed):
    return random_instance(
        num_vertices=8, edge_probability=0.3, capacity=12.0,
        num_requests=36, demand_range=(0.5, 1.0), seed=seed,
    )


@pytest.mark.parametrize("tree_path", ["lists", "scipy"])
def test_threshold_answers_match_forced_replay_on_corpus(tree_path):
    from tree_paths import use_tree_path

    answered = 0
    with use_tree_path(tree_path):
        for seed in UFP_SEEDS:
            instance = _ufp_instance(seed)
            replayer, winners = _offline_replayer(
                bounded_ufp, instance, [0.3, 0.5, 1.0][seed % 3]
            )
            answered += _check_every_winner(_checked(replayer), winners)
    assert answered > 700


@pytest.mark.parametrize("tree_path", ["lists", "scipy"])
def test_threshold_answers_match_forced_replay_when_contended(tree_path):
    from tree_paths import use_tree_path

    answered = 0
    stopped = 0
    with use_tree_path(tree_path):
        for seed in range(12):
            instance = _contended_instance(seed)
            recorder = TraceRecorder()
            allocation = bounded_ufp(instance, 0.3, trace=recorder)
            stopped += allocation.stats.stopped_by_budget
            answered += _check_every_winner(
                _checked(make_replayer(recorder.trace)),
                sorted(allocation.selected_indices()),
            )
    assert stopped == 12  # the budget rule fires: every winner pays > 0
    assert answered > 3000


def test_threshold_answers_match_forced_replay_in_repeat_mode():
    answered = 0
    for seed in REPEAT_SEEDS[::5]:
        instance = _ufp_instance(seed, max_requests=10)
        replayer, winners = _offline_replayer(
            bounded_ufp_repeat, instance, [0.5, 1.0][seed % 2]
        )
        answered += _check_every_winner(_checked(replayer), winners)
    assert answered > 500


def _drain_replayer(instance, epsilon, admission, threshold):
    """Record one batch drain of the whole instance from fresh duals."""
    duals = DualWeights(instance.graph.capacities, epsilon)
    engine = PathPricingEngine(
        instance.graph, list(instance.requests), duals,
        tie_tolerance=1e-15, index_tie_break=True, remove_selected=True,
    )
    recorder = TraceRecorder()
    recorder.begin_path_run(
        mode="drain", engine=engine, duals=duals, epsilon=epsilon,
        iteration_cap=None, requests=instance.requests,
        admission=admission, score_threshold=threshold,
    )
    admitted = drain_engine(
        engine, duals, admission=admission, score_threshold=threshold,
        trace=recorder,
    )
    recorder.finish(engine, duals, stopped_by_budget=not duals.within_budget)
    return TraceReplayer(recorder.trace), sorted(s.index for s in admitted)


@pytest.mark.parametrize("admission,threshold", [("greedy", 1.0), ("threshold", 1.5)])
def test_threshold_answers_match_forced_replay_on_drains(admission, threshold):
    answered = 0
    for seed in UFP_SEEDS[::2]:
        instance = _ufp_instance(seed)
        replayer, winners = _drain_replayer(
            instance, [0.3, 0.5, 1.0][seed % 3], admission, threshold
        )
        answered += _check_every_winner(_checked(replayer), winners)
    assert answered > 200


def test_threshold_answers_match_forced_replay_with_misreported_demand():
    answered = 0
    for seed in UFP_SEEDS[::3]:
        instance = _ufp_instance(seed)
        replayer, winners = _offline_replayer(
            bounded_ufp, instance, [0.3, 0.5, 1.0][seed % 3]
        )
        forced = _forced(replayer)
        checked = _checked(replayer)
        for factor in (0.5, 1.7):
            def misreport(idx, factor=factor):
                request = instance.requests[idx]
                return request.with_demand(min(1.0, request.demand * factor))

            # A misreport that loses has no critical value to bisect.
            selected = [w for w in winners if forced(w, misreport(w))]
            answered += _check_every_winner(checked, selected, misreport)
        # Slightly raised values lower the score just below the declared
        # one: such probes can win a base round before the winning round.
        for idx in winners:
            request = instance.requests[idx]
            for factor in (1.0001, 1.001, 1.01, 1.1):
                checked.probe_selected(idx, request.with_value(request.value * factor))
    assert answered > 200


def test_recorded_prefix_distances_are_exact():
    """The base rounds a continuation starts with carry the winner's exact
    distance: a reference Dijkstra under the recorded dual updates."""
    checked = 0
    for seed in range(6):
        instance = _contended_instance(seed)
        recorder = TraceRecorder()
        allocation = bounded_ufp(instance, 0.3, trace=recorder)
        trace = recorder.trace
        replayer = make_replayer(trace)
        for idx in sorted(allocation.selected_indices()):
            request = instance.requests[idx]
            replayer.probe_selected(idx, request.with_value(request.value / 2))
            continuation = replayer._continuations[idx]
            duals = DualWeights(instance.graph.capacities, 0.3)
            for j in range(trace.first_win[idx]):
                if j >= continuation.start:
                    tree = reference_dijkstra(
                        instance.graph, request.source, duals.weights
                    )
                    exact = tree.distances[request.target]
                    assert continuation.dist[j - continuation.start] == exact
                    checked += 1
                played = trace.rounds[j]
                duals.apply_selection(
                    played.sorted_edge_array, played.demand, assume_unique=True
                )
    assert checked > 50


def test_probes_diverging_before_the_declaration_record_no_continuation():
    """A winner's continuation starts at its declaration's divergence round,
    so a probe that can win a base round before it replays, and leaves the
    continuation unrecorded until a probe that can use it arrives."""
    early = 0
    for seed in range(6):
        replayer, winners = _offline_replayer(
            bounded_ufp, _contended_instance(seed), 0.3
        )
        for idx in winners:
            request = replayer.declared(idx)
            start = replayer._divergence(idx, request.demand, request.value)
            for factor in (1.01, 1.1, 1.5, 3.0):
                raised = request.with_value(request.value * factor)
                if replayer._divergence(idx, raised.demand, raised.value) < start:
                    replayer.probe_selected(idx, raised)
                    assert idx not in replayer._continuations
                    early += 1
                    break
            replayer.probe_selected(idx, request.with_value(request.value / 2))
            assert replayer._continuations[idx].start == start
    assert early > 10


# Hand-built end states: one edge 0 -> 1, unit demands, epsilon 1.  The
# budget limit e^(c - 1) admits two unit selections at c = 2 but only one
# at c = 1.5, so request 0's excluded continuation (request 1 alone) ends
# with the pool exhausted inside the budget at c = 2 and outside it at
# c = 1.5; a cap of one iteration closes it at c = 2.
def _one_edge(capacity, values):
    graph = CapacitatedGraph(2, [(0, 1, capacity)], directed=True)
    return UFPInstance(graph, [Request(0, 1, demand=1.0, value=v) for v in values])


@pytest.mark.parametrize(
    "capacity,max_iterations,expected",
    [(2.0, None, True), (1.5, None, False), (2.0, 1, False)],
    ids=["exhausted-inside-budget", "exhausted-outside-budget", "exhausted-at-cap"],
)
def test_exhausted_continuation_end_rule(capacity, max_iterations, expected):
    instance = _one_edge(capacity, [3.0, 2.0])
    solver = partial(bounded_ufp, max_iterations=max_iterations)
    recorder = TraceRecorder()
    solver(instance, 1.0, trace=recorder)
    replayer = make_replayer(recorder.trace)
    assert recorder.trace.first_win[0] == 0
    probe = instance.requests[0].with_value(1e-3)  # never wins a round
    assert replayer.probe_selected(0, probe) is expected
    assert replayer.stats.threshold_answers == 1
    scratch = solver(instance.replace_request(0, probe), 1.0)
    assert scratch.is_selected(0) is expected
    assert replayer.probe(0, probe).is_selected(0) is expected


def test_in_band_probes_run_the_live_replay():
    # Request 1 (value 2) wins the continuation's only round with score
    # dist / 2 at dist = 1 / c = 0.5, i.e. 0.25.
    instance = _one_edge(2.0, [3.0, 2.0])
    recorder = TraceRecorder()
    bounded_ufp(instance, 1.0, trace=recorder)
    replayer = make_replayer(recorder.trace)
    dist = recorder.trace.initial_dist[0]
    score = 1.0 / 2.0 * dist
    assert score == 0.25
    lower, upper = _lower(score), _upper(score)
    cases = [
        (float(np.nextafter(lower, 0.0)), True),  # clearly wins round 0
        (lower, False),  # band edge: replay
        (score, False),  # exact tie, index tie-break: replay
        (upper, False),  # band edge: replay
        (float(np.nextafter(upper, np.inf)), True),  # clearly loses, exhausted
    ]
    for target, by_threshold in cases:
        # Scaling by dist = 0.5 is exact: the probe scores the target.
        probe = instance.requests[0].with_type(demand=target / dist, value=1.0)
        assert probe.demand / probe.value * dist == target
        before = replayer.stats.threshold_answers
        answer = replayer.probe_selected(0, probe)
        assert replayer.stats.threshold_answers - before == int(by_threshold), target
        scratch = bounded_ufp(instance.replace_request(0, probe), 1.0)
        assert answer == scratch.is_selected(0) == replayer.probe(0, probe).is_selected(0)
