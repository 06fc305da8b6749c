"""The three benchmark workloads: instance pools, ops, checks and digests.

Every workload follows one protocol, driven by ``run.py``:

* ``make(rng)`` generates one pool entry from a seeded generator (before
  any timing);
* ``prepare(entry)`` gives an op its own fresh objects (untimed);
* ``run(state)`` is the timed op;
* ``check(state, result)`` verifies the op's output and returns
  ``(ok, digest, why)`` (untimed);
* ``counters(result)`` reads the work counters the library's own API
  returns, for the traced run;
* ``cleanup(state)`` releases what ``prepare`` made (untimed).

A pool entry is never run itself: each op works on a deep copy, so the
per-graph tree memo that the pricing engine keeps in a graph's
``substrate_cache`` is never shared between ops.
"""

from __future__ import annotations

import copy
import hashlib
import math
import shutil
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import bounded_ufp
from repro.flows import Request, UFPInstance, random_instance
from repro.graphs.generators import multi_region_topology
from repro.mechanism import compute_ufp_payments
from repro.scenarios.suites import get_suite
from repro.service.queue import JobQueue
from repro.service.supervisor import Supervisor, SupervisorConfig

__all__ = ["SIZES", "make_workload"]

#: Instance shapes per size.  ``full`` is what the benchmark measures;
#: ``tiny`` keeps the benchmark's own tests fast.
SIZES = {
    "full": {
        "clear_contended": dict(
            num_vertices=12, edge_probability=0.25, capacity=15.0,
            num_requests=120, demand_range=(0.5, 1.0), epsilon=0.3,
        ),
        "solve_regions": dict(
            regions=10, cores=6, leaves=5, num_requests=900, epsilon=0.5,
        ),
        "service_jobs": dict(suite="demo"),
    },
    "tiny": {
        "clear_contended": dict(
            num_vertices=6, edge_probability=0.3, capacity=15.0,
            num_requests=60, demand_range=(0.5, 1.0), epsilon=0.3,
        ),
        "solve_regions": dict(
            regions=2, cores=2, leaves=2, num_requests=20, epsilon=0.5,
        ),
        "service_jobs": dict(suite="smoke"),
    },
}


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:16]


def _routing_bytes(allocation) -> bytes:
    """Selection order and paths of an allocation, as canonical bytes."""
    return repr(
        [(r.request_index, r.vertices, r.edge_ids) for r in allocation.routed]
    ).encode()


def _pricing_counters(allocation) -> dict[str, float]:
    extra = allocation.stats.extra
    computed = extra.get("pricing_dijkstra_calls", 0.0)
    reused = extra.get("pricing_tree_reuses", 0.0)
    warm = extra.get("pricing_warm_start_hits", 0.0)
    misses = extra.get("pricing_memo_misses", 0.0)
    return {
        "core.pricing.tree_requests": computed + reused + warm,
        "core.pricing.tree_reuses": reused,
        "core.pricing.memo_lookups": warm + misses,
        "core.pricing.memo_hits": warm,
        "core.pricing.trees_invalidated": extra.get("pricing_trees_invalidated", 0.0),
    }


class ClearContended:
    """Clear one contended auction: allocate, then price every winner."""

    def __init__(self, params: dict) -> None:
        self.params = dict(params)
        self.epsilon = self.params.pop("epsilon")
        self.algorithm = partial(bounded_ufp, epsilon=self.epsilon)

    def make(self, rng):
        return random_instance(seed=rng, **self.params)

    def prepare(self, entry):
        return copy.deepcopy(entry)

    def run(self, instance):
        allocation = bounded_ufp(instance, self.epsilon)
        replay_stats: dict = {}
        payments = compute_ufp_payments(
            self.algorithm, instance, allocation,
            jobs=1, use_trace=True, replay_stats=replay_stats,
        )
        return allocation, payments, replay_stats

    def check(self, instance, result):
        allocation, payments, _ = result
        if not allocation.is_feasible():
            return False, "", "allocation exceeds a capacity"
        winners = allocation.selected_indices()
        # A winner's critical value is positive once the budget rule has
        # stopped the run (a low enough bid falls past the stop); a run
        # that selects everything it can route leaves every price at 0.
        extra = allocation.stats.extra
        budget = extra.get("final_dual_budget", 0.0)
        stopped = budget > extra.get("dual_budget_limit", math.inf)
        for index, request in enumerate(instance.requests):
            paid = float(payments[index])
            if index in winners:
                if not 0.0 <= paid <= request.value or (stopped and paid == 0.0):
                    why = f"winner {index} pays {paid!r} of {request.value!r}"
                    return False, "", why
            elif paid != 0.0:
                return False, "", f"loser {index} pays {paid!r}"
        digest = _sha(
            _routing_bytes(allocation),
            np.ascontiguousarray(payments, dtype=np.float64).tobytes(),
        )
        return True, digest, ""

    def counters(self, result):
        allocation, _, stats = result
        probes = stats.get("replay_probes", 0.0)
        counters = {
            "core.replay.probe_calls": probes + stats.get("replay_cache_hits", 0.0),
            "core.replay.cache_hits": stats.get("replay_cache_hits", 0.0),
            "core.replay.probes": probes,
            "core.replay.certificate_hits": stats.get("replay_certificate_hits", 0.0),
            "core.replay.rounds_skipped": stats.get("replay_rounds_skipped", 0.0),
            "core.replay.rounds_replayed": stats.get("replay_rounds_replayed", 0.0),
            "core.replay.rounds_recomputed": stats.get("replay_rounds_recomputed", 0.0),
        }
        counters.update(_pricing_counters(allocation))
        return counters

    def cleanup(self, instance) -> None:
        pass


class SolveRegions:
    """One global Bounded-UFP solve of a multi-region composite."""

    def __init__(self, params: dict) -> None:
        self.params = dict(params)

    def make(self, rng):
        p = self.params
        regions, cores, leaves = p["regions"], p["cores"], p["leaves"]
        graph = multi_region_topology(
            regions, cores, leaves, 60.0, 30.0, 15.0,
            seed=int(rng.integers(2**31)),
        )
        block = cores * (1 + leaves)
        requests = []
        for _ in range(p["num_requests"]):
            region = int(rng.integers(regions))
            leaves_of_region = np.arange(region * block + cores, (region + 1) * block)
            u, v = rng.choice(leaves_of_region, size=2, replace=False)
            requests.append(
                Request(
                    int(u), int(v),
                    demand=float(rng.uniform(0.2, 1.0)),
                    value=float(rng.uniform(0.5, 2.0)),
                )
            )
        return UFPInstance(graph, requests)

    def prepare(self, entry):
        return copy.deepcopy(entry)

    def run(self, instance):
        return bounded_ufp(instance, self.params["epsilon"])

    def check(self, instance, allocation):
        if not allocation.is_feasible():
            return False, "", "allocation exceeds a capacity"
        if allocation.num_selected == 0:
            return False, "", "nothing selected"
        return True, _sha(_routing_bytes(allocation)), ""

    def counters(self, allocation):
        return _pricing_counters(allocation)

    def cleanup(self, instance) -> None:
        pass


class ServiceJobs:
    """Submit a seeded copy of a built-in campaign and run it to DONE."""

    def __init__(self, params: dict, scratch: Path) -> None:
        self.suite = params["suite"]
        self.scratch = Path(scratch)

    def make(self, rng):
        suite = get_suite(self.suite)
        suite["seed"] = int(rng.integers(2**31))
        return {"kind": "campaign", "suite": suite, "jobs": 1}

    def prepare(self, spec):
        self.scratch.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="job-", dir=self.scratch))
        queue = JobQueue(root)
        return root, queue, copy.deepcopy(spec)

    def run(self, state):
        _, queue, spec = state
        job, _ = queue.submit(spec)
        supervisor = Supervisor(queue, config=SupervisorConfig(jobs=1))
        while supervisor.run_one() is not None:
            if queue.get(job.id).terminal:
                break
        return supervisor, job.id

    def check(self, state, result):
        supervisor, job_id = result
        job = supervisor.queue.get(job_id)
        summary = supervisor.load_result(job_id)
        if job.state != "DONE":
            return False, "", f"job ended {job.state}: {job.error!r}"
        if not summary or not summary.get("claims_ok"):
            return False, "", "job summary lacks claims_ok"
        if summary.get("failed_cells"):
            return False, "", f"failed cells {summary['failed_cells']}"
        return True, summary["content_hash"][:16], ""

    def counters(self, result):
        return {}

    def cleanup(self, state) -> None:
        shutil.rmtree(state[0], ignore_errors=True)


def make_workload(name: str, size: str, scratch: Path):
    params = SIZES[size][name]
    if name == "service_jobs":
        return ServiceJobs(params, scratch)
    kinds = {"clear_contended": ClearContended, "solve_regions": SolveRegions}
    return kinds[name](params)
