"""Tests of the benchmark itself: tracer arithmetic, tail selection, and a
tiny-size smoke run of every workload (digest mismatch counted as failed).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, REPO_ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracer as tracer_mod  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402
from workloads import make_workload  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #
@pytest.fixture
def synthetic(monkeypatch):
    """A module with a nested call and a fake nanosecond clock."""
    clock = [0]
    module = types.ModuleType("perfbench_synthetic")

    def inner(ticks):
        clock[0] += ticks
        return ticks

    def outer():
        clock[0] += 5
        module.inner(3)
        module.inner(1)
        clock[0] += 2
        return "done"

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(tracer_mod, "perf_counter_ns", lambda: clock[0])
    return module


def test_self_time_is_inclusive_minus_wrapped_children(synthetic):
    tracer = Tracer({
        "outer": ("perfbench_synthetic.outer",),
        "inner": ("perfbench_synthetic.inner",),
    })
    with tracer:
        assert synthetic.outer() == "done"
    assert tracer.totals["outer"] == [1, 11, 7]
    assert tracer.totals["inner"] == [2, 4, 4]
    assert not hasattr(synthetic.outer, "__wrapped__")  # restored


def test_root_span_and_same_seam_nesting(synthetic):
    tracer = Tracer({"inner": ("perfbench_synthetic.inner",)})
    with tracer:
        tracer.call(ROOT, synthetic.outer)
        # A seam called directly inside itself is counted once.
        tracer.call("inner", synthetic.inner, 2)
    assert tracer.totals[ROOT] == [1, 11, 7]
    assert tracer.totals["inner"] == [3, 6, 6]


def test_missing_seams_are_absent_not_fatal():
    tracer = Tracer({
        "gone.module": ("repro.no_such_module.function",),
        "gone.attr": ("repro.core.pricing_engine.PathPricingEngine.no_such_method",),
        "core.select": ("repro.core.pricing_engine.PathPricingEngine.select",),
    })
    from repro.core.pricing_engine import PathPricingEngine

    original = PathPricingEngine.select
    with tracer:
        assert PathPricingEngine.select is not original
    assert tracer.absent == ["gone.module", "gone.attr"]
    assert PathPricingEngine.select is original


def test_module_aliases_are_patched_and_restored():
    import repro.lp.fractional_ufp as fractional_ufp
    import repro.lp.solver as solver

    original = solver.solve_lp
    tracer = Tracer({"lp.solve": ("repro.lp.fractional_ufp.solve_lp",)})
    with tracer:
        assert solver.solve_lp is fractional_ufp.solve_lp is not original
    assert solver.solve_lp is fractional_ufp.solve_lp is original


# ---------------------------------------------------------------------- #
# Tail percentile
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, value, percentile, beyond",
    [
        (100, 90, 90.0, 10),
        (60, 50, 100 * 50 / 60, 10),
        (20, 10, 50.0, 10),
        (15, 8, 100 * 8 / 15, 7),
        (1, 1, 100.0, 0),
    ],
)
def test_tail_percentile_selection(n, value, percentile, beyond):
    samples = list(range(n, 0, -1))  # order must not matter
    got = bench.tail_percentile(samples)
    assert got == (value, pytest.approx(percentile), beyond)


# ---------------------------------------------------------------------- #
# Smoke runs at tiny size
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_tiny_workload_checks_and_digests(name, tmp_path):
    workload = make_workload(name, "tiny", tmp_path)
    pool = bench.make_pool(workload, 3, 2)

    first = bench.Loop(workload, pool)
    first.op(0)
    first.op(1)
    assert (first.failed, first.failures) == (0, [])
    assert len(first.latencies) == 2

    committed = [first.digests[0], first.digests[1]]
    again = bench.Loop(workload, pool, committed)
    again.op(0)
    again.op(1)
    assert again.failed == 0 and again.digests_checked == 2

    corrupted = [committed[0], "0" * 16]
    bad = bench.Loop(workload, pool, corrupted)
    bad.op(0)
    bad.op(1)
    assert (bad.attempted, bad.failed) == (2, 1)
    assert "digest" in bad.failures[0]
    assert list(tmp_path.iterdir()) == []


def test_tiny_traced_ops_reach_their_layers(tmp_path):
    expected = {
        "clear_contended": ("core.replay_probe", "core.select", "graphs.dijkstra"),
        "solve_regions": ("graphs.dijkstra", "core.dual_update"),
        "service_jobs": ("lp.solve", "lp.build", "io.fsync", "service.wal_append"),
    }
    for name, seams in expected.items():
        workload = make_workload(name, "tiny", tmp_path)
        loop = bench.Loop(workload, bench.make_pool(workload, 5, 1))
        tracer = Tracer()
        loop.op(0, tracer)
        assert loop.failed == 0, loop.failures
        assert tracer.absent == []
        for seam in seams:
            assert tracer.totals[seam][0] > 0, (name, seam)
        metrics = bench.layer_metrics(tracer.totals, 1, tracer.seams, loop.counters)
        shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share"))
        assert shares == pytest.approx(1.0)


def _cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_the_declared_metrics(trace, section):
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())[section]
    run = _cli(
        "--workload", "solve_regions", "--size", "tiny", "--seed", "2",
        "--seconds", "0.3", "--trace", trace,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_cli_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    run = _cli("--workload", "clear_contended", "--seconds", "1", cwd=tmp_path)
    assert run.returncode != 0
    assert run.stdout == ""
