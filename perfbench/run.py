"""Benchmark of the mechanism: clear, solve and service-job workloads.

Run from the repository root::

    python3 perfbench/run.py --workload clear_contended --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client, serial, in one process.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and prints the
per-layer metrics.  ``--workload all`` runs every workload in turn, each
in its own process.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a human-readable table and one ``info`` JSON line (environment, tail
percentile, absent seams, failures).  The exit code is non-zero when any
op fails its correctness check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import ROOT, SEAMS, Tracer  # noqa: E402 - stdlib only, no library import

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
SCRATCH = REPO_ROOT / ".perfbench_tmp"
DIGESTS_PATH = BENCH_DIR / "digests.json"

WORKLOAD_NAMES = ("clear_contended", "solve_regions", "service_jobs")
#: Library knobs cleared so an inherited environment cannot change what is
#: measured; the resolved names are recorded in the ``info`` line instead.
UNSET_ENV = ("REPRO_KERNEL", "REPRO_SP_BACKEND", "REPRO_JOBS")
#: Native thread pools capped: the host has two cores, the process uses
#: at most two threads (main + the supervisor's heartbeat).
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Distinct instances per run, about the op count of a 30 s run on a
#: two-core host; ops beyond the pool reuse entries in order, on fresh copies.
POOL_SIZE = {"clear_contended": 80, "solve_regions": 32, "service_jobs": 128}
#: Pool index of the warm-up instance: outside every timed pool.
WARMUP_INDEX = 2**32 - 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10
#: Pool entries per default seed whose digests are committed.
DIGEST_OPS = 16


# ---------------------------------------------------------------------- #
# Pure helpers (unit-tested)
# ---------------------------------------------------------------------- #
def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """``(value, percentile, beyond_count)`` of the highest nearest-rank
    percentile with at least ``beyond`` samples above it.

    Below ``2 * beyond`` samples that percentile would fall under the
    median; the median is reported instead, with its true count beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - beyond if n >= 2 * beyond else (n + 1) // 2
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def instance_rng(seed: int, index: int):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def layer_metrics(totals, op_count: int, seams, counters) -> dict:
    """Per-layer metrics from tracer totals and summed API counters."""
    ops = max(op_count, 1)
    self_total = sum(t[2] for t in totals.values()) or 1
    metrics = {}
    for name in (*seams, ROOT):
        calls, incl, self_ns = totals.get(name, (0, 0, 0))
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.incl_ms"] = (incl / 1e6 / ops, "ms/op")
        metrics[f"{name}.self_ms"] = (self_ns / 1e6 / ops, "ms/op")
        metrics[f"{name}.self_share"] = (self_ns / self_total, "ratio")

    def ratio(num: str, den: str) -> float:
        d = counters.get(den, 0.0)
        return counters.get(num, 0.0) / d if d else 0.0

    for key in ("rounds_skipped", "rounds_replayed", "rounds_recomputed"):
        metrics[f"core.replay.{key}"] = (
            counters.get(f"core.replay.{key}", 0.0) / ops, "rounds/op"
        )
    metrics["core.replay.cache_hit_ratio"] = (
        ratio("core.replay.cache_hits", "core.replay.probe_calls"), "ratio"
    )
    metrics["core.replay.certificate_hit_ratio"] = (
        ratio("core.replay.certificate_hits", "core.replay.probes"), "ratio"
    )
    metrics["core.pricing.tree_reuse_ratio"] = (
        ratio("core.pricing.tree_reuses", "core.pricing.tree_requests"), "ratio"
    )
    metrics["core.pricing.memo_hit_ratio"] = (
        ratio("core.pricing.memo_hits", "core.pricing.memo_lookups"), "ratio"
    )
    metrics["core.pricing.trees_invalidated"] = (
        counters.get("core.pricing.trees_invalidated", 0.0) / ops, "trees/op"
    )
    return metrics


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #
def pin_environment() -> None:
    for key in UNSET_ENV:
        os.environ.pop(key, None)
    for key in THREAD_ENV:
        os.environ[key] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and str(path).startswith(fields[1]):
                    if len(fields[1]) > len(best):
                        best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


def _active_name(module: str, getter: str):
    """Name of the library's active kernel or backend; ``None`` once the
    registry is gone (a later change may fold it away)."""
    try:
        return getattr(importlib.import_module(module), getter)().name
    except (ImportError, AttributeError):
        return None


def describe_environment() -> dict:
    import numpy
    import scipy

    return {
        "kernel": _active_name("repro.kernels", "get_kernel"),
        "sp_backend": _active_name("repro.graphs.shortest_path", "get_backend"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "tmp_root": SCRATCH.name,
        "tmp_fs": _filesystem_of(SCRATCH.resolve()),
    }


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
class Loop:
    """One closed-loop run of a workload over a pregenerated pool."""

    def __init__(self, workload, pool, expected=None) -> None:
        self.workload = workload
        self.pool = pool
        self.expected = expected or []
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests_checked = 0
        self.digests: dict[int, str] = {}
        self.counters: dict[str, float] = {}

    def op(self, index: int, tracer=None) -> None:
        """Run pool entry ``index`` once on a fresh copy; time, check, count."""
        workload = self.workload
        slot = index % len(self.pool)
        state = workload.prepare(self.pool[slot])
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = workload.run(state)
                elapsed = time.perf_counter() - start
            else:
                tracer.install()
                try:
                    start = time.perf_counter()
                    result = tracer.call(ROOT, workload.run, state)
                    elapsed = time.perf_counter() - start
                finally:
                    tracer.uninstall()
            ok, digest, why = workload.check(state, result)
            self.digests[slot] = digest
            if ok and slot < len(self.expected):
                self.digests_checked += 1
                if digest != self.expected[slot]:
                    why = f"digest {digest} != committed {self.expected[slot]}"
                    ok = False
        except Exception as exc:  # an op that raises is a failed op
            ok, why, elapsed, result = False, f"{type(exc).__name__}: {exc}", 0.0, None
        finally:
            workload.cleanup(state)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {index} (pool {slot}): {why}")
            return
        (self.latencies if tracer is None else self.traced_latencies).append(elapsed)
        if tracer is not None:
            for key, value in workload.counters(result).items():
                self.counters[key] = self.counters.get(key, 0.0) + value

    def run_for(self, seconds: float, tracer=None) -> None:
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            self.op(index)
            if tracer is not None:
                self.op(index, tracer)
            index += 1


def load_digests(workload: str, seed: int, size: str) -> list[str]:
    if size != "full" or not DIGESTS_PATH.exists():
        return []
    table = json.loads(DIGESTS_PATH.read_text())
    return table.get(workload, {}).get(str(seed), [])


def make_pool(workload, seed: int, count: int) -> list:
    return [workload.make(instance_rng(seed, i)) for i in range(count)]


def set_up(name: str, seed: int, size: str):
    """Generate the pool and run the warm-up op; ``(workload, pool, warm)``."""
    from workloads import make_workload

    workload = make_workload(name, size, SCRATCH)
    pool = make_pool(workload, seed, POOL_SIZE[name] if size == "full" else 4)
    warm = Loop(workload, [workload.make(instance_rng(0, WARMUP_INDEX))])
    warm.op(0)
    return workload, pool, warm


def record_digests(name: str, seeds, size: str) -> None:
    """Commit the digests of the first ``DIGEST_OPS`` pool entries of each
    seed to ``digests.json``."""
    from workloads import make_workload

    workload = make_workload(name, size, SCRATCH)
    table = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    for seed in seeds:
        loop = Loop(workload, make_pool(workload, seed, DIGEST_OPS))
        for index in range(DIGEST_OPS):
            loop.op(index)
        if loop.failed:
            raise SystemExit(f"{name} seed {seed}: {loop.failures}")
        table.setdefault(name, {})[str(seed)] = [
            loop.digests[i] for i in range(DIGEST_OPS)
        ]
    table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_workload(args) -> int:
    import workloads  # noqa: F401 - imports the whole library up front

    environment = describe_environment()
    imported = time.perf_counter() - _T0
    rounds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload, pool, warm = set_up(args.workload, args.seed, args.size)
        rounds.append(time.perf_counter() - start)
    setup_s = imported + statistics.median(rounds)

    loop = Loop(workload, pool, load_digests(args.workload, args.seed, args.size))
    loop.failed += warm.failed
    loop.failures += warm.failures
    tracer = Tracer() if args.trace else None
    loop.run_for(args.seconds, tracer)
    try:
        SCRATCH.rmdir()  # only when empty: every op removes its own root
    except OSError:
        pass

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "environment": environment,
        "setup_rounds_s": rounds,
        "import_s": imported,
        "ops": len(loop.latencies),
        "digests_checked": loop.digests_checked,
        "failures": loop.failures,
    }
    metrics: dict[str, tuple[float, str]] = {}
    if loop.latencies:
        value, pct, beyond = tail_percentile(loop.latencies)
        info["tail"] = {
            "percentile": pct, "samples": len(loop.latencies), "beyond": beyond,
        }
        if not args.trace:
            metrics = {
                "op_ms_p50": (statistics.median(loop.latencies) * 1e3, "ms"),
                "op_ms_tail": (value * 1e3, "ms"),
                "ops_per_s": (len(loop.latencies) / sum(loop.latencies), "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
    if tracer is not None:
        info["absent_seams"] = tracer.absent
        metrics = layer_metrics(
            tracer.totals, len(loop.traced_latencies), SEAMS, loop.counters
        )
        untraced = sum(loop.latencies[: len(loop.traced_latencies)])
        metrics["trace.overhead_ratio"] = (
            sum(loop.traced_latencies) / untraced if untraced else 0.0, "ratio"
        )
    correct = loop.failed == 0 and bool(loop.latencies)

    rows = dict(metrics)
    if not args.trace:
        rows["failed_frac"] = (loop.failed / max(loop.attempted, 1), "ratio")
    for key, (value, unit) in rows.items():
        print(f"{args.workload:16s} {key:40s} {value:14.6f} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        child = subprocess.run(cmd, capture_output=True, text=True)
        lines = child.stdout.strip().splitlines()
        sys.stderr.write(child.stderr)
        if child.returncode not in (0, 1) or not lines:
            raise SystemExit(f"{name}: exit {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--record-digests", type=int, nargs="+", metavar="SEED",
        help="write the digests of the first pool entries of these seeds",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < WARMUP_INDEX:
        parser.error(f"--seed must be in [0, {WARMUP_INDEX})")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC.name}/repro", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    if args.record_digests:
        record_digests(args.workload, args.record_digests, args.size)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
