#!/usr/bin/env python3
"""Same-host A/B of ``perfbench/run.py``: this tree against a named git rev.

Checks the base rev out into a temporary ``git worktree``, then runs one
workload in both trees, one pair of runs per seed, interleaved and
alternating which tree runs first.  It prints, per end-to-end metric, the
p25 / median / p75 of each side, the median ratio (above 1 means this tree
is better) and the pairs this tree won; then the per-seam self-time and
work-counter deltas of one ``--trace 1`` pair on the first seed::

    python3 benchmarks/ab.py HEAD~1 --workload clear_contended --seeds 11-16

Uncommitted changes count as this tree, so ``ab.py HEAD`` measures them
against their parent.  The exit code is non-zero when any run fails a
correctness check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """``"11-16"`` or ``"1,4,9"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better_directions(tree: Path) -> dict[str, str]:
    """Metric name -> ``"lower"`` / ``"higher"`` from ``BENCHMARK.json``."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """One perfbench run; returns its final JSON object with the ``info``
    line's object under ``"info"``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["info"] = json.loads(lines[-2])["info"]
    except (IndexError, KeyError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench produced no result in {tree}")
    return result


def run_pair(base: Path, head: Path, index: int, **kwargs) -> tuple[dict, dict]:
    """Both trees on one seed; the base goes first on even pairs."""
    order = [("base", base), ("head", head)]
    if index % 2:
        order.reverse()
    results = {side: run_perfbench(tree, **kwargs) for side, tree in order}
    if not kwargs["trace"]:  # traced runs report per-layer metrics only
        p50 = {side: values(result)["op_ms_p50"] for side, result in results.items()}
        print(f"  seed {kwargs['seed']}: op_ms_p50 {p50}", flush=True)
    for side, result in results.items():
        if not result["correct"] or result["failed"]:
            print(f"  {side} seed {kwargs['seed']}: {result['failed']} failed op(s)")
    return results["base"], results["head"]


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def end_to_end_table(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> None:
    print(
        f"{'metric':<14} {'base p25 / p50 / p75':>28} {'head p25 / p50 / p75':>28}"
        f" {'ratio':>7} {'won':>6}"
    )
    for name in values(pairs[0][0]):
        base = [values(b)[name] for b, _ in pairs]
        head = [values(h)[name] for _, h in pairs]
        lower = better.get(name, "lower") == "lower"
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        qb, qh = quartiles(base), quartiles(head)
        ratio = qb[1] / qh[1] if lower else qh[1] / qb[1]
        print(
            f"{name:<14} {' / '.join(f'{q:8.2f}' for q in qb):>28}"
            f" {' / '.join(f'{q:8.2f}' for q in qh):>28}"
            f" {ratio:6.2f}x {won:>3}/{len(pairs)}"
        )


def seam_table(base: dict, head: dict) -> None:
    """Per-seam self time, then call and round counters, per op; largest
    change first within each group."""
    b, h = values(base), values(head)
    print(f"{'seam / counter (per op)':<36} {'base':>11} {'head':>11} {'delta':>11}")
    for keep in (
        lambda name: name.endswith(".self_ms"),
        lambda name: name.endswith(".calls") or name.startswith("core.replay.rounds"),
    ):
        rows = [name for name in b if keep(name) and (b[name] or h.get(name))]
        rows.sort(key=lambda name: -abs(h.get(name, 0.0) - b[name]))
        for name in rows:
            head_value = h.get(name, 0.0)
            print(
                f"{name:<36} {b[name]:11.2f} {head_value:11.2f}"
                f" {head_value - b[name]:+11.2f}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="base git rev")
    parser.add_argument("--workload", default="clear_contended")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("11-16"))
    parser.add_argument(
        "--seconds", type=float, default=30.0, help="length of every run"
    )
    args = parser.parse_args(argv)

    base = Path(tempfile.mkdtemp(prefix="ab-base-")) / "tree"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(base), args.rev],
        cwd=REPO_ROOT, check=True, capture_output=True,
    )
    try:
        print(
            f"{args.workload}: base {args.rev} vs head {REPO_ROOT}, seeds {args.seeds}",
            flush=True,
        )
        common = dict(workload=args.workload, seconds=args.seconds)
        pairs = [
            run_pair(base, REPO_ROOT, i, seed=seed, trace=0, **common)
            for i, seed in enumerate(args.seeds)
        ]
        end_to_end_table(pairs, better_directions(REPO_ROOT))
        traced = run_pair(base, REPO_ROOT, 0, seed=args.seeds[0], trace=1, **common)
        absent = [r["info"].get("absent_seams", []) for r in traced]
        print(f"--trace 1, seed {args.seeds[0]}; absent seams {absent}:")
        seam_table(*traced)
        pairs.append(traced)
        ok = all(r["correct"] and not r["failed"] for pair in pairs for r in pair)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base)],
            cwd=REPO_ROOT, check=False, capture_output=True,
        )
        shutil.rmtree(base.parent, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
