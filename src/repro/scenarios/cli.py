"""Command-line interface: ``python -m repro.scenarios``.

Subcommands
-----------
``list``
    Print the built-in suites and the available topology families.
``run <suite>``
    Run a campaign: ``<suite>`` is a built-in name (``smoke``, ``demo``,
    ``capacity-ladder``) or a path to a suite-spec JSON file.  With
    ``--store DIR`` every completed cell is committed to a resumable result
    store and cells already in the store are skipped.
``resume``
    Continue the campaign a store was initialized with (the suite spec is
    read back from the store itself).
``report``
    Render the comparison table of a store without running anything.

``--jobs`` fans cells over worker processes (results bit-identical at any
value); an explicit ``--jobs``/``--kernel`` always beats the inherited
``REPRO_JOBS``/``REPRO_KERNEL`` environment variables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.io import dumps_strict, loads_strict
from repro.scenarios.report import render_report
from repro.scenarios.runner import run_campaign
from repro.scenarios.store import ResultStore
from repro.scenarios.suites import available_suites, get_suite
from repro.scenarios.topologies import available_families

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help="result-store directory (created if missing); completed cells "
        "are committed there and skipped on re-runs",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the cell fan-out (default: REPRO_JOBS env "
        "or serial; 0 = all cores; results are bit-identical at any --jobs)",
    )
    parser.add_argument(
        "--kernel",
        default=None,
        help="compute kernel ('lists', 'numpy', 'numba'); an explicit choice "
        "beats an inherited REPRO_KERNEL env var; all kernels are "
        "bit-identical",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of the text report"
    )


def _add_robustness(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a failing/crashing cell this many extra times before "
        "quarantining it (default: 0)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        help="seconds to sleep before the first retry (doubled each further "
        "attempt; default: 0)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock budget per cell in seconds; a cell exceeding it "
        "fails (and is retried/quarantined like any other failure)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Scenario campaigns: topology families x demand regimes x "
        "workload modes, with a resumable result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in suites and topology families")

    run_parser = sub.add_parser("run", help="run a campaign (skips stored cells)")
    run_parser.add_argument(
        "suite", help="built-in suite name or path to a suite-spec JSON file"
    )
    run_parser.add_argument("--seed", type=int, default=None, help="override suite seed")
    run_parser.add_argument(
        "--fresh",
        action="store_true",
        help="wipe the store first instead of resuming into it",
    )
    _add_common(run_parser)
    _add_robustness(run_parser)

    resume_parser = sub.add_parser(
        "resume", help="continue the campaign a store was initialized with"
    )
    _add_common(resume_parser)
    _add_robustness(resume_parser)

    report_parser = sub.add_parser("report", help="render a store's comparison table")
    _add_common(report_parser)

    return parser


def _load_suite(source: str) -> dict:
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        if not path.exists():
            raise SystemExit(f"suite spec file not found: {source}")
        return loads_strict(path.read_text())
    try:
        return get_suite(source)
    except KeyError as exc:
        raise SystemExit(str(exc))


def _emit(result, store: ResultStore | None, as_json: bool) -> int:
    # Hash only the current suite's cells: records of cells renamed or
    # removed by a suite edit stay in the store but not in the report.
    content_hash = (
        store.content_hash(result.records) if store is not None else None
    )
    if as_json:
        payload = {
            "suite": result.suite["name"],
            "records": result.records,
            "computed": result.computed,
            "skipped": result.skipped,
            "invalidated": result.invalidated,
            "failed": result.failed,
            "content_hash": content_hash,
        }
        print(dumps_strict(payload, indent=2))
    else:
        from repro.kernels import get_kernel

        title = f"Scenario campaign: {result.suite['name']}"
        print(
            render_report(
                result.records,
                title=title,
                content_hash=content_hash,
                kernel=get_kernel().name,
            )
        )
        print(f"  {result.summary_line()}")
    # Nonzero when any structural claim failed OR any cell was quarantined
    # (crashed/timed out through every retry) — a campaign that "completed"
    # by quarantining cells must not look green to CI.
    return 0 if result.all_cells_ok and not result.failed else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; non-zero when any cell's structural claims failed."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print("built-in suites:")
        for name in available_suites():
            print(f"  {name}: {get_suite(name).get('description', '')}")
        print("topology families: " + ", ".join(available_families()))
        return 0

    if getattr(args, "kernel", None):
        # Explicit argument beats any inherited REPRO_KERNEL value
        # (including inside --jobs worker processes, which inherit the
        # parent's resolved kernel).
        from repro.kernels import set_kernel_from_cli

        set_kernel_from_cli(args.kernel, parser)

    store = ResultStore(args.store) if args.store else None

    if args.command == "report":
        if store is None:
            parser.error("report needs --store")
        suite = store.load_suite()
        from repro.scenarios.specs import enumerate_cells

        keys = [cell.key for cell in enumerate_cells(suite)]
        records = store.records(keys)
        content_hash = store.content_hash(keys)
        if args.json:
            print(
                dumps_strict(
                    {
                        "suite": suite["name"],
                        "records": records,
                        "content_hash": content_hash,
                    },
                    indent=2,
                )
            )
        else:
            print(
                render_report(
                    records,
                    title=f"Scenario campaign: {suite['name']}",
                    content_hash=content_hash,
                )
            )
        return 0

    if args.command == "resume":
        if store is None:
            parser.error("resume needs --store")
        suite = store.load_suite()
        result = run_campaign(
            suite,
            store=store,
            jobs=args.jobs,
            progress=None if args.json else (lambda msg: print(f"  {msg}")),
            retries=args.retries,
            retry_backoff=args.retry_backoff,
            cell_timeout=args.cell_timeout,
        )
        return _emit(result, store, args.json)

    # run
    suite = _load_suite(args.suite)
    if args.seed is not None:
        suite = dict(suite)
        suite["seed"] = args.seed
    result = run_campaign(
        suite,
        store=store,
        jobs=args.jobs,
        fresh=bool(getattr(args, "fresh", False)),
        progress=None if args.json else (lambda msg: print(f"  {msg}")),
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        cell_timeout=args.cell_timeout,
    )
    return _emit(result, store, args.json)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
