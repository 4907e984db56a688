"""Perf CLI: flame-style span breakdowns, Perfetto export, trace diffs.

Usage::

    python -m repro.perf trace.jsonl                    # top-down table
    python -m repro.perf trace.jsonl --json             # machine-readable
    python -m repro.perf trace.jsonl --perfetto out.json
    python -m repro.perf trace.jsonl --perfetto out.json --resources res.jsonl
    python -m repro.perf --diff old.jsonl new.jsonl
    python -m repro.perf --diff old.jsonl new.jsonl --fail-above 25

The default view aggregates the trace's span hierarchy top-down
(total/self seconds and call counts per path). ``--perfetto`` exports
a validated Chrome-trace-event JSON for ``chrome://tracing`` /
https://ui.perfetto.dev, optionally merging a resource side stream
(``--resources``, written by ``ResourceProbe(jsonl_path=...)``) into
counter lanes. ``--diff`` attributes a wall-time regression to phases:
positive deltas mean the *second* (new) trace is slower. With
``--fail-above P`` the diff exits 1 when the total self-time regression
exceeds ``P`` percent — otherwise the diff is purely informational.

Exit codes: 0 ok, 1 failed ``--fail-above`` gate, 2 unreadable trace
or no decodable events (undecodable lines are skipped with a warning).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..telemetry.sinks import load_trace
from .aggregate import (
    aggregate_tree,
    build_span_tree,
    diff_traces,
    format_diff,
    format_tree_table,
    perf_summary,
)
from .perfetto import write_perfetto

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.perf", description=__doc__)
    parser.add_argument(
        "trace", nargs="?", help="JSONL telemetry trace to analyse"
    )
    parser.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"),
        help="attribute per-phase wall-time deltas between two traces",
    )
    parser.add_argument(
        "--perfetto", default="",
        help="export the trace as Chrome-trace-event JSON at this path",
    )
    parser.add_argument(
        "--resources", default="",
        help="resource.sample JSONL side stream to merge into the export",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of tables",
    )
    parser.add_argument(
        "--min-share", type=float, default=0.0,
        help="hide span paths below this fraction of total time (default 0)",
    )
    parser.add_argument(
        "--top", type=int, default=15,
        help="max phases in the diff report (default 15, 0 = all)",
    )
    parser.add_argument(
        "--threshold-s", type=float, default=0.0,
        help="hide diff rows with |delta| below this many seconds",
    )
    parser.add_argument(
        "--fail-above", type=float, default=None,
        help="exit 1 when the diff's total self-time regression exceeds "
             "this percentage of the old total (default: never fail)",
    )
    args = parser.parse_args(argv)

    if args.diff:
        if args.trace:
            parser.error("--diff takes its two traces as flag arguments")
        return _run_diff(args)
    if not args.trace:
        parser.error("pass a trace file or --diff OLD NEW")
    return _run_top(args)


def _run_top(args) -> int:
    events, _ = load_trace(args.trace)
    if not events:
        return 2
    extra = []
    if args.resources:
        extra, _ = load_trace(args.resources)
        if not extra:
            return 2
    if args.perfetto:
        path = write_perfetto(args.perfetto, events + extra)
        print(f"[perfetto trace saved to {path}]", file=sys.stderr)
    summary = perf_summary(events)
    if args.json:
        table = aggregate_tree(build_span_tree(events))
        print(json.dumps({
            "summary": summary,
            "spans": {
                "/".join(path): stat for path, stat in sorted(table.items())
            },
        }, indent=2))
        return 0
    rw = summary["round_wall_s"]
    print(
        f"perf: {summary['rounds']} rounds, round wall p50={rw['p50']:.4f}s "
        f"p90={rw['p90']:.4f}s max={rw['max']:.4f}s"
    )
    top = summary["top_phase"]
    if top is not None:
        print(
            f"top phase by self time: {top['name']} "
            f"({top['self_s']:.4f}s self, {top['share']:.0%} of self time, "
            f"{top['calls']} calls)"
        )
    for row in format_tree_table(
        aggregate_tree(build_span_tree(events)), min_share=args.min_share
    ):
        print(row)
    return 0


def _run_diff(args) -> int:
    old_path, new_path = args.diff
    events_a, _ = load_trace(old_path)
    if not events_a:
        return 2
    events_b, _ = load_trace(new_path)
    if not events_b:
        return 2
    diff = diff_traces(events_a, events_b)
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        for row in format_diff(
            diff, top=args.top, threshold_s=args.threshold_s
        ):
            print(row)
    if args.fail_above is not None:
        # self times partition the wall clock exactly, so the gate ratio
        # is (new self total - old self total) / old self total
        old_total = sum(p["a_self_s"] for p in diff["phases"])
        regression_pct = (
            100.0 * diff["total_delta_s"] / old_total if old_total > 0 else 0.0
        )
        if regression_pct > args.fail_above:
            print(
                f"perf --diff: total regression {regression_pct:+.1f}% "
                f"exceeds --fail-above {args.fail_above}%",
                file=sys.stderr,
            )
            return 1
    return 0
