"""Telemetry CLI: render JSONL traces from the command line.

Usage::

    python -m repro.telemetry summarize results/trace.jsonl
    python -m repro.telemetry summarize trace.jsonl --rounds 0 --json
    python -m repro.telemetry summarize trace.jsonl --worker 5

``summarize`` reads a JSONL trace (written by
:class:`repro.telemetry.JsonlSink`) and prints the per-round mechanism
table (flagged workers, reward Gini, share entropy), the phase-time
breakdown, last gauge values, and any embedded run manifests.
``--json`` prints the machine-readable :func:`trace_summary` block
instead of tables.

Exit codes (shared by every trace CLI): 0 ok, 2 unreadable trace or
no decodable events. Undecodable lines are skipped with a warning.
"""

from __future__ import annotations

import argparse
import json

from .sinks import load_trace
from .summary import (
    render_summary,
    render_worker,
    trace_summary,
    worker_trajectory,
)

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.telemetry", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser(
        "summarize", help="render a JSONL trace as per-round tables"
    )
    p_sum.add_argument("trace", help="path to a .jsonl trace file")
    p_sum.add_argument(
        "--rounds", type=int, default=20,
        help="max per-round rows to print (0 = all; default 20)",
    )
    p_sum.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary block instead of tables",
    )
    p_sum.add_argument(
        "--worker", type=int, default=None,
        help="print one worker's reward/reputation trajectory instead",
    )
    args = parser.parse_args(argv)

    events, _ = load_trace(args.trace)
    if not events:
        return 2
    if args.worker is not None:
        if args.json:
            print(json.dumps(worker_trajectory(events, args.worker), indent=2))
        else:
            for row in render_worker(events, args.worker):
                print(row)
    elif args.json:
        print(json.dumps(trace_summary(events), indent=2))
    else:
        for row in render_summary(events, max_rounds=args.rounds):
            print(row)
    return 0
