"""Monitor CLI: replay recorded traces through the rule engine.

Usage::

    python -m repro.monitor scan results/trace.jsonl
    python -m repro.monitor scan trace.jsonl --strict          # CI gate
    python -m repro.monitor scan fault-trace.jsonl --expect-alerts
    python -m repro.monitor scan trace.jsonl --watch           # live tail

``scan`` feeds every event of a JSONL trace to the same
:class:`~repro.monitor.RuleEngine` the live :class:`Monitor` sink runs,
so its verdict on a recorded trace matches the live run exactly (the
offline/online differential). ``--strict`` exits non-zero when any
alert fires (clean-run CI gate); ``--expect-alerts`` inverts that for
fault-injection traces that *must* trip the monitor. ``--watch`` tails
a growing trace and prints alerts as the producing run emits events.

Exit codes: 0 clean (or alerts present with ``--expect-alerts``),
1 alert gate failed, 2 unreadable trace or no decodable events
(undecodable lines are skipped with a warning, in ``--watch`` too).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..telemetry.sinks import decode_event, load_trace, report_decoded
from .alerts import MonitorConfig
from .monitor import scan_events
from .recorder import FlightRecorder
from .rules import RuleEngine

__all__ = ["main"]


def _print_alert(alert, stream) -> None:
    where = f"seq={alert.seq}" if alert.seq is not None else "seq=?"
    rnd = f" round={alert.round}" if alert.round is not None else ""
    print(
        f"ALERT [{alert.kind}] {alert.rule} ({where}{rnd}): {alert.message}",
        file=stream,
    )


def _watch(path, config: MonitorConfig, poll_s: float,
           idle_exit_s: float | None) -> int:
    """Tail a growing trace, alerting live; returns a scan exit code."""
    engine = RuleEngine(config)
    recorder = FlightRecorder(
        ring_size=config.ring_size, out_dir=config.postmortem_dir,
        run_id=config.run_id,
    )
    alerts = []
    decoded = skipped = 0

    def feed(line: bytes) -> None:
        nonlocal decoded, skipped
        if not line.strip():
            return
        event = decode_event(line)
        if event is None:
            skipped += 1
            return
        decoded += 1
        recorder.record(event)
        fired = engine.process(event)
        if fired:
            alerts.extend(fired)
            for a in fired:
                _print_alert(a, sys.stderr)
            recorder.dump("alert", alerts)

    buf = b""
    last_data = time.monotonic()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read()
            if chunk:
                last_data = time.monotonic()
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    feed(line)
            else:
                if (
                    idle_exit_s is not None
                    and time.monotonic() - last_data > idle_exit_s
                ):
                    break
                try:
                    time.sleep(poll_s)
                except KeyboardInterrupt:
                    break
    feed(buf)  # the trace has ended: its unterminated tail is its last line
    print(f"watch: {len(alerts)} alert(s)", file=sys.stderr)
    if not report_decoded(path, decoded, skipped):
        return 2
    return 1 if alerts and config.strict else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.monitor", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "scan", help="replay a JSONL trace through the monitor rule engine"
    )
    p.add_argument("trace", help="path to a .jsonl trace file")
    p.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any alert fires (clean-run gate)",
    )
    p.add_argument(
        "--expect-alerts", action="store_true",
        help="exit 1 if NO alert fires (fault-injection gate)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the alert list as JSON instead of text lines",
    )
    p.add_argument(
        "--postmortem", metavar="DIR", default=None,
        help="write postmortem-<run>.jsonl under DIR when alerts fire",
    )
    p.add_argument(
        "--run-id", default=None,
        help="run id for the post-mortem file name (default: trace stem)",
    )
    p.add_argument(
        "--watch", action="store_true",
        help="tail the trace as it grows, printing alerts live",
    )
    p.add_argument(
        "--poll", type=float, default=0.2,
        help="watch-mode poll interval in seconds (default 0.2)",
    )
    p.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="watch mode: exit after this long with no new trace data",
    )
    args = parser.parse_args(argv)

    run_id = args.run_id
    if run_id is None:
        stem = str(args.trace).rsplit("/", 1)[-1]
        run_id = stem[:-6] if stem.endswith(".jsonl") else stem
    config = MonitorConfig(
        strict=args.strict, postmortem_dir=args.postmortem, run_id=run_id
    )

    if args.watch:
        try:
            return _watch(args.trace, config, args.poll, args.idle_exit)
        except OSError as exc:
            print(f"cannot read trace: {exc}", file=sys.stderr)
            return 2

    events, _ = load_trace(args.trace)
    if not events:
        return 2

    alerts = scan_events(events, config)
    if args.json:
        print(json.dumps(
            {
                "trace": str(args.trace),
                "events": len(events),
                "alerts": [a.to_dict() for a in alerts],
            },
            indent=2,
        ))
    else:
        for a in alerts:
            _print_alert(a, sys.stdout)
        print(f"scanned {len(events)} events: {len(alerts)} alert(s)")

    if alerts and args.postmortem:
        recorder = FlightRecorder(
            ring_size=config.ring_size, out_dir=args.postmortem, run_id=run_id
        )
        for event in events[-config.ring_size:]:
            recorder.record(event)
        path = recorder.dump("scan", alerts)
        print(f"postmortem: {path}", file=sys.stderr)

    if args.expect_alerts:
        if not alerts:
            print("expected alerts, none fired", file=sys.stderr)
            return 1
        return 0
    if alerts and args.strict:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
