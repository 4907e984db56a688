"""Telemetry sinks: in-memory ring, JSONL event stream, console summary.

Every sink receives each emitted event exactly once, in emission order,
as a plain dict already stamped with the schema version (``v``) and the
sequence number (``seq``). Sinks never mutate events.

``encode_event`` defines the canonical wire encoding: sorted keys, no
whitespace, NaN rejected, numpy scalars coerced. Canonical bytes are
what makes seeded traces byte-identical across runs — and therefore
usable as regression fixtures, not just logs.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from pathlib import Path

__all__ = [
    "encode_event",
    "decode_event",
    "read_trace",
    "load_trace",
    "report_decoded",
    "MemorySink",
    "JsonlSink",
    "ConsoleSink",
    "MetricsTextSink",
]


def _json_default(obj):
    """Coerce numpy scalars/arrays and sets into JSON-native values."""
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def encode_event(event: dict) -> str:
    """One canonical JSONL line (no trailing newline) for an event."""
    return json.dumps(
        event,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        default=_json_default,
    )


def decode_event(record: bytes | str) -> dict | None:
    """One JSON record back into an event dict; None when it is rejected.

    The only JSON decoder for recorded data: trace lines and snapshot
    manifests both pass through here. A record is rejected when it is
    not UTF-8, not JSON, or JSON that is not an object.
    """
    try:
        if isinstance(record, bytes):
            record = record.decode("utf-8")
        event = json.loads(record)
    except (ValueError, RecursionError):
        return None
    return event if isinstance(event, dict) else None


def read_trace(*paths) -> tuple[list[dict], int]:
    """Events of one or more JSONL traces, plus the skipped-line count.

    Files are concatenated in order (a killed run's trace, then its
    resume's). Blank lines are ignored; every other line that
    :func:`decode_event` rejects (a torn tail, a flipped byte) is
    skipped and counted. Raises ``OSError`` when a file cannot be read.
    """
    events: list[dict] = []
    skipped = 0
    for path in paths:
        with open(path, "rb") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                event = decode_event(line)
                if event is None:
                    skipped += 1
                else:
                    events.append(event)
    return events, skipped


def report_decoded(label, decoded: int, skipped: int) -> bool:
    """Print the trace CLIs' verdict on a decoded input; False means exit 2."""
    if not decoded:
        print(
            f"trace {label} contains no decodable events "
            f"({skipped} undecodable line(s))",
            file=sys.stderr,
        )
        return False
    if skipped:
        print(f"warning: skipped {skipped} undecodable line(s)", file=sys.stderr)
    return True


def load_trace(*paths) -> tuple[list[dict], int]:
    """A trace CLI's input: :func:`read_trace` plus the shared diagnostics.

    Returns no events when the CLI must exit 2 (a file cannot be opened,
    or nothing decodable remains); the reason is already on stderr.
    """
    from .core import SCHEMA_VERSION  # core imports this module

    try:
        events, skipped = read_trace(*paths)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return [], 0
    if not report_decoded(" ".join(map(str, paths)), len(events), skipped):
        return [], skipped
    unknown = sum(ev.get("v") not in (None, SCHEMA_VERSION) for ev in events)
    if unknown:
        print(
            f"warning: {unknown} events with unknown schema version "
            f"(this reader understands v{SCHEMA_VERSION})",
            file=sys.stderr,
        )
    return events, skipped


class MemorySink:
    """Default sink: a bounded in-memory ring of event dicts.

    The ``maxlen`` cap keeps week-long runs from growing without bound;
    eviction drops the *oldest* events, so recent history (what a
    summary or a crash post-mortem wants) is always retained.
    """

    def __init__(self, maxlen: int | None = 65536):
        self.events: deque = deque(maxlen=maxlen)

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams every event as one canonical JSON line to a file.

    The file is opened eagerly (truncating) so a crashed run still
    leaves a readable prefix. ``close()`` is idempotent; the sink also
    works as a context manager.

    With ``fsync_on_flush=True`` every :meth:`flush` pushes buffered
    lines through the OS to the disk (``fsync``), so the trace written
    up to the last flush boundary survives a SIGKILL or power loss —
    the crash scenarios the service snapshots are built for. Off by
    default: durability costs a syscall per flush, and most traces only
    need to survive a clean exit.
    """

    def __init__(self, path, *, fsync_on_flush: bool = False):
        self.path = Path(path)
        self.fsync_on_flush = bool(fsync_on_flush)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        if self._fh is None:
            raise RuntimeError(f"JsonlSink({self.path}) is closed")
        self._fh.write(encode_event(event))
        self._fh.write("\n")

    def flush(self) -> None:
        """Drain userspace buffers (and hit the disk when configured)."""
        if self._fh is None:
            return
        self._fh.flush()
        if self.fsync_on_flush:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _metric_name(name: str, namespace: str) -> str:
    """Sanitize to the exposition-format name charset ``[a-zA-Z0-9_:]``."""
    safe = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_"
        for ch in name
    )
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"{namespace}_{safe}" if namespace else safe


def _label_value(value) -> str:
    """Escape a label value per the exposition format (\\\\, \\", \\n)."""
    text = str(value)
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class MetricsTextSink:
    """Prometheus-textfile-style metrics endpoint for long-running services.

    Tracks last-value gauges from ``metric`` events (per distinct label
    set) and counts every event type; each hub :meth:`flush` atomically
    rewrites ``path`` in the text exposition format, so a node-exporter
    textfile collector (or a ``cat``) scrapes a consistent view while
    ``repro.service`` keeps running. Bind the hub (``bind(hub)``) to
    also export its internal counters at flush time.

    The sink never touches event bytes or ordering — attaching it to a
    seeded run changes nothing about the JSONL trace.
    """

    def __init__(self, path, *, namespace: str = "repro", hub=None):
        self.path = Path(path)
        self.namespace = namespace
        self._hub = hub
        # gauge name -> {sorted-label-tuple: value}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._event_counts: dict[str, int] = {}
        self._closed = False

    def bind(self, hub) -> None:
        """Export ``hub``'s internal counters in every future flush."""
        self._hub = hub

    def emit(self, event: dict) -> None:
        kind = str(event.get("type"))
        self._event_counts[kind] = self._event_counts.get(kind, 0) + 1
        if kind == "metric" and event.get("kind") == "gauge":
            labels = tuple(sorted((event.get("attrs") or {}).items()))
            series = self._gauges.setdefault(event["name"], {})
            series[labels] = float(event["value"])

    def render(self) -> str:
        """The full exposition-format payload for the current state."""
        lines: list[str] = []

        def sample(name: str, labels: tuple, value) -> str:
            if labels:
                body = ",".join(
                    f'{_metric_name(k, "")}="{_label_value(v)}"'
                    for k, v in labels
                )
                return f"{name}{{{body}}} {value}"
            return f"{name} {value}"

        for raw in sorted(self._gauges):
            name = _metric_name(raw, self.namespace)
            lines.append(f"# TYPE {name} gauge")
            series = self._gauges[raw]
            for labels in sorted(series):
                lines.append(sample(name, labels, series[labels]))
        counters = dict(self._hub.snapshot()["counters"]) if self._hub else {}
        for raw in sorted(counters):
            name = _metric_name(raw, self.namespace) + "_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(sample(name, (), counters[raw]))
        events_name = _metric_name("events", self.namespace) + "_total"
        lines.append(f"# TYPE {events_name} counter")
        for kind in sorted(self._event_counts):
            lines.append(
                sample(events_name, (("type", kind),), self._event_counts[kind])
            )
        return "\n".join(lines) + "\n"

    def flush(self) -> None:
        """Atomically rewrite the textfile (write-new + rename)."""
        if self._closed:
            return
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(self.render(), encoding="utf-8")
        os.replace(tmp, self.path)

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._closed = True


class ConsoleSink(MemorySink):
    """Buffers events and prints a rendered summary on ``close()``."""

    def __init__(self, stream=None, maxlen: int | None = 65536):
        super().__init__(maxlen=maxlen)
        self.stream = stream if stream is not None else sys.stdout

    def close(self) -> None:
        # Imported here: summary renders *from* events, sinks must not
        # depend on it at import time (summary imports this module).
        from .summary import render_summary

        for row in render_summary(list(self.events)):
            print(row, file=self.stream)
