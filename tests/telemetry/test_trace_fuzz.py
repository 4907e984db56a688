"""Fuzz: every trace CLI survives a real trace followed by garbage.

A valid prefix of real events (a seeded attacker federation with a
ledger) is followed by lines a killed producer or a flipped byte can
leave behind: a real line cut at a random byte, JSON scalars and arrays,
and random bytes (invalid UTF-8 included). ``read_trace`` must return
exactly the prefix's events and count every garbage line; each CLI must
exit 0, 1 or 2 (2 exactly when no event is decodable) and never raise.
"""

import contextlib
import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.cli import main as audit_cli
from repro.monitor.cli import main as monitor_cli
from repro.perf.cli import main as perf_cli
from repro.telemetry import encode_event, read_trace
from repro.telemetry.cli import main as telemetry_cli

from ..audit.conftest import run_traced

CLIS = {
    "telemetry": lambda p: telemetry_cli(["summarize", p]),
    "perf": lambda p: perf_cli([p]),
    "monitor": lambda p: monitor_cli(["scan", p]),
    "audit-fairness": lambda p: audit_cli(["fairness", p]),
    "audit-verify": lambda p: audit_cli(["verify", p]),
}


@lru_cache(maxsize=1)
def real_lines() -> tuple[bytes, ...]:
    _, _, events = run_traced(rounds=3)
    return tuple(encode_event(ev).encode() for ev in events)


@st.composite
def cut_line(draw):
    """A real event line torn at a random byte (a killed producer)."""
    line = draw(st.sampled_from(real_lines()))
    return line[:draw(st.integers(1, len(line) - 1))]


json_non_object = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
).map(lambda value: json.dumps(value).encode())

# random bytes made undecodable by construction: one 0xff byte is never
# valid UTF-8; a leading '#' is never valid JSON
random_bytes = st.binary(max_size=40).map(lambda b: b"\xff" + b)
random_text = st.text(max_size=40).map(lambda t: ("#" + t).encode())

garbage_line = st.one_of(cut_line(), json_non_object, random_bytes, random_text)


@settings(max_examples=30, deadline=None)
@given(
    prefix_len=st.integers(0, 100),
    garbage=st.lists(
        garbage_line.map(lambda b: b.replace(b"\n", b"")), max_size=4
    ),
    trailing_newline=st.booleans(),
)
def test_trace_clis_survive_garbage(prefix_len, garbage, trailing_newline):
    prefix = list(real_lines()[:prefix_len])
    body = b"\n".join(prefix + garbage)
    if trailing_newline:
        body += b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_bytes(body)

        events, skipped = read_trace(path)
        assert events == [json.loads(line) for line in prefix]
        assert skipped == len(garbage)

        for name, cli in CLIS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli(str(path))
            stderr = err.getvalue()
            if not prefix:
                assert rc == 2, (name, stderr)
                assert "contains no decodable events" in stderr, name
                continue
            assert rc in (0, 1), (name, rc, stderr)
            if garbage:
                assert (
                    f"warning: skipped {len(garbage)} undecodable line(s)"
                    in stderr
                ), (name, stderr)
