"""Sinks and the canonical JSONL trace encoding."""

import io
import json

import numpy as np
import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    ConsoleSink,
    JsonlSink,
    MemorySink,
    Telemetry,
    TickClock,
    decode_event,
    encode_event,
    read_trace,
)


class TestEncoding:
    def test_canonical_form_sorted_keys_no_whitespace(self):
        line = encode_event({"b": 1, "a": {"z": 2, "y": 3}})
        assert line == '{"a":{"y":3,"z":2},"b":1}'

    def test_round_trip(self):
        event = {"type": "span", "name": "p", "dur_s": 0.25, "seq": 4}
        assert decode_event(encode_event(event)) == event

    def test_numpy_and_set_coercion(self):
        event = {
            "f": np.float64(0.5),
            "i": np.int64(3),
            "a": np.arange(3),
            "s": {2, 1},
        }
        assert decode_event(encode_event(event)) == {
            "f": 0.5, "i": 3, "a": [0, 1, 2], "s": [1, 2],
        }

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            encode_event({"x": float("nan")})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            encode_event({"x": object()})


class TestMemorySink:
    def test_bounded_ring_drops_oldest(self):
        sink = MemorySink(maxlen=3)
        for i in range(5):
            sink.emit({"seq": i})
        assert [ev["seq"] for ev in sink.events] == [2, 3, 4]


class TestJsonlSink:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tele = Telemetry(
            sinks=[MemorySink(), JsonlSink(path)], clock=TickClock()
        )
        with tele.span("round", kind="round", round=0):
            with tele.phase("round.phase"):
                pass
        tele.gauge("m", 1.5)
        tele.event("fifl.round", {"round": 0, "flagged": [3, 5]})
        tele.close()

        from_file, skipped = read_trace(path)
        assert skipped == 0
        in_memory = tele.events()
        # the file is the canonical encoding of exactly the same stream
        assert from_file == [
            decode_event(encode_event(ev)) for ev in in_memory
        ]
        assert [ev["seq"] for ev in from_file] == list(range(len(from_file)))
        assert all(ev["v"] == SCHEMA_VERSION for ev in from_file)
        assert from_file[-1]["data"]["flagged"] == [3, 5]

    def test_each_event_is_one_json_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"seq": 0})
            sink.emit({"seq": 1})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(RuntimeError):
            sink.emit({"seq": 0})


class TestJsonlDurability:
    def test_flush_drains_userspace_buffers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"seq": 0})
        sink.flush()
        # readable from a second handle without closing the sink — the
        # property a kill/resume differential reads traces through
        assert path.read_text().splitlines() == ['{"seq":0}']
        sink.close()

    def test_fsync_on_flush_syncs_file(self, tmp_path, monkeypatch):
        import repro.telemetry.sinks as sinks_mod

        synced = []
        monkeypatch.setattr(sinks_mod.os, "fsync", synced.append)
        sink = JsonlSink(tmp_path / "t.jsonl", fsync_on_flush=True)
        sink.emit({"seq": 0})
        sink.flush()
        assert len(synced) == 1
        sink.close()  # close flushes again
        assert len(synced) == 2

    def test_fsync_off_by_default(self, tmp_path, monkeypatch):
        import repro.telemetry.sinks as sinks_mod

        synced = []
        monkeypatch.setattr(sinks_mod.os, "fsync", synced.append)
        with JsonlSink(tmp_path / "t.jsonl") as sink:
            sink.emit({"seq": 0})
            sink.flush()
        assert synced == []

    def test_flush_after_close_is_noop(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl", fsync_on_flush=True)
        sink.close()
        sink.flush()  # must not raise on the closed handle

    def test_hub_flush_fans_out_to_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tele = Telemetry(
            sinks=[MemorySink(), JsonlSink(path, fsync_on_flush=True)],
            clock=TickClock(),
        )
        tele.event("fifl.round", {"round": 0})
        tele.flush()
        # without the fan-out the bytes would still sit in userspace
        assert len(path.read_text().splitlines()) == 1
        tele.close()


class TestConsoleSink:
    def test_prints_summary_on_close(self):
        stream = io.StringIO()
        tele = Telemetry(sinks=[ConsoleSink(stream)], clock=TickClock())
        with tele.phase("trainer.round"):
            pass
        tele.event(
            "fifl.round",
            {"round": 0, "accepted": 6, "flagged": [7], "uncertain": [],
             "reward_gini": 0.25, "share_entropy": 0.9},
        )
        tele.close()
        out = stream.getvalue()
        assert "trace summary" in out
        assert "reward_gini" in out
        assert "trainer.round" in out


class TestMetricsTextSink:
    def make(self, tmp_path, **kw):
        from repro.telemetry import MetricsTextSink

        return MetricsTextSink(tmp_path / "metrics.prom", **kw)

    def gauge(self, name, value, **attrs):
        event = {"type": "metric", "kind": "gauge",
                 "name": name, "value": value}
        if attrs:
            event["attrs"] = attrs
        return event

    def test_gauge_keeps_last_value(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit(self.gauge("loss", 0.9))
        sink.emit(self.gauge("loss", 0.4))
        assert "repro_loss 0.4" in sink.render()
        assert "0.9" not in sink.render()

    def test_distinct_label_sets_are_distinct_series(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit(self.gauge("reputation", 0.2, worker=0))
        sink.emit(self.gauge("reputation", 0.7, worker=1))
        out = sink.render()
        assert 'repro_reputation{worker="0"} 0.2' in out
        assert 'repro_reputation{worker="1"} 0.7' in out

    def test_labels_render_sorted(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit(self.gauge("x", 1.0, zeta="b", alpha="a"))
        assert 'repro_x{alpha="a",zeta="b"} 1.0' in sink.render()

    def test_type_lines_present(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit(self.gauge("loss", 0.5))
        out = sink.render()
        assert "# TYPE repro_loss gauge" in out
        assert "# TYPE repro_events_total counter" in out

    def test_event_type_counters(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit({"type": "span", "name": "round"})
        sink.emit({"type": "span", "name": "round"})
        sink.emit(self.gauge("loss", 0.5))
        out = sink.render()
        assert 'repro_events_total{type="span"} 2' in out
        assert 'repro_events_total{type="metric"} 1' in out

    def test_metric_name_sanitized(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit(self.gauge("fifl.reward-gini", 0.3))
        assert "repro_fifl_reward_gini 0.3" in sink.render()

    def test_digit_prefixed_name_guarded(self, tmp_path):
        from repro.telemetry.sinks import _metric_name

        name = _metric_name("99th_latency", "")
        assert not name[0].isdigit()

    def test_label_value_escaping(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit(self.gauge("x", 1.0, path='a\\b"c\nd'))
        out = sink.render()
        assert '\\\\' in out       # backslash doubled
        assert '\\"' in out        # quote escaped
        assert '\\n' in out        # newline escaped
        assert "\nd" not in out    # no literal newline inside a value

    def test_custom_namespace(self, tmp_path):
        sink = self.make(tmp_path, namespace="fifl")
        sink.emit(self.gauge("loss", 0.5))
        assert "fifl_loss 0.5" in sink.render()

    def test_flush_writes_atomically(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit(self.gauge("loss", 0.5))
        sink.flush()
        path = tmp_path / "metrics.prom"
        assert path.read_text() == sink.render()
        assert not (tmp_path / "metrics.prom.tmp").exists()

    def test_hub_counters_exported(self, tmp_path):
        sink = self.make(tmp_path)
        hub = Telemetry(sinks=[sink], clock=TickClock())
        sink.bind(hub)
        hub.count("uploads", 3)
        out = sink.render()
        assert "# TYPE repro_uploads_total counter" in out
        assert "repro_uploads_total 3" in out

    def test_close_flushes_once_then_latches(self, tmp_path):
        sink = self.make(tmp_path)
        sink.emit(self.gauge("loss", 0.5))
        sink.close()
        path = tmp_path / "metrics.prom"
        before = path.read_text()
        sink.emit(self.gauge("loss", 0.1))
        sink.flush()  # no-op after close
        sink.close()
        assert path.read_text() == before

    def test_hub_flush_drives_the_textfile(self, tmp_path):
        sink = self.make(tmp_path)
        hub = Telemetry(sinks=[sink], clock=TickClock())
        hub.gauge("loss", 0.25)
        hub.flush()
        assert "repro_loss 0.25" in (tmp_path / "metrics.prom").read_text()
