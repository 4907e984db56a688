"""Regression tests: ``telemetry summarize`` degrades gracefully.

A crashed producer routinely leaves an empty or mid-record-truncated
trace behind. The CLI skips undecodable lines with a warning, and exits
2 with a clear diagnostic when nothing decodable remains, instead of
throwing a traceback at the user.
"""

import json

import pytest

from repro.telemetry.cli import main as telemetry_cli


class TestSummarizeDegradation:
    def test_empty_trace_exits_two_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert telemetry_cli(["summarize", str(path)]) == 2
        err = capsys.readouterr().err
        assert "contains no decodable events (0 undecodable line(s))" in err
        assert "Traceback" not in err

    def test_truncated_trace_warns_and_summarizes(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        good = {"v": 1, "seq": 1, "type": "fifl.round", "data": {"round": 0}}
        path.write_text(json.dumps(good) + "\n" + '{"v": 1, "se')
        assert telemetry_cli(["summarize", str(path)]) == 0
        assert "warning: skipped 1 undecodable line(s)" in \
            capsys.readouterr().err

    def test_garbage_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "binary.jsonl"
        path.write_text("not json at all\x00\x01")
        assert telemetry_cli(["summarize", str(path)]) == 2
        assert "(1 undecodable line(s))" in capsys.readouterr().err

    def test_whitespace_only_trace_counts_as_empty(self, tmp_path, capsys):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n\n")
        assert telemetry_cli(["summarize", str(path)]) == 2
        assert "contains no decodable events" in capsys.readouterr().err

    def test_unknown_schema_version_warns(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"v": 99, "seq": 0, "type": "x"}) + "\n")
        assert telemetry_cli(["summarize", str(path)]) == 0
        assert "1 events with unknown schema version" in \
            capsys.readouterr().err


def fifl_round_line(t, *, rewards=None, reputations=None):
    data = {
        "round": t,
        "scores": {"0": 0.5, "1": -0.8},
        "flagged": [1],
        "accepted": 1,
        "uncertain": [],
        "threshold": 0.0,
        "budget": 10.0,
        "rewards": rewards if rewards is not None else {"0": 1.0, "1": -0.2},
    }
    if reputations is not None:
        data["reputations"] = reputations
    return json.dumps({"v": 1, "seq": t, "type": "fifl.round", "data": data})


class TestSummarizeWorker:
    def write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_table_renders_trajectory(self, tmp_path, capsys):
        path = self.write(tmp_path, [
            fifl_round_line(0, reputations={"0": 0.3, "1": 0.0}),
            fifl_round_line(1, reputations={"0": 0.5, "1": 0.0}),
        ])
        assert telemetry_cli(["summarize", str(path), "--worker", "0"]) == 0
        out = capsys.readouterr().out
        assert "worker 0: 2 rounds" in out
        assert "cumulative reward +2.0000" in out
        assert "final reputation 0.5000" in out

    def test_flagged_worker_status(self, tmp_path, capsys):
        path = self.write(tmp_path, [fifl_round_line(0)])
        assert telemetry_cli(["summarize", str(path), "--worker", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 flagged" in out
        assert "flagged" in out.splitlines()[-1]

    def test_json_trajectory(self, tmp_path, capsys):
        path = self.write(tmp_path, [fifl_round_line(0)])
        assert telemetry_cli(
            ["summarize", str(path), "--worker", "0", "--json"]
        ) == 0
        traj = json.loads(capsys.readouterr().out)
        assert traj["worker"] == 0
        assert traj["rounds"][0]["reward"] == 1.0
        # audit payload absent from this trace: reputation rides as None
        assert traj["rounds"][0]["reputation"] is None

    def test_unknown_worker_degrades_gracefully(self, tmp_path, capsys):
        path = self.write(tmp_path, [fifl_round_line(0)])
        assert telemetry_cli(["summarize", str(path), "--worker", "9"]) == 0
        assert "no mechanism rounds" in capsys.readouterr().out

    def test_skipped_only_trace_summarizes_cleanly(self, tmp_path, capsys):
        line = json.dumps({
            "v": 1, "seq": 0, "type": "trainer.skipped_round",
            "data": {"round": 0, "reason": "empty_cohort"},
        })
        path = self.write(tmp_path, [line])
        assert telemetry_cli(["summarize", str(path), "--worker", "0"]) == 0
        out = capsys.readouterr().out
        assert "no mechanism rounds" in out
        assert "1 trainer-skipped" in out
