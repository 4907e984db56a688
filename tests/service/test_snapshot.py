"""The durable snapshot format: atomicity, integrity, inventory listing."""

import json

import pytest

from repro.service import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    latest_snapshot,
    list_snapshots,
    read_manifest,
    verify_snapshot,
)
from repro.service.snapshot import MANIFEST_NAME, write_snapshot


def _blobs(tag=b"x"):
    return {"config.pkl": b"cfg-" + tag, "state.pkl": b"state-" + tag * 3}


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        snap = write_snapshot(tmp_path, 7, _blobs())
        assert snap.name == "snapshot-00000007"
        manifest = read_manifest(snap)
        assert manifest["round"] == 7
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert set(manifest["components"]) == {"config.pkl", "state.pkl"}
        assert verify_snapshot(snap) == []

    def test_component_digests_recorded(self, tmp_path):
        snap = write_snapshot(tmp_path, 0, _blobs())
        manifest = read_manifest(snap)
        spec = manifest["components"]["state.pkl"]
        assert spec["nbytes"] == len(_blobs()["state.pkl"])
        assert len(spec["sha256"]) == 64

    def test_extra_manifest_rides_along(self, tmp_path):
        snap = write_snapshot(
            tmp_path, 3, _blobs(), extra_manifest={"config_echo": {"seed": 5}}
        )
        assert read_manifest(snap)["config_echo"] == {"seed": 5}

    def test_rewriting_same_round_replaces(self, tmp_path):
        write_snapshot(tmp_path, 4, _blobs(b"a"))
        snap = write_snapshot(tmp_path, 4, _blobs(b"b"))
        assert (snap / "config.pkl").read_bytes() == b"cfg-b"
        assert verify_snapshot(snap) == []
        assert len(list_snapshots(tmp_path)) == 1

    def test_negative_round_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(tmp_path, -1, _blobs())


class TestIntegrity:
    def test_tampered_blob_detected(self, tmp_path):
        snap = write_snapshot(tmp_path, 1, _blobs())
        (snap / "state.pkl").write_bytes(b"state-yyy")
        problems = verify_snapshot(snap)
        assert any("sha256" in p for p in problems)

    def test_truncated_blob_detected(self, tmp_path):
        snap = write_snapshot(tmp_path, 1, _blobs())
        payload = (snap / "state.pkl").read_bytes()
        (snap / "state.pkl").write_bytes(payload[:-1])
        problems = verify_snapshot(snap)
        assert any("size" in p for p in problems)

    def test_missing_component_detected(self, tmp_path):
        snap = write_snapshot(tmp_path, 1, _blobs())
        (snap / "config.pkl").unlink()
        problems = verify_snapshot(snap)
        assert any("missing" in p for p in problems)

    def test_tampered_manifest_detected(self, tmp_path):
        snap = write_snapshot(tmp_path, 1, _blobs())
        manifest = json.loads((snap / MANIFEST_NAME).read_text())
        manifest["round"] = 99
        (snap / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="integrity"):
            read_manifest(snap)

    def test_format_version_mismatch_rejected(self, tmp_path):
        snap = write_snapshot(tmp_path, 1, _blobs())
        manifest = json.loads((snap / MANIFEST_NAME).read_text())
        manifest["round"] = 99  # would pass if version skipped the check
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        (snap / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format"):
            read_manifest(snap)

    def test_missing_manifest(self, tmp_path):
        snap = write_snapshot(tmp_path, 1, _blobs())
        (snap / MANIFEST_NAME).unlink()
        with pytest.raises(SnapshotError):
            read_manifest(snap)


class TestListing:
    def test_sorted_by_round(self, tmp_path):
        for r in (20, 5, 300):
            write_snapshot(tmp_path, r, _blobs())
        rounds = [read_manifest(p)["round"] for p in list_snapshots(tmp_path)]
        assert rounds == [5, 20, 300]
        latest = latest_snapshot(tmp_path)
        assert read_manifest(latest)["round"] == 300

    def test_invalid_and_tmp_dirs_skipped(self, tmp_path):
        write_snapshot(tmp_path, 1, _blobs())
        # a crash mid-write leaves a temp dir; readers must ignore it
        (tmp_path / ".tmp-snapshot-00000002").mkdir()
        # a corrupted snapshot must not shadow valid ones
        bad = tmp_path / "snapshot-00000003"
        bad.mkdir()
        (bad / MANIFEST_NAME).write_text("{not json")
        # ... nor may one that is not UTF-8, or JSON but not an object
        for r, manifest in ((4, b"\xff\xfe{}"), (5, b"[1]")):
            snap = write_snapshot(tmp_path, r, _blobs())
            (snap / MANIFEST_NAME).write_bytes(manifest)
            with pytest.raises(SnapshotError):
                read_manifest(snap)
        snaps = list_snapshots(tmp_path)
        assert [p.name for p in snaps] == ["snapshot-00000001"]
        assert latest_snapshot(tmp_path).name == "snapshot-00000001"

    def test_empty_or_absent_root(self, tmp_path):
        assert list_snapshots(tmp_path) == []
        assert latest_snapshot(tmp_path / "nope") is None
