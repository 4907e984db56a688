"""ReputationStore: chunk-sparse semantics, write-back, memmap backing."""

import numpy as np
import pytest

from repro.population import ReputationStore


class TestBasics:
    def test_initial_value_everywhere(self):
        store = ReputationStore(100, initial=0.5, chunk_size=16)
        assert store.get(0) == 0.5
        assert store.get(99) == 0.5
        assert store.touched_chunks == 0

    def test_set_get_roundtrip(self):
        store = ReputationStore(100, chunk_size=16)
        store.set(17, 0.9)
        assert store.get(17) == 0.9
        assert store.get(16) == 0.0  # same chunk, untouched slot
        assert store.touched_chunks == 1

    def test_get_many_mixed_chunks(self):
        store = ReputationStore(1000, chunk_size=64)
        store.set_many(np.asarray([3, 500, 999]), np.asarray([0.1, 0.2, 0.3]))
        got = store.get_many(np.asarray([999, 3, 4, 500]))
        assert got.tolist() == [0.3, 0.1, 0.0, 0.2]

    def test_out_of_range_ids_raise(self):
        store = ReputationStore(10)
        with pytest.raises(IndexError):
            store.get(10)
        with pytest.raises(IndexError):
            store.set(-1, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReputationStore(0)
        with pytest.raises(ValueError):
            ReputationStore(10, chunk_size=0)

    def test_nbytes_counts_touched_only(self):
        store = ReputationStore(10**6, chunk_size=4096)
        store.set(123456, 1.0)
        assert store.nbytes == 4096 * 8
        assert store.touched_chunks == 1


class TestWriteRound:
    def test_interleaved_round_read_modify_write(self):
        """Two alternating cohorts: each round reads the other's writes."""
        store = ReputationStore(200, chunk_size=32)
        cohort_a = [1, 50, 150]
        cohort_b = [2, 50, 199]
        for rnd in range(6):
            cohort = cohort_a if rnd % 2 == 0 else cohort_b
            current = store.get_many(np.asarray(cohort))
            store.write_round(
                {w: float(c) + 1.0 for w, c in zip(cohort, current)}
            )
        # worker 50 is in both cohorts: bumped every round
        assert store.get(50) == 6.0
        # exclusive members: bumped every other round
        assert store.get(1) == 3.0
        assert store.get(199) == 3.0
        assert store.get(0) == 0.0

    def test_write_round_returns_count_and_empty_is_noop(self):
        store = ReputationStore(10)
        assert store.write_round({}) == 0
        assert store.write_round({1: 0.5, 2: 0.6}) == 2

    def test_as_dict_covers_touched_chunks(self):
        store = ReputationStore(100, chunk_size=10)
        store.write_round({5: 0.5, 95: 0.9})
        d = store.as_dict()
        assert d[5] == 0.5 and d[95] == 0.9
        # only touched chunks appear
        assert 50 not in d


class TestIterChunks:
    def test_full_coverage_in_order(self):
        store = ReputationStore(100, initial=0.25, chunk_size=32)
        store.set(70, 0.9)
        seen = []
        for start, vals in store.iter_chunks():
            seen.append((start, len(vals)))
        assert seen == [(0, 32), (32, 32), (64, 32), (96, 4)]

    def test_untouched_chunks_share_default_block(self):
        store = ReputationStore(4096 * 4, chunk_size=4096)
        blocks = [vals for _, vals in store.iter_chunks()]
        assert all(b is store._default_chunk for b in blocks)
        with pytest.raises(ValueError):
            blocks[0][0] = 1.0  # read-only

    def test_values_reflect_writes(self):
        store = ReputationStore(64, chunk_size=16)
        store.set(40, 0.7)
        chunks = dict(store.iter_chunks())
        assert chunks[32][8] == 0.7
        assert chunks[0][0] == 0.0


class TestMemmap:
    def test_memmap_roundtrip(self, tmp_path):
        path = str(tmp_path / "reps.npy")
        store = ReputationStore(500, initial=0.1, chunk_size=64, path=path)
        store.write_round({7: 0.9, 450: 0.2})
        assert store.get(7) == 0.9
        assert store.get(8) == pytest.approx(0.1)
        # the file holds the state: re-open it cold
        arr = np.load(path, mmap_mode="r")
        assert arr[450] == 0.2
        assert arr[0] == pytest.approx(0.1)

    def test_memmap_iter_chunks_and_counters(self, tmp_path):
        path = str(tmp_path / "reps.npy")
        store = ReputationStore(100, chunk_size=32, path=path)
        store.set(99, 1.0)
        total = sum(len(v) for _, v in store.iter_chunks())
        assert total == 100
        assert store.nbytes == 100 * 8


class TestFiniteValues:
    """Non-finite reputations are refused before anything is written."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ReputationStore(10, initial=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_set_many_and_write_round_raise(self, bad):
        store = ReputationStore(100, chunk_size=16)
        with pytest.raises(ValueError, match="finite"):
            store.set_many(np.asarray([3, 40]), np.asarray([0.5, bad]))
        with pytest.raises(ValueError, match="finite"):
            store.set(7, bad)
        with pytest.raises(ValueError, match="finite"):
            store.write_round({1: 0.2, 2: bad})

    def test_rejected_batch_leaves_store_unchanged(self):
        store = ReputationStore(100, initial=0.25, chunk_size=16)
        store.write_round({5: 0.9, 60: -0.3})
        before = store.as_dict()
        # the bad value sits in a chunk after the good ones, and one good
        # id lands in a chunk nobody has touched yet
        with pytest.raises(ValueError):
            store.write_round({5: 0.1, 90: 0.4, 61: np.nan})
        assert store.as_dict() == before
        assert store.touched_chunks == 2
        assert store.get(90) == 0.25

    def test_rejected_batch_leaves_memmap_unchanged(self, tmp_path):
        store = ReputationStore(
            50, chunk_size=16, path=str(tmp_path / "reps.npy")
        )
        store.set(4, 0.7)
        with pytest.raises(ValueError):
            store.set_many(np.asarray([4, 30]), np.asarray([0.1, np.inf]))
        assert store.get(4) == 0.7
        assert store.get(30) == 0.0
