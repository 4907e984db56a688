"""Out-of-core reputation/ledger state keyed by worker id.

A million-worker federation cannot keep a Python ``dict[int, float]`` of
reputations hot in every component — and it must not pay O(population)
per round when only a cohort's reputations change. :class:`ReputationStore`
is the population-scale answer: a chunked dense array where chunks are
allocated on first touch (untouched spans of the id space cost nothing),
with an optional ``numpy`` memmap backing for runs whose state should
live on disk and survive the process.

Round decisions write back through :meth:`write_round`; samplers stream
the full population through :meth:`iter_chunks` at O(chunk) peak memory
(untouched chunks yield one shared read-only default block). Every value
is finite: a non-finite ``initial`` or write raises ``ValueError`` before
anything is stored, because the weighted samplers order ids by keys
derived from these values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReputationStore"]


def _check_finite(values) -> None:
    if not np.isfinite(values).all():
        raise ValueError("reputations must be finite")


class ReputationStore:
    """Chunk-sparse dense float store over ids ``0..size-1``."""

    def __init__(
        self,
        size: int,
        initial: float = 0.0,
        chunk_size: int = 4096,
        path: str | None = None,
    ):
        if size <= 0:
            raise ValueError("size must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        _check_finite(initial)
        self.size = int(size)
        self.initial = float(initial)
        self.chunk_size = int(chunk_size)
        self._chunks: dict[int, np.ndarray] = {}
        self._dense: np.ndarray | None = None
        if path is not None:
            # Out-of-core mode: one memmapped vector, paged by the OS.
            self._dense = np.lib.format.open_memmap(
                path, mode="w+", dtype=np.float64, shape=(self.size,)
            )
            self._dense[:] = self.initial
        # One shared default block for untouched chunks in iter_chunks.
        self._default_chunk = np.full(self.chunk_size, self.initial)
        self._default_chunk.flags.writeable = False

    def __len__(self) -> int:
        return self.size

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.size):
            raise IndexError(f"worker id outside [0, {self.size})")
        return ids

    def _chunk(self, cidx: int, create: bool) -> np.ndarray | None:
        chunk = self._chunks.get(cidx)
        if chunk is None and create:
            length = min(self.chunk_size, self.size - cidx * self.chunk_size)
            chunk = np.full(length, self.initial)
            self._chunks[cidx] = chunk
        return chunk

    # -- point/batch access ----------------------------------------------------

    def get(self, worker_id: int) -> float:
        return float(self.get_many(np.asarray([worker_id]))[0])

    def get_many(self, ids) -> np.ndarray:
        """Values for ``ids`` (any order, duplicates allowed)."""
        ids = self._check_ids(ids)
        if self._dense is not None:
            return np.asarray(self._dense[ids], dtype=np.float64)
        out = np.full(ids.size, self.initial)
        cidxs = ids // self.chunk_size
        for cidx in np.unique(cidxs):
            chunk = self._chunks.get(int(cidx))
            if chunk is None:
                continue
            sel = cidxs == cidx
            out[sel] = chunk[ids[sel] - cidx * self.chunk_size]
        return out

    def set(self, worker_id: int, value: float) -> None:
        self.set_many(np.asarray([worker_id]), np.asarray([value]))

    def set_many(self, ids, values) -> None:
        ids = self._check_ids(ids)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != ids.shape:
            raise ValueError("ids and values must align")
        _check_finite(values)
        if self._dense is not None:
            self._dense[ids] = values
            return
        cidxs = ids // self.chunk_size
        for cidx in np.unique(cidxs):
            sel = cidxs == cidx
            chunk = self._chunk(int(cidx), create=True)
            chunk[ids[sel] - cidx * self.chunk_size] = values[sel]

    def write_round(self, reputations: dict[int, float]) -> int:
        """Fold one round's ``{worker_id: reputation}`` verdicts in.

        Returns the number of entries written; O(cohort), not O(size).
        A batch with any non-finite value raises ``ValueError`` and writes
        nothing.
        """
        if not reputations:
            return 0
        ids = np.fromiter(reputations.keys(), np.int64, len(reputations))
        vals = np.fromiter(reputations.values(), np.float64, len(reputations))
        self.set_many(ids, vals)
        return ids.size

    # -- streaming -------------------------------------------------------------

    def iter_chunks(self):
        """Yield ``(start_id, values)`` blocks covering the full id space.

        Untouched chunks yield a shared read-only default-filled block, so
        a full sweep allocates O(chunk_size) — the contract the weighted
        cohort samplers rely on.
        """
        for cidx in range(0, -(-self.size // self.chunk_size)):
            start = cidx * self.chunk_size
            length = min(self.chunk_size, self.size - start)
            if self._dense is not None:
                yield start, self._dense[start : start + length]
                continue
            chunk = self._chunks.get(cidx)
            if chunk is None:
                chunk = (
                    self._default_chunk
                    if length == self.chunk_size
                    else self._default_chunk[:length]
                )
            yield start, chunk

    # -- introspection ---------------------------------------------------------

    @property
    def touched_chunks(self) -> int:
        if self._dense is not None:
            return -(-self.size // self.chunk_size)
        return len(self._chunks)

    @property
    def nbytes(self) -> int:
        """Resident bytes of backed state (memmap counts its full extent)."""
        if self._dense is not None:
            return int(self._dense.nbytes)
        return sum(c.nbytes for c in self._chunks.values())

    def as_dict(self) -> dict[int, float]:
        """All ids living in touched chunks (tests / small populations)."""
        out: dict[int, float] = {}
        if self._dense is not None:
            return {i: float(v) for i, v in enumerate(self._dense)}
        for cidx, chunk in sorted(self._chunks.items()):
            start = cidx * self.chunk_size
            for i, v in enumerate(chunk):
                out[start + i] = float(v)
        return out
