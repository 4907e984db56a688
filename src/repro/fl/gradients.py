"""Gradient vector utilities: slicing, recombination, weighted aggregation.

The polycentric protocol (paper S3.2) splits each worker's flat gradient
into M contiguous slices, ships slice j to server j, and recombines the
per-server aggregates into the global gradient. Slicing here is plain
``np.array_split`` so ``recombine(split(G)) == G`` exactly and every
worker/server pair agrees on slice boundaries given (vector length, M).

:class:`RoundBatch` is the one per-round gradient format. The trainer
stacks every fully delivered gradient into it once, row-wise in
ascending worker-id order; server ``j``'s slice matrix is then the
column block ``gradients[:, offsets[j]:offsets[j+1]]`` (a view), and
aligned ``(N,)`` vectors of worker ids and sample counts make masked
reductions single NumPy expressions. Mechanisms, the batched kernels
(:func:`~repro.core.detection.detection_scores_matrix`,
:func:`~repro.core.contribution.gradient_distances_matrix`, ...) and the
servers' aggregation all read this one layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RoundBatch",
    "split_gradient",
    "recombine",
    "fedavg",
    "slice_bounds",
    "slice_offsets",
]


@lru_cache(maxsize=None)
def _cached_bounds(length: int, num_slices: int) -> tuple[tuple[int, int], ...]:
    """Memoized slice boundaries per (vector length, server count).

    Every worker/round re-derives the same boundaries for a fixed
    topology; caching makes slicing a table lookup plus fancy-indexing
    instead of per-call arithmetic (the round engine's hot path).
    """
    if num_slices <= 0:
        raise ValueError("num_slices must be positive")
    if length < 0:
        raise ValueError("length must be non-negative")
    base = length // num_slices
    extra = length % num_slices
    bounds = []
    start = 0
    for j in range(num_slices):
        size = base + (1 if j < extra else 0)
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


def slice_bounds(length: int, num_slices: int) -> list[tuple[int, int]]:
    """(start, end) index pairs of each slice, matching np.array_split."""
    return list(_cached_bounds(length, num_slices))


def slice_offsets(length: int, num_slices: int) -> np.ndarray:
    """``(M+1,)`` offsets; slice j spans ``offsets[j]:offsets[j+1]``."""
    bounds = _cached_bounds(length, num_slices)
    return np.asarray([0] + [end for _, end in bounds], dtype=np.intp)


def split_gradient(grad: np.ndarray, num_slices: int) -> list[np.ndarray]:
    """Split a flat gradient into ``num_slices`` contiguous slices (copies)."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.ndim != 1:
        raise ValueError(f"gradient must be flat, got shape {grad.shape}")
    if num_slices <= 0:
        raise ValueError("num_slices must be positive")
    if num_slices > grad.size and grad.size > 0:
        raise ValueError(
            f"cannot split {grad.size} values into {num_slices} non-trivial slices"
        )
    bounds = _cached_bounds(grad.size, num_slices)
    return [grad[lo:hi].copy() for lo, hi in bounds]


def recombine(slices: list[np.ndarray]) -> np.ndarray:
    """Concatenate slices back into the flat gradient."""
    if not slices:
        raise ValueError("no slices to recombine")
    return np.concatenate([np.asarray(s, dtype=np.float64) for s in slices])


def fedavg(
    gradients: list[np.ndarray] | np.ndarray, weights: list[float] | np.ndarray
) -> np.ndarray:
    """Weighted average of gradient vectors (paper Eq. 2).

    Weights are normalized internally; typically ``weights[i] = n_i`` (the
    worker's sample count) possibly zeroed by detection flags ``r_i``.
    ``gradients`` is a list of vectors or an already stacked ``(k, D)``
    matrix, which is used without a copy.
    """
    if len(gradients) == 0:
        raise ValueError("no gradients to aggregate")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(gradients),):
        raise ValueError(
            f"{len(gradients)} gradients but weights shape {weights.shape}"
        )
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    if isinstance(gradients, np.ndarray):
        stacked = np.asarray(gradients, dtype=np.float64)
    else:
        stacked = np.stack([np.asarray(g, dtype=np.float64) for g in gradients])
    if stacked.ndim != 2:
        raise ValueError("gradients must all be flat vectors of equal length")
    return (weights / total) @ stacked


@dataclass
class RoundBatch:
    """One round's fully delivered gradients in batched layout."""

    worker_ids: np.ndarray  # (N,) int64, ascending
    gradients: np.ndarray  # (N, D) float64, row i = full gradient of worker_ids[i]
    offsets: np.ndarray  # (M+1,) column offsets of per-server slices
    server_ranks: np.ndarray  # (M,) int64, ascending (slice j -> server_ranks[j])
    sample_counts: np.ndarray  # (N,) float64
    _row_sqnorms: np.ndarray | None = None  # lazy ||G_i||² cache

    @classmethod
    def stack(
        cls, updates: Iterable, server_ranks: Sequence[int], dim: int
    ) -> "RoundBatch":
        """Stack worker updates row-wise in ascending worker-id order.

        ``updates`` are :class:`~repro.fl.workers.WorkerUpdate` objects
        (their gradients and claimed sample counts); none yields a
        zero-row batch that still knows the slice layout.
        """
        ups = sorted(updates, key=lambda u: u.worker_id)
        gradients = (
            np.stack([np.asarray(u.gradient, dtype=np.float64) for u in ups])
            if ups
            else np.empty((0, dim))
        )
        if gradients.shape[1] != dim:
            raise ValueError(f"gradients have {gradients.shape[1]} values, not {dim}")
        return cls(
            worker_ids=np.asarray([u.worker_id for u in ups], dtype=np.int64),
            gradients=gradients,
            offsets=slice_offsets(dim, len(server_ranks)),
            server_ranks=np.asarray(server_ranks, dtype=np.int64),
            sample_counts=np.asarray(
                [u.num_samples for u in ups], dtype=np.float64
            ),
        )

    @property
    def num_workers(self) -> int:
        return self.gradients.shape[0]

    @property
    def row_sqnorms(self) -> np.ndarray:
        """``||G_i||²`` per row, computed once and cached.

        Shared by every distance computation of the round (contribution
        scoring and the filter's second pass see the same rows).
        """
        if self._row_sqnorms is None:
            self._row_sqnorms = np.einsum(
                "ij,ij->i", self.gradients, self.gradients
            )
        return self._row_sqnorms

    def server_block(self, slot: int) -> np.ndarray:
        """Server ``slot``'s slice matrix: a column-block view, no copy."""
        return self.gradients[:, self.offsets[slot] : self.offsets[slot + 1]]

    def shard(self, start: int, stop: int) -> "RoundBatch":
        """Row window ``[start, stop)`` as a view-backed sub-batch.

        All aligned vectors are sliced views (no copies); the sqnorm
        cache, when already computed, is sliced too so shard consumers
        never recompute it.
        """
        if not 0 <= start < stop <= self.num_workers:
            raise ValueError(f"bad shard window [{start}, {stop})")
        return RoundBatch(
            worker_ids=self.worker_ids[start:stop],
            gradients=self.gradients[start:stop],
            offsets=self.offsets,
            server_ranks=self.server_ranks,
            sample_counts=self.sample_counts[start:stop],
            _row_sqnorms=(
                self._row_sqnorms[start:stop]
                if self._row_sqnorms is not None
                else None
            ),
        )

    def iter_shards(self, shard_size: int | None):
        """Stream the batch as row shards of at most ``shard_size`` workers.

        Every per-round kernel this batch feeds (detection scores,
        gradient distances, weighted aggregation) is a per-row reduction,
        so processing shard-by-shard bounds kernel temporaries by shard
        size without changing any result. ``None`` yields ``self`` once.
        """
        # lazy: repro.population imports the worker classes of repro.fl
        from ..population.sharding import iter_row_shards

        for start, stop in iter_row_shards(self.num_workers, shard_size):
            if start == 0 and stop == self.num_workers:
                yield self
            else:
                yield self.shard(start, stop)

    def mask(self, accepted: np.ndarray | dict[int, bool]) -> np.ndarray:
        """Boolean row mask from an accept verdict (array or dict form)."""
        if isinstance(accepted, dict):
            return np.asarray(
                [bool(accepted.get(int(w), False)) for w in self.worker_ids],
                dtype=bool,
            )
        return np.asarray(accepted, dtype=bool)

    def weighted_average(self, keep: np.ndarray) -> np.ndarray | None:
        """Sample-count-weighted mean of the kept rows (Eq. 2 / G̃).

        Equal (to rounding) to the servers' per-block :func:`fedavg` +
        ``recombine``: the weights are the same for every column block,
        so averaging whole rows commutes with slicing.
        """
        keep = np.asarray(keep, dtype=bool)
        if not keep.any():
            return None
        if keep.all():
            # All-kept fast path: one GEMV, no row copy. (Zeroed weights
            # can't stand in for dropping a row in general — a rejected
            # non-finite gradient would turn 0 * inf into NaN.)
            weights = self.sample_counts
            grads = self.gradients
        else:
            weights = self.sample_counts[keep]
            grads = self.gradients[keep]
        total = weights.sum()
        if total <= 0:
            raise ValueError("at least one kept worker needs a positive weight")
        return (weights / total) @ grads

    def to_dict(self, values: np.ndarray) -> dict[int, float]:
        """Pair an aligned ``(N,)`` result vector back onto worker ids
        (keys and values as Python scalars)."""
        values = np.asarray(values)
        if values.shape != (self.num_workers,):
            raise ValueError(
                f"expected {self.num_workers} values, got shape {values.shape}"
            )
        return dict(zip(self.worker_ids.tolist(), values.tolist()))
