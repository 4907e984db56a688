"""Seeded cohort samplers over a :class:`~repro.population.WorkerPopulation`.

Every sampler is *stateless between rounds*: each round's randomness is
derived from ``(salt, sampler_seed, round_idx)`` with
``np.random.default_rng``, so the cohort id sequence is identical across
process restarts — resuming a federation at round ``t`` re-draws exactly
the cohort a fresh process would (see
``tests/population/test_sampler_determinism.py``, which replays in a
subprocess).

Memory contract: sampling ``k`` ids from a population of ``n`` costs
O(k) (uniform, availability-aware; rejection sampling with a dense
fallback when ``k`` approaches ``n``) or O(chunk + k)
(reputation-weighted; Efraimidis–Spirakis exponential keys streamed
chunk-by-chunk from the :class:`~repro.population.ReputationStore` with
a running top-k) — never O(n) for small cohorts. The weighted draw
computes its n keys in O(n) time but sorts only the keys that can still
reach the top k (the running best plus each chunk's survivors), which
relies on the store holding finite reputations only.

``required`` ids (the server cluster — they produce the detection
benchmarks) are always included and never count against availability.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "CohortSampler",
    "UniformSampler",
    "ReputationWeightedSampler",
    "AvailabilityAwareSampler",
    "make_sampler",
    "SAMPLER_NAMES",
]

# Domain-separation salts: each sampler family derives its per-round rng
# from a distinct stream so sharing one seed across samplers is safe.
_SALT_UNIFORM = 0x5A17
_SALT_WEIGHTED = 0x4E57
_SALT_AVAILABLE = 0xAB1E


def _round_rng(salt: int, seed: int, round_idx: int, *extra: int):
    return np.random.default_rng((salt, seed, round_idx, *extra))


@runtime_checkable
class CohortSampler(Protocol):
    """Protocol every cohort sampler implements."""

    def sample(
        self,
        round_idx: int,
        population,
        cohort_size: int,
        required: tuple[int, ...] = (),
    ) -> np.ndarray:
        """Sorted unique worker ids for one round (includes ``required``)."""
        ...


def _required_array(required, size: int) -> np.ndarray:
    req = np.unique(np.asarray(list(required), dtype=np.int64))
    if req.size and (req[0] < 0 or req[-1] >= size):
        raise ValueError(f"required id outside [0, {size})")
    return req


def _draw_without_replacement(
    rng: np.random.Generator, n: int, k: int, exclude: np.ndarray
) -> np.ndarray:
    """``k`` distinct ids from ``[0, n)`` minus ``exclude``, O(k) memory.

    Rejection sampling keeps memory at O(k) for the cross-device regime
    (k << n); when k is a large fraction of n the rejection rate blows
    up, so a dense permutation fallback (O(n), but then k ~ n anyway)
    takes over.
    """
    avail = n - exclude.size
    if k > avail:
        raise ValueError(f"cannot draw {k} distinct ids from {avail}")
    if k * 2 >= avail:
        pool = np.setdiff1d(rng.permutation(n), exclude, assume_unique=False)
        return pool[:k]
    seen = set(int(e) for e in exclude)
    chosen: list[int] = []
    while len(chosen) < k:
        for v in rng.integers(0, n, size=2 * (k - len(chosen)) + 8).tolist():
            if v not in seen:
                seen.add(v)
                chosen.append(v)
                if len(chosen) == k:
                    break
    return np.asarray(chosen, dtype=np.int64)


def _with_required(req: np.ndarray, extras: np.ndarray) -> np.ndarray:
    return np.sort(np.concatenate([req, extras.astype(np.int64)]))


class UniformSampler:
    """Uniform without replacement; the cross-device default."""

    name = "uniform"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def sample(self, round_idx, population, cohort_size, required=()):
        n = population.size
        req = _required_array(required, n)
        if cohort_size < 0:
            raise ValueError("cohort_size must be non-negative")
        k = min(cohort_size, n) - req.size
        if k <= 0:
            return req
        if req.size + k >= n:
            return np.arange(n, dtype=np.int64)
        rng = _round_rng(_SALT_UNIFORM, self.seed, round_idx)
        extras = _draw_without_replacement(rng, n, k, exclude=req)
        return _with_required(req, extras)


class ReputationWeightedSampler:
    """Weight ~ ``floor + max(reputation, 0)`` via Efraimidis–Spirakis keys.

    Sampling without replacement with per-item weights: each item gets
    key ``u ** (1/w)`` (u uniform) and the top-k keys win. Keys are
    computed chunk-by-chunk over the population's reputation store with
    a running top-k, so the full weight vector never materializes:
    memory is O(chunk + k). Drawing the keys is O(n) time; sorting is
    not. Each chunk first drops the keys below the k-th largest of the
    running best (or, until k are held, of the chunk, found with
    ``np.partition``), keeping ties, and only those survivors are
    lexsorted with the running best by (key desc, id asc). Keys of
    finite reputations lie in [0, 1], which the store guarantees by
    refusing non-finite values (a NaN key would fail every cut).

    The per-chunk rng is derived from ``(seed, round_idx, chunk_start)``,
    which is what lets a scalar reference replay the identical draws
    (the differential oracle in ``tests/population/test_sampler.py``).
    """

    name = "reputation"

    def __init__(self, seed: int = 0, floor: float = 0.05):
        if floor <= 0:
            raise ValueError("floor must be positive (weights must be > 0)")
        self.seed = int(seed)
        self.floor = float(floor)

    def _chunk_keys(self, round_idx: int, start: int, reps: np.ndarray):
        rng = _round_rng(_SALT_WEIGHTED, self.seed, round_idx, start)
        u = rng.random(reps.size)
        w = self.floor + np.maximum(np.asarray(reps, dtype=np.float64), 0.0)
        return u ** (1.0 / w)

    def sample(self, round_idx, population, cohort_size, required=()):
        n = population.size
        req = _required_array(required, n)
        if cohort_size < 0:
            raise ValueError("cohort_size must be non-negative")
        k = min(cohort_size, n) - req.size
        if k <= 0:
            return req
        store = population.reputation_store
        best_ids = np.empty(0, dtype=np.int64)
        best_keys = np.empty(0)
        for start, reps in store.iter_chunks():
            keys = self._chunk_keys(round_idx, start, reps)
            # required ids are already in: a negative key (real keys are
            # >= 0) drops them at the cut below
            lo, hi = np.searchsorted(req, (start, start + keys.size))
            keys[req[lo:hi] - start] = -1.0
            # a key below the k-th largest of the running best, or of the
            # chunk itself, cannot reach the top k; ties survive the cut,
            # so the (key desc, id asc) order below stays exact
            if best_keys.size == k:
                cut = best_keys[-1]
            elif keys.size > k:
                cut = max(np.partition(keys, keys.size - k)[keys.size - k], 0.0)
            else:
                cut = 0.0
            survivors = np.flatnonzero(keys >= cut)
            all_ids = np.concatenate([best_ids, survivors + start])
            all_keys = np.concatenate([best_keys, keys[survivors]])
            # top-k by (key desc, id asc) — the id tiebreak keeps the
            # selection deterministic even on (improbable) equal keys
            order = np.lexsort((all_ids, -all_keys))[:k]
            best_ids, best_keys = all_ids[order], all_keys[order]
        return _with_required(req, best_ids)


class AvailabilityAwareSampler:
    """Uniform over the ids *available* this round (device check-in model).

    Rejection-samples candidate ids and keeps those the population
    reports available (online per its churn schedule and per-round
    availability draw). Attempts are capped, so a mostly-offline
    population yields a short cohort rather than a livelock — the
    trainer records an explicit skipped round when nobody is left.
    """

    name = "available"

    def __init__(self, seed: int = 0, max_attempt_factor: int = 64):
        if max_attempt_factor <= 0:
            raise ValueError("max_attempt_factor must be positive")
        self.seed = int(seed)
        self.max_attempt_factor = int(max_attempt_factor)

    def sample(self, round_idx, population, cohort_size, required=()):
        n = population.size
        req = _required_array(required, n)
        if cohort_size < 0:
            raise ValueError("cohort_size must be non-negative")
        k = min(cohort_size, n) - req.size
        if k <= 0:
            return req
        rng = _round_rng(_SALT_AVAILABLE, self.seed, round_idx)
        seen = set(int(r) for r in req)
        chosen: list[int] = []
        budget = self.max_attempt_factor * k + 256
        while len(chosen) < k and budget > 0:
            draws = rng.integers(0, n, size=min(budget, 2 * (k - len(chosen)) + 8))
            budget -= draws.size
            for v in draws.tolist():
                if v in seen:
                    continue
                seen.add(v)
                if population.is_available(v, round_idx):
                    chosen.append(v)
                    if len(chosen) == k:
                        break
        return _with_required(req, np.asarray(chosen, dtype=np.int64))


SAMPLER_NAMES = ("uniform", "reputation", "available")


def make_sampler(name: str, seed: int = 0, **kwargs) -> CohortSampler:
    """Construct a sampler by registry name."""
    if name == "uniform":
        return UniformSampler(seed=seed, **kwargs)
    if name == "reputation":
        return ReputationWeightedSampler(seed=seed, **kwargs)
    if name == "available":
        return AvailabilityAwareSampler(seed=seed, **kwargs)
    raise ValueError(
        f"unknown sampler {name!r}; available: {', '.join(SAMPLER_NAMES)}"
    )
