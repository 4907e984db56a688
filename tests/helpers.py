"""Shared test factories: tiny blob federations with logistic regression."""

import numpy as np

from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import HonestWorker, RoundBatch, RoundContext
from repro.nn import build_logreg
from repro.population import WorkerPopulation

N_FEATURES = 8
N_CLASSES = 3


def model_fn(seed=0):
    """Factory-of-factories so every worker model starts identically."""
    return lambda: build_logreg(N_FEATURES, N_CLASSES, seed=seed)


class LogregFactory:
    """Picklable model factory (lambdas can't cross process boundaries).

    Use instead of :func:`model_fn` wherever a worker/population must
    survive ``pickle`` — snapshot round-trips, subprocess transfer.
    """

    def __init__(self, seed=0):
        self.seed = seed

    def __call__(self):
        return build_logreg(N_FEATURES, N_CLASSES, seed=self.seed)


class BlobDataFn:
    """Picklable per-worker dataset recipe for lazy populations."""

    def __init__(self, samples_per_worker=40, seed=0):
        self.samples_per_worker = samples_per_worker
        self.seed = seed

    def __call__(self, worker_id):
        return make_blobs(
            n_samples=self.samples_per_worker,
            n_features=N_FEATURES,
            num_classes=N_CLASSES,
            seed=(self.seed, 0xDA7A, worker_id),
        )


def round_context(round_idx, server_ranks, updates, uncertain=()):
    """A mechanism's view of a synthetic round, as the trainer builds it.

    ``updates`` maps worker id -> WorkerUpdate; every worker outside
    ``uncertain`` delivered its full gradient into ``ctx.batch``.
    """
    uncertain = set(uncertain)
    dim = next(iter(updates.values())).gradient.size
    batch = RoundBatch.stack(
        (u for w, u in updates.items() if w not in uncertain), server_ranks, dim
    )
    return RoundContext(
        round_idx=round_idx,
        server_ranks=list(server_ranks),
        batch=batch,
        updates=updates,
        uncertain=uncertain,
    )


def roster(workers):
    """A population over a fixed list of live workers (no cohort sampling)."""
    return WorkerPopulation.from_workers(workers)


def make_federation(
    num_workers=4,
    n_samples=400,
    worker_cls=HonestWorker,
    worker_kwargs=None,
    seed=0,
    local_iters=1,
    lr=0.1,
):
    """Build (workers, train shards, test set) over blob data."""
    data = make_blobs(
        n_samples=n_samples, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed
    )
    train, test = train_test_split(data, 0.25, seed=seed)
    shards = iid_partition(train, num_workers, seed=seed)
    workers = [
        worker_cls(
            i,
            shards[i],
            model_fn(seed),
            lr=lr,
            batch_size=32,
            local_iters=local_iters,
            seed=seed + 100 + i,
            **(worker_kwargs or {}),
        )
        for i in range(num_workers)
    ]
    return workers, shards, test
