"""Sharded round kernels, mechanism pool plumbing, and the straggler rule."""

import numpy as np
import pytest

from repro.core import make_mechanism
from repro.fl.gradients import split_gradient
from repro.fl.trainer import FederatedTrainer, RoundContext
from repro.fl.workers import WorkerUpdate
from repro.monitor.alerts import MonitorConfig
from repro.monitor.rules import RuleEngine
from repro.parallel import make_backend
from repro.population import WorkerPopulation
from tests.helpers import make_federation, model_fn

NUM_WORKERS = 24
DIM = 256
NUM_SERVERS = 3


def make_round(round_idx: int, seed: int = 0) -> RoundContext:
    """Synthetic round with honest-ish and deviating uploads mixed in."""
    rng = np.random.default_rng(seed * 7919 + round_idx)
    server_ranks = list(range(NUM_SERVERS))
    honest = rng.standard_normal(DIM)
    updates, slices = {}, {}
    for wid in range(NUM_WORKERS):
        noise = rng.standard_normal(DIM)
        grad = honest + 0.3 * noise if wid % 5 else -2.0 * honest + noise
        updates[wid] = WorkerUpdate(worker_id=wid, gradient=grad, num_samples=100)
        parts = split_gradient(grad, NUM_SERVERS)
        slices[wid] = {srv: parts[j] for j, srv in enumerate(server_ranks)}
    return RoundContext(
        round_idx=round_idx,
        global_params=np.zeros(DIM),
        server_ranks=server_ranks,
        slices=slices,
        updates=updates,
        uncertain=set(),
        sample_counts={w: 100 for w in range(NUM_WORKERS)},
    )


def run_rounds(mech, rounds=3, seed=0):
    decisions = []
    for t in range(rounds):
        d = mech.process_round(make_round(t, seed=seed))
        decisions.append(
            (
                tuple(sorted(d.accept.items())),
                tuple(sorted(d.records.get("rewards", {}).items())),
                tuple(sorted(d.records.get("reputations", {}).items())),
            )
        )
    return decisions


class TestShardedKernels:
    @pytest.mark.parametrize("backend", ["thread"])
    @pytest.mark.parametrize("mw", [1, 2, 4])
    def test_mechanism_byte_identical_to_serial(self, backend, mw):
        serial = run_rounds(make_mechanism("fifl", threshold=0.0))
        pool = make_backend(backend, max_workers=mw)
        try:
            mech = make_mechanism("fifl", threshold=0.0)
            mech.attach_backend(pool)
            assert run_rounds(mech) == serial
        finally:
            pool.close()

    def test_attach_backend_adopts_only_parallel_pools(self):
        mech = make_mechanism("fifl", threshold=0.0)
        assert mech._active_backend() is None
        shared = make_backend("thread", max_workers=2)
        try:
            mech.attach_backend(shared)
            assert mech._active_backend() is shared
            # a serial pool means inline kernels, never a private pool
            mech.attach_backend(make_backend("serial"))
            assert mech._active_backend() is None
        finally:
            shared.close()

    def test_adopted_pool_matches_serial(self):
        shared = make_backend("thread", max_workers=2)
        try:
            serial = run_rounds(make_mechanism("fifl", threshold=0.0))
            mech = make_mechanism("fifl", threshold=0.0)
            mech.attach_backend(shared)
            assert run_rounds(mech) == serial
        finally:
            shared.close()


class TestConfigValidation:
    """The trainer is the one place a run chooses its pool."""

    @staticmethod
    def _trainer(**kw):
        workers, _, test = make_federation(num_workers=4)
        return FederatedTrainer(
            model_fn(0)(),
            population=WorkerPopulation.from_workers(workers),
            server_ranks=[0, 1],
            test_data=test,
            mechanism=make_mechanism("fifl", threshold=0.0),
            **kw,
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            self._trainer(backend="gpu")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            self._trainer(backend="thread", max_workers=0)


def _round_event(shard_s, phase="local_compute", backend="thread"):
    ordered = sorted(shard_s)
    mid = len(ordered) // 2
    median = (
        ordered[mid] if len(ordered) % 2
        else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    return {
        "type": "parallel.round",
        "seq": 7,
        "data": {
            "phase": phase,
            "backend": backend,
            "pool_size": len(shard_s),
            "shards": len(shard_s),
            "shard_s": list(shard_s),
            "queue_wait_s": [0.0] * len(shard_s),
            "max_shard_s": max(shard_s),
            "median_shard_s": median,
        },
    }


class TestShardStragglerRule:
    def test_fires_on_straggling_shard(self):
        engine = RuleEngine(MonitorConfig())
        alerts = engine.process(_round_event([0.01, 0.012, 0.011, 0.5]))
        assert [a.rule for a in alerts] == ["shard-straggler"]
        assert alerts[0].kind == "anomaly"
        assert alerts[0].data["shard"] == 3
        assert alerts[0].data["backend"] == "thread"

    def test_balanced_dispatch_is_silent(self):
        engine = RuleEngine(MonitorConfig())
        assert not engine.process(_round_event([0.1, 0.11, 0.09, 0.105]))

    def test_micro_dispatch_jitter_is_silent(self):
        # a 20x imbalance below the absolute floor is scheduler noise
        engine = RuleEngine(MonitorConfig())
        assert not engine.process(_round_event([0.0001, 0.0001, 0.002]))

    def test_stateless_across_events(self):
        # pure function of each event: a straggler then a clean dispatch
        engine = RuleEngine(MonitorConfig())
        assert engine.process(_round_event([0.01, 0.011, 0.6]))
        assert not engine.process(_round_event([0.1, 0.11, 0.105]))
