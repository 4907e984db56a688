"""Population-first trainer surface: validation, skips, differentials."""

import numpy as np
import pytest

from repro.core import FIFLConfig, FIFLMechanism
from repro.experiments.common import AttackerSpec, FedExpConfig, run_federated
from repro.fl import FederatedTrainer
from repro.population import WorkerPopulation
from repro.sim import FaultScenario, LatencyConfig
from repro.telemetry import Telemetry

from ..helpers import make_federation, model_fn


def make_population(num_workers=4, seed=0, **fed_kwargs):
    workers, _, test = make_federation(
        num_workers=num_workers, seed=seed, **fed_kwargs
    )
    return WorkerPopulation.from_workers(workers), test


def make_trainer(pop, test, seed=0, **kwargs):
    kwargs.setdefault("mechanism", FIFLMechanism(FIFLConfig()))
    return FederatedTrainer(
        model_fn(seed)(), population=pop, server_ranks=[0, 1],
        test_data=test, seed=seed, **kwargs,
    )


class TestConstructorValidation:
    def test_cohort_size_exceeds_population(self):
        pop, test = make_population(4)
        with pytest.raises(ValueError, match="exceeds population size"):
            make_trainer(pop, test, cohort_size=5)

    def test_cohort_size_must_be_positive(self):
        pop, test = make_population(4)
        with pytest.raises(ValueError):
            make_trainer(pop, test, cohort_size=0)

    def test_worker_list_is_rejected(self):
        workers, _, _ = make_federation(num_workers=4)
        with pytest.raises(TypeError, match=r"WorkerPopulation\.from_workers"):
            FederatedTrainer(model_fn()(), workers, server_ranks=[0, 1])

    @pytest.mark.parametrize(
        "ranks", [[], [4], [-1, 0]], ids=["empty", "above", "negative"]
    )
    @pytest.mark.parametrize("sampler", [None, "uniform"], ids=["roster", "cohort"])
    def test_rejects_bad_ranks(self, sampler, ranks):
        pop, _ = make_population(4)
        with pytest.raises(ValueError, match="server rank"):
            FederatedTrainer(
                model_fn()(), pop, server_ranks=ranks, sampler=sampler
            )

    def test_server_ranks_required(self):
        pop, test = make_population(4)
        with pytest.raises(ValueError, match="server_ranks"):
            FederatedTrainer(model_fn()(), population=pop)

    def test_sampler_and_scenario_are_exclusive(self):
        from repro.sim import FaultScenario

        pop, test = make_population(4)
        with pytest.raises(ValueError, match="mutually exclusive"):
            make_trainer(
                pop, test, cohort_size=2, scenario=FaultScenario()
            )

    def test_population_accepted_positionally(self):
        pop, test = make_population(4)
        t = FederatedTrainer(model_fn()(), pop, server_ranks=[0, 1])
        assert t.population is pop


class TestSkippedRounds:
    def test_no_live_server_records_skip(self):
        pop, test = make_population(4)
        t = make_trainer(pop, test, cohort_size=3, sampler="uniform")
        before = t.model.get_flat_params().copy()
        t.fail_node(0)
        t.fail_node(1)
        rec = t._run_round(0)
        assert rec.skipped
        assert rec.mechanism_records["skipped"] == "no live server"
        assert rec.accepted == {}
        assert np.array_equal(t.model.get_flat_params(), before)

    def test_skip_counter_in_telemetry(self):
        pop, test = make_population(4)
        prof = Telemetry()
        t = make_trainer(pop, test, cohort_size=3, sampler="uniform",
                         monitor=None)
        t.profiler = prof
        t.fail_node(0)
        t.fail_node(1)
        t._run_round(0)
        assert prof.snapshot()["counters"]["trainer.skipped_rounds"] == 1

    def test_normal_round_not_skipped(self):
        pop, test = make_population(4)
        t = make_trainer(pop, test, cohort_size=3, sampler="uniform")
        rec = t._run_round(0)
        assert not rec.skipped
        assert rec.accepted


class TestDifferentials:
    def fig09_style(self, **over):
        cfg = dict(
            dataset="blobs", num_workers=8, samples_per_worker=150,
            test_samples=200, rounds=6, eval_every=6, batch_size=8,
            server_ranks=(0, 1), seed=0,
        )
        cfg.update(over)
        return FedExpConfig(**cfg)

    def assert_identical(self, cfg_a, cfg_b, attackers):
        hist_a, mech_a = run_federated(cfg_a, attackers, with_fifl=True)
        hist_b, mech_b = run_federated(cfg_b, attackers, with_fifl=True)
        assert hist_a.series("test_acc") == hist_b.series("test_acc")
        for ra, rb in zip(hist_a.rounds, hist_b.rounds):
            assert ra.accepted == rb.accepted
            assert ra.grad_norm == rb.grad_norm
        assert mech_a.reputation._rep == mech_b.reputation._rep

    def test_full_cohort_matches_static_fig09_attackers(self):
        attackers = {
            5: AttackerSpec("poison", (0.8,)),
            6: AttackerSpec("sign", (2.0,)),
        }
        self.assert_identical(
            self.fig09_style(),
            self.fig09_style(cohort_size=8, sampler="uniform"),
            attackers,
        )

    def test_full_cohort_matches_static_fig11_attackers(self):
        attackers = {
            6: AttackerSpec("prob", (0.5, 4.0)),
            7: AttackerSpec("prob", (0.9, 4.0)),
        }
        self.assert_identical(
            self.fig09_style(seed=1),
            self.fig09_style(seed=1, cohort_size=8, sampler="uniform"),
            attackers,
        )


    @pytest.mark.parametrize(
        "failed, drop_prob",
        [((1,), 0.0), ((5,), 0.0), ((5,), 0.2)],
        ids=["server-failed", "worker-failed", "lossy-worker-failed"],
    )
    def test_full_cohort_matches_roster_under_failure(self, failed, drop_prob):
        runs = []
        for cohort in ({}, {"cohort_size": 8, "sampler": "uniform"}):
            pop, test = make_population(8)
            t = make_trainer(pop, test, drop_prob=drop_prob, **cohort)
            records = [t.run_round(r) for r in range(2)]
            for rank in failed:
                t.fail_node(rank)
            records += [t.run_round(r) for r in range(2, 5)]
            runs.append((t, records))
        (roster, rec_a), (cohort, rec_b) = runs
        for ra, rb in zip(rec_a, rec_b):
            assert ra.accepted == rb.accepted
            assert ra.uncertain == rb.uncertain
            assert ra.grad_norm == rb.grad_norm
            assert (ra.test_loss, ra.test_acc) == (rb.test_loss, rb.test_acc)
            assert ra.skipped == rb.skipped
            np.testing.assert_equal(ra.mechanism_records, rb.mechanism_records)
        assert roster.network.bytes_sent == cohort.network.bytes_sent
        assert roster.network.drop_log.drops == cohort.network.drop_log.drops
        assert roster.node_comm_load() == cohort.node_comm_load()
        assert np.array_equal(
            roster.model.get_flat_params(), cohort.model.get_flat_params()
        )


class TestReputationWriteback:
    def test_decisions_flow_into_population_store(self):
        pop, test = make_population(6)
        t = FederatedTrainer(
            model_fn()(), population=pop, server_ranks=[0, 1],
            test_data=test, mechanism=FIFLMechanism(FIFLConfig()),
            cohort_size=4, sampler="uniform", seed=0,
        )
        for r in range(3):
            t._run_round(r)
        store = pop.reputation_store
        written = [w for w in range(6) if store.get(w) != 0.0]
        assert written, "no reputations written back into the population"

    def test_cohort_event_emitted(self):
        pop, test = make_population(6)
        prof = Telemetry()
        t = make_trainer(pop, test, cohort_size=4, sampler="uniform")
        t.profiler = prof
        t._run_round(0)
        snap = prof.snapshot()
        assert snap["counters"]["trainer.cohort_workers"] == 4


class TestRoundTags:
    @pytest.mark.parametrize(
        "cohort",
        [
            {},
            {"cohort_size": 3, "sampler": "uniform"},
            {"scenario": FaultScenario(
                latency=LatencyConfig(kind="uniform", a=0.01, b=0.05),
                round_timeout_s=30.0,
            )},
        ],
        ids=["roster", "cohort", "latency"],
    )
    def test_run_leaves_nothing_queued(self, cohort):
        pop, test = make_population(6)
        t = make_trainer(pop, test, drop_prob=0.1, **cohort)
        t.run(4, eval_every=4)
        net = t.network
        if net.sim is not None:
            net.sim.run()  # land the last round's late broadcasts
        assert net.in_flight == 0
        for r in range(4):
            for wid in range(6):
                for srv in t.server_ranks:
                    assert net.pending(srv, wid, f"slice:{r}") == 0
                    assert net.pending(wid, srv, f"global:{r}") == 0
        # nothing is in flight, so no closed tag is remembered
        assert net._dead_tags == set()
