"""Federated training loop over the polycentric protocol (paper S3.2).

One :class:`FederatedTrainer` drives all three architectures: M = 1 server
is centralized, 1 < M < N polycentric, M = N decentralized — exactly the
generalization the paper claims in S3.2. Gradient uploads travel over the
lossy :class:`~repro.comm.Network` as one message per slice (its index
and wire size); a lost slice makes that worker's round an *uncertain
event* (neither positive nor negative for reputation).

Each round the trainer stacks the fully delivered gradients once into a
:class:`~repro.fl.gradients.RoundBatch` (``RoundContext.batch``); server
j's slice matrix is a column block of it. A pluggable mechanism (e.g.
:class:`repro.core.FIFLMechanism`) reads that batch and decides which
workers' gradients enter the aggregate; with no mechanism every
delivered update is accepted (:class:`AcceptAllMechanism`), which is the
undefended baseline of Figures 7, 8 and 10.

Rosters and cohorts
-------------------
The trainer takes a :class:`~repro.population.WorkerPopulation` (wrap a
list of live workers with :meth:`WorkerPopulation.from_workers`)::

    FederatedTrainer(model, pop, server_ranks=[0, 1], ...)
    FederatedTrainer(model, pop, server_ranks=[0, 1],
                     cohort_size=64, sampler="reputation", ...)

One round loop serves both calls; they differ only in each round's
roster. Without a sampler the roster is the whole population,
materialized once — the cross-silo federations of the paper's figures.
With a sampler (a ``cohort_size`` below the population size implies
uniform sampling) every round samples a cohort — server ranks always
included, they produce the detection benchmarks — and materializes only
those workers, so per-round cost is O(cohort), never O(population). A
full uniform cohort reproduces the roster run bit for bit, failed nodes
included. Every round's reputation verdicts are written back into the
population's out-of-core store, where reputation-weighted samplers read
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..comm import Network
from ..datasets import Dataset
from ..nn import Sequential
from ..parallel.backend import ExecutionBackend, make_backend
from ..sim import FaultScenario, SimRoundRunner, Simulator, make_latency
from ..telemetry import get_telemetry, profile_delta
from .evaluation import evaluate
from .fleet_compute import FleetLocalEngine
from .gradients import RoundBatch, fedavg, recombine, slice_bounds
from .workers import Worker, WorkerUpdate

__all__ = [
    "AcceptAllMechanism",
    "RoundContext",
    "RoundDecision",
    "RoundMechanism",
    "RoundRecord",
    "TrainingHistory",
    "FederatedTrainer",
]


def _wire_nbytes(dim: int, num_servers: int) -> tuple[list[int], list[int]]:
    """Per-slice wire sizes of a round's (upload, broadcast) messages: 8 B
    per float64, plus an 8 B slice index on uploads only."""
    if num_servers > dim:
        raise ValueError(f"cannot split {dim} values into {num_servers} slices")
    floats = [hi - lo for lo, hi in slice_bounds(dim, num_servers)]
    return [8 + 8 * f for f in floats], [8 * f for f in floats]


@dataclass
class RoundContext:
    """Everything a mechanism may inspect in one communication round."""

    round_idx: int
    server_ranks: list[int]
    # every fully delivered gradient, one row per worker (ascending ids);
    # server j's delivered slices are the column block batch.server_block(j)
    batch: RoundBatch
    # worker_id -> full local update of every worker that computed one
    # (ground truth, and the servers' own benchmark slices)
    updates: dict[int, WorkerUpdate]
    # workers whose upload was (partly) lost this round: uncertain events
    uncertain: set[int]


@dataclass
class RoundDecision:
    """A mechanism's verdict for one round."""

    # worker_id -> r_i (True = honest/accept, False = reject)
    accept: dict[int, bool]
    # free-form per-round records (scores, reputations, rewards, ...)
    records: dict = field(default_factory=dict)


class RoundMechanism(Protocol):
    """Protocol implemented by FIFL (and ablation mechanisms)."""

    def process_round(self, ctx: RoundContext) -> RoundDecision: ...


class AcceptAllMechanism:
    """Accept every delivered update: the trainer's default and the
    no-defence arm of Figures 7, 8 and 10."""

    def process_round(self, ctx: RoundContext) -> RoundDecision:
        return RoundDecision(
            accept=dict.fromkeys(ctx.batch.worker_ids.tolist(), True)
        )


@dataclass
class RoundRecord:
    """Per-round training telemetry."""

    round_idx: int
    test_loss: float | None
    test_acc: float | None
    accepted: dict[int, bool]
    uncertain: set[int]
    mechanism_records: dict
    grad_norm: float
    #: virtual seconds the round took (0.0 outside fault scenarios)
    duration_s: float = 0.0
    #: simulation detail when running under a FaultScenario: stragglers,
    #: offline ranks, retries, late workers, per-worker wall-clock
    sim: dict | None = None
    #: True when the round produced no usable updates (e.g. every sampled
    #: cohort member was offline) and the global model was left untouched
    skipped: bool = False


@dataclass
class TrainingHistory:
    """Full training trace returned by :meth:`FederatedTrainer.run`."""

    rounds: list[RoundRecord] = field(default_factory=list)
    # per-phase wall-clock/counters for this run (see repro.telemetry):
    # {"timings": {phase: {"seconds", "calls"}}, "counters": {...}}
    profile: dict = field(default_factory=dict)
    # ResourceProbe summary for this run when a probe was attached
    # (see repro.perf.resources): rss start/peak/growth, GC pauses, ...
    resources: dict = field(default_factory=dict)

    def series(self, key: str) -> list:
        """Extract one telemetry field across rounds (None entries kept)."""
        return [getattr(r, key) for r in self.rounds]

    def final_accuracy(self) -> float | None:
        """Last recorded test accuracy."""
        for r in reversed(self.rounds):
            if r.test_acc is not None:
                return r.test_acc
        return None


class FederatedTrainer:
    """Drives synchronous federated rounds over a lossy network."""

    def __init__(
        self,
        model: Sequential,
        population,
        server_ranks: list[int] | None = None,
        test_data: Dataset | None = None,
        mechanism: RoundMechanism | None = None,
        server_lr: float | object = 0.1,
        drop_prob: float = 0.0,
        seed: int = 0,
        reselect_every: int = 0,
        local_engine: str = "fleet",
        scenario: FaultScenario | None = None,
        monitor=None,
        probe=None,
        *,
        cohort_size: int | None = None,
        sampler=None,
        fleet_shard_size: int | None = None,
        backend: str | ExecutionBackend = "serial",
        max_workers: int | None = None,
    ):
        # Break the repro.population -> repro.fl.workers -> repro.fl import
        # cycle: the population package imports worker classes at module
        # level, so the trainer must reach back lazily.
        from ..population import WorkerPopulation, make_sampler

        if not isinstance(population, WorkerPopulation):
            raise TypeError(
                f"population must be a WorkerPopulation, got "
                f"{type(population).__name__}; wrap a list of workers with "
                f"WorkerPopulation.from_workers(workers)"
            )
        self.population = population
        self.num_workers = population.size
        if server_ranks is None:
            raise ValueError("server_ranks is required")
        self.server_ranks = sorted(set(server_ranks))
        if not self.server_ranks:
            raise ValueError("need at least one server rank")
        bad = [r for r in self.server_ranks if not 0 <= r < self.num_workers]
        if bad:
            raise ValueError(
                f"server ranks {bad} outside [0, {self.num_workers}) (S ⊂ W)"
            )
        # Checked here: an oversized cohort would otherwise surface as a
        # cryptic sampler IndexError deep inside the first round.
        if cohort_size is None:
            cohort_size = population.size
        if cohort_size <= 0:
            raise ValueError("cohort_size must be positive")
        if cohort_size > population.size:
            raise ValueError(
                f"cohort_size {cohort_size} exceeds population size "
                f"{population.size}"
            )
        if isinstance(sampler, str):
            sampler = make_sampler(sampler, seed=seed)
        elif sampler is None and cohort_size < population.size:
            sampler = make_sampler("uniform", seed=seed)
        if sampler is not None and scenario is not None:
            raise ValueError(
                "cohort sampling and FaultScenario are mutually "
                "exclusive; model device availability/churn on the "
                "WorkerPopulation instead"
            )
        # The round's roster: a sampled cohort when there is a sampler,
        # otherwise the whole population, materialized once here.
        self.sampler = sampler
        self.cohort_size = cohort_size
        self.workers: list[Worker] = (
            population.checkout(range(population.size)) if sampler is None else []
        )
        # server_lr may be a constant or a schedule (callable round -> lr)
        if callable(server_lr):
            self._lr_schedule = server_lr
        else:
            if server_lr <= 0:
                raise ValueError("server_lr must be positive")
            self._lr_schedule = None
        if reselect_every < 0:
            raise ValueError("reselect_every must be non-negative")
        self.model = model
        self.fleet_shard_size = fleet_shard_size
        self.test_data = test_data
        self.mechanism: RoundMechanism = (
            mechanism if mechanism is not None else AcceptAllMechanism()
        )
        self.server_lr = server_lr if not callable(server_lr) else None
        self.seed = seed
        # A FaultScenario moves the upload/collection phase onto the
        # discrete-event kernel: the network delivers through the
        # simulator's virtual clock and the round closes on a deadline.
        self.scenario = scenario
        self._sim_runner: SimRoundRunner | None = None
        if scenario is not None:
            sim = Simulator(seed=(seed, scenario.seed, 0x51D))
            self.network = Network(
                self.num_workers,
                drop_prob=drop_prob,
                seed=seed,
                latency=make_latency(scenario.latency),
                sim=sim,
            )
        else:
            self.network = Network(self.num_workers, drop_prob=drop_prob, seed=seed)
        # S4.5: re-form the server cluster from the highest-reputation
        # workers every ``reselect_every`` rounds (0 = static cluster).
        # Requires a mechanism exposing ``recommend_servers(m)``.
        self.reselect_every = reselect_every
        if reselect_every and not hasattr(self.mechanism, "recommend_servers"):
            raise ValueError(
                "reselect_every needs a mechanism with recommend_servers()"
            )
        self._failed: set[int] = set()
        self.profiler = get_telemetry()
        # Local-compute engine: "fleet" batches all homogeneous workers'
        # local SGD into stacked kernels (repro.fl.fleet_compute);
        # "scalar" keeps the per-worker reference loop. The two agree to
        # <= 1e-8 (differential-tested), so fleet is the default.
        if local_engine not in ("fleet", "scalar"):
            raise ValueError(
                f"local_engine must be 'fleet' or 'scalar', got {local_engine!r}"
            )
        self.local_engine = local_engine
        # Execution backend: the one pool of a run, owned by the trainer
        # and shared by the fleet engine's local-SGD shards and — when the
        # mechanism advertises attach_backend() — the round kernels' row
        # shards. "serial" is the differential oracle and the default.
        self.backend = make_backend(backend, max_workers)
        if hasattr(self.mechanism, "attach_backend"):
            self.mechanism.attach_backend(self.backend)
        self._fleet: FleetLocalEngine | None = None
        self._fleet_key: tuple[int, ...] | None = None
        if scenario is not None:
            self._sim_runner = SimRoundRunner(self, scenario)
        # Optional repro.monitor.Monitor: installed as a telemetry sink
        # for the duration of run(), with a flush after every round so
        # invariants are checked at round granularity, and a post-mortem
        # dump if training raises. The monitor never emits into the hub,
        # so attaching it does not change the trace.
        self.monitor = monitor
        # Optional repro.perf.ResourceProbe, sampled at round boundaries
        # during run(). Samples live on a side stream (forwarded to the
        # monitor via observe_resource, never emitted into the hub), so a
        # probed run's seeded trace stays byte-identical.
        self.probe = probe

    @property
    def num_servers(self) -> int:
        return len(self.server_ranks)

    def fail_node(self, rank: int) -> None:
        """Simulate a device crash: the node stops computing and all of
        its links go dark (S3.2's fault-tolerance discussion).

        A failed plain worker just disappears from the federation. A
        failed *server* silently loses every slice addressed to it, which
        stalls aggregation in a static cluster — the paper's
        "decentralized architecture lacks fault tolerance" scenario —
        unless re-selection replaces it. Once every server has failed,
        rounds are recorded as skipped.
        """
        if not 0 <= rank < self.num_workers:
            raise ValueError(f"rank {rank} outside [0, {self.num_workers})")
        self._failed.add(rank)
        self.network.fail_node(rank)

    @property
    def failed_nodes(self) -> set[int]:
        return set(self._failed)

    def node_comm_load(self) -> dict[int, int]:
        """Bytes moved through each node (sent + received) so far, by rank.

        Nodes that never moved a byte are absent. The max over nodes is
        the deployment bottleneck S3.2 discusses: one central server
        carries O(N·P) per round, M polycentric servers carry O(N·P/M)
        each, and fully decentralized nodes carry O(P) regardless of N.
        """
        load: dict[int, int] = {}
        for (src, dst), nbytes in self.network.bytes_sent.items():
            load[src] = load.get(src, 0) + nbytes
            load[dst] = load.get(dst, 0) + nbytes
        return dict(sorted(load.items()))

    def _round_lr(self, round_idx: int) -> float:
        """The server learning rate for this round (constant or scheduled)."""
        if self._lr_schedule is not None:
            lr = float(self._lr_schedule(round_idx))
            if lr <= 0:
                raise ValueError(f"schedule produced non-positive lr {lr}")
            return lr
        return self.server_lr

    # -- the round's roster ---------------------------------------------------

    def _roster(self, round_idx: int) -> list[Worker]:
        """This round's workers: the whole population or a sampled cohort."""
        if self.sampler is None:
            return self.workers
        with self.profiler.phase("trainer.cohort"):
            return self._select_cohort(round_idx)

    def _select_cohort(self, round_idx: int) -> list[Worker]:
        """Sample, availability-filter and materialize this round's cohort.

        Server ranks are pinned into every cohort (they produce the
        detection benchmarks ``g_j^j``); they skip the per-round
        availability draw but still respect churn. Failed nodes stay in
        the cohort exactly as they stay in the full roster: the round
        loop keeps them out of local compute and their links are dark.
        """
        prof = self.profiler
        pop = self.population
        pop.begin_round(round_idx)
        sampled = self.sampler.sample(
            round_idx, pop, self.cohort_size, required=self.server_ranks
        )
        required = set(self.server_ranks)
        live: list[int] = []
        for wid in sampled:
            wid = int(wid)
            if wid in required:
                if pop.is_live(wid):
                    live.append(wid)
            elif pop.is_available(wid, round_idx):
                live.append(wid)
        cohort = pop.checkout(live, round_idx=round_idx)
        coverage = pop.coverage()
        prof.count("trainer.cohort_workers", len(live))
        prof.gauge("population.cohort_live", len(live))
        prof.gauge("population.coverage", coverage)
        prof.event(
            "population.cohort",
            {
                "round": round_idx,
                "population_size": pop.size,
                "cohort_target": self.cohort_size,
                "sampled": int(len(sampled)),
                "live": len(live),
                "offline": int(len(sampled)) - len(live),
                "coverage": coverage,
            },
        )
        return cohort

    def _fleet_for(self, workers: list[Worker]) -> FleetLocalEngine:
        """The fleet engine for this round's worker set (rebuilt on change)."""
        key = tuple(w.worker_id for w in workers)
        if self._fleet is None or self._fleet_key != key:
            self._fleet = FleetLocalEngine(
                workers,
                profiler=self.profiler,
                shard_size=self.fleet_shard_size,
                backend=self.backend,
            )
            self._fleet_key = key
        return self._fleet

    def _skipped_round(self, round_idx: int, reason: str) -> RoundRecord:
        """Record a round that produced no usable updates (model untouched)."""
        prof = self.profiler
        prof.count("trainer.skipped_rounds")
        prof.event(
            "trainer.skipped_round", {"round": round_idx, "reason": reason}
        )
        test_loss = test_acc = None
        if self.test_data is not None:
            with prof.phase("trainer.evaluate"):
                test_loss, test_acc = evaluate(self.model, self.test_data)
        return RoundRecord(
            round_idx=round_idx,
            test_loss=test_loss,
            test_acc=test_acc,
            accepted={},
            uncertain=set(),
            mechanism_records={"skipped": reason},
            grad_norm=0.0,
            skipped=True,
        )

    # -- one communication round ----------------------------------------------

    def run_round(self, round_idx: int) -> RoundRecord:
        """Execute one synchronous round and update the global model."""
        with self.profiler.span("trainer.round", kind="round", round=round_idx):
            return self._run_round(round_idx)

    def _run_round(self, round_idx: int) -> RoundRecord:
        prof = self.profiler
        plan = None
        if self._sim_runner is not None:
            # Fault scenario: apply churn/partitions and draw this
            # round's compute-time plan before anyone trains.
            plan = self._sim_runner.begin_round(round_idx)
        exclude = (
            self._failed if plan is None else self._failed | set(plan.offline)
        )
        roster = self._roster(round_idx)
        if not roster:
            return self._skipped_round(round_idx, "empty cohort")
        servers = set(self.server_ranks)
        if not any(
            w.worker_id in servers for w in roster if w.worker_id not in self._failed
        ):
            return self._skipped_round(round_idx, "no live server")
        theta = self.model.get_flat_params()
        global_buffers = self.model.get_flat_buffers()
        with prof.phase("trainer.local_compute"):
            if self.local_engine == "fleet":
                updates = self._fleet_for(roster).compute_updates(
                    theta, global_buffers, exclude=exclude
                )
            else:
                updates = {
                    w.worker_id: w.compute_update(theta, global_buffers)
                    for w in roster
                    if w.worker_id not in exclude
                }
        sim_info = None
        with prof.phase("trainer.upload"):
            # Step 1.3: every worker sends slice j of its gradient to
            # server j — a message of the slice index and its wire size;
            # servers read the delivered slices from the stacked batch.
            # Collection yields the (workers, servers) delivery mask.
            wids = list(updates)
            up_nbytes, down_nbytes = _wire_nbytes(theta.size, self.num_servers)
            tag = f"slice:{round_idx}"
            if self._sim_runner is not None:
                mask, sim_info = self._sim_runner.collect(
                    wids, up_nbytes, round_idx, plan
                )
            else:
                mask = self.network.exchange(wids, self.server_ranks, tag, up_nbytes)
            # Collection is over: close the uplink tag so late slices (sim
            # path) are discarded and no emptied queue outlives the round.
            self.network.cancel_tag(tag)
            # Any lost slice makes the round unidentifiable for that
            # worker: an SLM uncertain event, excluded from aggregation.
            # The fully delivered gradients are stacked once, here.
            complete = mask.all(axis=1)
            uncertain = {wid for wid, ok in zip(wids, complete) if not ok}
            batch = RoundBatch.stack(
                (updates[wid] for wid, ok in zip(wids, complete) if ok),
                self.server_ranks,
                theta.size,
            )
        prof.count("trainer.rounds")
        prof.count("trainer.uncertain_workers", len(uncertain))

        ctx = RoundContext(
            round_idx=round_idx,
            server_ranks=list(self.server_ranks),
            batch=batch,
            updates=updates,
            uncertain=uncertain,
        )
        with prof.phase("trainer.mechanism"):
            decision = self.mechanism.process_round(ctx)
        # Round verdicts flow back into the population's out-of-core
        # reputation store, where reputation-weighted samplers (and the
        # next session's analyses) read them.
        reps = decision.records.get("reputations")
        if reps:
            self.population.write_reputations(reps)

        keep = batch.mask(decision.accept)
        grad_norm = 0.0
        if keep.any():
            # Servers aggregate their slice over accepted workers (step 2.2),
            # then slices recombine into the global gradient (step 1.5).
            # Each server averages a C-contiguous copy of the accepted
            # rows of its column block.
            with prof.phase("trainer.aggregate"):
                weights = batch.sample_counts[keep]
                agg_slices = []
                for j, srv in enumerate(self.server_ranks):
                    with prof.span(
                        "trainer.server_slice", kind="slice", server=srv
                    ):
                        agg_slices.append(
                            fedavg(batch.server_block(j)[keep], weights)
                        )
                global_grad = recombine(agg_slices)
            grad_norm = float(np.linalg.norm(global_grad))
            prof.gauge("trainer.grad_norm", grad_norm)
            lr = self._round_lr(round_idx)
            self.model.set_flat_params(theta - lr * global_grad)
            # Step 1.4: servers broadcast their global slice to every
            # worker of the roster. The trainer holds the global model
            # authoritatively, so this pass exists for protocol fidelity —
            # byte accounting and drop statistics per link (the per-node
            # communication load is what S3.2's scalability argument is
            # about).
            tag = f"global:{round_idx}"
            self.network.broadcast(
                self.server_ranks, down_nbytes, [w.worker_id for w in roster], tag
            )
            # Nobody receives the broadcast: close its tag so its
            # O(N·M) messages are not left in flight for anyone.
            self.network.cancel_tag(tag)
            # FedAvg-BN: average accepted workers' running statistics into
            # the global model so evaluation normalizes with live stats.
            with_buffers = [
                updates[w]
                for w in batch.worker_ids[keep].tolist()
                if updates[w].buffers is not None
            ]
            if with_buffers and self.model.num_buffer_values:
                self.model.set_flat_buffers(
                    fedavg(
                        [u.buffers for u in with_buffers],
                        [u.num_samples for u in with_buffers],
                    )
                )

        test_loss = test_acc = None
        if self.test_data is not None:
            with prof.phase("trainer.evaluate"):
                test_loss, test_acc = evaluate(self.model, self.test_data)

        return RoundRecord(
            round_idx=round_idx,
            test_loss=test_loss,
            test_acc=test_acc,
            accepted={w: decision.accept.get(w, False) for w in sorted(updates)},
            uncertain=uncertain,
            mechanism_records=decision.records,
            grad_norm=grad_norm,
            duration_s=sim_info["duration_s"] if sim_info else 0.0,
            sim=sim_info,
        )

    def run(self, num_rounds: int, eval_every: int = 1) -> TrainingHistory:
        """Run ``num_rounds`` rounds; evaluate every ``eval_every`` rounds."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if eval_every <= 0:
            raise ValueError("eval_every must be positive")
        history = TrainingHistory()
        saved_test = self.test_data
        before = self.profiler.snapshot()
        monitor = self.monitor
        probe = self.probe
        if monitor is not None:
            # drain events deferred before this run so the monitor only
            # sees (and attributes alerts to) this training run's stream
            self.profiler.flush()
            monitor.install(self.profiler)
        try:
            with self.profiler.span(
                "trainer.run",
                kind="run",
                rounds=num_rounds,
                workers=self.num_workers,
                servers=self.num_servers,
            ):
                for t in range(num_rounds):
                    # Skip expensive evaluation on non-reporting rounds.
                    self.test_data = saved_test if (t % eval_every == 0 or t == num_rounds - 1) else None
                    history.rounds.append(self.run_round(t))
                    if monitor is not None:
                        # Materialize this round's deferred events so the
                        # watchdog sees them before the next round starts
                        # (strict mode raises MonitorError from here).
                        self.profiler.flush()
                    if probe is not None:
                        # Round-boundary resource sample; forwarded to the
                        # monitor on the side stream so the leak/gc-pause
                        # watchdogs see it without touching the trace.
                        sample = probe.sample(t)
                        if sample is not None and monitor is not None:
                            monitor.observe_resource(sample)
                    if self.reselect_every and (t + 1) % self.reselect_every == 0:
                        self._reselect_servers()
        except BaseException as exc:
            if monitor is not None:
                # Crash path: capture the flight-recorder ring. A strict
                # monitor may raise again during this flush — the alert
                # is already recorded, the original exception wins.
                from ..monitor.alerts import MonitorError

                try:
                    self.profiler.flush()
                except MonitorError:
                    pass
                from ..parallel.backend import backend_summary

                monitor.dump_postmortem(
                    f"exception: {type(exc).__name__}",
                    context={"backend": backend_summary(self.backend)},
                )
            raise
        finally:
            # An exception mid-run must not leave the eval-toggling hack
            # permanently stuck with test_data=None.
            self.test_data = saved_test
            if monitor is not None:
                monitor.uninstall()
        # Per-run phase timings: the delta against whatever the (shared)
        # profiler had already accumulated before this run started.
        history.profile = profile_delta(before, self.profiler.snapshot())
        if probe is not None:
            history.resources = probe.summary()
        return history

    def _reselect_servers(self) -> None:
        """S4.5: replace the cluster with the top-reputation workers."""
        try:
            new_ranks = self.mechanism.recommend_servers(  # type: ignore[attr-defined]
                self.num_servers, exclude=self._failed
            )
        except RuntimeError:
            return  # not enough reputations tracked; keep the cluster
        self.server_ranks = sorted(set(new_ranks))
