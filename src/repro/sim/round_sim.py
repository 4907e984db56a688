"""Event-scheduled round execution for the federated trainer.

:class:`SimRoundRunner` owns the trainer's :class:`~repro.sim.Simulator`
and drives one communication round on the virtual clock:

1. **round start** — apply the scenario's churn schedule (join/leave,
   which is also worker/server crash + restart), install this round's
   link partitions, black out offline nodes' links, and draw the
   round's stragglers from the simulator's seeded stream;
2. **upload** — each online worker becomes a process-style actor that
   fires at ``t0 + compute_time`` and sends its M slice messages (an
   index and a wire size each); a dropped send is retried up to
   ``max_retries`` times with exponential backoff; each successful send
   arrives after its sampled latency;
3. **collection** — the round routes its uplink tag to a collector
   (:meth:`~repro.comm.Network.route`): every slice that lands is pushed
   into the round's ``(workers, servers)`` delivery mask by
   ``_RoundState.arrive``, and the worker's resolve time becomes its
   arrival time. The server cluster runs event
   batches until every slice has resolved (delivered or abandoned) or
   the next event lies past the deadline ``t0 + round_timeout_s``. The
   mask is the same one the direct path gets from
   :meth:`~repro.comm.Network.exchange`; the trainer turns it into the
   round's :class:`~repro.fl.gradients.RoundBatch`. Late or missing
   slices make that worker's round an *uncertain event* — exactly the
   reputation path instantaneous drops already take (S4.2), so SLM
   reputation and rewards respond to realistic failures with no
   mechanism changes.

A round with no latency, retries or compute delay needs no events: it
runs the direct path's own synchronous exchange, so the zero-fault
scenario makes exactly the same RNG draws in exactly the same order as
the direct loop. Rounds that do use the event heap still send in that
order; both are differential-tested to reproduce ``FederatedTrainer``
histories bit-for-bit, and benchmarked to stay within 5% of the direct
loop (``benchmarks/bench_sim.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .faults import FaultScenario
from .kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..fl.trainer import FederatedTrainer

__all__ = ["SimRoundRunner"]

#: bucket edges (virtual seconds) for the sim.latency histogram
_LATENCY_EDGES = (
    0.0, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 60.0,
)


@dataclass
class _RoundState:
    """Per-round collection state shared with upload actors.

    ``delivered`` and ``abandoned`` are indexed ``[worker rank, slice]``;
    ``resolved`` counts the slices that are one or the other.
    """

    tag: str
    sim: Simulator
    delivered: np.ndarray
    abandoned: np.ndarray
    closed: bool = False
    retries: int = 0
    resolved: int = 0
    #: worker rank -> virtual time its last slice arrived
    resolve_at: dict[int, float] = field(default_factory=dict)

    def arrive(self, src: int, dst: int, j: int) -> None:
        """Collector hook: slice ``j`` of worker ``src`` landed."""
        self.delivered[src, j] = True
        self.resolve_at[src] = self.sim.now
        self.resolved += 1


@dataclass(frozen=True)
class _RoundPlan:
    """What :meth:`SimRoundRunner.begin_round` decided for one round."""

    offline: frozenset[int]
    stragglers: tuple[int, ...]
    compute_s: dict[int, float]


class SimRoundRunner:
    """Drives fault-scenario rounds for one :class:`FederatedTrainer`."""

    def __init__(self, trainer: "FederatedTrainer", scenario: FaultScenario):
        self.trainer = trainer
        self.scenario = scenario
        # The network schedules its deliveries on the same simulator the
        # runner drives — one event heap for the whole round. Its seeded
        # rng feeds the fault processes (stragglers, compute-time models),
        # independent of the network's drop and latency streams, so
        # adding faults never reshuffles other randomness.
        self.sim: Simulator = trainer.network.sim
        self.offline: set[int] = set()
        # A null scenario with no per-worker compute models yields the
        # same (empty) plan every round — skip the per-round planning.
        self._static_plan: _RoundPlan | None = None
        if scenario.is_null and all(
            getattr(w, "compute_time", None) is None for w in trainer.workers
        ):
            self._static_plan = _RoundPlan(
                offline=frozenset(), stragglers=(), compute_s={}
            )
        trainer.profiler.register_histogram("sim.latency", _LATENCY_EDGES)

    # -- round boundary --------------------------------------------------------

    def begin_round(self, round_idx: int) -> _RoundPlan:
        """Apply churn/partitions and draw this round's timing plan."""
        if self._static_plan is not None:
            return self._static_plan
        scenario = self.scenario
        trainer = self.trainer
        for wid, action in scenario.churn_at(round_idx):
            if not 0 <= wid < trainer.num_workers:
                raise ValueError(f"churn rank {wid} outside the federation")
            if action == "leave":
                self.offline.add(wid)
            else:
                self.offline.discard(wid)
        blocked = scenario.partition_links(round_idx, trainer.num_workers)
        for off in self.offline:
            for other in range(trainer.num_workers):
                blocked.add((off, other))
                blocked.add((other, off))
        trainer.network.set_blocked_links(blocked)

        rng = self.sim.rng
        rate = scenario.straggler_rate
        stragglers: list[int] = []
        compute_s: dict[int, float] = {}
        for wid in range(trainer.num_workers):
            if wid in trainer._failed or wid in self.offline:
                continue
            worker = trainer.workers[wid]
            base = worker.local_compute_seconds(round_idx, rng)
            if base is None:
                base = scenario.base_compute_s
            if rate > 0.0 and rng.random() < rate:
                base *= scenario.straggler_slowdown
                stragglers.append(wid)
            compute_s[wid] = float(base)
        return _RoundPlan(
            offline=frozenset(self.offline),
            stragglers=tuple(stragglers),
            compute_s=compute_s,
        )

    # -- upload + collection ---------------------------------------------------

    def _upload_proc(
        self,
        wid: int,
        part_nbytes: list[int],
        servers: list[int],
        state: _RoundState,
    ):
        """Actor: send every slice, retrying dropped sends with backoff."""
        net = self.trainer.network
        scenario = self.scenario
        pending = list(range(len(servers)))
        attempt = 0
        while True:
            accepted = net.send_many(
                [wid] * len(pending),
                [servers[j] for j in pending],
                state.tag,
                pending,
                [part_nbytes[j] for j in pending],
            )
            failed = [j for j, ok in zip(pending, accepted.tolist()) if not ok]
            if not failed:
                return
            if attempt >= scenario.max_retries:
                state.abandoned[wid, failed] = True
                state.resolved += len(failed)
                return
            yield scenario.retry_delay(attempt)
            attempt += 1
            if state.closed:
                return  # the round deadline passed while backing off
            state.retries += len(failed)
            pending = failed

    def collect(
        self,
        worker_ids: list[int],
        part_nbytes: list[int],
        round_idx: int,
        plan: _RoundPlan,
    ) -> tuple[np.ndarray, dict]:
        """Run the round's upload/collection on the virtual clock.

        Each of ``worker_ids`` sends slice ``j`` (``part_nbytes[j]`` on the
        wire) to server ``j``, in the same order the direct path would
        send — with zero faults the event schedule replays exactly that
        order, draw for draw. Returns the ``(len(worker_ids),
        num_servers)`` delivery mask and the round's sim detail.
        """
        sim = self.sim
        trainer = self.trainer
        net = trainer.network
        scenario = self.scenario
        servers = list(trainer.server_ranks)
        t0 = sim.now
        tag = f"slice:{round_idx}"
        deadline = (
            t0 + scenario.round_timeout_s
            if scenario.round_timeout_s is not None
            else None
        )

        # Degenerate rounds — no latency, no retries, no compute delay,
        # nothing already in flight — need no events at all: every send
        # resolves at t0, in exactly the order the actors would fire, so
        # the direct path's synchronous exchange replays them (see
        # benchmarks/bench_sim.py for the budget this keeps).
        if (
            scenario.max_retries == 0
            and net.latency is None
            and sim.idle()
            and all(v == 0.0 for v in plan.compute_s.values())
        ):
            return self._collect_fast(worker_ids, part_nbytes, tag, plan)

        shape = (trainer.num_workers, len(servers))
        state = _RoundState(
            tag=tag,
            sim=sim,
            delivered=np.zeros(shape, dtype=bool),
            abandoned=np.zeros(shape, dtype=bool),
        )
        for wid in worker_ids:
            sim.spawn(
                self._upload_proc(wid, part_nbytes, servers, state),
                delay=plan.compute_s.get(wid, 0.0),
            )

        # Arrivals push themselves into the state; the cluster only runs
        # event batches until every slice resolved or the deadline cuts.
        total = len(worker_ids) * len(servers)
        net.route(tag, state.arrive)
        try:
            while state.resolved < total:
                t_next = sim.peek()
                if t_next is None:
                    break  # nothing in flight: the rest will never arrive
                if deadline is not None and t_next > deadline:
                    break  # deadline cut: whatever is left is late
                sim.run_batch()
        finally:
            net.route(tag, None)
        state.closed = True

        mask = state.delivered[worker_ids]
        late = ~(mask | state.abandoned[worker_ids]).all(axis=1)
        if deadline is not None and late.any():
            sim.advance_to(deadline)
        duration = sim.now - t0
        uncertain = [
            wid for wid, ok in zip(worker_ids, mask.all(axis=1)) if not ok
        ]

        sim_info = {
            "t_start_s": t0,
            "duration_s": duration,
            "stragglers": list(plan.stragglers),
            "offline": sorted(plan.offline),
            "retries": state.retries,
            "late": sorted(wid for wid, cut in zip(worker_ids, late) if cut),
            "worker_time_s": {
                wid: state.resolve_at[wid] - t0 for wid in sorted(state.resolve_at)
            },
        }
        self._emit_round_telemetry(round_idx, sim_info, uncertain)
        return mask, sim_info

    def _collect_fast(
        self,
        worker_ids: list[int],
        part_nbytes: list[int],
        tag: str,
        plan: _RoundPlan,
    ) -> tuple[np.ndarray, dict]:
        """Synchronous replay of a zero-delay round.

        Every slice is sent and received at ``t0`` in the same order the
        upload actors would fire, making the same drop draws — identical
        results to :meth:`collect`, minus the event heap. Per-round sim
        telemetry is skipped too: a degenerate round has nothing to
        report (zero duration, no faults), and the ``comm.*`` counters
        still account every byte and drop.
        """
        trainer = self.trainer
        t0 = self.sim.now
        mask = trainer.network.exchange(
            worker_ids, trainer.server_ranks, tag, part_nbytes
        )
        resolved = [wid for wid, any_ in zip(worker_ids, mask.any(axis=1)) if any_]
        sim_info = {
            "t_start_s": t0,
            "duration_s": 0.0,
            "stragglers": list(plan.stragglers),
            "offline": sorted(plan.offline),
            "retries": 0,
            "late": [],
            "worker_time_s": {wid: 0.0 for wid in sorted(resolved)},
        }
        return mask, sim_info

    # -- telemetry -------------------------------------------------------------

    def _emit_round_telemetry(
        self, round_idx: int, sim_info: dict, uncertain: list[int]
    ) -> None:
        tele = self.trainer.profiler
        if not tele.enabled:
            return
        if sim_info["stragglers"]:
            tele.count("sim.stragglers", len(sim_info["stragglers"]))
        if sim_info["retries"]:
            tele.count("sim.retries", sim_info["retries"])
        if sim_info["late"]:
            tele.count("sim.late_workers", len(sim_info["late"]))
        if sim_info["offline"]:
            tele.count("sim.offline_worker_rounds", len(sim_info["offline"]))
        tele.gauge("sim.round_duration_s", sim_info["duration_s"])
        # Cumulative comm counters ride along so the monitor's
        # byte-accounting invariant can audit the network per round:
        # delivered + dropped never exceeds attempts, and every counter
        # is monotone across the trace.
        net = self.trainer.network
        tele.event(
            "sim.round",
            {
                "round": round_idx,
                "duration_s": sim_info["duration_s"],
                "stragglers": sim_info["stragglers"],
                "offline": sim_info["offline"],
                "retries": sim_info["retries"],
                "late": sim_info["late"],
                "uncertain": sorted(int(w) for w in uncertain),
                "comm": {
                    "messages_sent": net.messages_sent,
                    "delivered": net.messages_delivered,
                    "dropped": len(net.drop_log.drops),
                    "bytes_sent": net.total_bytes(),
                },
            },
        )

