"""The four benchmark workloads: how each one builds and runs an episode.

An *episode* is one fresh federation run for a fixed number of rounds.
The first ``warmup`` rounds of every episode are untimed; the rest are
timed as the interval between consecutive round completions, which the
benchmark observes through the program's public ``probe=`` hook (called
once per completed round by both ``FederatedTrainer.run`` and
``FederationService.run``). Episodes repeat with the same seed, so
every episode of a run does identical work and must produce the same
history digest.

Every input derives from the benchmark seed. Nothing here touches
trainer internals or closes network tags: the trainer-driven workloads
run exactly as an experiment would, including the undelivered downlink
broadcasts that ``FederatedTrainer.run`` leaves queued.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from calib import KERNELS, SETUP_CALIB_RUNS, kernel_seconds, median_seconds
from repro.core import make_mechanism
from repro.experiments import fig07_attack_damage
from repro.experiments.common import FedExpConfig, build_population, sign_flip
from repro.fl.trainer import FederatedTrainer
from repro.monitor import Monitor, MonitorConfig
from repro.perf.resources import ResourceProbe
from repro.service import FederationService, ServiceConfig
from repro.service.replay import ReplayConfig, generate_workload
from repro.service.snapshot import history_digest, latest_snapshot, load_snapshot
from repro.telemetry import (
    MemorySink,
    Telemetry,
    get_telemetry,
    profile_delta,
    set_telemetry,
)

__all__ = ["WORKLOADS", "Workload", "Episode", "RoundClock"]


class RoundClock:
    """Probe that timestamps round completions across every episode.

    The machine's speed is not constant: on a shared 2-core box other
    tenants slow this process by up to ~1.8x for seconds at a time. So
    at every round boundary a calibration kernel (see :mod:`calib`) is
    timed, outside the rounds. A round's *calibrated* time is its wall
    time scaled by the kernel's reference time over the mean of the
    kernel times at the round's two boundaries: milliseconds on a quiet
    core.

    ``on_round`` (optional) runs after the timestamp, for per-round
    output checks; ``inner`` is a program probe (e.g.
    :class:`ResourceProbe`) whose samples are passed through, so a
    monitor still sees them. Neither counts toward a round's time.
    """

    def __init__(self, warmup: int, kernel: str, tracer=None):
        self.warmup = warmup
        self.kernel = kernel
        self.reference = KERNELS[kernel][1]
        self.tracer = tracer
        #: wall seconds of each timed round
        self.intervals: list[float] = []
        #: calibrated seconds of each timed round
        self.scaled: list[float] = []
        #: kernel seconds at every round boundary
        self.calib: list[float] = []
        #: interpreter-kernel seconds right after the first warm-up
        self.setup_calib: float | None = None
        #: monotonic time the first episode's round 0 started (build done)
        self.started_at: float | None = None
        #: monotonic time the first episode's warm-up rounds completed
        self.warmup_done_at: float | None = None
        self.inner = None
        self.on_round = None
        self._rounds = 0
        self._last = 0.0
        self._prev_cal = 0.0

    def _set_round(self, next_round: int) -> None:
        # spans belong to the timed round they start in; build, warm-up
        # and whatever follows an episode's last round are untimed (-1)
        if self.tracer is not None:
            timed = self.warmup <= next_round < self._rounds
            self.tracer.round_id = len(self.intervals) if timed else -1

    def start(self, rounds: int, inner=None, on_round=None) -> None:
        """Arm the clock for a new episode of ``rounds`` rounds (round 0
        starts now)."""
        self.inner = inner
        self.on_round = on_round
        self._rounds = rounds
        self._set_round(0)
        if self.started_at is None:
            self.started_at = time.monotonic()
        self._prev_cal = kernel_seconds(self.kernel)
        self._last = time.perf_counter()

    def sample(self, t: int):
        now = time.perf_counter()
        wall = now - self._last
        cal = kernel_seconds(self.kernel)
        self.calib.append(cal)
        if t >= self.warmup:
            self.intervals.append(wall)
            self.scaled.append(wall * self.reference * 2.0 / (self._prev_cal + cal))
        elif t == self.warmup - 1 and self.warmup_done_at is None:
            self.warmup_done_at = time.monotonic()
            self.setup_calib = median_seconds("interp", SETUP_CALIB_RUNS)
        self._prev_cal = cal
        self._set_round(t + 1)
        if self.on_round is not None:
            self.on_round(t)
        result = self.inner.sample(t) if self.inner is not None else None
        self._last = time.perf_counter()
        return result

    def summary(self) -> dict:
        return self.inner.summary() if self.inner is not None else {}


@dataclass
class Episode:
    """What one episode produced (everything the checks and metrics need)."""

    records: list
    digest: str
    node_load_max_bytes: int
    #: the program's own phase table for the episode
    profile: dict
    #: network counters at the end of the episode (see :func:`_comm_stats`)
    comm: dict
    #: hub events emitted during the episode
    events: int
    #: per-round check failures (round index -> reason)
    failures: dict
    #: service episodes: why the newest snapshot failed to load (None =
    #: it loaded) and its size in kB
    snapshot_error: str | None = None
    snapshot_kb: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.records)

    def losses(self) -> list[float]:
        return [float(r.test_loss) for r in self.records if r.test_loss is not None]


def _comm_stats(net, records, server_ranks, count_queued: bool) -> dict:
    """Message counters of one episode's ``Network`` (public API only).

    ``queued`` (undelivered messages left on the links) is read with
    ``Network.pending`` over every round tag and worker-server link the
    episode used; it is only counted when asked, as it costs one call
    per link and round.
    """
    stats = {
        "sent": net.messages_sent,
        "delivered": net.messages_delivered,
        "bytes": net.total_bytes(),
        "queued": 0,
    }
    if count_queued:
        for rec in records:
            up, down = f"slice:{rec.round_idx}", f"global:{rec.round_idx}"
            for wid in set(rec.accepted) | set(rec.uncertain):
                for srv in server_ranks:
                    if wid != srv:
                        stats["queued"] += net.pending(wid, srv, down)
                    stats["queued"] += net.pending(srv, wid, up)
    return stats


def broadcast_bytes_per_round(n: int, m: int, d: int, accepted: bool) -> int:
    """Bytes a drop-free round adds to ``Network.total_bytes()``.

    Uplink: n workers each send m slices (8 B per float, plus an 8 B
    slice index per message). Downlink: each server sends its slice to
    the n - 1 other cohort members, which sums to (n - 1)·d floats; it
    only happens when at least one update was accepted.
    """
    up = n * d * 8 + n * m * 8
    down = (n - 1) * d * 8 if accepted else 0
    return up + down


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its shape, the reason for it, and how to run it."""

    name: str
    why: str
    shape: str
    #: builds the federation's config (fed + attackers) from the seed
    config: Callable[[int], ServiceConfig]
    #: True: driven by FederationService.run; False: FederatedTrainer.run
    service: bool
    #: True when the network drops nothing (the byte formula applies)
    drop_free: bool
    #: calibration kernel matching the workload's work mix (see calib)
    kernel: str
    #: nominal wall seconds of one episode on a 2-core box; --seconds
    #: divided by this fixes the episode count, so the number of timed
    #: rounds (and the tail percentile) never depends on speed
    episode_s: float
    #: untimed rounds at the start of every episode
    warmup: int = 2
    #: attach a Monitor and ResourceProbe as the replay harness does
    monitor: bool = False

    def episodes(self, seconds: float) -> int:
        return max(2, int(round(seconds / self.episode_s)))

    def run_episode(
        self, seed: int, clock: RoundClock, workdir: Path, count_queued: bool
    ) -> Episode:
        config = self.config(seed)
        if self.service:
            return _run_service(self, config, clock, workdir, count_queued)
        return _run_trainer(config, clock, count_queued)


# -- configurations --------------------------------------------------------------


def _silo(seed: int) -> ServiceConfig:
    fed = FedExpConfig(
        dataset="blobs",
        num_workers=256,
        samples_per_worker=64,
        test_samples=512,
        n_features=32,
        n_classes=4,
        rounds=60,
        eval_every=10,
        server_ranks=(0, 1, 2, 3),
        detection_threshold=0.0,
        gamma=0.2,
        seed=seed,
    )
    attackers = {wid: sign_flip(4.0) for wid in range(8, 256, 10)}
    return ServiceConfig(fed=fed, attackers=attackers)


def _fig07(seed: int) -> ServiceConfig:
    fed = fig07_attack_damage.default_config().scaled(seed=seed, rounds=20)
    return ServiceConfig(fed=fed, attackers={2: sign_flip(4.0)})


def _churn(seed: int) -> ServiceConfig:
    replay = ReplayConfig(
        rounds=61,
        num_workers=64,
        server_ranks=(0, 1, 2, 3),
        seed=seed,
        burst_every=20,
        burst_size=4,
        rejoin_after=10,
        checkpoint_every=20,
        history_tail=128,
    )
    fed = FedExpConfig(
        dataset="blobs",
        num_workers=replay.num_workers,
        samples_per_worker=replay.samples_per_worker,
        test_samples=replay.test_samples,
        rounds=replay.rounds,
        eval_every=10,
        server_ranks=replay.server_ranks,
        drop_prob=replay.drop_prob,
        seed=seed,
        scenario=generate_workload(replay),
    )
    return ServiceConfig(
        fed=fed,
        ledger=True,
        checkpoint_every=replay.checkpoint_every,
        keep_snapshots=replay.keep_snapshots,
        history_tail=replay.history_tail,
    )


def _cohort(seed: int) -> ServiceConfig:
    population = 100_000
    fed = FedExpConfig(
        dataset="blobs",
        num_workers=32,
        population_size=population,
        cohort_size=32,
        sampler="reputation",
        availability=0.9,
        samples_per_worker=64,
        test_samples=512,
        n_features=32,
        n_classes=4,
        rounds=101,
        eval_every=10,
        server_ranks=(0, 1),
        seed=seed,
    )
    # ~1% of the population, never a server rank
    rng = np.random.default_rng((seed, 0xA77A))
    ids = rng.choice(np.arange(2, population), size=1000, replace=False)
    attackers = {int(wid): sign_flip(4.0) for wid in ids}
    return ServiceConfig(
        fed=fed, attackers=attackers, ledger=False, checkpoint_every=20
    )


# -- episode runners --------------------------------------------------------------


def _run_trainer(config: ServiceConfig, clock: RoundClock, count_queued: bool) -> Episode:
    """Experiments path: build like ``run_federated``, drive ``trainer.run``."""
    fed = config.fed
    model, population, test = build_population(fed, config.attackers)
    trainer = FederatedTrainer(
        model,
        population=population,
        server_ranks=list(fed.server_ranks),
        test_data=test,
        mechanism=make_mechanism(
            "fifl",
            threshold=fed.detection_threshold,
            mode=fed.detection_mode,
            gamma=fed.gamma,
            contribution_baseline=fed.contribution_baseline,
            reference_worker=fed.reference_worker,
            contribution_filter=fed.contribution_filter,
            contribution_reference=fed.contribution_reference,
            engine=fed.engine,
            shard_size=fed.shard_size,
        ),
        server_lr=fed.server_lr,
        drop_prob=fed.drop_prob,
        seed=fed.seed,
        local_engine=fed.local_engine,
        backend="serial",
        probe=clock,
    )
    net = trainer.network
    totals: list[int] = [net.total_bytes()]

    def record_bytes(t: int) -> None:
        # the round's record is only visible once run() returns, so the
        # byte total is taken here and checked afterwards
        totals.append(net.total_bytes())

    hub = get_telemetry()
    seq0 = hub.seq
    clock.start(fed.rounds, on_round=record_bytes)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        history = trainer.run(fed.rounds, eval_every=fed.eval_every)
    hub.flush()
    failures: dict[int, str] = {}
    for rec, before, after in zip(history.rounds, totals, totals[1:]):
        want = broadcast_bytes_per_round(
            trainer.num_workers,
            trainer.num_servers,
            model.num_params,
            any(rec.accepted.values()),
        )
        if rec.skipped:
            failures[rec.round_idx] = "skipped"
        elif after - before != want:
            failures[rec.round_idx] = f"bytes grew {after - before}, expected {want}"
    return Episode(
        records=history.rounds,
        digest=history_digest(history.rounds),
        node_load_max_bytes=max(trainer.node_comm_load().values()),
        profile=history.profile,
        comm=_comm_stats(net, history.rounds, trainer.server_ranks, count_queued),
        events=hub.seq - seq0,
        failures=failures,
    )


def _run_service(
    wl: Workload,
    config: ServiceConfig,
    clock: RoundClock,
    workdir: Path,
    count_queued: bool,
) -> Episode:
    """Operator path: a fresh ``FederationService`` on a private hub."""
    snap_dir = workdir / "snapshots"
    shutil.rmtree(snap_dir, ignore_errors=True)
    monitor = inner = None
    if wl.monitor:
        monitor = Monitor(MonitorConfig())
        inner = ResourceProbe(sample_every=20)
    # a bounded private hub, as the replay harness uses
    hub = Telemetry(sinks=[MemorySink(maxlen=4096)])
    prev = set_telemetry(hub)
    try:
        service = FederationService(config, snap_dir, monitor=monitor, probe=clock)
        before = hub.snapshot()
        seq0 = hub.seq
        clock.start(config.fed.rounds, inner=inner)
        history = service.run()
        events = hub.seq - seq0
        profile = profile_delta(before, hub.snapshot())
    finally:
        set_telemetry(prev)
        if inner is not None:
            inner.close()
    trainer = service.trainer
    net = trainer.network
    failures = {rec.round_idx: "skipped" for rec in history.rounds if rec.skipped}
    if wl.drop_free:
        want = sum(
            broadcast_bytes_per_round(
                len(rec.accepted),
                trainer.num_servers,
                trainer.model.num_params,
                any(rec.accepted.values()),
            )
            for rec in history.rounds
            if not rec.skipped
        )
        if net.total_bytes() != want:
            failures[config.fed.rounds - 1] = (
                f"episode bytes {net.total_bytes()}, expected {want}"
            )
    every = config.checkpoint_every
    snapshot_error, snapshot_kb = _check_snapshot(
        snap_dir, config.fed.rounds // every * every
    )
    shutil.rmtree(snap_dir, ignore_errors=True)
    return Episode(
        records=list(history.rounds),
        digest=service.history_digest(),
        node_load_max_bytes=max(trainer.node_comm_load().values()),
        profile=profile,
        comm=_comm_stats(net, history.rounds, trainer.server_ranks, count_queued),
        events=events,
        failures=failures,
        snapshot_error=snapshot_error,
        snapshot_kb=snapshot_kb,
    )


def _check_snapshot(snap_dir: Path, last_checkpoint: int) -> tuple[str | None, float]:
    """Load the newest snapshot: (why it is wrong or None, its size in kB)."""
    snap = latest_snapshot(snap_dir)
    if snap is None:
        return "no snapshot written", 0.0
    size_kb = sum(f.stat().st_size for f in snap.iterdir() if f.is_file()) / 1000.0
    _, state = load_snapshot(snap)
    got = state["service"]["next_round"]
    if got != last_checkpoint:
        return f"newest snapshot is at round {got}, expected {last_checkpoint}", size_kb
    return None, size_kb


# -- the workloads ------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="silo-logreg-n256",
            why="the in-process message substrate dominates (2,044 "
            "Network.send per round); also shows the queued-downlink leak",
            shape="FederatedTrainer.run, N=256 M=4, logreg on blobs d=32 c=4, "
            "64 samples/worker, FIFL t=0 gamma=0.2, sign-flip p_s=4 at ids "
            "8,18,...,248, drop-free, eval every 10, 60-round episodes",
            config=_silo,
            service=False,
            drop_free=True,
            kernel="interp",
            episode_s=2.5,
        ),
        Workload(
            name="fig07-lenet",
            why="fleet forward/backward dominate and a round has only 62 "
            "messages, so a comm change must not move it",
            shape="FederatedTrainer.run, fig07 default_config: N=10 M=2 LeNet "
            "14x14 mnist-like, 300 samples/worker, 2 local iters, FIFL, "
            "sign-flip p_s=4 at id 2, eval every 4, 20-round episodes",
            config=_fig07,
            service=False,
            drop_free=True,
            kernel="blas",
            episode_s=3.5,
        ),
        Workload(
            name="service-churn",
            why="the only sim per-message path, snapshot writes, ledger "
            "appends, per-round telemetry flush and monitor",
            shape="FederationService.run over generate_workload traffic, N=64 "
            "M=4 blobs: lognormal latency, 2% drops, 5% stragglers x4, 1 "
            "retry, leave/rejoin waves every 20 rounds; FIFL + ledger, "
            "checkpoint every 20, history_tail=128, monitor; 61-round episodes",
            config=_churn,
            service=True,
            drop_free=False,
            kernel="interp",
            episode_s=3.5,
            monitor=True,
        ),
        Workload(
            name="cohort-reputation",
            why="the only population-layer workload: O(population) "
            "reputation draw, cohort materialization, fleet rebuild",
            shape="FederationService.run, dynamic: lazy blobs population of "
            "10^5 (d=32), cohorts of 32 by the reputation sampler, "
            "availability 0.9, M=2, 1% sign-flip, ledger off, checkpoint "
            "every 20; 101-round episodes",
            config=_cohort,
            service=True,
            drop_free=True,
            kernel="interp",
            episode_s=3.0,
        ),
    )
}
