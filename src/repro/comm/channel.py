"""In-process message-passing substrate with MPI-style send/recv semantics.

The paper's polycentric FL protocol moves gradient *slices* between
workers and servers (S3.2 steps 1.3/1.4). We reproduce that protocol over
an in-process network of tagged, FIFO send/recv links (mirroring how a
multi-node deployment would be written with mpi4py), plus one
synchronous round upload (:meth:`Network.exchange`), while adding three
things the experiments need:

* **failure injection** — each link can drop messages with a configured
  probability, links can be deterministically blocked (partitions,
  churned-out nodes), and a failed node loses all of its links; drops
  surface as the SLM reputation module's *uncertain events* (S4.2);
* **byte accounting** — every payload accepted onto a link is tallied,
  so the communication-overhead ablations can compare centralized,
  polycentric, and decentralized architectures quantitatively. The same
  tallies stream into :mod:`repro.telemetry` as ``comm.*`` counters;
* **latency** — attached to a :class:`~repro.sim.Simulator` with a
  :class:`~repro.sim.latency.LatencyModel`, a sent message *arrives at a
  time* instead of appearing instantly: the send schedules a delivery
  event on the simulator's virtual clock. Without a latency model the
  legacy instantaneous path is taken unchanged (and makes no extra RNG
  draws), which is what keeps zero-latency simulated runs bit-identical
  to direct ones.
"""

from __future__ import annotations

import sys
import warnings
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..telemetry import get_telemetry

__all__ = ["Message", "DropLog", "Network"]


@dataclass(frozen=True)
class Message:
    """One delivered message."""

    src: int
    dst: int
    tag: str
    payload: Any
    nbytes: int


@dataclass
class DropLog:
    """Record of messages lost to injected link failures."""

    drops: list[tuple[int, int, str]] = field(default_factory=list)

    def count(self, src: int | None = None, dst: int | None = None) -> int:
        return sum(
            1
            for s, d, _ in self.drops
            if (src is None or s == src) and (dst is None or d == dst)
        )


#: payload types already warned about by the size fallback (one warning
#: per type per process keeps a hot loop from spamming)
_SIZE_FALLBACK_WARNED: set[type] = set()


def _payload_nbytes(payload: Any) -> int:
    """Best-effort size of a payload in bytes (arrays dominate in FL)."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (list, tuple)):
        return sum(_payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(_payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    # Unknown type: a silent 0 would corrupt the communication-overhead
    # ablation's byte accounting, so fall back to the interpreter's own
    # (conservative) object size and say so once per type.
    tp = type(payload)
    if tp not in _SIZE_FALLBACK_WARNED:
        _SIZE_FALLBACK_WARNED.add(tp)
        warnings.warn(
            f"comm: no byte accounting rule for payload type "
            f"{tp.__module__}.{tp.__qualname__}; falling back to "
            f"sys.getsizeof — wire-size estimates for this type are "
            f"approximate",
            RuntimeWarning,
            stacklevel=2,
        )
    return int(sys.getsizeof(payload))


class Network:
    """A set of nodes exchanging tagged messages over lossy links.

    Nodes are integer ranks ``0..num_nodes-1``. Messages are queued per
    ``(dst, src, tag)`` so receives are deterministic FIFO per link+tag
    (FIFO in *arrival* order: under a random latency model messages on
    the same link may overtake each other, as on a real network).
    """

    def __init__(
        self,
        num_nodes: int,
        drop_prob: float = 0.0,
        seed: int = 0,
        latency=None,
        sim=None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")
        if latency is not None and sim is None:
            raise ValueError("a latency model needs a Simulator (sim=...)")
        self.num_nodes = num_nodes
        self.default_drop_prob = drop_prob
        self._link_drop: dict[tuple[int, int], float] = {}
        self._blocked: set[tuple[int, int]] = set()
        self._failed: set[int] = set()
        self._rng = np.random.default_rng(seed)
        # The latency stream is separate from the drop stream: attaching
        # a latency model must not change which messages drop.
        self._lat_rng = np.random.default_rng((seed, 0x1A7E))
        self.latency = latency
        self.sim = sim
        # tag -> (dst, src) -> FIFO queue, so closing a tag is one pop
        self._queues: dict[str, dict[tuple[int, int], deque[Message]]] = (
            defaultdict(lambda: defaultdict(deque))
        )
        self._dead_tags: set[str] = set()
        self.in_flight = 0
        self.drop_log = DropLog()
        self.bytes_sent: dict[tuple[int, int], int] = defaultdict(int)
        self.messages_sent = 0
        self.messages_delivered = 0

    # -- configuration -------------------------------------------------------

    def set_link_drop_prob(self, src: int, dst: int, prob: float) -> None:
        """Override drop probability for one directed link."""
        self._check_rank(src)
        self._check_rank(dst)
        if not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        self._link_drop[(src, dst)] = prob

    def block_link(self, src: int, dst: int) -> None:
        """Deterministically drop everything on one directed link.

        Unlike a drop probability of 1.0 this consumes no RNG draws, so
        transient partitions keep seeded runs byte-reproducible.
        """
        self._check_rank(src)
        self._check_rank(dst)
        self._blocked.add((src, dst))

    def unblock_link(self, src: int, dst: int) -> None:
        """Lift a :meth:`block_link` outage (no-op if not blocked)."""
        self._blocked.discard((src, dst))

    def fail_node(self, rank: int) -> None:
        """Drop every message to or from ``rank`` from now on (a crash).

        Equivalent to a drop probability of 1.0 on all of the node's
        links — each send still makes its drop draw, so seeded runs
        match a link-by-link override — at O(1) cost instead of 2N.
        """
        self._check_rank(rank)
        self._failed.add(rank)

    def set_blocked_links(self, links: set[tuple[int, int]]) -> None:
        """Replace the whole blocked-link set (round-boundary partitions)."""
        for src, dst in links:
            self._check_rank(src)
            self._check_rank(dst)
        self._blocked = set(links)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_nodes:
            raise ValueError(f"rank {rank} outside [0, {self.num_nodes})")

    def _drop_prob(self, src: int, dst: int) -> float:
        if self._failed and (src in self._failed or dst in self._failed):
            return 1.0
        return self._link_drop.get((src, dst), self.default_drop_prob)

    # -- point-to-point ------------------------------------------------------

    def send(self, src: int, dst: int, tag: str, payload: Any) -> bool:
        """Send one message; returns False if the link dropped it.

        With a latency model attached the message is scheduled to arrive
        ``latency.sample(...)`` virtual seconds from now; otherwise it is
        enqueued instantly. Drops are decided synchronously either way
        (the simulator is omniscient: a sender learns about a drop at
        send time, which is what the bounded-retry process keys on).
        """
        self._check_rank(src)
        self._check_rank(dst)
        tele = get_telemetry()
        self.messages_sent += 1
        tele.count("comm.messages_sent")
        if (src, dst) in self._blocked:
            self.drop_log.drops.append((src, dst, tag))
            tele.count("comm.drops")
            return False
        p = self._drop_prob(src, dst)
        if p > 0.0 and self._rng.random() < p:
            self.drop_log.drops.append((src, dst, tag))
            tele.count("comm.drops")
            return False
        nbytes = _payload_nbytes(payload)
        msg = Message(src, dst, tag, payload, nbytes)
        self.bytes_sent[(src, dst)] += nbytes
        tele.count("comm.bytes_sent", nbytes)
        if self.latency is not None:
            delay = float(self.latency.sample(self._lat_rng, src, dst, nbytes))
            tele.observe("sim.latency", delay)
            self.in_flight += 1
            self.sim.schedule(delay, self._deliver, msg)
        else:
            self._queues[tag][(dst, src)].append(msg)
        return True

    def _deliver(self, msg: Message) -> None:
        """Delivery event: the in-flight message lands in its queue."""
        self.in_flight -= 1
        dead = msg.tag in self._dead_tags
        if not self.in_flight:
            # nothing left in flight can carry a closed tag
            self._dead_tags.clear()
        if not dead:  # else the round already closed: discard the late arrival
            self._queues[msg.tag][(msg.dst, msg.src)].append(msg)

    def cancel_tag(self, tag: str) -> None:
        """Close a tag: purge its queues and discard late arrivals.

        Round tags are unique (``slice:<t>``), so closing them when the
        round ends keeps straggling deliveries from accumulating. A tag is
        remembered as dead only while messages are in flight, and
        forgotten once the last one lands.
        """
        if self.in_flight:
            self._dead_tags.add(tag)
        self._queues.pop(tag, None)

    def recv(self, dst: int, src: int, tag: str) -> Message | None:
        """Pop the oldest message on (src -> dst, tag); None if empty."""
        self._check_rank(dst)
        self._check_rank(src)
        links = self._queues.get(tag)
        queue = links.get((dst, src)) if links else None
        if not queue:
            return None
        self.messages_delivered += 1
        get_telemetry().count("comm.messages_delivered")
        return queue.popleft()

    def pending(self, dst: int, src: int, tag: str) -> int:
        """Number of undelivered messages on a link+tag."""
        links = self._queues.get(tag)
        return len(links.get((dst, src), ())) if links else 0

    def exchange(
        self, sends: list[tuple[int, list[Any]]], dsts: list[int], tag: str
    ) -> np.ndarray:
        """Synchronous zero-latency upload; returns the delivery mask.

        ``sends`` holds ``(src, parts)`` pairs: part ``j`` travels to
        ``dsts[j]`` as the payload ``(j, parts[j])`` and is received at
        once. Sends go sender by sender, destination by destination, so
        the drop draws come in the same order as the per-message upload
        actors of the event-driven path. Entry ``[i, j]`` of the returned
        ``(len(sends), len(dsts))`` mask is True when part ``j`` of
        sender ``i`` arrived.
        """
        if self.latency is not None:
            raise RuntimeError("exchange() needs instantaneous links (no latency)")
        mask = np.zeros((len(sends), len(dsts)), dtype=bool)
        for i, (src, parts) in enumerate(sends):
            for j, dst in enumerate(dsts):
                if self.send(src, dst, tag, (j, parts[j])):
                    self.recv(dst, src, tag)
                    mask[i, j] = True
        return mask

    # -- accounting ----------------------------------------------------------

    def total_bytes(self) -> int:
        """Total bytes accepted onto all links."""
        return sum(self.bytes_sent.values())

    def reset_stats(self) -> None:
        """Clear byte/drop accounting but keep queued messages."""
        self.bytes_sent.clear()
        self.drop_log = DropLog()
        self.messages_sent = 0
        self.messages_delivered = 0
