"""In-process message-passing substrate with MPI-style send/recv semantics.

The paper's polycentric FL protocol moves gradient *slices* between
workers and servers (S3.2 steps 1.3/1.4). We reproduce that protocol over
an in-process network of tagged, FIFO send/recv links (mirroring how a
multi-node deployment would be written with mpi4py). A round's traffic
does not go message by message: :meth:`Network.send_many` sends a whole
batch with one drop draw per lossy message from one ``rng.random(k)``
call and one counter update per batch, and builds no :class:`Message`.
On top of it sit the round's two collectives — the synchronous upload
(:meth:`Network.exchange`) and the servers' broadcast
(:meth:`Network.broadcast`). A round message is a slice index plus the
wire size its caller states: nothing reads a slice off the wire, so the
substrate models only bytes, drops and latency. Three things the
experiments need:

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
  event on the simulator's virtual clock. An arrival lands in its
  link's queue for :meth:`Network.recv`, or — when a collector has
  claimed the tag with :meth:`Network.route` — is pushed straight into
  that collector (the simulated round's server cluster). Without a
  latency model the instantaneous path is taken (and makes no latency
  draws), which is what keeps zero-latency simulated runs bit-identical
  to direct ones.
"""

from __future__ import annotations

import sys
import warnings
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

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

    Nodes are integer ranks ``0..num_nodes-1``. Queues are keyed
    ``tag -> (dst, src)``, so receives are deterministic FIFO per
    link+tag (FIFO in *arrival* order: under a random latency model
    messages on the same link may overtake each other, as on a real
    network) and closing a tag is one pop.
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
        # tag -> collector that takes arrivals instead of the queues
        self._routes: dict[str, Callable[[int, int, Any], None]] = {}
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
        ``latency.sample(...)`` virtual seconds from now; otherwise it
        arrives instantly. Drops are decided synchronously either way
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
        self.bytes_sent[(src, dst)] += nbytes
        tele.count("comm.bytes_sent", nbytes)
        if self.latency is not None:
            self._schedule(src, dst, tag, payload, nbytes)
        else:
            self._arrive(src, dst, tag, payload, nbytes)
        return True

    def send_many(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        tag: str,
        payloads: Sequence[Any],
        nbytes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Send message ``k`` from ``src[k]`` to ``dst[k]``; returns the
        ``(k,)`` mask of accepted messages.

        Equal to ``[send(s, d, tag, p) for ...]`` draw for draw: the
        messages that need a drop draw (lossy, not blocked) get theirs
        from one ``rng.random`` call, which yields the same values as
        that many scalar draws; ``drop_log`` grows in message order; with
        a latency model each accepted message samples its latency and is
        scheduled in message order. Unlike :meth:`send` it builds no
        :class:`Message` on the way and bumps every counter once per
        batch.

        Over instantaneous links an accepted message arrives at once at
        its tag's collector (see :meth:`route`); with none it is *not*
        queued for :meth:`recv` — the caller consumes it (:meth:`exchange`
        receives it, a :meth:`broadcast` has no receiver). ``nbytes``
        gives the payload sizes when the caller knows them. Every length
        and rank is checked before the first draw, so a rejected call
        leaves the network unchanged.
        """
        k = len(src)
        if len(dst) != k or len(payloads) != k:
            raise ValueError(
                f"send_many needs equal-length src/dst/payloads, got "
                f"{k}, {len(dst)} and {len(payloads)}"
            )
        if nbytes is None:
            nbytes = [_payload_nbytes(p) for p in payloads]
        elif len(nbytes) != k:
            raise ValueError(f"nbytes has {len(nbytes)} entries for {k} messages")
        if not k:
            return np.zeros(0, dtype=bool)
        for rank in (min(src), max(src), min(dst), max(dst)):
            self._check_rank(rank)

        rng = self._rng
        if self._blocked or self._failed or self._link_drop:
            # None marks a blocked link: dropped without a draw
            blocked = self._blocked
            probs = [
                None if link in blocked else self._drop_prob(*link)
                for link in zip(src, dst)
            ]
            lossy = sum(1 for p in probs if p)
            draws = iter(rng.random(lossy).tolist() if lossy else ())
            accepted = [p is not None and (not p or next(draws) >= p) for p in probs]
        elif self.default_drop_prob > 0.0:
            accepted = (rng.random(k) >= self.default_drop_prob).tolist()
        else:
            accepted = [True] * k

        tele = get_telemetry()
        self.messages_sent += k
        tele.count("comm.messages_sent", k)
        drops = [(s, d, tag) for s, d, ok in zip(src, dst, accepted) if not ok]
        if drops:
            self.drop_log.drops.extend(drops)
            tele.count("comm.drops", len(drops))
        if len(drops) < k:
            bytes_sent = self.bytes_sent
            total = 0
            for s, d, nb, ok in zip(src, dst, nbytes, accepted):
                if ok:
                    bytes_sent[(s, d)] += nb
                    total += nb
            tele.count("comm.bytes_sent", total)
            if self.latency is not None:
                arrive = self._schedule
            elif tag in self._routes:
                arrive = self._arrive
            else:
                arrive = None
            if arrive is not None:
                for s, d, payload, nb, ok in zip(src, dst, payloads, nbytes, accepted):
                    if ok:
                        arrive(s, d, tag, payload, nb)
        return np.array(accepted, dtype=bool)

    def _schedule(self, src: int, dst: int, tag: str, payload, nbytes: int):
        """Sample one accepted message's latency and schedule its arrival."""
        delay = float(self.latency.sample(self._lat_rng, src, dst, nbytes))
        get_telemetry().observe("sim.latency", delay)
        self.in_flight += 1
        self.sim.schedule(delay, self._deliver, src, dst, tag, payload, nbytes)

    def _deliver(self, src: int, dst: int, tag: str, payload, nbytes: int) -> None:
        """Delivery event: the in-flight message arrives."""
        self.in_flight -= 1
        dead = tag in self._dead_tags
        if not self.in_flight:
            # nothing left in flight can carry a closed tag
            self._dead_tags.clear()
        if not dead:  # else the round already closed: discard the late arrival
            self._arrive(src, dst, tag, payload, nbytes)

    def _arrive(self, src: int, dst: int, tag: str, payload, nbytes: int) -> None:
        """Hand an arrival to its tag's collector, else to its link queue."""
        collector = self._routes.get(tag)
        if collector is None:
            self._queues[tag][(dst, src)].append(
                Message(src, dst, tag, payload, nbytes)
            )
            return
        self.messages_delivered += 1
        get_telemetry().count("comm.messages_delivered")
        collector(src, dst, payload)

    def route(self, tag: str, collector: Callable[[int, int, Any], None] | None):
        """Push every later arrival on ``tag`` into ``collector(src, dst,
        payload)`` instead of its link queue; ``None`` ends the route.

        An arrival taken by a collector counts as delivered, exactly as
        if it had been :meth:`recv`'d. The simulated round's server
        cluster routes its uplink tag for the round's duration, so
        collection costs O(arrivals) instead of a poll of every link.
        """
        if collector is None:
            self._routes.pop(tag, None)
        else:
            self._routes[tag] = collector

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

    # -- round collectives ----------------------------------------------------

    def exchange(
        self, srcs: list[int], dsts: list[int], tag: str, part_nbytes: list[int]
    ) -> np.ndarray:
        """Synchronous zero-latency upload; returns the delivery mask.

        Every rank of ``srcs`` sends slice ``j`` to ``dsts[j]``: a message
        whose payload is the slice index ``j`` and whose wire size is
        ``part_nbytes[j]``, received at once (or handed to the tag's
        collector). Messages go sender by sender, destination by
        destination, so the drop draws come in the same order as the
        per-message upload actors of the event-driven path. Entry
        ``[i, j]`` of the returned ``(len(srcs), len(dsts))`` mask is True
        when slice ``j`` of sender ``i`` arrived.
        """
        if self.latency is not None:
            raise RuntimeError("exchange() needs instantaneous links (no latency)")
        m, n = len(dsts), len(srcs)
        if len(part_nbytes) != m:
            raise ValueError(f"{len(part_nbytes)} part sizes for {m} destinations")
        accepted = self.send_many(
            [src for src in srcs for _ in range(m)],
            list(dsts) * n,
            tag,
            list(range(m)) * n,
            list(part_nbytes) * n,
        )
        if tag not in self._routes:  # a collector counts its own arrivals
            delivered = int(np.count_nonzero(accepted))
            if delivered:
                self.messages_delivered += delivered
                get_telemetry().count("comm.messages_delivered", delivered)
        return accepted.reshape(n, m)

    def broadcast(
        self, srcs: list[int], nbytes: list[int], dsts: list[int], tag: str
    ) -> None:
        """Send slice ``j`` (payload ``j``, ``nbytes[j]`` on the wire) from
        ``srcs[j]`` to every rank of ``dsts`` but itself, source by
        source, destination by destination.

        Nobody receives a broadcast over instantaneous links; with a
        latency model every accepted message is still scheduled, so its
        arrival events move the virtual clock as the per-message loop's
        did.
        """
        if len(nbytes) != len(srcs):
            raise ValueError(f"{len(nbytes)} sizes for {len(srcs)} sources")
        src_ranks, dst_ranks, parts, sizes = [], [], [], []
        for j, (src, nb) in enumerate(zip(srcs, nbytes)):
            others = [dst for dst in dsts if dst != src]
            src_ranks += [src] * len(others)
            dst_ranks += others
            parts += [j] * len(others)
            sizes += [nb] * len(others)
        self.send_many(src_ranks, dst_ranks, tag, parts, sizes)

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
