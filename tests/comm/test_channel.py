"""Tests for the lossy message-passing network."""

import warnings

import numpy as np
import pytest

from repro.comm import Network
from repro.sim import Simulator
from repro.sim.latency import ConstantLatency
from repro.telemetry import Telemetry, set_telemetry


class TestSendRecv:
    def test_roundtrip(self):
        net = Network(3)
        assert net.send(0, 1, "grad", np.arange(4.0))
        msg = net.recv(1, 0, "grad")
        np.testing.assert_array_equal(msg.payload, np.arange(4.0))
        assert msg.src == 0 and msg.dst == 1 and msg.tag == "grad"

    def test_fifo_order_per_link(self):
        net = Network(2)
        net.send(0, 1, "t", 1)
        net.send(0, 1, "t", 2)
        assert net.recv(1, 0, "t").payload == 1
        assert net.recv(1, 0, "t").payload == 2

    def test_tags_are_isolated(self):
        net = Network(2)
        net.send(0, 1, "a", "first")
        net.send(0, 1, "b", "second")
        assert net.recv(1, 0, "b").payload == "second"
        assert net.recv(1, 0, "a").payload == "first"

    def test_empty_recv_returns_none(self):
        net = Network(2)
        assert net.recv(1, 0, "none") is None

    def test_rank_validation(self):
        net = Network(2)
        with pytest.raises(ValueError):
            net.send(0, 5, "t", 1)
        with pytest.raises(ValueError):
            net.recv(-1, 0, "t")

    def test_pending(self):
        net = Network(2)
        net.send(0, 1, "t", 1)
        net.send(0, 1, "t", 2)
        assert net.pending(1, 0, "t") == 2
        net.recv(1, 0, "t")
        assert net.pending(1, 0, "t") == 1


class TestFailureInjection:
    def test_no_drops_by_default(self):
        net = Network(2, seed=0)
        assert all(net.send(0, 1, "t", i) for i in range(100))
        assert net.drop_log.count() == 0

    def test_global_drop_rate_approximate(self):
        net = Network(2, drop_prob=0.3, seed=1)
        sent = sum(net.send(0, 1, "t", i) for i in range(2000))
        assert 0.6 < sent / 2000 < 0.8
        assert net.drop_log.count() == 2000 - sent

    def test_per_link_override(self):
        net = Network(3, drop_prob=0.0, seed=2)
        net.set_link_drop_prob(0, 1, 1.0)
        assert not net.send(0, 1, "t", 1)
        assert net.send(0, 2, "t", 1)

    def test_drop_log_filters(self):
        net = Network(3, seed=0)
        net.set_link_drop_prob(0, 1, 1.0)
        net.set_link_drop_prob(2, 1, 1.0)
        net.send(0, 1, "t", 1)
        net.send(2, 1, "t", 1)
        assert net.drop_log.count(src=0) == 1
        assert net.drop_log.count(dst=1) == 2

    def test_invalid_drop_prob(self):
        # the endpoints 0.0 and 1.0 are valid in both the constructor and
        # the per-link override (a prob-1.0 link is a dead link)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                Network(2, drop_prob=bad)
        net = Network(2, drop_prob=1.0)
        with pytest.raises(ValueError):
            net.set_link_drop_prob(0, 1, -0.1)
        with pytest.raises(ValueError):
            net.set_link_drop_prob(0, 1, 1.1)
        net.set_link_drop_prob(0, 1, 1.0)  # endpoint accepted

    def test_fully_dead_network_drops_everything(self):
        net = Network(2, drop_prob=1.0, seed=0)
        assert not any(net.send(0, 1, "t", i) for i in range(50))
        assert net.drop_log.count() == 50
        assert net.recv(1, 0, "t") is None
        assert net.total_bytes() == 0

    def test_blocked_link_drops_without_rng(self):
        # Two networks, same seed: blocking a link must not consume drop
        # draws, so the other link's drop pattern is unchanged.
        a = Network(3, drop_prob=0.5, seed=9)
        b = Network(3, drop_prob=0.5, seed=9)
        b.block_link(0, 1)
        pattern_a = [a.send(0, 2, "t", i) for i in range(40)]
        for i in range(40):
            assert not b.send(0, 1, "t", i)
        pattern_b = [b.send(0, 2, "t", i) for i in range(40)]
        assert pattern_a == pattern_b
        b.unblock_link(0, 1)
        assert b.pending(1, 0, "t") == 0  # blocked sends never queued

    def test_set_blocked_links_replaces(self):
        net = Network(3)
        net.block_link(0, 1)
        net.set_blocked_links({(1, 2)})
        assert net.send(0, 1, "t", 1)  # old block lifted
        assert not net.send(1, 2, "t", 1)
        with pytest.raises(ValueError):
            net.set_blocked_links({(0, 9)})


class TestExchange:
    def test_mask_matches_per_message_sends_draw_for_draw(self):
        net = Network(5, drop_prob=0.3, seed=4)
        ref = Network(5, drop_prob=0.3, seed=4)
        dsts = [0, 1]
        srcs = [2, 3, 4, 1]
        parts = [np.zeros(2), np.ones(3)]
        # a round message is the slice index plus its wire size: the same
        # bytes as the framed (j, part) payload the reference sends
        mask = net.exchange(srcs, dsts, "t", [8 + p.nbytes for p in parts])
        expected = [
            [ref.send(w, d, "t", (j, parts[j])) for j, d in enumerate(dsts)]
            for w in srcs
        ]
        assert mask.shape == (4, 2) and mask.dtype == bool
        assert mask.tolist() == expected
        assert not mask.all() and mask.any()
        assert net.drop_log.drops == ref.drop_log.drops
        assert net.bytes_sent == ref.bytes_sent
        # every delivered part was received at once
        assert net.messages_delivered == mask.sum()
        assert all(net.pending(d, w, "t") == 0 for w in srcs for d in dsts)

    def test_needs_instantaneous_links(self):
        net = Network(2, latency=ConstantLatency(0.1), sim=Simulator(seed=0))
        with pytest.raises(RuntimeError):
            net.exchange([1], [0], "t", [16])

    def test_routed_tag_counts_each_delivery_once(self):
        tele = Telemetry()
        previous = set_telemetry(tele)
        try:
            net = Network(3)
            seen = []
            net.route("t", lambda src, dst, j: seen.append((src, dst, j)))
            mask = net.exchange([1, 2], [0], "t", [16])
            counters = tele.snapshot()["counters"]
        finally:
            set_telemetry(previous)
        assert mask.tolist() == [[True], [True]]
        assert seen == [(1, 0, 0), (2, 0, 0)]
        assert net.messages_sent == 2 and net.messages_delivered == 2
        assert counters["comm.messages_delivered"] == 2
        # the monitor's comm-accounting invariant
        assert net.messages_delivered + len(net.drop_log.drops) <= net.messages_sent

    def test_rejected_call_leaves_network_unchanged(self):
        """Lengths and ranks are checked before the first drop draw."""
        tele = Telemetry()
        previous = set_telemetry(tele)
        try:
            net = Network(5, drop_prob=0.3, seed=4)
            net.exchange([2, 3], [0, 1], "a", [24, 32])

            def state():
                return (
                    net._rng.bit_generator.state,
                    tele.snapshot()["counters"],
                    dict(net.bytes_sent),
                    list(net.drop_log.drops),
                    net.messages_sent,
                    net.messages_delivered,
                )

            before = state()
            bad_calls = [
                ([2, 3], [0, 1], [24]),  # too few part sizes
                ([2, 3], [0, 1], [24, 32, 8]),  # too many part sizes
                ([2, 7], [0, 1], [24, 32]),  # bad src
                ([2], [0, 5], [24, 32]),  # bad dst
            ]
            for srcs, dsts, sizes in bad_calls:
                with pytest.raises(ValueError):
                    net.exchange(srcs, dsts, "b", sizes)
            with pytest.raises(ValueError):
                net.broadcast([0, 1], [16], [2, 3], "b")
            with pytest.raises(ValueError):
                net.send_many([2, 3], [0], "b", [1, 2])
            with pytest.raises(ValueError):
                net.send_many([2], [0], "b", [1], nbytes=[8, 8])
            assert state() == before
        finally:
            set_telemetry(previous)


class TestBroadcast:
    SRCS = [0, 1]
    NBYTES = [16, 24]
    DSTS = [0, 1, 2, 3, 4]

    def test_link_bytes_are_the_slice_sizes_and_nobody_sends_to_itself(self):
        net = Network(5)
        net.broadcast(self.SRCS, self.NBYTES, self.DSTS, "g")
        assert net.bytes_sent == {
            (src, dst): nb
            for src, nb in zip(self.SRCS, self.NBYTES)
            for dst in self.DSTS
            if dst != src
        }
        assert net.messages_sent == len(self.SRCS) * (len(self.DSTS) - 1)
        # nobody receives a broadcast over instantaneous links
        assert net.messages_delivered == 0
        assert all(
            net.pending(d, s, "g") == 0 for s in self.SRCS for d in self.DSTS
        )

    def test_drops_equal_a_per_message_send_many_loop(self):
        def lossy():
            n = Network(5, drop_prob=0.4, seed=7)
            n.block_link(1, 3)
            n.set_link_drop_prob(0, 2, 0.9)
            n.fail_node(4)
            return n

        net, ref = lossy(), lossy()
        net.broadcast(self.SRCS, self.NBYTES, self.DSTS, "g")
        for j, (src, nb) in enumerate(zip(self.SRCS, self.NBYTES)):
            for dst in self.DSTS:
                if dst != src:
                    ref.send_many([src], [dst], "g", [j], [nb])
        assert net.drop_log.drops == ref.drop_log.drops
        assert 0 < len(net.drop_log.drops) < net.messages_sent
        assert net.bytes_sent == ref.bytes_sent
        assert net.messages_sent == ref.messages_sent
        assert net._rng.bit_generator.state == ref._rng.bit_generator.state

    def test_latency_schedules_every_accepted_message_until_cancelled(self):
        def queued(net):
            return sum(net.pending(d, s, "g") for s in self.SRCS for d in self.DSTS)

        scheduled = len(self.SRCS) * (len(self.DSTS) - 1)
        for cancel in (False, True):
            sim = Simulator(seed=0)
            net = Network(5, latency=ConstantLatency(0.1), sim=sim)
            net.broadcast(self.SRCS, self.NBYTES, self.DSTS, "g")
            assert net.in_flight == scheduled
            assert sim.peek() == pytest.approx(0.1)
            if cancel:
                net.cancel_tag("g")
            assert sim.run() == scheduled
            assert net.in_flight == 0
            # left open, the arrivals queue up; cancelled, they are discarded
            assert queued(net) == (0 if cancel else scheduled)


class TestAccounting:
    def test_array_bytes_counted(self):
        net = Network(2)
        net.send(0, 1, "g", np.zeros(10))  # 80 bytes
        assert net.bytes_sent[(0, 1)] == 80
        assert net.total_bytes() == 80

    def test_nested_payload_bytes(self):
        net = Network(2)
        net.send(0, 1, "g", {"a": np.zeros(2), "b": [np.zeros(3), 1.5]})
        assert net.total_bytes() == 16 + 24 + 8

    def test_dropped_messages_not_counted(self):
        net = Network(2, seed=0)
        net.set_link_drop_prob(0, 1, 1.0)
        net.send(0, 1, "g", np.zeros(10))
        assert net.total_bytes() == 0

    def test_reset_stats_keeps_queues(self):
        net = Network(2)
        net.send(0, 1, "g", np.zeros(4))
        net.reset_stats()
        assert net.total_bytes() == 0
        assert net.recv(1, 0, "g") is not None

    def test_delivered_counter(self):
        net = Network(2)
        net.send(0, 1, "g", 1)
        net.recv(1, 0, "g")
        assert net.messages_delivered == 1

    def test_unknown_payload_type_falls_back_to_getsizeof(self):
        class Opaque:
            pass

        net = Network(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            net.send(0, 1, "g", Opaque())
            net.send(0, 1, "g", Opaque())  # second send: no new warning
        fallback = [w for w in caught if "byte accounting" in str(w.message)]
        assert len(fallback) == 1
        assert issubclass(fallback[0].category, RuntimeWarning)
        # sys.getsizeof is never 0 for a real object
        assert net.total_bytes() > 0


class TestTelemetryCounters:
    """comm.* counters mirror the network's own accounting."""

    def _fresh_hub(self):
        tele = Telemetry()
        previous = set_telemetry(tele)
        return tele, previous

    def test_bytes_drops_delivered_counters(self):
        tele, previous = self._fresh_hub()
        try:
            net = Network(3, seed=0)
            net.set_link_drop_prob(0, 2, 1.0)
            net.send(0, 1, "g", np.zeros(10))  # 80 bytes, accepted
            net.send(0, 2, "g", np.zeros(10))  # dropped
            net.block_link(1, 2)
            net.send(1, 2, "g", 1)  # blocked => dropped
            net.recv(1, 0, "g")
            counters = tele.snapshot()["counters"]
            assert counters["comm.bytes_sent"] == 80
            assert counters["comm.drops"] == 2
            assert counters["comm.messages_delivered"] == 1
        finally:
            set_telemetry(previous)
