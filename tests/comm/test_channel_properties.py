"""Hypothesis property tests for the message-passing substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Network
from repro.sim import Simulator
from repro.sim.latency import ConstantLatency, PerLinkLatency, UniformLatency
from repro.telemetry import Telemetry, set_telemetry


@settings(max_examples=30, deadline=None)
@given(
    payload_sizes=st.lists(st.integers(1, 50), min_size=1, max_size=20),
    seed=st.integers(0, 1000),
)
def test_reliable_delivery_preserves_order_and_bytes(payload_sizes, seed):
    """On a loss-free network every message arrives once, in order, with
    exact byte accounting."""
    net = Network(2, seed=seed)
    sent = []
    for i, size in enumerate(payload_sizes):
        payload = np.full(size, float(i))
        assert net.send(0, 1, "t", payload)
        sent.append(payload)
    assert net.total_bytes() == sum(8 * s for s in payload_sizes)
    for expected in sent:
        msg = net.recv(1, 0, "t")
        assert msg is not None
        np.testing.assert_array_equal(msg.payload, expected)
    assert net.recv(1, 0, "t") is None


@settings(max_examples=25, deadline=None)
@given(
    n_messages=st.integers(1, 200),
    drop_prob=st.floats(0.0, 0.9),
    seed=st.integers(0, 1000),
)
def test_conservation_under_loss(n_messages, drop_prob, seed):
    """delivered + dropped == sent, for any loss rate."""
    net = Network(2, drop_prob=drop_prob, seed=seed)
    delivered = sum(net.send(0, 1, "x", i) for i in range(n_messages))
    dropped = net.drop_log.count()
    assert delivered + dropped == n_messages
    received = 0
    while net.recv(1, 0, "x") is not None:
        received += 1
    assert received == delivered


@settings(max_examples=20, deadline=None)
@given(
    tags=st.lists(
        st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30
    ),
    seed=st.integers(0, 100),
)
def test_tag_isolation(tags, seed):
    """Messages on different tags never interleave."""
    net = Network(2, seed=seed)
    per_tag: dict[str, list[int]] = {}
    for i, tag in enumerate(tags):
        net.send(0, 1, tag, i)
        per_tag.setdefault(tag, []).append(i)
    for tag, expected in per_tag.items():
        got = []
        while (msg := net.recv(1, 0, tag)) is not None:
            got.append(msg.payload)
        assert got == expected


@settings(max_examples=25, deadline=None)
@given(
    n_nodes=st.integers(2, 8),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    seed=st.integers(0, 1000),
)
def test_collective_byte_accounting_equals_per_link_sum(n_nodes, sizes, seed):
    """Fan-out sends and the synchronous exchange account exactly the
    sum of per-link sends; receiving never changes byte accounting."""
    net = Network(n_nodes, seed=seed)
    others = list(range(1, n_nodes))
    expected = 0
    for size in sizes:
        for d in others:
            net.send(0, d, "b", np.zeros(size))  # one payload to everyone
            net.send(0, d, "s", np.zeros(size + d))  # a distinct one each
            expected += 8 * size + 8 * (size + d)
    for d in others:
        net.send(d, 0, "g", np.zeros(3))
        expected += 24
    # every other node uploads a 2-value part to node 0 (8 B slice index
    # plus 16 B of floats)
    net.exchange(others, [0], "x", [8 + 16])
    expected += (8 + 16) * len(others)
    before = net.total_bytes()
    for d in others:
        for src, dst, tag in ((0, d, "b"), (0, d, "s"), (d, 0, "g")):
            while net.recv(dst, src, tag) is not None:
                pass
    assert net.total_bytes() == before == expected
    assert net.total_bytes() == sum(net.bytes_sent.values())


@settings(max_examples=25, deadline=None)
@given(
    # interleaved sends over several (src, tag) lanes into one dst
    lanes=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"])),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 1000),
)
def test_per_link_tag_fifo_under_interleaving(lanes, seed):
    """FIFO holds per (src, tag) lane no matter how sends interleave."""
    net = Network(4, seed=seed)
    sent: dict[tuple[int, str], list[int]] = {}
    for i, (src, tag) in enumerate(lanes):
        assert net.send(src, 3, tag, i)
        sent.setdefault((src, tag), []).append(i)
    for (src, tag), expected in sent.items():
        got = []
        while (msg := net.recv(3, src, tag)) is not None:
            got.append(msg.payload)
        assert got == expected


_PROBS = st.one_of(st.just(0.0), st.floats(0.05, 0.95), st.just(1.0))


@st.composite
def _batches(draw):
    """A network configuration plus one batch of messages over it."""
    n = draw(st.integers(2, 6))
    rank = st.integers(0, n - 1)
    link = st.tuples(rank, rank)
    return {
        "n": n,
        "default_p": draw(_PROBS),
        "seed": draw(st.integers(0, 2**16)),
        "blocked": draw(st.sets(link, max_size=6)),
        "failed": draw(st.sets(rank, max_size=2)),
        "overrides": draw(st.dictionaries(link, _PROBS, max_size=4)),
        "messages": draw(
            st.lists(st.tuples(rank, rank, st.integers(0, 12)), max_size=30)
        ),
        "latency": draw(st.booleans()),
        "routed": draw(st.booleans()),
        "sized": draw(st.booleans()),
    }


def _network(cfg):
    sim = Simulator(seed=0) if cfg["latency"] else None
    latency = (
        PerLinkLatency(
            UniformLatency(0.001, 0.01, per_byte_s=1e-5),
            {(0, 1): ConstantLatency(0.002)},
        )
        if cfg["latency"]
        else None
    )
    net = Network(
        cfg["n"], drop_prob=cfg["default_p"], seed=cfg["seed"],
        latency=latency, sim=sim,
    )
    net.set_blocked_links(set(cfg["blocked"]))
    for rank in cfg["failed"]:
        net.fail_node(rank)
    for (src, dst), p in cfg["overrides"].items():
        net.set_link_drop_prob(src, dst, p)
    arrivals = []
    if cfg["routed"]:
        net.route(
            "t",
            lambda src, dst, payload: arrivals.append(
                # a framed (k, part) payload is recorded by its index
                (
                    sim.now if sim else 0.0,
                    src,
                    dst,
                    payload[0] if type(payload) is tuple else payload,
                )
            ),
        )
    return net, arrivals


def _observed(cfg, send_all):
    """Run one batch through ``send_all`` on a fresh network + hub."""
    tele = Telemetry()
    previous = set_telemetry(tele)
    try:
        net, arrivals = _network(cfg)
        accepted = send_all(net)
        if net.sim is not None:
            net.sim.run()
    finally:
        set_telemetry(previous)
    return {
        "accepted": [bool(a) for a in accepted],
        "drops": list(net.drop_log.drops),
        "bytes_sent": dict(net.bytes_sent),
        "messages_sent": net.messages_sent,
        "messages_delivered": net.messages_delivered,
        "rng": net._rng.bit_generator.state,
        "lat_rng": net._lat_rng.bit_generator.state,
        "arrivals": arrivals,
        "in_flight": net.in_flight,
        "counters": tele.snapshot()["counters"],
        "latency_hist": tele.metrics_snapshot()["histograms"].get("sim.latency"),
    }


@settings(max_examples=150, deadline=None)
@given(cfg=_batches())
def test_send_many_equals_a_loop_of_sends_draw_for_draw(cfg):
    """The batched primitive makes exactly the per-message loop's drop
    draws, drop_log entries, byte accounting, counters, latency draws and
    (routed) arrivals — blocked links, failed nodes, overrides and
    p in {0, (0, 1), 1} alike."""
    msgs = cfg["messages"]
    payloads = [(k, np.zeros(size)) for k, (_, _, size) in enumerate(msgs)]

    def loop(net):
        return [
            net.send(src, dst, "t", payload)
            for (src, dst, _), payload in zip(msgs, payloads)
        ]

    def batched(net):
        nbytes = [8 + 8 * size for _, _, size in msgs] if cfg["sized"] else None
        return net.send_many(
            [src for src, _, _ in msgs],
            [dst for _, dst, _ in msgs],
            "t",
            payloads,
            nbytes,
        ).tolist()

    assert _observed(cfg, batched) == _observed(cfg, loop)


@st.composite
def _exchanges(draw):
    """An instantaneous network configuration plus one exchange over it."""
    cfg = draw(_batches())
    rank = st.integers(0, cfg["n"] - 1)
    dsts = draw(st.lists(rank, min_size=1, max_size=4))
    return {
        **cfg,
        "latency": False,
        "srcs": draw(st.lists(rank, max_size=8)),
        "dsts": dsts,
        "part_nbytes": draw(
            st.lists(st.integers(8, 200), min_size=len(dsts), max_size=len(dsts))
        ),
    }


@settings(max_examples=150, deadline=None)
@given(cfg=_exchanges())
def test_exchange_equals_per_message_send_many_draw_for_draw(cfg):
    """The upload collective makes exactly the per-message ``send_many``
    calls' drop draws, drop_log entries, byte accounting, counters and
    (routed) arrivals, sender by sender, destination by destination;
    unrouted, it also receives every accepted message at once."""
    srcs, dsts, sizes = cfg["srcs"], cfg["dsts"], cfg["part_nbytes"]

    def collective(net):
        mask = net.exchange(srcs, dsts, "t", sizes)
        assert mask.shape == (len(srcs), len(dsts))
        return mask.ravel().tolist()

    def loop(net):
        return [
            net.send_many([src], [dst], "t", [j], [sizes[j]])[0]
            for src in srcs
            for j, dst in enumerate(dsts)
        ]

    got, want = _observed(cfg, collective), _observed(cfg, loop)
    if not cfg["routed"]:
        delivered = sum(got["accepted"])
        assert got["messages_delivered"] == delivered
        assert got["counters"].pop("comm.messages_delivered", 0) == delivered
        got["messages_delivered"] = 0
    assert got == want
