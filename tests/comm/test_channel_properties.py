"""Hypothesis property tests for the message-passing substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import Network


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
    # every other node uploads a 2-value part to node 0, framed (j, part)
    net.exchange([(d, [np.zeros(2)]) for d in others], [0], "x")
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
