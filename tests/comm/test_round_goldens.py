"""Golden pins of the round's network traffic on two seeded trainer runs.

Every number here was recorded from the per-message substrate (one
``Network.send`` per slice and per broadcast message, a polling sim
collector). Any rewrite of how a round moves its traffic must reproduce
them unedited: the same drop decisions in the same order, the same bytes
on every link, the same delivery counts and the same virtual timeline.

* **direct** — instantaneous links with ``drop_prob > 0``, one per-link
  override, one blocked link, a failed worker and, midway, a failed
  server that reputation-based reselection then replaces;
* **scenario** — a :class:`FaultScenario` with per-link latency, drops,
  retries with backoff, a deadline, stragglers, churn and a partition.
"""

import hashlib
import json

import pytest

from repro.core import FIFLMechanism
from repro.fl import FederatedTrainer
from repro.nn import build_logreg
from repro.service.snapshot import history_digest
from repro.sim import FaultScenario
from repro.sim.latency import (
    ConstantLatency,
    LatencyConfig,
    PerLinkLatency,
    UniformLatency,
)
from repro.telemetry import MemorySink, Telemetry, TickClock, set_telemetry
from tests.helpers import N_CLASSES, N_FEATURES, make_federation, roster


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _traced(build_and_run):
    """Run under a fresh deterministic hub; returns (result, sim.round comm blocks)."""
    sink = MemorySink(maxlen=None)
    tele = Telemetry(sinks=[sink], clock=TickClock())
    previous = set_telemetry(tele)
    try:
        result = build_and_run()
        tele.flush()
    finally:
        tele.close()
        set_telemetry(previous)
    comm = [ev["data"]["comm"] for ev in sink.events if ev["type"] == "sim.round"]
    return result, comm


def _trainer(num_workers, seed, **kwargs):
    workers, _, test = make_federation(num_workers=num_workers, seed=seed)
    return FederatedTrainer(
        build_logreg(N_FEATURES, N_CLASSES, seed=seed),
        roster(workers),
        server_ranks=[0, 1, 2],
        test_data=test,
        mechanism=FIFLMechanism(),
        seed=seed,
        **kwargs,
    )


def _summary(trainer, records) -> dict:
    net = trainer.network
    return {
        "history": history_digest(records),
        "drops": len(net.drop_log.drops),
        "drop_log": _digest([list(d) for d in net.drop_log.drops]),
        "node_comm_load": trainer.node_comm_load(),
        "messages_sent": net.messages_sent,
        "messages_delivered": net.messages_delivered,
    }


def run_direct() -> tuple[dict, list]:
    def go():
        trainer = _trainer(8, seed=3, drop_prob=0.15, reselect_every=2)
        net = trainer.network
        net.set_link_drop_prob(5, 1, 0.6)
        net.block_link(6, 0)
        trainer.fail_node(7)
        records = list(trainer.run(3, eval_every=3).rounds)
        trainer.fail_node(trainer.server_ranks[-1])
        records += trainer.run(4, eval_every=4).rounds
        return _summary(trainer, records)

    return _traced(go)


def run_scenario() -> tuple[dict, list]:
    scenario = FaultScenario(
        name="goldens",
        latency=LatencyConfig("uniform", 0.001, 0.02, per_byte_s=1e-6),
        round_timeout_s=0.12,
        max_retries=2,
        retry_backoff_s=0.01,
        backoff_factor=2.0,
        base_compute_s=0.02,
        straggler_rate=0.25,
        straggler_slowdown=6.0,
        churn=((1, 5, "leave"), (3, 5, "join"), (2, 8, "leave")),
        partitions=((2, 4, (1, 3), (0, 4, 6)),),
        seed=11,
    )

    def go():
        trainer = _trainer(10, seed=5, drop_prob=0.1, scenario=scenario)
        net = trainer.network
        # per-link latency: a slow and a fast directed link on top of the
        # scenario's uniform model
        net.latency = PerLinkLatency(
            net.latency,
            {(4, 1): ConstantLatency(0.09), (7, 0): UniformLatency(0.0, 0.002)},
        )
        records = trainer.run(6, eval_every=3).rounds
        # drain what the last round left behind (broadcast deliveries,
        # backing-off actors) so the final clock pins the whole timeline
        net.sim.run()
        out = _summary(trainer, records)
        out["t_end_s"] = repr(net.sim.now)
        out["events_run"] = net.sim.events_run
        out["in_flight"] = net.in_flight
        return out

    return _traced(go)


DIRECT = {
    "history": "2f7dad6f47dd54eed71eb212144ef59984be5dafbb7bd0bc36d46f089fe7ed8e",
    "drops": 70,
    "drop_log": "4e57795d89333edf0fea61781e4847e741397b0ed08174c30a5f526417f809d4",
    "node_comm_load": {
        0: 6280, 1: 6296, 2: 5440, 3: 2056, 4: 2208, 5: 1888, 6: 1816,
    },
    "messages_sent": 240,
    "messages_delivered": 94,
}
DIRECT_COMM = []
SCENARIO = {
    "history": "9a65218a8dfde468f0686424d10058c50254d71d7a94af3a20bf6f5307fa72e7",
    "drops": 83,
    "drop_log": "527801d00e8d6410591c3f62d8a3348be76059570f33728830db4499dfac092a",
    "node_comm_load": {
        0: 8712, 1: 8048, 2: 9720, 3: 2144, 4: 2360,
        5: 1824, 6: 2216, 7: 2496, 8: 760, 9: 2664,
    },
    "messages_sent": 351,
    "messages_delivered": 111,
    "t_end_s": "0.7999999999999999",
    "events_run": 350,
    "in_flight": 0,
}
#: cumulative (messages_sent, delivered, dropped, bytes_sent) per round
SCENARIO_COMM = [
    {"messages_sent": s, "delivered": d, "dropped": x, "bytes_sent": b}
    for s, d, x, b in (
        (34, 18, 7, 2160),
        (88, 45, 9, 6120),
        (144, 55, 27, 8992),
        (209, 72, 55, 11832),
        (266, 87, 69, 15144),
        (324, 111, 79, 18816),
    )
]


@pytest.fixture(scope="module")
def direct():
    return run_direct()


@pytest.fixture(scope="module")
def scenario():
    return run_scenario()


class TestDirectRun:
    def test_summary(self, direct):
        assert direct[0] == DIRECT

    def test_direct_path_emits_no_sim_rounds(self, direct):
        assert direct[1] == DIRECT_COMM


class TestScenarioRun:
    def test_summary(self, scenario):
        assert scenario[0] == SCENARIO

    def test_sim_round_comm_blocks(self, scenario):
        assert scenario[1] == SCENARIO_COMM


if __name__ == "__main__":  # pragma: no cover - prints the pins
    import pprint

    for name, fn in (("DIRECT", run_direct), ("SCENARIO", run_scenario)):
        summary, comm = fn()
        print(f"{name} = ", end="")
        pprint.pprint(summary, sort_dicts=False)
        print(f"{name}_COMM = ", end="")
        pprint.pprint(comm, sort_dicts=False)
