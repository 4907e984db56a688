"""Per-layer metrics from a traced run's spans, counters and round records."""

from __future__ import annotations

import numpy as np

from spec import PER_LAYER

__all__ = ["layer_metrics", "record_stats", "layer_shares"]


def record_stats(records, attackers: set[int]) -> dict:
    """Counts read off the round records of every episode.

    ``delivered`` means the update reached every server (not an
    uncertain event); the mechanism only decides on delivered updates.
    """
    stats = {
        "rounds": 0,
        "updates": 0,
        "uncertain": 0,
        "retries": 0,
        "attacker_delivered": 0,
        "attacker_rejected": 0,
        "honest_delivered": 0,
        "honest_accepted": 0,
    }
    for rec in records:
        stats["rounds"] += 1
        stats["updates"] += len(rec.accepted)
        stats["uncertain"] += len(rec.uncertain)
        if rec.sim is not None:
            stats["retries"] += int(rec.sim.get("retries", 0))
        for wid, ok in rec.accepted.items():
            if wid in rec.uncertain:
                continue
            if wid in attackers:
                stats["attacker_delivered"] += 1
                stats["attacker_rejected"] += not ok
            else:
                stats["honest_delivered"] += 1
                stats["honest_accepted"] += bool(ok)
    return stats


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_shares(tracer, n_rounds: int) -> dict[str, float]:
    """Self ms per timed round of each layer (the span-name prefix)."""
    arr = tracer.arrays()
    timed = arr["round"] >= 0
    shares: dict[str, float] = {}
    for nid, name in enumerate(tracer.names):
        mask = timed & (arr["name"] == nid)
        layer = name.split(".")[0]
        ms = 1000.0 * float(arr["self"][mask].sum()) / max(n_rounds, 1)
        shares[layer] = shares.get(layer, 0.0) + ms
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def layer_metrics(tracer, intervals: list[float], stats: dict, extra: dict) -> dict:
    """Every ``PER_LAYER`` metric (0 for layers the workload never runs).

    ``extra`` carries what the spans cannot see: network counters, the
    newest snapshot size, hub event counts and the setup split.
    """
    arr = tracer.arrays()
    n = max(len(intervals), 1)
    timed = arr["round"] >= 0
    ids = {name: nid for nid, name in enumerate(tracer.names)}

    def mask(span: str) -> np.ndarray:
        if span not in ids:
            return np.zeros_like(timed)
        return timed & (arr["name"] == ids[span])

    def self_ms(*spans: str) -> float:
        total = sum(float(arr["self"][mask(s)].sum()) for s in spans)
        return 1000.0 * total / n

    def calls(span: str) -> float:
        return float(arr["calls"][mask(span)].sum()) / n

    def counted(name: str) -> int:
        return sum(v for (rnd, key), v in tracer.counts.items() if rnd >= 0 and key == name)

    saves = arr["dur"][mask("service.save")] * 1000.0
    evals = int(arr["calls"][mask("fl.evaluate")].sum())
    gc_timed = [(gen, s) for rnd, gen, s in tracer.gc_pauses if rnd >= 0]
    top = timed & (arr["parent"] < 0)
    other_ms = 1000.0 * (sum(intervals) - float(arr["dur"][top].sum())) / n
    comm = extra["comm"]
    materialized = counted("population.materialize_calls")
    out = {
        "comm.send_calls": calls("comm.send"),
        "comm.send_ms": self_ms("comm.send"),
        "comm.recv_calls": calls("comm.recv"),
        "comm.recv_ms": self_ms("comm.recv"),
        "comm.kb": comm["bytes"] / 1000.0 / max(stats["rounds"], 1),
        "comm.delivered_frac": _ratio(comm["delivered"], comm["sent"]),
        "comm.queued_msgs": float(comm["queued"]),
        "runtime.gc_ms": 1000.0 * sum(s for _, s in gc_timed) / n,
        "runtime.gc_gen2": sum(1 for gen, _ in gc_timed if gen == 2) / n,
        "nn.forward_ms": self_ms("nn.forward"),
        "nn.backward_ms": self_ms("nn.backward"),
        "nn.step_ms": self_ms("nn.step"),
        "fl.local_ms": self_ms("fl.local"),
        "fl.local_updates": _ratio(stats["updates"], stats["rounds"]),
        "fl.evaluate_ms": self_ms("fl.evaluate") * n / evals if evals else 0.0,
        "fl.aggregate_ms": self_ms("fl.aggregate"),
        "fl.fleet_builds": calls("fl.fleet_build"),
        "fl.fleet_build_ms": self_ms("fl.fleet_build", "nn.fleet_build"),
        "trainer.self_ms": self_ms("trainer.round"),
        "core.mechanism_ms": self_ms("core.mechanism"),
        "core.attacker_reject_frac": _ratio(
            stats["attacker_rejected"], stats["attacker_delivered"]
        ),
        "core.honest_accept_frac": _ratio(
            stats["honest_accepted"], stats["honest_delivered"]
        ),
        "population.sample_ms": self_ms("population.sample"),
        "population.checkout_ms": self_ms("population.checkout"),
        "population.materialize_ms": self_ms("population.materialize"),
        "population.materialize_calls": materialized / n,
        "population.cache_hit_frac": _ratio(
            counted("population.cache_hits"), materialized
        ),
        "population.write_reputations_ms": self_ms("population.write_reputations"),
        "sim.collect_ms": self_ms("sim.collect"),
        "sim.retries": _ratio(stats["retries"], stats["rounds"]),
        "sim.uncertain_frac": _ratio(stats["uncertain"], stats["updates"]),
        "sim.drain_ms": (
            1000.0 * float(arr["dur"][mask("sim.drain")].sum()) / saves.size
            if saves.size
            else 0.0
        ),
        "service.save_ms_p50": float(np.median(saves)) if saves.size else 0.0,
        "service.save_ms_max": float(saves.max()) if saves.size else 0.0,
        "service.snapshot_kb": extra["snapshot_kb"],
        "ledger.append_calls": calls("ledger.append"),
        "ledger.append_ms": self_ms("ledger.append"),
        "telemetry.flush_ms": self_ms("telemetry.flush"),
        "telemetry.events": _ratio(extra["events"], stats["rounds"]),
        "monitor.emit_ms": self_ms("monitor.emit"),
        "trace.other_ms": other_ms,
    }
    missing = set(PER_LAYER) - set(out) - {
        "setup.import_s",
        "setup.build_s",
        "setup.warmup_s",
        "trace.overhead_pct",
        "trace.overhead_iqr_pct",
    }
    if missing:
        raise KeyError(f"layer metrics not computed: {sorted(missing)}")
    return out
