"""Local-step benchmark: fleet-batched vs scalar local training.

Times the ``trainer.local_compute`` phase of :class:`FederatedTrainer`
on the fig09-style MLP federation (synthetic blobs, 16 features, 4
classes, one hidden layer of 64) at several federation sizes, once with
``local_engine="fleet"`` (all workers' SGD stacked into single batched
kernels, see ``repro.nn.fleet``) and once with ``local_engine="scalar"``
(the per-worker reference loop), and reports per-phase wall-clock from
the telemetry phase table plus the speedup.

Also reports the evaluation throughput of ``repro.fl.evaluation`` (the
preallocated-scratch batched evaluator) in samples/second, and the
always-on telemetry overhead (default in-memory sink vs disabled hub)
over whole federated rounds; the run's result doubles as a telemetry
run manifest emitted through the active sinks.

CLI (no pytest needed)::

    python benchmarks/bench_local_step.py            # N in {16, 64}
    python benchmarks/bench_local_step.py --quick    # smoke scale + diff check
    python benchmarks/bench_local_step.py --json out.json
    python benchmarks/bench_local_step.py --record   # benchmarks/BENCH_local_step.json

``--quick`` additionally verifies the fleet/scalar differential contract
(agreement to <= 1e-8 over full training histories) and exits non-zero
on a mismatch, so CI runs double as a correctness guard.

Under pytest (``pytest benchmarks/bench_local_step.py``) the quick
configuration runs as a regression guard: the fleet engine must deliver
>= 3x on ``trainer.local_compute`` at N = 64.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct CLI use without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker, evaluate
from repro.nn import build_mlp
from repro.parallel import blas_limits
from repro.population import WorkerPopulation
from repro.telemetry import Telemetry, run_manifest, write_manifest

#: the phase whose fleet-batching the tentpole targets
LOCAL_PHASE = "trainer.local_compute"
#: fleet sub-phases reported in the per-phase breakdown
FLEET_PHASES = (
    "fleet.load",
    "fleet.sample",
    "fleet.forward",
    "fleet.backward",
    "fleet.step",
    "fleet.finalize",
)

DEFAULT_SIZES = (16, 64)
DEFAULT_ROUNDS = 20
N_FEATURES, N_CLASSES, HIDDEN = 16, 4, (64,)
SAMPLES_PER_WORKER, BATCH_SIZE, LOCAL_ITERS = 100, 8, 1
DIFF_TOL = 1e-8


def make_trainer(
    num_workers: int,
    engine: str,
    seed: int = 0,
    n_attackers: int = 2,
    telemetry: Telemetry | None = None,
) -> FederatedTrainer:
    """Fig09-style MLP federation: blobs data, mostly honest workers.

    The last ``n_attackers`` ranks are sign-flippers so the benchmark
    exercises the post-hoc ``finalize_update`` path, not just the honest
    fast path. ``telemetry`` overrides the per-run hub — the overhead
    check passes a disabled hub here to time rounds with
    instrumentation off.
    """
    total = num_workers * SAMPLES_PER_WORKER + 400
    data = make_blobs(
        n_samples=total, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed
    )
    train, test = train_test_split(data, 400 / len(data), seed=seed)
    shards = iid_partition(train, num_workers, seed=seed)

    def model_fn():
        return build_mlp(N_FEATURES, N_CLASSES, hidden=HIDDEN, seed=seed)

    workers = []
    for wid in range(num_workers):
        cls = SignFlippingWorker if wid >= num_workers - n_attackers else HonestWorker
        kwargs = {"p_s": 4.0} if cls is SignFlippingWorker else {}
        workers.append(
            cls(
                wid,
                shards[wid],
                model_fn,
                lr=0.05,
                batch_size=BATCH_SIZE,
                local_iters=LOCAL_ITERS,
                seed=seed + 1000 + wid,
                **kwargs,
            )
        )
    trainer = FederatedTrainer(
        model_fn(),
        WorkerPopulation.from_workers(workers),
        server_ranks=[0, 1],
        test_data=test,
        server_lr=0.05,
        seed=seed,
        local_engine=engine,
    )
    # isolate timings from the global profiler
    trainer.profiler = telemetry if telemetry is not None else Telemetry()
    return trainer


def time_engine(
    engine: str, num_workers: int, rounds: int, seed: int = 0, repeats: int = 2
) -> dict:
    """Run ``rounds`` federated rounds through one engine; phase seconds.

    Takes the best of ``repeats`` timed runs (fresh federation each) —
    the min filters scheduler noise the same way for both engines.
    """
    # Warm up BLAS threads / allocator on a throwaway federation so the
    # first timed run isn't paying one-off setup costs.
    warm = make_trainer(num_workers, engine, seed=seed + 77)
    warm.run(1, eval_every=1)
    best: dict | None = None
    for _ in range(repeats):
        trainer = make_trainer(num_workers, engine, seed=seed)
        # pin the BLAS pool so a multi-threaded BLAS can't skew the
        # engine-vs-engine comparison machine by machine
        with blas_limits(1):
            t0 = time.perf_counter()
            history = trainer.run(rounds, eval_every=rounds)
            total = time.perf_counter() - t0
        phases = {
            name: entry["seconds"]
            for name, entry in history.profile["timings"].items()
        }
        run = {
            "total_s": total,
            "local_s": phases.get(LOCAL_PHASE, 0.0),
            "phases": phases,
        }
        if best is None or run["local_s"] < best["local_s"]:
            best = run
    return best


def check_differential(
    num_workers: int = 8, rounds: int = 4, seed: int = 0
) -> float:
    """Max |fleet - scalar| over histories and final params (<= 1e-8)."""
    results = {}
    for engine in ("scalar", "fleet"):
        trainer = make_trainer(num_workers, engine, seed=seed)
        history = trainer.run(rounds, eval_every=1)
        results[engine] = (history, trainer.model.get_flat_params())
    (h_s, p_s), (h_f, p_f) = results["scalar"], results["fleet"]
    diffs = [float(np.abs(p_s - p_f).max())]
    for r_s, r_f in zip(h_s.rounds, h_f.rounds):
        diffs.append(abs(r_s.grad_norm - r_f.grad_norm))
        if r_s.test_loss is not None and r_f.test_loss is not None:
            diffs.append(abs(r_s.test_loss - r_f.test_loss))
            diffs.append(abs(r_s.test_acc - r_f.test_acc))
        if r_s.accepted != r_f.accepted:
            diffs.append(float("inf"))
    return max(diffs)


def eval_throughput(n_samples: int = 4096, repeats: int = 5, seed: int = 0) -> dict:
    """Throughput of the batched evaluator in samples/second."""
    data = make_blobs(
        n_samples=n_samples, n_features=N_FEATURES, num_classes=N_CLASSES, seed=seed
    )
    model = build_mlp(N_FEATURES, N_CLASSES, hidden=HIDDEN, seed=seed)
    evaluate(model, data)  # warm-up
    with blas_limits(1):
        t0 = time.perf_counter()
        for _ in range(repeats):
            evaluate(model, data)
        elapsed = time.perf_counter() - t0
    return {
        "samples": n_samples,
        "repeats": repeats,
        "seconds": elapsed,
        "samples_per_s": n_samples * repeats / max(elapsed, 1e-12),
    }


def telemetry_overhead(
    num_workers: int, rounds: int, seed: int = 0, samples: int = 120
) -> dict:
    """Wall-clock per federated round: in-memory sink vs telemetry disabled.

    Same protocol as ``bench_engine.telemetry_overhead``: two identical
    fleet-engine federations (one enabled hub, one disabled), strictly
    alternating individually timed ``run_round`` calls so both sides
    sample the same scheduler/cache conditions, compared on the average
    of the k fastest rounds — timing noise is one-sided additive, so the
    low tail estimates the true per-round cost. Telemetry defers event
    materialization to flush boundaries; the periodic ``flush()`` calls
    between timed rounds charge that deferred work outside the timed
    regions. ``enabled_s``/``disabled_s`` are scaled to ``rounds``
    rounds to match the engine timings above.
    """
    hubs = {"on": Telemetry(), "off": Telemetry(enabled=False)}
    trainers = {
        key: make_trainer(num_workers, "fleet", seed=seed, telemetry=hub)
        for key, hub in hubs.items()
    }
    times: dict[str, list[float]] = {"on": [], "off": []}
    with blas_limits(1):
        for i in range(samples + 5):
            order = ("on", "off") if i % 2 else ("off", "on")
            for key in order:
                trainer = trainers[key]
                t0 = time.perf_counter()
                trainer.run_round(i)
                times[key].append(time.perf_counter() - t0)
            if i % 25 == 0:
                for hub in hubs.values():
                    hub.flush()

    def floor(vals: list[float], k: int = 10) -> float:
        # drop warm-up samples, then average the k fastest
        return sum(sorted(vals[5:])[:k]) / k

    enabled = floor(times["on"]) * rounds
    disabled = floor(times["off"]) * rounds
    return {
        "num_workers": num_workers,
        "enabled_s": enabled,
        "disabled_s": disabled,
        "overhead_pct": 100.0 * (enabled - disabled) / max(disabled, 1e-12),
    }


def run_benchmark(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    rounds: int = DEFAULT_ROUNDS,
    seed: int = 0,
) -> dict:
    """Old-vs-new local-step timings per federation size."""
    by_size: dict[int, dict] = {}
    for n in sizes:
        scalar = time_engine("scalar", n, rounds, seed)
        fleet = time_engine("fleet", n, rounds, seed)
        by_size[n] = {
            "scalar": scalar,
            "fleet": fleet,
            "speedup_local": scalar["local_s"] / max(fleet["local_s"], 1e-12),
            "speedup_total": scalar["total_s"] / max(fleet["total_s"], 1e-12),
        }
    return {
        "model": f"mlp{list(HIDDEN)}",
        "n_features": N_FEATURES,
        "n_classes": N_CLASSES,
        "batch_size": BATCH_SIZE,
        "local_iters": LOCAL_ITERS,
        "rounds": rounds,
        "by_size": by_size,
        "evaluation": eval_throughput(seed=seed),
        "telemetry_overhead": telemetry_overhead(max(sizes), rounds, seed),
    }


def format_report(result: dict) -> list[str]:
    rows = [
        f"Local-step benchmark ({result['model']}, B={result['batch_size']}, "
        f"{result['rounds']} rounds per timing)"
    ]
    rows.append(
        f"{'N':>5} {'scalar_local_s':>15} {'fleet_local_s':>14} "
        f"{'speedup':>8} {'total':>7}"
    )
    for n, r in result["by_size"].items():
        rows.append(
            f"{n:>5} {r['scalar']['local_s']:>15.4f} "
            f"{r['fleet']['local_s']:>14.4f} "
            f"{r['speedup_local']:>7.1f}x {r['speedup_total']:>6.1f}x"
        )
    for n, r in result["by_size"].items():
        rows.append(f"  fleet per-phase seconds at N={n}:")
        for name in FLEET_PHASES:
            if name in r["fleet"]["phases"]:
                rows.append(f"    {name:<16} {r['fleet']['phases'][name]:.4f}")
    ev = result["evaluation"]
    rows.append(
        f"evaluation throughput: {ev['samples_per_s']:,.0f} samples/s "
        f"({ev['samples']} samples x {ev['repeats']} passes in {ev['seconds']:.4f}s)"
    )
    ov = result.get("telemetry_overhead")
    if ov:
        rows.append(
            f"telemetry overhead at N={ov['num_workers']} (in-memory sink vs "
            f"disabled): on={ov['enabled_s']:.4f}s off={ov['disabled_s']:.4f}s "
            f"({ov['overhead_pct']:+.1f}%)"
        )
    return rows


def bench_local_step_speedup(benchmark):
    """Pytest entry: the fleet engine must beat the scalar loop 3x at N=64."""
    result = benchmark.pedantic(
        run_benchmark,
        kwargs=dict(sizes=(64,), rounds=DEFAULT_ROUNDS),
        iterations=1, rounds=1, warmup_rounds=0,
    )
    for row in format_report(result):
        print(row)
    assert result["by_size"][64]["speedup_local"] > 3.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke scale (fewer rounds) + fleet/scalar differential check",
    )
    parser.add_argument(
        "--sizes", default="",
        help="comma-separated federation sizes (default 16,64)",
    )
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--json", default="", help="write the result as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="save the result to benchmarks/BENCH_local_step.json",
    )
    args = parser.parse_args(argv)

    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip()) or DEFAULT_SIZES
    rounds = min(args.rounds, 3) if args.quick else args.rounds

    if args.quick:
        diff = check_differential()
        status = "OK" if diff <= DIFF_TOL else "FAIL"
        print(f"differential fleet vs scalar: max|diff|={diff:.2e} [{status}]")
        if diff > DIFF_TOL:
            return 1

    result = run_benchmark(sizes=sizes, rounds=rounds)
    for row in format_report(result):
        print(row)
    # The result is also a run manifest: emitting it routes the record
    # through whatever telemetry sinks are active (memory/JSONL/console).
    run_manifest(
        "bench_local_step",
        config={
            "sizes": list(sizes), "rounds": rounds, "seed": 0,
            "quick": args.quick,
        },
        results=result,
    )
    paths = [Path(p) for p in (args.json,) if p]
    if args.record:
        paths.append(Path(__file__).resolve().parent / "BENCH_local_step.json")
    for path in paths:
        write_manifest(path, result)
        print(f"[saved {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
