"""Parallel-backend benchmark: multi-core fleet GEMMs vs the serial oracle.

Times the ``trainer.local_compute`` phase of :class:`FederatedTrainer`
on a fig09-style MLP federation (synthetic blobs, 16 features, 4
classes, one hidden layer of 128) on the ``thread`` backend (see
:mod:`repro.parallel`) against ``serial``, per worker count, and reports
the scaling curve. Each speedup is the median of interleaved
serial/thread pairs (see :func:`paired_speedup`). The timed regions run
under :func:`repro.parallel.blas_limits` so BLAS-pool oversubscription
never pollutes the comparison.

Byte-identity is the other half of the contract: every run trains the
same seeded FIFL federation on both backends and requires the histories
(losses, accept verdicts, rewards, final parameters) to match the
serial run *exactly* — not to tolerance.

Speedup expectations are core-gated: the machine's usable core count is
recorded in the manifest, the smoke gate (median paired speedup
``> 1.0``) applies from 2 cores and the 2x target from 4 cores. On a
1-core container the curve is still recorded (it documents dispatch
overhead) but no speedup assertion can be meaningful.

CLI (no pytest needed)::

    python benchmarks/bench_parallel.py            # N in {64, 256}
    python benchmarks/bench_parallel.py --quick    # differential + smoke gate
    python benchmarks/bench_parallel.py --json out.json
    python benchmarks/bench_parallel.py --record   # benchmarks/BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct CLI use without install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import make_mechanism
from repro.datasets import iid_partition, make_blobs, train_test_split
from repro.fl import FederatedTrainer, HonestWorker, SignFlippingWorker
from repro.population import WorkerPopulation
from repro.nn import build_mlp
from repro.parallel import auto_workers, blas_limits
from repro.telemetry import Telemetry, run_manifest, write_manifest

#: the phase the parallel fleet path shards across cores
LOCAL_PHASE = "trainer.local_compute"

DEFAULT_SIZES = (64, 256)
DEFAULT_ROUNDS = 10
DEFAULT_PAIRS = 3
WORKER_COUNTS = (1, 2, 4)
#: smoke scale: big enough that two threads are expected to win
QUICK_SIZE, QUICK_ROUNDS, QUICK_PAIRS, QUICK_WORKERS = 256, 3, 5, 2
N_FEATURES, N_CLASSES, HIDDEN = 16, 4, (128,)
SAMPLES_PER_WORKER, BATCH_SIZE, LOCAL_ITERS = 100, 16, 2


def make_trainer(
    num_workers: int,
    backend: str,
    max_workers: int | None = None,
    seed: int = 0,
    n_attackers: int = 2,
    with_fifl: bool = False,
) -> FederatedTrainer:
    """Fig09-style MLP federation with the execution backend plumbed in.

    The last ``n_attackers`` ranks are sign-flippers so every backend
    exercises the post-hoc ``finalize_update`` path (where attacker RNG
    draws must line up with serial). ``with_fifl`` attaches the FIFL
    mechanism, which adopts the trainer's pool for its sharded
    detection/contribution kernels — the differential then covers both
    hot paths.
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
    mechanism = make_mechanism("fifl", threshold=0.0) if with_fifl else None
    trainer = FederatedTrainer(
        model_fn(),
        population=WorkerPopulation.from_workers(workers),
        server_ranks=[0, 1],
        test_data=test,
        mechanism=mechanism,
        server_lr=0.05,
        seed=seed,
        backend=backend,
        max_workers=max_workers,
    )
    # isolate timings from the global profiler
    trainer.profiler = Telemetry()
    return trainer


def _local_seconds(trainer: FederatedTrainer, rounds: int) -> float:
    """``local_compute`` seconds of one ``rounds``-round run."""
    with blas_limits(1):
        history = trainer.run(rounds, eval_every=rounds)
    return history.profile["timings"].get(LOCAL_PHASE, {}).get("seconds", 0.0)


def paired_speedup(
    num_workers: int,
    rounds: int,
    max_workers: int,
    pairs: int,
    seed: int = 0,
) -> dict:
    """Median serial/thread ``local_compute`` ratio over interleaved pairs.

    One serial and one thread trainer are built and warmed once; each
    pair then times ``rounds`` rounds of both, alternating which side
    goes first, so slow drift (a noisy neighbour, frequency scaling)
    lands on both sides of every ratio. The median of the per-pair
    ratios is the headline; min/max give its spread.

    Timed under ``blas_limits(1)`` so serial and parallel contend for
    the same one-BLAS-thread-per-shard budget — without the guard, a
    multi-threaded BLAS makes "serial" secretly parallel and the
    comparison meaningless.
    """
    serial = make_trainer(num_workers, "serial", seed=seed)
    thread = make_trainer(num_workers, "thread", max_workers, seed=seed)
    try:
        for trainer in (serial, thread):
            trainer.run(1, eval_every=1)
        serial_s, thread_s = [], []
        for i in range(pairs):
            if i % 2 == 0:
                serial_s.append(_local_seconds(serial, rounds))
                thread_s.append(_local_seconds(thread, rounds))
            else:
                thread_s.append(_local_seconds(thread, rounds))
                serial_s.append(_local_seconds(serial, rounds))
    finally:
        thread.backend.close()
    ratios = [s / max(t, 1e-12) for s, t in zip(serial_s, thread_s)]
    return {
        "serial_local_s": statistics.median(serial_s),
        "local_s": statistics.median(thread_s),
        "speedup_local": statistics.median(ratios),
        "speedup_min": min(ratios),
        "speedup_max": max(ratios),
        "pairs": pairs,
    }


def history_fingerprint(trainer: FederatedTrainer, rounds: int) -> dict:
    """Train and reduce the run to exactly-comparable outputs."""
    history = trainer.run(rounds, eval_every=1)
    out = {
        "params": trainer.model.get_flat_params().copy(),
        "rounds": [
            (r.test_loss, r.test_acc, r.grad_norm, tuple(sorted(r.accepted.items())),
             tuple(sorted(r.mechanism_records.get("rewards", {}).items())))
            for r in history.rounds
        ],
    }
    trainer.backend.close()
    return out


def check_differentials(
    num_workers: int = 16, rounds: int = 4, seed: int = 0,
    worker_counts: tuple[int, ...] = (2,),
) -> dict[str, bool]:
    """Byte-identity of the thread backend against the serial oracle.

    Runs the full FIFL pipeline (fleet local SGD + sharded round
    kernels) and compares histories and final parameters with ``==`` —
    the ordered-reduce contract promises bitwise equality, so any
    tolerance would hide a real divergence.
    """
    oracle = history_fingerprint(
        make_trainer(num_workers, "serial", seed=seed, with_fifl=True), rounds
    )
    verdicts: dict[str, bool] = {}
    for mw in worker_counts:
        got = history_fingerprint(
            make_trainer(num_workers, "thread", mw, seed=seed, with_fifl=True),
            rounds,
        )
        verdicts[f"thread_w{mw}"] = bool(
            np.array_equal(oracle["params"], got["params"])
            and oracle["rounds"] == got["rounds"]
        )
    return verdicts


def run_benchmark(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    rounds: int = DEFAULT_ROUNDS,
    worker_counts: tuple[int, ...] = WORKER_COUNTS,
    pairs: int = DEFAULT_PAIRS,
    seed: int = 0,
) -> dict:
    """Paired serial/thread scaling curve per federation size.

    ``bitwise_identical`` is left for the caller, which runs
    :func:`check_differentials` before any timing.
    """
    cores = auto_workers()
    by_size: dict[int, dict] = {}
    for n in sizes:
        curve = {
            str(mw): paired_speedup(n, rounds, mw, pairs, seed=seed)
            for mw in worker_counts
        }
        by_size[n] = {
            "scaling": {"thread": curve},
            "speedup_best": max(e["speedup_local"] for e in curve.values()),
        }
    return {
        "model": f"mlp{list(HIDDEN)}",
        "n_features": N_FEATURES,
        "n_classes": N_CLASSES,
        "batch_size": BATCH_SIZE,
        "local_iters": LOCAL_ITERS,
        "rounds": rounds,
        "pairs": pairs,
        "cores": cores,
        "worker_counts": list(worker_counts),
        "by_size": by_size,
    }


def format_report(result: dict) -> list[str]:
    rows = [
        f"Parallel-backend benchmark ({result['model']}, B={result['batch_size']}, "
        f"{result['local_iters']} local iters, {result['rounds']} rounds per "
        f"timing, median of {result['pairs']} serial/thread pairs, "
        f"{result['cores']} usable core(s))"
    ]
    for n, r in result["by_size"].items():
        rows.append(f"N={n}:")
        for mw, e in r["scaling"]["thread"].items():
            rows.append(
                f"  thread x{mw}: serial {e['serial_local_s']:.4f}s, "
                f"thread {e['local_s']:.4f}s ({e['speedup_local']:.2f}x, "
                f"pairs {e['speedup_min']:.2f}-{e['speedup_max']:.2f}x)"
            )
        rows.append(f"  best speedup: {r['speedup_best']:.2f}x")
    rows.append(
        f"bitwise identical to serial: {result['bitwise_identical']}"
    )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help=f"smoke scale (N={QUICK_SIZE}, thread x{QUICK_WORKERS}, "
        f"{QUICK_PAIRS} pairs) + serial/thread byte-identity gate",
    )
    parser.add_argument(
        "--sizes", default="",
        help="comma-separated federation sizes (default 64,256)",
    )
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--json", default="", help="write the result as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="save the result to benchmarks/BENCH_parallel.json",
    )
    args = parser.parse_args(argv)

    cores = auto_workers()
    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip()) or DEFAULT_SIZES
    rounds, pairs, worker_counts = args.rounds, DEFAULT_PAIRS, WORKER_COUNTS
    if args.quick:
        sizes, worker_counts = (QUICK_SIZE,), (QUICK_WORKERS,)
        rounds, pairs = QUICK_ROUNDS, QUICK_PAIRS

    verdicts = check_differentials(worker_counts=(2,))
    for key, ok in verdicts.items():
        print(f"differential serial vs {key}: {'byte-identical' if ok else 'MISMATCH'}")
    if not all(verdicts.values()):
        return 1

    result = run_benchmark(
        sizes=sizes, rounds=rounds, worker_counts=worker_counts, pairs=pairs
    )
    result["bitwise_identical"] = all(verdicts.values())
    for row in format_report(result):
        print(row)

    # Speedup gates are core-gated: they assert real parallel hardware
    # behaviour, not scheduler luck on an oversubscribed single core.
    best = max(r["speedup_best"] for r in result["by_size"].values())
    if cores >= 2 and best <= 1.0:
        print(f"FAIL: best median paired speedup {best:.2f}x <= 1.0 on {cores} cores")
        return 1
    if cores >= 4 and not args.quick and 256 in result["by_size"]:
        target = result["by_size"][256]["speedup_best"]
        if target < 2.0:
            print(f"FAIL: N=256 speedup {target:.2f}x < 2.0x on {cores} cores")
            return 1

    run_manifest(
        "bench_parallel",
        config={
            "sizes": list(sizes), "rounds": rounds, "pairs": pairs, "seed": 0,
            "quick": args.quick, "cores": cores,
        },
        results=result,
    )
    paths = [Path(p) for p in (args.json,) if p]
    if args.record:
        paths.append(Path(__file__).resolve().parent / "BENCH_parallel.json")
    for path in paths:
        write_manifest(path, result)
        print(f"[saved {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
