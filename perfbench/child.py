"""Run one workload in this (fresh) process and write its raw results.

Usage: ``python3 perfbench/child.py REQUEST_JSON OUT_JSON``, started by
``run.py`` from the repository root. ``REQUEST_JSON`` holds the
workload, seed, seconds and mode:

* ``setup``: import, build and the warm-up rounds, then stop.
* ``timed``: the measured run, no tracing.
* ``traced``: the same run with span wrappers and a GC watch installed;
  it also computes the per-layer metrics and writes the spans out.

``setup_s`` runs from the parent's spawn to the end of the warm-up. Set-up
(imports, builds) is interpreter work, so it is calibrated with the
interpreter kernel, timed before the imports and again after the
warm-up; the time spent calibrating is reported so it can be left out.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calib import KERNELS, SETUP_CALIB_RUNS, median_seconds

ROOT = Path(__file__).resolve().parent.parent


class StopAfterWarmup(Exception):
    """Raised from the round probe to end a ``setup`` run."""


def run(req: dict, workdir: Path) -> dict:
    t0 = time.monotonic()
    cal_start = median_seconds("interp", SETUP_CALIB_RUNS)
    t_import0 = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (import cost belongs to setup.import_s)
    from repro.parallel import blas_limits

    import workloads
    from layers import layer_metrics, layer_shares, record_stats
    from tracer import Tracer, install

    t_imported = time.monotonic()
    wl = workloads.WORKLOADS[req["workload"]]
    seed, mode = int(req["seed"]), req["mode"]
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install(tracer)
    clock = workloads.RoundClock(wl.warmup, wl.kernel, tracer)
    if mode == "setup":
        sample = clock.sample

        def stop_after_warmup(t):
            sample(t)
            if clock.warmup_done_at is not None:
                raise StopAfterWarmup

        clock.sample = stop_after_warmup

    out: dict = {
        "workload": wl.name,
        "shape": wl.shape,
        "seed": seed,
        "mode": mode,
        "kernel": wl.kernel,
        "reference": clock.reference,
        "import_s": t_imported - t_import0,
        "episodes": [],
        "rounds_attempted": 0,
        "rounds_failed": 0,
    }
    records: list = []
    comm = {"sent": 0, "delivered": 0, "bytes": 0, "queued": 0}
    events = 0
    snapshot_kb = 0.0
    n_episodes = 1 if mode == "setup" else wl.episodes(float(req["seconds"]))
    t_build0 = time.monotonic()
    if tracer is not None:
        tracer.watch_gc()
    try:
        with blas_limits(1):
            for _ in range(n_episodes):
                try:
                    ep = wl.run_episode(seed, clock, workdir, tracer is not None)
                except StopAfterWarmup:
                    out["rounds_attempted"] += wl.warmup
                    break
                out.setdefault("profile", ep.profile)
                out["rounds_attempted"] += ep.rounds
                out["rounds_failed"] += len(ep.failures)
                losses = ep.losses()
                out["episodes"].append(
                    {
                        "digest": ep.digest,
                        "first_loss": losses[0],
                        "final_loss": losses[-1],
                        "node_load_kb": ep.node_load_max_bytes / ep.rounds / 1000.0,
                        "failures": {str(k): v for k, v in ep.failures.items()},
                        "timed_rounds": len(clock.intervals),
                    }
                )
                if wl.service:
                    out["episodes"][-1]["snapshot_error"] = ep.snapshot_error
                records.extend(ep.records)
                # the queue count is the state at the end of an episode
                comm = {k: comm[k] + ep.comm[k] for k in ("sent", "delivered", "bytes")}
                comm["queued"] = ep.comm["queued"]
                events += ep.events
                snapshot_kb = ep.snapshot_kb
                del ep
                gc.collect()
    finally:
        if tracer is not None:
            tracer.unwatch_gc()
    out["build_s"] = clock.started_at - t_build0
    out["warmup_s"] = clock.warmup_done_at - clock.started_at
    out["setup_end"] = clock.warmup_done_at
    out["setup_scale"] = KERNELS["interp"][1] * 2.0 / (cal_start + clock.setup_calib)
    out["setup_excluded_s"] = t_import0 - t0
    out["intervals"] = clock.intervals
    out["scaled"] = clock.scaled
    out["calib"] = clock.calib
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = record_stats(records, set(wl.config(seed).attackers))
    out["records"] = stats
    if tracer is not None:
        extra = {"comm": comm, "events": events, "snapshot_kb": snapshot_kb}
        out["layers"] = layer_metrics(tracer, clock.intervals, stats, extra)
        out["shares"] = layer_shares(tracer, len(clock.intervals))
        spans = workdir / "spans.npz"
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
        out["spans"] = len(tracer.start)
    return out


def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    out_path = Path(argv[2])
    workdir = out_path.parent
    try:
        result = run(req, workdir)
    except Exception:
        result = {"error": traceback.format_exc()}
    out_path.write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
