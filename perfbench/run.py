#!/usr/bin/env python3
"""Federation benchmark: absolute round time per workload, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload silo-logreg-n256 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Every workload runs in fresh processes (``child.py``) on the ``serial``
backend under ``blas_limits(1)``, with all inputs derived from
``--seed``. ``--seconds`` fixes how much work is measured: it is divided
by a workload's nominal episode length to give the episode count, so the
number of timed rounds does not depend on how fast the code is.

``--trace 0`` prints the end-to-end metrics: one timed process, plus
extra set-up-only processes so ``setup_s`` is a median. Round and set-up
times are calibrated against a small kernel timed beside them (see
``calib.py``), because other tenants of a shared box change its speed;
the raw wall-clock figures are printed next to them. ``--trace 1`` runs
an untraced and a traced process on the same inputs, half the seconds
each, and prints the per-layer metrics (raw wall time); the two history
digests must match.

The output checks (history digest stable across episodes and runs, the
drop-free byte formula per round, FIFL rejecting >= 95% of delivered
sign-flip updates on the silo workload, the last snapshot of a service
episode loading) make the command exit 1 with ``"correct": false``. The
last line of standard output is always the JSON result. Exit 2 means
the benchmark could not run at all (no ``src/repro`` to measure, or a
``BENCHMARK.json`` that disagrees with ``spec.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, KNOWN_DEFECTS, LAYER_MAP, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = (
    "silo-logreg-n256",
    "fig07-lenet",
    "service-churn",
    "cohort-reputation",
)
#: fresh processes whose set-up time is measured per --trace 0 run
SETUP_SAMPLES = 5
#: wall budget of one invocation, which must end within 180 s
BUDGET_S = 170.0
SILO_REJECT_MIN = 0.95
#: drop-free silo bytes per round: N·D·8 + N·M·8 + (N−1)·D·8
SILO_ROUND_BYTES = 256 * 132 * 8 + 256 * 4 * 8 + 255 * 132 * 8


class ChildError(RuntimeError):
    pass


def out_dir() -> Path:
    return ROOT / ".perfbench_out"


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its result."""
    workdir = out_dir() / f"{workload}-{mode}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_file = workdir / "result.json"
    if result_file.exists():
        result_file.unlink()
    spawned_at = time.monotonic()
    req = {"workload": workload, "seed": seed, "seconds": seconds, "mode": mode}
    timeout = max(1.0, deadline - spawned_at)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(req), str(result_file)],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload}/{mode}: no result within {timeout:.0f} s") from exc
    if not result_file.exists():
        raise ChildError(f"{workload}/{mode}: exited {proc.returncode} without a result")
    result = json.loads(result_file.read_text())
    if "error" in result:
        raise ChildError(f"{workload}/{mode} failed:\n{result['error']}")
    result["spawned_at"] = spawned_at
    result["setup_wall_s"] = result["setup_end"] - spawned_at - result["setup_excluded_s"]
    result["setup_s"] = result["setup_wall_s"] * result["setup_scale"]
    return result


# -- statistics -------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile, on a 0.5 grid, leaving at least 10 of ``n``
    samples beyond it (the median when ``n`` < 20)."""
    return max(50.0, math.floor(200.0 * (1.0 - 10.0 / n)) / 2.0)


def episode_means(result: dict) -> list[float]:
    """Mean calibrated round time of each episode of one child."""
    iv = result["scaled"]
    bounds = [0] + [ep["timed_rounds"] for ep in result["episodes"]]
    return [
        statistics.fmean(iv[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a
    ]


def end_to_end(timed: dict, setups: list[dict]) -> tuple[dict, dict]:
    """The ``END_TO_END`` metrics plus the details printed beside them.

    Round times are calibrated (see ``workloads.RoundClock``); the raw
    wall-clock figures are printed beside them.
    """
    iv = timed["scaled"]
    wall = timed["intervals"]
    p_tail = tail_percentile(len(iv))
    values = {
        "rounds_per_s": len(iv) / sum(iv),
        "round_ms_p50": 1000.0 * statistics.median(iv),
        "round_ms_tail": 1000.0 * percentile(iv, p_tail),
        "setup_s": statistics.median(r["setup_s"] for r in [timed, *setups]),
        "peak_rss_mb": timed["peak_rss_mb"],
        "node_load_max_kb": statistics.median(
            ep["node_load_kb"] for ep in timed["episodes"]
        ),
    }
    beyond = sum(1 for x in iv if 1000.0 * x > values["round_ms_tail"])
    slowdown = statistics.median(timed["calib"]) / timed["reference"]
    details = {
        "rounds_per_s": f"wall {len(wall) / sum(wall):.4g}/s; machine slowdown "
        f"x{slowdown:.2f} ({timed['kernel']} kernel)",
        "round_ms_p50": f"wall {1000.0 * statistics.median(wall):.4g} ms",
        "round_ms_tail": f"p{p_tail:g} of {len(iv)} timed rounds, {beyond} beyond; "
        f"wall {1000.0 * percentile(wall, p_tail):.4g} ms",
        "setup_s": f"median of {1 + len(setups)} fresh processes; wall "
        f"{statistics.median(r['setup_wall_s'] for r in [timed, *setups]):.3f} s",
    }
    return values, details


# -- output checks ------------------------------------------------------------------


def output_checks(workload: str, results: list[dict]) -> list[tuple[bool, str]]:
    checks: list[tuple[bool, str]] = []
    digests = {ep["digest"] for r in results for ep in r["episodes"]}
    n_eps = sum(len(r["episodes"]) for r in results)
    checks.append(
        (
            len(digests) == 1,
            f"history digest identical across {n_eps} episodes in "
            f"{'/'.join(r['mode'] for r in results)} runs: {', '.join(sorted(digests))}",
        )
    )
    failures = [
        f"{r['mode']} ep{i} round {rnd}: {why}"
        for r in results
        for i, ep in enumerate(r["episodes"])
        for rnd, why in ep["failures"].items()
    ]
    rounds = sum(r["rounds_attempted"] for r in results)
    label = {
        "silo-logreg-n256": f"byte growth = {SILO_ROUND_BYTES:,} B every round",
        "fig07-lenet": "byte growth = N·D·8 + N·M·8 + (N−1)·D·8 every round",
        "cohort-reputation": "episode bytes = Σ drop-free formula over cohorts",
        "service-churn": "no round skipped",
    }[workload]
    checks.append(
        (not failures, f"{label} ({rounds} rounds){'; ' + failures[0] if failures else ''}")
    )
    losses = [(ep["first_loss"], ep["final_loss"]) for r in results for ep in r["episodes"]]
    first, final = losses[0]
    checks.append(
        (
            all(0.0 < b < a for a, b in losses),
            f"test loss falls over an episode: {first:.6g} -> final_test_loss {final:.6g}",
        )
    )
    if workload == "silo-logreg-n256":
        for r in results:
            rec = r["records"]
            frac = rec["attacker_rejected"] / max(rec["attacker_delivered"], 1)
            checks.append(
                (
                    frac >= SILO_REJECT_MIN and rec["attacker_delivered"] > 0,
                    f"FIFL rejected {rec['attacker_rejected']} of "
                    f"{rec['attacker_delivered']} delivered sign-flip updates "
                    f"({frac:.3f} >= {SILO_REJECT_MIN}) [{r['mode']}]",
                )
            )
    snap_errors = [
        ep["snapshot_error"]
        for r in results
        for ep in r["episodes"]
        if ep.get("snapshot_error")
    ]
    if any("snapshot_error" in ep for r in results for ep in r["episodes"]):
        checks.append(
            (
                not snap_errors,
                "last snapshot of every episode loads with load_snapshot"
                + (f": {snap_errors[0]}" if snap_errors else ""),
            )
        )
    return checks


def claims(workload: str, layers: dict, shares: dict) -> list[tuple[bool, str]]:
    """What the traced run shows each workload stresses (reported, not gated)."""
    if workload == "silo-logreg-n256":
        n = layers["comm.send_calls"]
        return [(n == 2044, f"comm.send_calls = {n:g} per round (N·M + M·(N−1) = 2,044)")]
    if workload == "fig07-lenet":
        top = next(iter(shares))
        return [(top == "nn", f"largest layer by self time: {top} ({shares[top]:.1f} ms/round)")]
    out = [(layers["service.save_ms_p50"] > 0, f"service.save_ms_p50 = {layers['service.save_ms_p50']:.2f} ms")]
    if workload == "cohort-reputation":
        timed = {k: v for k, v in layers.items() if k.endswith("_ms") and not k.startswith(("trace.", "service."))}
        top = max(timed, key=timed.get)
        out.append((top == "population.sample_ms", f"largest single layer: {top} ({timed[top]:.2f} ms/round)"))
    return out


# -- one workload ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Run one workload in one mode; returns the printable result."""
    if trace:
        # the untraced and the traced process share the run's seconds
        timed = spawn(workload, seed, seconds / 2, "timed", deadline)
        traced = spawn(workload, seed, seconds / 2, "traced", deadline)
        results = [timed, traced]
        plain = episode_means(timed)
        with_trace = episode_means(traced)
        per_episode = [100.0 * (b / a - 1.0) for a, b in zip(plain, with_trace)]
        layers = dict(traced["layers"])
        layers.update(
            {
                "setup.import_s": timed["import_s"],
                "setup.build_s": timed["build_s"],
                "setup.warmup_s": timed["warmup_s"],
                "trace.overhead_pct": 100.0
                * (statistics.fmean(traced["scaled"])
                   / statistics.fmean(timed["scaled"]) - 1.0),
                "trace.overhead_iqr_pct": (
                    percentile(per_episode, 75) - percentile(per_episode, 25)
                ),
            }
        )
        metrics = {k: (layers[k], PER_LAYER[k][0]) for k in PER_LAYER}
        details = {
            "trace.overhead_pct": "per-episode: "
            + ", ".join(f"{x:+.1f}%" for x in per_episode),
        }
        extra = {
            "claims": claims(workload, layers, traced["shares"]),
            "shares": traced["shares"],
            "profile": traced.get("profile", {}),
            "spans": f"{traced['spans']} spans in {traced['spans_file']}",
        }
    else:
        setups = [
            spawn(workload, seed, seconds, "setup", deadline)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        timed = spawn(workload, seed, seconds, "timed", deadline)
        results = [timed]
        values, details = end_to_end(timed, setups)
        metrics = {k: (values[k], END_TO_END[k][0]) for k in END_TO_END}
        extra = {}
    attempted = sum(r["rounds_attempted"] for r in results)
    failed = sum(r["rounds_failed"] for r in results)
    details["round_fail_frac"] = f"{failed / attempted:.4f} ({failed} of {attempted} rounds)"
    return {
        "workload": workload,
        "shape": timed["shape"],
        "checks": output_checks(workload, results),
        "metrics": metrics,
        "details": details,
        "attempted": attempted,
        "failed": failed,
        **extra,
    }


def report(res: dict, seed: int, trace: bool) -> None:
    print(f"== {res['workload']}  seed={seed}  trace={int(trace)}")
    print(f"  shape: {res['shape']}")
    for name, (value, unit) in res["metrics"].items():
        note = res["details"].get(name, "")
        print(f"  {name:<32} {value:>14.6g} {unit:<14} {note}")
    print(f"  {'round_fail_frac':<32} {res['details']['round_fail_frac']}")
    if trace:
        print("  self time by layer (ms/round): " + ", ".join(
            f"{k} {v:.2f}" for k, v in res["shares"].items()
        ))
        timings = res["profile"].get("timings", {})
        top = sorted(timings.items(), key=lambda kv: -kv[1]["seconds"])[:8]
        print("  program phase table, first episode (s): " + ", ".join(
            f"{k} {v['seconds']:.3f}" for k, v in top
        ))
        print(f"  {res['spans']}")
        for ok, text in res["claims"]:
            print(f"  claim {'yes' if ok else 'NO '}  {text}")
        for metrics, moves in LAYER_MAP.items():
            targets = "; ".join(f"{e2e} on {wl}: {how}" for e2e, wl, how in moves)
            print(f"  map   {metrics} -> {targets}")
    for ok, text in res["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'}  {text}")
    if res["workload"] == "silo-logreg-n256":
        for text in KNOWN_DEFECTS:
            print(f"  known defect: {text}")


# -- entry point -------------------------------------------------------------------------


def spec_mismatch() -> str | None:
    """Why ``BENCHMARK.json`` disagrees with ``spec.py`` (None if it agrees)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    bench = json.loads(path.read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    per = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    if e2e != END_TO_END:
        return "end_to_end metrics differ from spec.END_TO_END"
    if per != PER_LAYER:
        return "per_layer metrics differ from spec.PER_LAYER"
    if sorted(names) != sorted(WORKLOAD_NAMES):
        return "workloads differ from run.WORKLOAD_NAMES"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problem = spec_mismatch()
    if problem:
        print(f"perfbench: BENCHMARK.json and spec.py disagree: {problem}", file=sys.stderr)
        return 2

    if args.workload == "all":
        # every workload, both modes; the budget grows with the work
        jobs = [(w, t) for w in WORKLOAD_NAMES for t in (False, True)]
        deadline = started + BUDGET_S * len(jobs)
    else:
        jobs = [(args.workload, bool(args.trace))]
        deadline = started + BUDGET_S
    print(f"perfbench seed={args.seed} seconds={args.seconds} (one seed drives every workload)")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in jobs:
            res = measure(workload, args.seed, args.seconds, trace, deadline)
            report(res, args.seed, trace)
            summary["correct"] &= all(ok for ok, _ in res["checks"])
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            prefix = "" if len(jobs) == 1 else f"{workload}/"
            for name, (value, unit) in res["metrics"].items():
                summary["metrics"][prefix + name] = {"value": value, "unit": unit}
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        summary["correct"] = False
        summary["attempted"] = max(summary["attempted"], 1)
        summary["failed"] = summary["attempted"]
    summary["correct"] = bool(summary["correct"] and summary["failed"] == 0)
    print(f"elapsed {time.monotonic() - started:.1f} s")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
