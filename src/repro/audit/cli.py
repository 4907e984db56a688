"""``python -m repro.audit`` — interrogate a federation's incentive decisions.

Subcommands (all read one or more JSONL traces; pass a killed run's
trace followed by its resume's trace to audit across process
lifetimes):

* ``explain  TRACE... --worker W --round T`` — decompose one decision
  into its causal inputs (margin vs. threshold, reputation delta path,
  contribution share, budget-scaled reward);
* ``worker   TRACE... --worker W`` — one worker's reward/reputation
  timeline across every round it appeared in;
* ``round    TRACE... --round T`` — the per-worker decision table of
  one round;
* ``fairness TRACE...`` — cumulative Gini/entropy drill-down with
  per-worker attribution and (``--attackers`` / ``--dir``)
  attacker-vs-honest and participation-cohort breakdowns;
* ``verify   TRACE... [--dir SNAPDIR]`` — cross-check the
  reconstructed lineage against the trace's ledger commits and, with
  ``--dir``, the resumed service's reputation store, durable chain,
  and rolling history-digest chain. ``--strict`` fails when any check
  was skipped (exit 1 on any failure). Undecodable trace lines (a
  killed segment's torn tail) are dropped and reported as the skipped
  ``trace-decodable`` check, so ``--strict`` refuses them.

Exit codes: 0 ok, 1 failed checks, 2 usage errors, an unreadable trace
or no decodable events.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..telemetry.sinks import load_trace
from .explain import (
    explain_decision,
    explain_lines,
    find_decision,
    round_lines,
    worker_lines,
)
from .fairness import fairness_report
from .records import AuditError
from .reconstruct import (
    cohort_samples,
    decisions_from_trace,
    skipped_rounds,
)
from .verify import verify_service, verify_trace

__all__ = ["main"]


def _attacker_ids(args) -> set[int] | None:
    ids: set[int] = set()
    if args.attackers:
        ids.update(int(w) for w in args.attackers.split(","))
    if getattr(args, "dir", None):
        from ..service.snapshot import latest_snapshot, load_snapshot

        snap = latest_snapshot(args.dir)
        if snap is not None:
            config, _ = load_snapshot(snap)
            ids.update(int(w) for w in config.attackers)
    return ids if ids else None


def _cmd_explain(args, events) -> int:
    decisions = decisions_from_trace(events)
    d = find_decision(decisions, args.worker, args.round)
    if d is None:
        print(
            f"no decision for worker {args.worker} in round {args.round} "
            f"(not sampled, or round absent from the trace)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(explain_decision(d), indent=2, sort_keys=True))
    else:
        for line in explain_lines(d):
            print(line)
    return 0


def _cmd_worker(args, events) -> int:
    decisions = decisions_from_trace(events)
    skipped = skipped_rounds(events)
    if args.json:
        rows = [
            d.as_dict()
            for d in decisions
            if d.worker == args.worker
        ]
        print(json.dumps({"worker": args.worker, "decisions": rows,
                          "skipped_rounds": skipped}, indent=2, sort_keys=True))
        return 0
    for line in worker_lines(decisions, args.worker, skipped):
        print(line)
    return 0


def _cmd_round(args, events) -> int:
    decisions = decisions_from_trace(events)
    skipped = skipped_rounds(events)
    if args.json:
        rows = [d.as_dict() for d in decisions if d.round == args.round]
        print(json.dumps({"round": args.round, "decisions": rows},
                         indent=2, sort_keys=True))
        return 0
    for line in round_lines(decisions, args.round, skipped):
        print(line)
    return 0


def _cmd_fairness(args, events) -> int:
    decisions = decisions_from_trace(events)
    report = fairness_report(
        decisions,
        attackers=_attacker_ids(args),
        cohorts=cohort_samples(events) or None,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    cum = report["cumulative"]
    print(
        f"fairness over {report['rounds']} rounds, {report['workers']} "
        f"workers: cumulative reward Gini {cum['reward_gini']:.4f}, "
        f"share entropy {cum['share_entropy']:.4f}"
    )
    print(
        f"{'worker':>6} {'rounds':>7} {'accepted':>9} {'flagged':>8} "
        f"{'uncertain':>10} {'final_rep':>10} {'cum_reward':>11}"
    )
    for row in report["per_worker"]:
        print(
            f"{row['worker']:>6} {row['rounds']:>7} {row['accepted']:>9} "
            f"{row['flagged']:>8} {row['uncertain']:>10} "
            f"{row['final_reputation']:>10.4f} "
            f"{row['cumulative_reward']:>11.4f}"
        )
    groups = report.get("groups")
    if groups:
        for name in ("attacker", "honest"):
            g = groups[name]
            mean = g["reward_mean"]
            print(
                f"{name}: {g['workers']} workers, total reward "
                f"{g['reward_total']:.4f}"
                + (f", mean {mean:.4f}" if mean is not None else "")
                + f", flagged rounds {g['flagged_rounds']}"
            )
        ratio = groups.get("attacker_reward_ratio")
        if ratio is not None:
            print(f"attacker/honest mean-reward ratio: {ratio:.4f}")
    cohorts = report.get("cohorts")
    if cohorts:
        print(
            f"cohorts: {cohorts['sampled_rounds']} sampled rounds over "
            f"population {cohorts['population_size']}, participation "
            f"min/median/max {cohorts['participation_min']}/"
            f"{cohorts['participation_median']}/"
            f"{cohorts['participation_max']}, final coverage "
            f"{cohorts['coverage_final']}"
        )
    return 0


def _cmd_verify(args, events) -> int:
    report = verify_trace(events)
    if args.skipped_lines:
        report.skip(
            "trace-decodable",
            f"{args.skipped_lines} undecodable line(s) skipped",
        )
    if args.dir:
        verify_service(events, args.dir, report=report)
    else:
        report.skip("snapshot-manifest", "no --dir given")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    ok = report.ok_strict() if args.strict else report.ok
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit",
        description="audit a federation's incentive decisions from its trace",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "traces", nargs="+",
            help="JSONL trace file(s); concatenate kill/resume segments",
        )
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    p = add("explain", "decompose one (worker, round) decision")
    p.add_argument("--worker", type=int, required=True)
    p.add_argument("--round", type=int, required=True)
    p.set_defaults(fn=_cmd_explain)

    p = add("worker", "one worker's decision timeline")
    p.add_argument("--worker", type=int, required=True)
    p.set_defaults(fn=_cmd_worker)

    p = add("round", "one round's per-worker decision table")
    p.add_argument("--round", type=int, required=True)
    p.set_defaults(fn=_cmd_round)

    p = add("fairness", "cumulative fairness drill-down")
    p.add_argument(
        "--attackers", default=None,
        help="comma-separated attacker worker ids for the group split",
    )
    p.add_argument(
        "--dir", default=None,
        help="service snapshot dir (attacker ids read from its config)",
    )
    p.set_defaults(fn=_cmd_fairness)

    p = add("verify", "cross-check lineage vs ledger/store/snapshots")
    p.add_argument(
        "--dir", default=None,
        help="service snapshot dir for the continuity checks",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="skipped checks (missing prerequisites) count as failures",
    )
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    events, args.skipped_lines = load_trace(*args.traces)
    if not events:
        return 2
    try:
        return args.fn(args, events)
    except AuditError as exc:
        print(f"audit error: {exc}", file=sys.stderr)
        return 2
