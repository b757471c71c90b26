"""``python -m repro.workload`` — the load-harness CLI.

Runs a phased load schedule against a chosen front-end and prints a
latency/throughput report; with ``--p99-budget`` it exits non-zero when
the merged p99 of the primary op exceeds the budget (the CI tail gate).

Examples::

    python -m repro.workload --schedule sched.json --max-rate 50
    python -m repro.workload --rate 40 --duration 10 --frontend sharded \\
        --shards 4 --store-dir warm-idx --mutate-mix 0.1 \\
        --report BENCH_workload.json --p99-budget 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.utils.errors import ReproError
from repro.workload.drivers import FRONTENDS
from repro.workload.runner import WorkloadConfig, run_workload
from repro.workload.schedule import Schedule


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description="Load harness for the matching service (tail-latency gate).",
    )
    source = parser.add_argument_group("load shape")
    source.add_argument(
        "--schedule", metavar="FILE",
        help="JSON schedule file (phases of ramp/steady/pause)",
    )
    source.add_argument(
        "--rate", type=float, metavar="RPS",
        help="steady-rate shorthand when no --schedule is given",
    )
    source.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="duration for --rate shorthand (default: 10)",
    )
    source.add_argument(
        "--max-rate", type=float, default=None, metavar="RPS",
        help="hard fleet-wide TPS ceiling (token bucket; default: uncapped)",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument("--workers", type=int, default=2, help="driver processes (default: 2)")
    fleet.add_argument(
        "--frontend", choices=FRONTENDS, default="flat",
        help="service front-end under test (default: flat)",
    )
    fleet.add_argument("--shards", type=int, default=2, help="shards for --frontend sharded")
    fleet.add_argument(
        "--backend", default=None, help="solver backend: python or numpy (alias: mmap)"
    )
    fleet.add_argument("--store-dir", default=None, help="shared warm store directory")
    fleet.add_argument(
        "--inline", action="store_true",
        help="run drivers in-process instead of multiprocessing (deterministic)",
    )
    mix = parser.add_argument_group("request mix")
    mix.add_argument("--seed", type=int, default=0, help="scenario + request-stream seed")
    mix.add_argument(
        "--mutate-mix", type=float, default=0.0, metavar="FRACTION",
        help="fraction of requests that mutate the corpus and update_graph",
    )
    mix.add_argument(
        "--prefilter", default="auto", choices=("auto", "off", "strict"),
        help="candidate prefilter mode passed to every match (default: auto)",
    )
    out = parser.add_argument_group("output & gating")
    out.add_argument("--report", metavar="FILE", help="write the JSON report here")
    out.add_argument(
        "--p99-budget", type=float, default=None, metavar="SECONDS",
        help="fail (exit 1) if the primary op's merged p99 exceeds this",
    )
    out.add_argument(
        "--stats-interval", type=float, default=1.0, metavar="SECONDS",
        help="stats publisher sampling period (default: 1.0)",
    )
    return parser


def _format_seconds(value: float | None) -> str:
    if value is None:
        return "n/a"
    return f"{value * 1000:.3f}ms" if value < 1 else f"{value:.3f}s"


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schedule is None and args.rate is None:
        parser.error("pass --schedule FILE or the --rate/--duration shorthand")
    if args.schedule is not None and args.rate is not None:
        parser.error("pass either --schedule or --rate, not both")
    try:
        schedule = (
            Schedule.from_file(args.schedule)
            if args.schedule is not None
            else Schedule.steady(args.rate, args.duration)
        )
        config = WorkloadConfig(
            schedule=schedule,
            workers=args.workers,
            frontend=args.frontend,
            shards=args.shards,
            backend=args.backend,
            store_dir=args.store_dir,
            seed=args.seed,
            max_rate=args.max_rate,
            mutate_mix=args.mutate_mix,
            prefilter=args.prefilter,
            stats_interval=args.stats_interval,
            p99_budget=args.p99_budget,
            processes=not args.inline,
        )
        report = run_workload(config)
    except ReproError as exc:
        print(f"workload error: {exc}", file=sys.stderr)
        return 2

    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))

    stats = report["stats"]
    print(
        f"workload: {report['requests']} requests "
        f"({report['errors']} errors, {report['mutations']} mutations) "
        f"in {report['elapsed_seconds']:.1f}s "
        f"= {report['throughput_rps']:.1f} rps over {args.frontend}"
    )
    print(
        f"latency[{report['primary_op']}]: "
        f"p50={_format_seconds(report['p50'])} "
        f"p95={_format_seconds(report['p95'])} "
        f"p99={_format_seconds(report['p99'])}"
    )
    interesting = (
        "calls", "prepares", "disk_hits", "delta_hits", "shard_evolves",
        "pairs_pruned", "hook_calls",
    )
    print(
        "counters: "
        + " ".join(f"{k}={int(stats[k])}" for k in interesting if k in stats)
    )
    if report["p99_budget"] is not None:
        verdict = "within" if report["p99_ok"] else "OVER"
        print(
            f"p99 gate: {_format_seconds(report['p99'])} {verdict} "
            f"budget {_format_seconds(report['p99_budget'])}"
        )
        if not report["p99_ok"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
