"""Command-line entry point: ``repro-experiment <id> [--scale S]``.

Runs one experiment (or ``all``) and prints the rendered table or
figure next to the paper's expectation.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.common.errors import ConfigError
from repro.experiments.registry import (
    EXPERIMENT_IDS,
    ExperimentContext,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduce a table or figure from Baker et al., "
            "'Measurements of a Distributed File System' (SOSP 1991)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=list(EXPERIMENT_IDS) + ["all"],
        help="which table/figure to reproduce (or 'all')",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="population scale factor (1.0 = the paper's cluster; "
        "default 0.1 for quick runs)",
    )
    parser.add_argument(
        "--seed", type=int, default=1991, help="random seed (default 1991)"
    )
    parser.add_argument(
        "--num-servers",
        type=int,
        default=1,
        metavar="N",
        help="shard the simulated cluster across N file servers (the "
        "paper's cluster had 4); with N > 1, Tables 1/2/7 gain a "
        "per-server breakdown (default 1)",
    )
    parser.add_argument(
        "--replication-factor",
        type=int,
        default=1,
        metavar="R",
        help="keep R copies of every file on distinct servers and serve "
        "reads from any live replica (requires --num-servers >= R; "
        "default 1, no replication)",
    )
    parser.add_argument(
        "--disk-corruption-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="inject seeded silent disk corruption (bit rot) at RATE "
        "events per server-hour into every cluster replay (default 0, "
        "no disk faults)",
    )
    parser.add_argument(
        "--scrub-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="checksum-scrub each server's durable blocks in the "
        "background every SECONDS of simulated time, repairing from "
        "replicas where possible (default 0, scrubbing off)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for trace generation and cluster replay "
        "(0 = one per CPU core; default 1, serial)",
    )
    parser.add_argument(
        "--scale-out",
        type=int,
        default=0,
        metavar="GROUPS",
        help="instead of an experiment table, run a partitioned scale-out "
        "replay (repro.pipeline.scaleout): GROUPS independent client "
        "groups generated at --scale, replayed shard-by-shard across "
        "--workers processes and merged byte-identically; prints merged "
        "totals and the aggregate digest (the experiment positional is "
        "ignored)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="replay shards for --scale-out (default: one per group); "
        "any N in [1, GROUPS] merges to the identical result",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="rebuild everything; do not read or write the artifact cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="artifact cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="write a full reproduction report (all experiments plus the "
        "then-vs-now and latency analyses) to FILE instead of printing",
    )
    parser.add_argument(
        "--figures-dir",
        metavar="DIR",
        help="also export figure1..figure4 CDF data as CSV into DIR",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="replay one cluster trace with the observability layer "
        "(repro.obs) attached: counter timeseries, Chrome-trace events, "
        "latency histograms; writes BENCH_obs.json and prints a summary",
    )
    parser.add_argument(
        "--obs-sample-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated seconds between counter samples (default 60; "
        "requires --obs)",
    )
    parser.add_argument(
        "--obs-trace-out",
        metavar="FILE",
        help="write the Chrome trace-event JSON to FILE (open it at "
        "ui.perfetto.dev; requires --obs)",
    )
    return parser


def _scale_out_plan(args):
    """The ``--scale-out`` plan; raises ``ConfigError`` on a bad one."""
    from repro.pipeline.scaleout import ScaleOutPlan
    from repro.workload.profiles import STANDARD_PROFILES

    return ScaleOutPlan(
        profile=STANDARD_PROFILES[0],
        seed=args.seed,
        scale=args.scale,
        groups=args.scale_out,
        replay_seed=args.seed,
    )


def _run_scale_out(args, plan, context: ExperimentContext) -> int:
    """The ``--scale-out`` mode: partitioned generate + replay + merge."""
    from repro.pipeline.scaleout import build_group_traces, run_partitioned_replay

    shards = args.shards or plan.groups
    report = context.pipeline_report
    traces = build_group_traces(
        plan,
        workers=args.workers,
        cache=context._artifact_cache,
        report=report,
    )
    records = sum(trace.record_count for trace in traces)
    print(
        f"scale-out plan: scale={plan.scale:g} groups={plan.groups} "
        f"shards={shards} clients={plan.client_count} "
        f"servers={plan.num_servers} records={records}"
    )
    result = run_partitioned_replay(
        plan,
        traces,
        shards=shards,
        workers=args.workers,
        cache=context._artifact_cache,
        report=report,
    )
    print(
        f"replayed {result.records_replayed} records; "
        f"aggregate digest {result.server_counters.digest()[:16]}"
    )
    for stage in report.stages:
        print(
            f"  {stage.stage}: {stage.seconds:.1f}s "
            f"(tasks={stage.tasks}, workers={stage.workers}, "
            f"effective={stage.workers_effective}, "
            f"hits={stage.cache_hits}, misses={stage.cache_misses})"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.num_servers < 1:
        parser.error(f"--num-servers must be >= 1, got {args.num_servers}")
    if args.replication_factor < 1:
        parser.error(
            f"--replication-factor must be >= 1, got {args.replication_factor}"
        )
    if args.replication_factor > args.num_servers:
        parser.error(
            f"--replication-factor {args.replication_factor} needs at least "
            f"that many servers (--num-servers {args.num_servers})"
        )
    if args.disk_corruption_rate < 0:
        parser.error(
            f"--disk-corruption-rate must be >= 0, "
            f"got {args.disk_corruption_rate}"
        )
    if args.scrub_interval < 0:
        parser.error(
            f"--scrub-interval must be >= 0, got {args.scrub_interval}"
        )
    if args.scale_out < 0:
        parser.error(f"--scale-out must be >= 1 groups, got {args.scale_out}")
    if args.shards:
        if not args.scale_out:
            parser.error("--shards requires --scale-out")
        if not 1 <= args.shards <= args.scale_out:
            parser.error(
                f"--shards must be in [1, --scale-out={args.scale_out}], "
                f"got {args.shards}"
            )
    if not args.obs:
        if args.obs_sample_interval is not None:
            parser.error("--obs-sample-interval requires --obs")
        if args.obs_trace_out:
            parser.error("--obs-trace-out requires --obs")
    interval = args.obs_sample_interval
    if interval is not None and not (math.isfinite(interval) and interval > 0):
        parser.error(f"--obs-sample-interval must be finite and > 0, got {interval}")
    if args.no_cache:
        cache: bool | str = False
    else:
        cache = args.cache_dir if args.cache_dir else True
    try:
        context = ExperimentContext(
            scale=args.scale,
            seed=args.seed,
            num_servers=args.num_servers,
            replication_factor=args.replication_factor,
            disk_corruption_rate=args.disk_corruption_rate,
            scrub_interval=args.scrub_interval,
            workers=args.workers,
            cache=cache,
        )
        plan = _scale_out_plan(args) if args.scale_out else None
    except ConfigError as exc:
        parser.error(str(exc))
    if plan is not None:
        return _run_scale_out(args, plan, context)
    if args.figures_dir:
        from repro.experiments.report import export_figure_data

        for path in export_figure_data(args.figures_dir, context):
            print(f"wrote {path}")
    observation = None
    if args.obs:
        import os

        from repro.experiments.registry import run_observed_replay

        interval = (
            60.0 if args.obs_sample_interval is None
            else args.obs_sample_interval
        )
        observed = run_observed_replay(context, sample_interval=interval)
        observation = observed.observation
        if args.obs_trace_out:
            observation.write_trace(args.obs_trace_out)
            print(f"wrote trace to {args.obs_trace_out}")
            bench_path = os.path.join(
                os.path.dirname(os.path.abspath(args.obs_trace_out)),
                "BENCH_obs.json",
            )
        else:
            bench_path = "BENCH_obs.json"
        observation.write_bench(bench_path)
        print(f"wrote {bench_path}")
        print(f"observed replay of trace {observed.trace_name!r}:")
        print(observation.render_summary())
        print()
    if args.report:
        from repro.experiments.report import write_report

        write_report(args.report, context, observation=observation)
        print(f"wrote report to {args.report}")
        return 0
    ids = EXPERIMENT_IDS if args.experiment == "all" else (args.experiment,)
    for experiment_id in ids:
        result = run_experiment(experiment_id, context)
        print(result.rendered)
        print()
        print(f"Paper expectation: {result.paper_expectation}")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
