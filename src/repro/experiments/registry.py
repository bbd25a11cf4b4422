"""The experiment registry and shared context.

A :class:`ExperimentContext` owns the expensive inputs -- the eight
synthetic traces and the cluster replays -- and builds them lazily
through :mod:`repro.pipeline`, so running several experiments in one
process (the bench suite, the quickstart) generates each input once,
repeat runs load it from the artifact cache, and multi-core machines
fan the generation out across worker processes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from hashlib import sha256
from typing import Callable

from repro.analysis import (
    AccessTable,
    assemble_accesses,
    compute_access_patterns,
    compute_activity,
    compute_file_sizes,
    compute_lifetimes,
    compute_open_times,
    compute_run_lengths,
    compute_table1,
)
from repro.analysis.access_patterns import (
    AccessType,
    Sequentiality,
    render_table3,
)
from repro.analysis.table1 import render_table1
from repro.analysis.sharded import (
    render_table1_per_server,
    render_table2_per_server,
    render_table7_per_server,
)
from repro.caching import (
    compute_cache_sizes,
    compute_cleaning,
    compute_effectiveness,
    compute_replacement,
    compute_server_traffic,
    compute_traffic_sources,
    machine_days,
)
from repro.common.errors import ConfigError
from repro.common.units import KB, MB
from repro.consistency import (
    compute_actions,
    extract_shared_activity,
    simulate_polling,
    simulate_schemes,
)
from repro.consistency.actions import render_table10
from repro.consistency.lossy import SCHEME_KEYS, loss_models_for
from repro.consistency.polling import render_table11
from repro.consistency.schemes import render_table12
from repro.experiments.expectations import PAPER_EXPECTATIONS
from repro.experiments.studies import (
    StudyCell,
    corruption_exposed,
    disk_faults_injected,
    pool,
    render_integrity,
    render_loss,
    render_recovery,
    render_replication,
    violations,
)
from repro.common.rng import RngStream
from repro.fs import ClusterConfig, FaultConfig, Placement, ProtocolOracle
from repro.fs.cluster import ClusterResult, run_cluster_on_trace
from repro.pipeline import (
    ArtifactCache,
    PipelineReport,
    build_cluster_results,
    build_traces,
    resolve_cache,
)
from repro.pipeline.runner import run_stage, trace_tasks
from repro.pipeline.tasks import ReplayTask
from repro.workload import STANDARD_PROFILES, SyntheticTrace
from repro.workload.profiles import scaled_client_count


@dataclass
class ExperimentResult:
    """What an experiment hands back."""

    experiment_id: str
    title: str
    rendered: str
    metrics: dict[str, float]
    paper_expectation: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"{self.rendered}\n\nPaper expectation: {self.paper_expectation}"
        )


#: Traces replayed through the cluster for Tables 4-9.  The paper's
#: two-week counter collection reflects normal operation, so these are
#: the non-simulation-dominated traces.  The studies replay the first.
CLUSTER_TRACE_INDEXES: tuple[int, ...] = (0, 5, 6)


@dataclass
class ExperimentContext:
    """Shared, lazily built inputs for the experiments.

    ``scale`` shrinks the user population (and the simulated client
    count for the Section 5 experiments) so the full suite runs in
    seconds at 0.05 and in minutes at 0.25+.

    ``workers`` fans trace generation and cluster replays out across
    that many worker processes (0 = one per core, 1 = serial).  Output
    is identical regardless of worker count.  Access assembly always
    runs in process: it is one array pass over a trace's columns, far
    cheaper than shipping the columns to a worker and the table back.

    ``cache`` controls the content-addressed artifact cache: ``True``
    uses ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), ``False``
    disables caching, a path selects a directory, and an
    :class:`~repro.pipeline.ArtifactCache` is used as-is.

    ``num_servers`` shards the replayed cluster across that many file
    servers (the paper's cluster had four); with more than one, Tables
    1, 2, and 7 gain a per-server breakdown.
    """

    scale: float = 0.1
    seed: int = 1991
    num_servers: int = 1
    #: Copies of every file (see repro.fs.replication).  1 = the
    #: paper's single-copy world; r > 1 places each file on r servers
    #: and serves reads from any live replica.
    replication_factor: int = 1
    #: Seeded silent-disk-fault rate (bit rot, events per server-hour;
    #: see repro.fs.integrity).  0 = no disk faults, no integrity layer.
    disk_corruption_rate: float = 0.0
    #: Background scrub period in seconds; 0 = scrubbing off.
    scrub_interval: float = 0.0
    workers: int = 1
    cache: ArtifactCache | bool | str | os.PathLike | None = True
    pipeline_report: PipelineReport = field(
        default_factory=PipelineReport, repr=False, compare=False
    )
    _traces: list[SyntheticTrace] | None = field(default=None, repr=False)
    _cluster_results: list[ClusterResult] | None = field(default=None, repr=False)
    _trace_accesses: list[AccessTable] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")
        if self.num_servers < 1:
            raise ConfigError(
                f"num_servers must be >= 1, got {self.num_servers}"
            )
        if self.replication_factor < 1:
            raise ConfigError(
                f"replication_factor must be >= 1, "
                f"got {self.replication_factor}"
            )
        if not (math.isfinite(self.disk_corruption_rate) and self.disk_corruption_rate >= 0):
            raise ConfigError(
                f"disk_corruption_rate must be finite and >= 0 events per "
                f"server-hour, got {self.disk_corruption_rate}"
            )
        if not (math.isfinite(self.scrub_interval) and self.scrub_interval >= 0):
            raise ConfigError(
                f"scrub_interval must be finite and >= 0 seconds (0 = "
                f"scrubbing off), got {self.scrub_interval}"
            )
        self._artifact_cache = resolve_cache(self.cache)

    @property
    def client_count(self) -> int:
        """Clients shrink with scale (:func:`scaled_client_count`)."""
        return scaled_client_count(self.scale)

    def base_cluster_config(self) -> ClusterConfig:
        """The cluster config every Section 5 replay starts from."""
        config = ClusterConfig(
            client_count=self.client_count,
            num_servers=self.num_servers,
            replication_factor=self.replication_factor,
        )
        if self.disk_corruption_rate > 0 or self.scrub_interval > 0:
            # Only replaced when asked for, so default contexts keep the
            # exact config (and artifact-cache keys) they always had.
            config = replace(
                config,
                scrub_interval=self.scrub_interval,
                faults=FaultConfig(
                    disk_corruption_rate=self.disk_corruption_rate
                ),
            )
        return config

    def placement(self) -> Placement:
        """The file->server placement the replays shard by."""
        config = self.base_cluster_config()
        return Placement(config.num_servers, config.placement_seed)

    def _trace_tasks(self):
        return trace_tasks(self.scale, self.seed, self.client_count)

    def traces(self) -> list[SyntheticTrace]:
        if self._traces is None:
            self._traces = build_traces(
                self.scale,
                self.seed,
                self.client_count,
                workers=self.workers,
                cache=self._artifact_cache,
                report=self.pipeline_report,
            )
        return self._traces

    def trace_accesses(self) -> list[AccessTable]:
        """Each trace's completed accesses, assembled once per context."""
        if self._trace_accesses is None:
            self._trace_accesses = [
                assemble_accesses(t.columnar) for t in self.traces()
            ]
        return self._trace_accesses

    def cluster_results(self) -> list[ClusterResult]:
        if self._cluster_results is None:
            config = self.base_cluster_config()
            self._cluster_results = build_cluster_results(
                self.traces(),
                self._trace_tasks(),
                CLUSTER_TRACE_INDEXES,
                config,
                self.seed,
                workers=self.workers,
                cache=self._artifact_cache,
                report=self.pipeline_report,
            )
        return self._cluster_results


# --------------------------------------------------------------------------
# the experiments
# --------------------------------------------------------------------------


def _table1(ctx: ExperimentContext) -> ExperimentResult:
    stats = [
        compute_table1(t.name, t.columnar, t.duration) for t in ctx.traces()
    ]
    total_opens = sum(s.open_events for s in stats)
    total_read = sum(s.mbytes_read for s in stats)
    rendered = render_table1(stats)
    placement = ctx.placement()
    if placement.num_servers > 1:
        rendered += "\n\n" + render_table1_per_server(ctx.traces(), placement)
    return ExperimentResult(
        experiment_id="table1",
        title="Table 1: overall trace statistics",
        rendered=rendered,
        metrics={
            "total_opens": float(total_opens),
            "total_mbytes_read": total_read,
            "max_trace_mbytes_read": max(s.mbytes_read for s in stats),
            "min_users": float(min(s.different_users for s in stats)),
            "max_users": float(max(s.different_users for s in stats)),
        },
        paper_expectation=PAPER_EXPECTATIONS["table1"],
    )


def _table2(ctx: ExperimentContext) -> ExperimentResult:
    result = compute_activity(
        (t.columnar, t.duration) for t in ctx.traces()
    )
    rendered = result.render()
    placement = ctx.placement()
    if placement.num_servers > 1:
        rendered += "\n\n" + render_table2_per_server(ctx.traces(), placement)
    return ExperimentResult(
        experiment_id="table2",
        title="Table 2: user activity",
        rendered=rendered,
        metrics={
            "avg_user_throughput_10min_kbs": result.ten_minute_all.average_throughput_kbs,
            "avg_user_throughput_10s_kbs": result.ten_second_all.average_throughput_kbs,
            "migrated_throughput_10min_kbs": result.ten_minute_migrated.average_throughput_kbs,
            "migration_burst_factor": result.migration_burst_factor,
            "peak_user_10s_kbs": result.ten_second_all.peak_user_throughput_kbs,
        },
        paper_expectation=PAPER_EXPECTATIONS["table2"],
    )


def _table3(ctx: ExperimentContext) -> ExperimentResult:
    tables = ctx.trace_accesses()
    per_trace = [compute_access_patterns([table]) for table in tables]
    pooled = compute_access_patterns(tables)
    return ExperimentResult(
        experiment_id="table3",
        title="Table 3: file access patterns",
        rendered=render_table3(pooled, per_trace),
        metrics={
            "read_only_access_share": pooled.type_share(AccessType.READ_ONLY),
            "write_only_access_share": pooled.type_share(AccessType.WRITE_ONLY),
            "read_write_access_share": pooled.type_share(AccessType.READ_WRITE),
            "ro_whole_file_share": pooled.sequentiality_share(
                AccessType.READ_ONLY, Sequentiality.WHOLE_FILE
            ),
            "sequential_bytes_fraction": pooled.sequential_bytes_fraction,
        },
        paper_expectation=PAPER_EXPECTATIONS["table3"],
    )


def _figure1(ctx: ExperimentContext) -> ExperimentResult:
    result = compute_run_lengths(ctx.trace_accesses())
    return ExperimentResult(
        experiment_id="figure1",
        title="Figure 1: sequential run lengths",
        rendered=result.render(),
        metrics={
            "runs_below_10kb": result.fraction_of_runs_below_10kb,
            "bytes_in_runs_over_1mb": result.fraction_of_bytes_in_runs_over_1mb,
            "median_run_bytes": result.by_runs.median(),
        },
        paper_expectation=PAPER_EXPECTATIONS["figure1"],
    )


def _figure2(ctx: ExperimentContext) -> ExperimentResult:
    result = compute_file_sizes(ctx.trace_accesses())
    return ExperimentResult(
        experiment_id="figure2",
        title="Figure 2: file sizes",
        rendered=result.render(),
        metrics={
            "accesses_below_10kb": result.fraction_of_accesses_below_10kb,
            "bytes_from_files_over_1mb": result.fraction_of_bytes_from_files_over_1mb,
            "median_file_bytes": result.by_accesses.median(),
        },
        paper_expectation=PAPER_EXPECTATIONS["figure2"],
    )


def _figure3(ctx: ExperimentContext) -> ExperimentResult:
    result = compute_open_times(ctx.trace_accesses())
    return ExperimentResult(
        experiment_id="figure3",
        title="Figure 3: file open times",
        rendered=result.render(),
        metrics={
            "opens_below_quarter_second": result.fraction_below_quarter_second,
            "median_open_seconds": result.median_open_seconds,
        },
        paper_expectation=PAPER_EXPECTATIONS["figure3"],
    )


def _figure4(ctx: ExperimentContext) -> ExperimentResult:
    result = compute_lifetimes(trace.columnar for trace in ctx.traces())
    return ExperimentResult(
        experiment_id="figure4",
        title="Figure 4: file lifetimes",
        rendered=result.render(),
        metrics={
            "files_under_30s": result.fraction_of_files_under_30s,
            "bytes_under_30s": result.fraction_of_bytes_under_30s,
        },
        paper_expectation=PAPER_EXPECTATIONS["figure4"],
    )


def _table4(ctx: ExperimentContext) -> ExperimentResult:
    days = machine_days(ctx.cluster_results())
    result = compute_cache_sizes(days)
    return ExperimentResult(
        experiment_id="table4",
        title="Table 4: client cache sizes",
        rendered=result.render(),
        metrics={
            "avg_cache_mb": result.size.mean / MB,
            "avg_15min_change_kb": result.change_15min.mean / KB,
            "max_15min_change_kb": result.change_15min_max / KB,
        },
        paper_expectation=PAPER_EXPECTATIONS["table4"],
    )


def _table5(ctx: ExperimentContext) -> ExperimentResult:
    days = machine_days(ctx.cluster_results())
    result = compute_traffic_sources(days)
    return ExperimentResult(
        experiment_id="table5",
        title="Table 5: traffic sources",
        rendered=result.render(),
        metrics={
            "paging_share": result.paging_share.mean,
            "uncacheable_share": result.uncacheable_share.mean,
            "write_shared_share": result.shares["write_shared"].mean,
        },
        paper_expectation=PAPER_EXPECTATIONS["table5"],
    )


def _table6(ctx: ExperimentContext) -> ExperimentResult:
    days = machine_days(ctx.cluster_results())
    result = compute_effectiveness(days)
    return ExperimentResult(
        experiment_id="table6",
        title="Table 6: client cache effectiveness",
        rendered=result.render(),
        metrics={
            "read_miss_ratio": result.read_miss.mean,
            "migrated_read_miss_ratio": result.migrated_read_miss.mean,
            "writeback_traffic_ratio": result.writeback_traffic.mean,
            "write_fetch_ratio": result.write_fetches.mean,
            "paging_read_miss_ratio": result.paging_read_miss.mean,
            "write_absorption": result.write_absorption.mean,
        },
        paper_expectation=PAPER_EXPECTATIONS["table6"],
    )


def _table7(ctx: ExperimentContext) -> ExperimentResult:
    days = machine_days(ctx.cluster_results())
    result = compute_server_traffic(days)
    global_filter = (
        result.global_server_bytes / result.global_raw_bytes
        if result.global_raw_bytes
        else 0.0
    )
    rendered = result.render()
    replays = ctx.cluster_results()
    if replays and len(replays[0].per_server_counters) > 1:
        rendered += "\n\n" + render_table7_per_server(replays)
    return ExperimentResult(
        experiment_id="table7",
        title="Table 7: server traffic",
        rendered=rendered,
        metrics={
            "paging_share": result.shares["paging"].mean,
            "write_shared_share": result.shares["write_shared"].mean,
            "global_filter_ratio": global_filter,
            "read_write_ratio": result.read_write_ratio.mean,
        },
        paper_expectation=PAPER_EXPECTATIONS["table7"],
    )


def _table8(ctx: ExperimentContext) -> ExperimentResult:
    days = machine_days(ctx.cluster_results())
    result = compute_replacement(days)
    return ExperimentResult(
        experiment_id="table8",
        title="Table 8: cache block replacement",
        rendered=result.render(),
        metrics={
            "for_file_share": result.for_file_share.mean,
            "for_vm_share": result.for_vm_share.mean,
            "age_file_minutes": result.age_file_minutes.mean,
            "age_vm_minutes": result.age_vm_minutes.mean,
        },
        paper_expectation=PAPER_EXPECTATIONS["table8"],
    )


def _table9(ctx: ExperimentContext) -> ExperimentResult:
    days = machine_days(ctx.cluster_results())
    result = compute_cleaning(days)
    return ExperimentResult(
        experiment_id="table9",
        title="Table 9: dirty block cleaning",
        rendered=result.render(),
        metrics={
            "delay_share": result.shares["30-second delay"].mean,
            "fsync_share": result.shares["Write-through requested (fsync)"].mean,
            "recall_share": result.shares["Server recall"].mean,
            "vm_share": result.shares["Given to virtual memory"].mean,
            "delay_age_seconds": result.ages["30-second delay"].mean,
        },
        paper_expectation=PAPER_EXPECTATIONS["table9"],
    )


def _table10(ctx: ExperimentContext) -> ExperimentResult:
    per_trace = [compute_actions(t.columnar) for t in ctx.traces()]
    opens = sum(r.opens for r in per_trace)
    sharing = sum(r.write_sharing_opens for r in per_trace)
    recalls = sum(r.recall_opens for r in per_trace)
    return ExperimentResult(
        experiment_id="table10",
        title="Table 10: consistency action frequency",
        rendered=render_table10(per_trace),
        metrics={
            "write_sharing_fraction": sharing / opens if opens else 0.0,
            "recall_fraction": recalls / opens if opens else 0.0,
        },
        paper_expectation=PAPER_EXPECTATIONS["table10"],
    )


def _table11(ctx: ExperimentContext) -> ExperimentResult:
    results_60 = [
        simulate_polling(t.columnar, 60.0, t.duration) for t in ctx.traces()
    ]
    results_3 = [
        simulate_polling(t.columnar, 3.0, t.duration) for t in ctx.traces()
    ]
    errors_60 = sum(r.errors for r in results_60)
    errors_3 = sum(r.errors for r in results_3)
    return ExperimentResult(
        experiment_id="table11",
        title="Table 11: stale data errors under polling",
        rendered=render_table11(results_60, results_3),
        metrics={
            "errors_per_hour_60s": sum(r.errors_per_hour for r in results_60)
            / len(results_60),
            "errors_per_hour_3s": sum(r.errors_per_hour for r in results_3)
            / len(results_3),
            "error_reduction_factor": errors_60 / errors_3 if errors_3 else float("inf"),
            "users_affected_60s": sum(
                r.fraction_users_affected for r in results_60
            )
            / len(results_60),
            "users_affected_3s": sum(r.fraction_users_affected for r in results_3)
            / len(results_3),
        },
        paper_expectation=PAPER_EXPECTATIONS["table11"],
    )


def _table12(ctx: ExperimentContext) -> ExperimentResult:
    comparisons = [
        simulate_schemes(extract_shared_activity(t.columnar))
        for t in ctx.traces()
    ]
    total = {
        key: (
            sum(getattr(c, key).bytes_transferred for c in comparisons),
            sum(getattr(c, key).bytes_requested for c in comparisons),
            sum(getattr(c, key).rpcs for c in comparisons),
            sum(getattr(c, key).requests for c in comparisons),
        )
        for key in ("sprite", "modified", "token")
    }

    def byte_ratio(key: str) -> float:
        moved, requested, _, _ = total[key]
        return moved / requested if requested else 0.0

    def rpc_ratio(key: str) -> float:
        _, _, rpcs, requests = total[key]
        return rpcs / requests if requests else 0.0

    return ExperimentResult(
        experiment_id="table12",
        title="Table 12: cache consistency overhead",
        rendered=render_table12(comparisons),
        metrics={
            "sprite_byte_ratio": byte_ratio("sprite"),
            "modified_byte_ratio": byte_ratio("modified"),
            "token_byte_ratio": byte_ratio("token"),
            "sprite_rpc_ratio": rpc_ratio("sprite"),
            "token_rpc_ratio": rpc_ratio("token"),
        },
        paper_expectation=PAPER_EXPECTATIONS["table12"],
    )


#: Writeback ages swept by the faults experiment; 0 means write-through.
FAULT_SWEEP_AGES: tuple[float, ...] = (0.0, 5.0, 15.0, 30.0, 60.0)

#: Fault load for the Table R study.  Real machines crash every few
#: weeks; these rates (a client crash every half hour, a server crash
#: every four hours) are deliberately absurd so a one-day replay sees
#: hundreds of events -- the study measures loss *per crash*, and the
#: crash count must be large enough for dirty-window hits to show.
FAULT_STUDY_KNOBS = FaultConfig(
    server_crash_rate=0.25,
    server_downtime=120.0,
    client_crash_rate=2.0,
    client_downtime=60.0,
    partition_rate=1.0,
    partition_duration=60.0,
)


def _faults(ctx: ExperimentContext) -> ExperimentResult:
    """Table R: sweep the writeback age under one fixed fault timeline.

    Every replay shares the trace, the replay seed, and the fault knobs,
    so the injected crash schedule is identical column to column (the
    schedule is drawn from its own forked stream); only the delayed-
    write policy changes.  Age 0 runs write-through -- the ablation the
    paper's Section 5.2 reliability caveat argues against on traffic
    grounds.
    """
    trace_index = CLUSTER_TRACE_INDEXES[0]
    trace = ctx.traces()[trace_index]
    trace_fields = ctx._trace_tasks()[trace_index].key_fields()
    base = ctx.base_cluster_config()

    labels: list[str] = []
    tasks: list[ReplayTask] = []
    for age in FAULT_SWEEP_AGES:
        config = replace(
            base,
            write_through=age == 0.0,
            writeback_delay=age,
            faults=FAULT_STUDY_KNOBS,
        )
        labels.append("0 (write-thru)" if age == 0.0 else f"{age:g} s")
        tasks.append(
            ReplayTask(
                trace_fields=trace_fields,
                group_traces=[(0, trace.columnar)],
                duration=trace.duration,
                config=config,
                seed=ctx.seed + 4099,
            )
        )
    results = run_stage(
        "fault-replays",
        tasks,
        workers=ctx.workers,
        cache=ctx._artifact_cache,
        report=ctx.pipeline_report,
    )
    cells = [pool(label, result) for label, result in zip(labels, results)]

    metrics: dict[str, float] = {}
    for age, cell in zip(FAULT_SWEEP_AGES, cells):
        metrics[f"lost_kbytes_age_{age:g}"] = cell.clients.lost_dirty_bytes / KB
    sprite = cells[FAULT_SWEEP_AGES.index(30.0)].clients
    write_through = cells[0].clients
    metrics["reopen_rpcs_age_30"] = float(sprite.reopen_rpcs)
    metrics["revalidate_rpcs_age_30"] = float(sprite.revalidate_rpcs)
    metrics["stall_seconds_age_30"] = sprite.stall_seconds
    metrics["writeback_kbytes_age_0"] = write_through.bytes_written_to_server / KB
    metrics["writeback_kbytes_age_30"] = sprite.bytes_written_to_server / KB
    return ExperimentResult(
        experiment_id="faults",
        title="Table R: crash data loss vs. writeback age",
        rendered=render_recovery(cells),
        metrics=metrics,
        paper_expectation=PAPER_EXPECTATIONS["faults"],
    )


def _oracle_sweep(
    ctx: ExperimentContext,
    study_seed: int,
    sweep: list[tuple[str, ClusterConfig]],
) -> list[StudyCell]:
    """Replay the study trace once per ``(label, config)``, each with a
    fresh protocol oracle in collection mode, and pool each replay."""
    trace = ctx.traces()[CLUSTER_TRACE_INDEXES[0]]
    cells = []
    for label, config in sweep:
        oracle = ProtocolOracle(seed=study_seed, raise_on_violation=False)
        result = run_cluster_on_trace(
            trace.columnar,
            trace.duration,
            config,
            seed=study_seed,
            oracle=oracle,
        )
        cells.append(pool(label, result, oracle))
    return cells


#: Message-loss rates swept by the rpc_loss experiment.
LOSS_SWEEP_RATES: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10)


def _rpc_loss(ctx: ExperimentContext) -> ExperimentResult:
    """Table S: consistency and transport cost under message loss.

    Two legs per swept rate.  The scheme leg replays every trace's
    write-shared request stream through the three Table 12 consistency
    algorithms with a Bernoulli loss model on their invalidation
    messages, counting reads served stale.  The transport leg replays
    one full cluster trace through the at-most-once RPC channel at the
    same loss rate (plus proportional duplicate/reorder/delay rates)
    with the protocol-invariant oracle attached -- message loss must
    cost retransmissions and stall, never correctness, so the oracle
    column has to read 0 violations in every row.
    """
    activities = []
    for trace in ctx.traces():
        activities.extend(extract_shared_activity(trace.columnar))
    base = ctx.base_cluster_config()
    study_seed = ctx.seed + 8191
    rng = RngStream.root(study_seed).fork("rpc-loss")

    comparisons = [
        simulate_schemes(
            activities, loss_models_for(rate, rng.fork(f"rate-{rate:g}"))
        )
        for rate in LOSS_SWEEP_RATES
    ]
    cells = _oracle_sweep(ctx, study_seed, [
        (
            f"{rate * 100:g}%",
            replace(
                base,
                faults=FaultConfig(
                    message_loss_rate=rate,
                    message_duplicate_rate=rate / 2,
                    message_reorder_rate=rate / 2,
                    message_delay_rate=rate,
                ),
            ),
        )
        for rate in LOSS_SWEEP_RATES
    ])

    metrics: dict[str, float] = {
        "oracle_violations_total": float(sum(map(violations, cells))),
    }
    for rate, comparison in zip(LOSS_SWEEP_RATES, comparisons):
        tag = f"{rate:g}"
        for key in SCHEME_KEYS:
            metrics[f"{key}_stale_fraction_{tag}"] = getattr(
                comparison, key
            ).stale_read_fraction
    worst = cells[-1]
    sent = worst.clients.rpc_messages_sent
    metrics["retransmission_rate_0.1"] = (
        worst.clients.rpc_retransmissions / sent if sent else 0.0
    )
    metrics["replies_lost_0.1"] = float(worst.clients.rpc_replies_lost)
    metrics["duplicates_suppressed_0.1"] = float(
        worst.server.duplicate_rpcs_suppressed
    )
    metrics["messages_sent_0"] = float(cells[0].clients.rpc_messages_sent)
    return ExperimentResult(
        experiment_id="rpc_loss",
        title="Table S: consistency under a lossy network",
        rendered=render_loss(comparisons, cells),
        metrics=metrics,
        paper_expectation=PAPER_EXPECTATIONS["rpc_loss"],
    )


#: Replication factors swept by the replication experiment.
REPLICATION_SWEEP: tuple[int, ...] = (1, 2, 3)

#: Servers the replication sweep shards across (the paper's cluster
#: size, and enough room for three copies plus a re-replication target).
REPLICATION_STUDY_SERVERS = 4

#: Fault load for the Table A study: the Table R timeline's crash mix
#: with the server-crash knobs raised until server outages overlap.  A
#: second copy already absorbs isolated crashes, so the difference
#: between r=2 and r=3 only shows when two servers are down at once --
#: at this rate each server is down ~8% of the time, so double outages
#: recur.  Partitions are left out: a partitioned client can reach *no*
#: server, so partition stall is identical in every column and would
#: only dilute the availability signal.
REPLICATION_STUDY_KNOBS = FaultConfig(
    server_crash_rate=4.0,
    server_downtime=300.0,
    client_crash_rate=2.0,
    client_downtime=60.0,
)


def _replication(ctx: ExperimentContext) -> ExperimentResult:
    """Table A: availability and data loss vs. replication factor.

    One cluster trace is replayed at r = 1, 2, 3 copies per file over
    four servers.  Every column shares the trace, the replay seed, and
    the fault knobs, so the injected crash schedule is identical cell
    to cell; only the replication factor varies.  Paging is disabled
    for this sweep -- backing-store pages are pinned to one server by
    design (a paging stall cannot fail over), and removing them leaves
    exactly the traffic replication can help.  The protocol-invariant
    oracle rides along in collection mode: failover must never trade
    correctness for availability, so the violations row has to read 0
    in every column.
    """
    base = ctx.base_cluster_config()
    cells = _oracle_sweep(ctx, ctx.seed + 16383, [
        (
            "r=1 (no replication)" if factor == 1 else f"r={factor}",
            replace(
                base,
                num_servers=REPLICATION_STUDY_SERVERS,
                replication_factor=factor,
                paging_intensity=0.0,
                faults=REPLICATION_STUDY_KNOBS,
            ),
        )
        for factor in REPLICATION_SWEEP
    ])

    metrics: dict[str, float] = {
        "oracle_violations_total": float(sum(map(violations, cells))),
        "server_crashes": float(cells[0].server.crashes),
        "server_downtime_seconds": cells[0].server.downtime_seconds,
    }
    for factor, cell in zip(REPLICATION_SWEEP, cells):
        clients, server = cell.clients, cell.server
        metrics[f"stall_seconds_r{factor}"] = clients.stall_seconds
        metrics[f"lost_kbytes_r{factor}"] = clients.lost_dirty_bytes / KB
        metrics[f"failover_reads_r{factor}"] = float(clients.failover_reads)
        metrics[f"rereplicated_files_r{factor}"] = float(
            server.rereplicated_files
        )
        metrics[f"failure_detections_r{factor}"] = float(
            server.failure_detections
        )
    return ExperimentResult(
        experiment_id="replication",
        title="Table A: availability vs. replication factor",
        rendered=render_replication(cells),
        metrics=metrics,
        paper_expectation=PAPER_EXPECTATIONS["replication"],
    )


#: (replication factor, scrub interval seconds) cells of the Table C
#: sweep: the exposed baseline, scrubbing without replicas, and two
#: fully repaired configurations.
INTEGRITY_SWEEP: tuple[tuple[int, float], ...] = (
    (1, 0.0),
    (1, 60.0),
    (2, 60.0),
    (3, 30.0),
)

#: Servers the integrity sweep shards across (matching Table A).
INTEGRITY_STUDY_SERVERS = 4

#: Disk-fault load for the Table C study: heavy enough that hundreds of
#: blocks rot, tear, and vanish per replay.  Server crashes are left
#: out deliberately -- a crash-induced outage makes a replica
#: *legitimately* stale, which is a different (Table A) story; here
#: every generation mismatch the scrubber finds is a real lost write,
#: so the r >= 2 zero-exposure pin is exact.
INTEGRITY_STUDY_KNOBS = FaultConfig(
    disk_corruption_rate=6.0,
    disk_torn_write_rate=2.0,
    disk_lost_write_rate=2.0,
)


def _integrity(ctx: ExperimentContext) -> ExperimentResult:
    """Table C: silent corruption vs. scrub interval and replication.

    One cluster trace is replayed under an identical seeded disk-fault
    timeline (bit rot, torn writes, lost writes) while the defences
    vary: no defence (r=1, no scrub), checksum scrubbing alone (r=1),
    and scrubbing plus replicas (r=2, r=3).  Paging is disabled as in
    Table A so the sweep measures exactly the durable-block traffic the
    integrity layer protects.  The oracle's end-state sweep rides along
    in collection mode; its silent-corruption count *is* the exposure
    row, so the repaired columns must read 0 -- and the undefended
    column must not, or the whole table is measuring a fault load too
    gentle to matter.
    """
    base = ctx.base_cluster_config()
    cells = _oracle_sweep(ctx, ctx.seed + 32749, [
        (
            f"r={factor}, "
            + ("no scrub" if scrub == 0 else f"scrub {scrub:g}s"),
            replace(
                base,
                num_servers=INTEGRITY_STUDY_SERVERS,
                replication_factor=factor,
                paging_intensity=0.0,
                scrub_interval=scrub,
                faults=INTEGRITY_STUDY_KNOBS,
            ),
        )
        for factor, scrub in INTEGRITY_SWEEP
    ])

    metrics: dict[str, float] = {
        "disk_faults_injected": float(disk_faults_injected(cells[0])),
    }
    for (factor, scrub), cell in zip(INTEGRITY_SWEEP, cells):
        tag = f"r{factor}_scrub{scrub:g}"
        server = cell.server
        # Caught by a verified read or by the scrubber.
        metrics[f"detected_{tag}"] = float(
            server.checksum_failures + server.scrub_corruptions_found
        )
        metrics[f"repaired_{tag}"] = float(server.blocks_repaired)
        metrics[f"declared_lost_{tag}"] = float(server.blocks_declared_lost)
        metrics[f"exposed_{tag}"] = float(corruption_exposed(cell))
        metrics[f"oracle_violations_{tag}"] = float(violations(cell))
    return ExperimentResult(
        experiment_id="integrity",
        title="Table C: silent corruption vs. scrub interval and "
        "replication factor",
        rendered=render_integrity(cells),
        metrics=metrics,
        paper_expectation=PAPER_EXPECTATIONS["integrity"],
    )


#: Population blocks of the scale-out identity study (Table D).  Four
#: groups keeps the study fast at golden scale while still exercising
#: multi-group merge order, and divides evenly into the 1/2/4-shard
#: sweep below.
SCALE_OUT_GROUPS = 4
SCALE_OUT_SHARD_SWEEP: tuple[int, ...] = (1, 2, 4)

#: The grouped faulty/replicated identity leg of Table D: per-group
#: fault timelines, a 2-wide replica chain confined to each group's
#: server slice, and background scrubbing -- all of which must still
#: merge byte-identically from owned-only shards.
SCALE_OUT_FAULTY_GROUPS = 2
SCALE_OUT_FAULTY_SERVERS_PER_GROUP = 2
SCALE_OUT_FAULTY_SCRUB_INTERVAL = 3600.0
SCALE_OUT_FAULTS = FaultConfig(
    server_crash_rate=0.5,
    server_downtime=40.0,
    client_crash_rate=0.2,
    partition_rate=0.2,
    partition_duration=20.0,
    disk_corruption_rate=0.4,
    disk_torn_write_rate=0.2,
    disk_lost_write_rate=0.2,
)


def _scale_out(ctx: ExperimentContext) -> ExperimentResult:
    """Table D: partitioned replay pinned against the unpartitioned one.

    The same grouped population (four independently generated,
    id-strided groups) is replayed two ways: the whole merged trace
    through one cluster, and group shards through independent clusters
    merged by :func:`repro.fs.cluster.merge_cluster_results`.  Every
    client's counters, every server's row, the aggregate, and the
    snapshot series must be byte-identical (SHA-256 of exact values)
    at every shard count -- the property that makes replaying
    thousands of clients across a worker pool trustworthy.
    """
    from repro.pipeline.scaleout import (
        ScaleOutPlan,
        build_group_traces,
        run_partitioned_replay,
        run_unpartitioned_replay,
    )

    plan = ScaleOutPlan(
        profile=STANDARD_PROFILES[0],
        seed=ctx.seed,
        scale=ctx.scale,
        groups=SCALE_OUT_GROUPS,
        replay_seed=ctx.seed,
    )
    traces = build_group_traces(
        plan,
        workers=ctx.workers,
        cache=ctx._artifact_cache,
        report=ctx.pipeline_report,
    )
    reference = run_unpartitioned_replay(plan, traces)

    def digests(result: ClusterResult) -> tuple[str, str, str]:
        clients = sha256(
            "".join(
                result.final_counters[c].digest()
                for c in sorted(result.final_counters)
            ).encode("ascii")
        ).hexdigest()
        servers = sha256(
            "".join(
                row.digest() for row in result.per_server_counters
            ).encode("ascii")
        ).hexdigest()
        return clients, servers, result.server_counters.digest()

    ref_digests = digests(reference)
    lines = [
        "Table D.  Partitioned replay identity "
        f"(trace1, groups={plan.groups}, clients={plan.client_count}, "
        f"servers={plan.num_servers}, records={reference.records_replayed})",
        "",
        f"{'shards':>8} {'clients':>10} {'servers':>10} "
        f"{'aggregate':>10} {'records':>9}",
    ]
    metrics: dict[str, float] = {
        "groups": float(plan.groups),
        "clients": float(plan.client_count),
        "records_replayed": float(reference.records_replayed),
    }
    for shards in SCALE_OUT_SHARD_SWEEP:
        part = run_partitioned_replay(
            plan,
            traces,
            shards=shards,
            workers=ctx.workers,
            cache=ctx._artifact_cache,
            report=ctx.pipeline_report,
        )
        part_digests = digests(part)
        flags = [
            "identical" if a == b else "DIVERGED"
            for a, b in zip(part_digests, ref_digests)
        ]
        lines.append(
            f"{shards:>8} {flags[0]:>10} {flags[1]:>10} {flags[2]:>10} "
            f"{part.records_replayed:>9}"
        )
        metrics[f"identical_shards_{shards}"] = float(
            part_digests == ref_digests
            and part.records_replayed == reference.records_replayed
        )
    lines.append("")
    lines.append(f"aggregate digest: {ref_digests[2][:16]}")

    # The faulty/replicated leg: per-group fault timelines, a replica
    # chain confined to each group's server slice, and background
    # scrubbing must still merge byte-identically from owned-only
    # shards.
    faulty_plan = ScaleOutPlan(
        profile=STANDARD_PROFILES[0],
        seed=ctx.seed,
        scale=ctx.scale,
        groups=SCALE_OUT_FAULTY_GROUPS,
        servers_per_group=SCALE_OUT_FAULTY_SERVERS_PER_GROUP,
        replay_seed=ctx.seed,
        replication_factor=2,
        scrub_interval=SCALE_OUT_FAULTY_SCRUB_INTERVAL,
        faults=SCALE_OUT_FAULTS,
    )
    faulty_traces = build_group_traces(
        faulty_plan,
        workers=ctx.workers,
        cache=ctx._artifact_cache,
        report=ctx.pipeline_report,
    )
    faulty_reference = run_unpartitioned_replay(faulty_plan, faulty_traces)
    faulty_ref_digests = digests(faulty_reference)
    faulty_part = run_partitioned_replay(
        faulty_plan,
        faulty_traces,
        shards=SCALE_OUT_FAULTY_GROUPS,
        workers=ctx.workers,
        cache=ctx._artifact_cache,
        report=ctx.pipeline_report,
    )
    faulty_part_digests = digests(faulty_part)
    faulty_identical = (
        faulty_part_digests == faulty_ref_digests
        and faulty_part.records_replayed == faulty_reference.records_replayed
    )
    metrics["identical_faulty_shards_2"] = float(faulty_identical)
    lines.append("")
    lines.append(
        f"faulty leg (groups={faulty_plan.groups}, r=2, "
        f"scrub={SCALE_OUT_FAULTY_SCRUB_INTERVAL:g}s, "
        f"servers={faulty_plan.num_servers}): "
        + ("identical" if faulty_identical else "DIVERGED")
    )
    lines.append(f"faulty aggregate digest: {faulty_ref_digests[2][:16]}")
    return ExperimentResult(
        experiment_id="scale_out",
        title="Table D: partitioned replay vs unpartitioned reference",
        rendered="\n".join(lines),
        metrics=metrics,
        paper_expectation=PAPER_EXPECTATIONS["scale_out"],
    )


_REGISTRY: dict[str, Callable[[ExperimentContext], ExperimentResult]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "figure1": _figure1,
    "figure2": _figure2,
    "figure3": _figure3,
    "figure4": _figure4,
    "table4": _table4,
    "table5": _table5,
    "table6": _table6,
    "table7": _table7,
    "table8": _table8,
    "table9": _table9,
    "table10": _table10,
    "table11": _table11,
    "table12": _table12,
    "faults": _faults,
    "rpc_loss": _rpc_loss,
    "replication": _replication,
    "integrity": _integrity,
    "scale_out": _scale_out,
}

EXPERIMENT_IDS: tuple[str, ...] = tuple(_REGISTRY)


def run_experiment(
    experiment_id: str, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Run one experiment, building inputs as needed."""
    runner = _REGISTRY.get(experiment_id)
    if runner is None:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; "
            f"valid ids: {', '.join(EXPERIMENT_IDS)}"
        )
    return runner(context or ExperimentContext())


# --------------------------------------------------------------------------
# observed replays (repro.obs)
# --------------------------------------------------------------------------


@dataclass
class ObservedReplay:
    """One cluster replay run with the observability layer attached."""

    trace_name: str
    result: ClusterResult
    observation: "object"  # repro.obs.Observation (kept untyped: lazy import)


def run_observed_replay(
    context: ExperimentContext | None = None,
    sample_interval: float = 60.0,
    trace_index: int | None = None,
    max_trace_events: int = 1_000_000,
) -> ObservedReplay:
    """Replay one cluster trace with ``repro.obs`` attached.

    This is the observed twin of the Table 4-9 replays: same trace,
    config, and seed as ``context.cluster_results()`` uses for the
    chosen trace, so the final counters match those replays exactly --
    plus a counter timeseries, an event trace, and latency histograms.
    It bypasses the artifact cache (the observation is the point; the
    cached result would not carry one).
    """
    context = context or ExperimentContext()
    index = CLUSTER_TRACE_INDEXES[0] if trace_index is None else trace_index
    trace = context.traces()[index]
    config = context.base_cluster_config()
    # Match the replay-seed scheme of ``build_cluster_results``
    # (``seed + 101 * offset``) so the observed run's final counters are
    # byte-for-byte those of the corresponding table replay.
    try:
        offset = CLUSTER_TRACE_INDEXES.index(index)
    except ValueError:
        offset = 0
    from repro.obs import Observation, ObsConfig

    observation = Observation(ObsConfig(
        sample_interval=sample_interval, max_trace_events=max_trace_events,
    ))
    result = run_cluster_on_trace(
        trace.columnar, trace.duration, config,
        seed=context.seed + 101 * offset,
        obs=observation,
    )
    return ObservedReplay(
        trace_name=trace.profile.name,
        result=result,
        observation=observation,
    )
