"""Scale-out replay: partitioned trace generation and sharded replay.

The classic pipeline generates one trace and replays it in one process;
at ``scale >= 10`` (hundreds of clients, tens of millions of records)
that is hours of wall clock and many gigabytes of records.  This module
makes big scales practical by making the *population* partitionable:

* the user population is built as ``groups`` independent blocks, each
  generated at ``scale / groups`` from its own seed -- generation
  parallelizes perfectly and no process ever holds more than one
  group's trace;
* each group's ids are strided into a disjoint residue class
  (``file_id % groups`` names the owning group) and its clients are
  shifted to a contiguous block, so the merged population looks exactly
  like one big cluster whose users happen not to share files across
  groups;
* the replay cluster is built with ``ClusterConfig.client_groups``, so
  every client routes into its group's private server slice and the
  per-close fsync decision is a pure hash -- groups share *nothing*;
* replay then shards by group: each shard task replays only its groups'
  records against an *owned-only* cluster -- only the owned groups'
  machines are constructed; roster stubs refuse foreign traffic loudly
  -- and :func:`repro.fs.cluster.merge_cluster_results` selects every
  machine's state from the shard that owns it.  The merged result is
  byte-identical to replaying the whole merged trace in one process
  (``tests/test_partitioned_replay.py`` pins this), including under
  per-group faults, replication, and scrubbing.

The determinism argument, in one line per layer: group traces are pure
functions of ``(profile, group seed, group scale)``; the merged record
order is a strict total order (time, group rank, within-trace order),
so a shard's dispatch order is the unpartitioned order restricted to
its groups; grouped clusters give a group's operations no way to
observe another group (disjoint servers, disjoint ids, no shared RNG);
therefore each machine's end state is a pure function of its own
group's records, which every shard computes identically.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.common.errors import ConfigError, SimulationError
from repro.fs.cluster import (
    ClusterResult,
    merge_cluster_results,
    run_cluster_on_trace,
)
from repro.fs.config import ClusterConfig
from repro.fs.faults import FaultConfig
from repro.fs.paging import EXECUTABLE_FILE_ID_BASE
from repro.pipeline.runner import PipelineReport, run_stage
from repro.trace.columnar import ColumnarTrace
from repro.workload.generator import SyntheticTrace, generate_trace
from repro.workload.profiles import TraceProfile

#: Seed stride between groups.  Any constant works (each group is an
#: independent population); a prime keeps group seeds from colliding
#: with the registry's ``seed + 101 * offset`` replay-seed scheme.
GROUP_SEED_STRIDE = 7919


@dataclass(frozen=True)
class ScaleOutPlan:
    """Everything that addresses one partitioned generate+replay run.

    The plan is the cache key: group traces and shard replays are pure
    functions of these fields, so two runs of the same plan -- serial
    or parallel, partitioned or not -- produce identical artifacts.
    """

    profile: TraceProfile
    seed: int = 1991
    scale: float = 1.0
    #: Independent population blocks; also ``ClusterConfig.client_groups``.
    groups: int = 4
    #: Server slice width per group (the merged cluster has
    #: ``groups * servers_per_group`` servers).
    servers_per_group: int = 1
    replay_seed: int = 7
    #: Per-group replication factor (must fit ``servers_per_group``),
    #: scrub period, and fault rates -- all confined to each group's
    #: own server slice and RNG fork, so they compose with sharding.
    replication_factor: int = 1
    scrub_interval: float = 0.0
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ConfigError(f"need at least one group, got {self.groups}")
        if self.servers_per_group < 1:
            raise ConfigError(
                f"need at least one server per group, got "
                f"{self.servers_per_group}"
            )
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.groups > self.client_count:
            raise ConfigError(
                f"groups={self.groups} exceeds the {self.client_count}-"
                f"client population at scale {self.scale:g} (every group "
                f"needs at least one client)"
            )

    @property
    def group_scale(self) -> float:
        return self.scale / self.groups

    @property
    def client_count(self) -> int:
        """The registry's ``max(4, round(40 * scale))`` client scaling,
        applied to the *total* scale -- a scale-100 plan fields exactly
        the clients a scale-100 unpartitioned experiment would."""
        return max(4, round(40 * self.scale))

    @property
    def group_client_counts(self) -> tuple[int, ...]:
        """Per-group client counts: the registry total split as evenly
        as possible, the remainder going to the first groups."""
        base, extra = divmod(self.client_count, self.groups)
        return tuple(
            base + 1 if group < extra else base
            for group in range(self.groups)
        )

    @property
    def group_client_offsets(self) -> tuple[int, ...]:
        """Prefix sums of :attr:`group_client_counts` (length
        ``groups + 1``): group ``g`` owns client ids
        ``[offsets[g], offsets[g + 1])``."""
        offsets = [0]
        for count in self.group_client_counts:
            offsets.append(offsets[-1] + count)
        return tuple(offsets)

    @property
    def num_servers(self) -> int:
        return self.groups * self.servers_per_group

    def group_seed(self, group: int) -> int:
        return self.seed + GROUP_SEED_STRIDE * group

    def cluster_config(self) -> ClusterConfig:
        sizes = self.group_client_counts
        return ClusterConfig(
            client_count=self.client_count,
            num_servers=self.num_servers,
            client_groups=self.groups,
            # Only an unequal split needs spelling out; an equal one is
            # the historical divisible layout.
            client_group_sizes=(sizes if len(set(sizes)) > 1 else ()),
            replication_factor=self.replication_factor,
            scrub_interval=self.scrub_interval,
            faults=self.faults,
        )

    def key_fields(self) -> dict[str, Any]:
        return {
            "kind": "scale-out-plan",
            "profile": self.profile,
            "seed": self.seed,
            "scale": self.scale,
            "groups": self.groups,
            "servers_per_group": self.servers_per_group,
            "replay_seed": self.replay_seed,
            "replication_factor": self.replication_factor,
            "scrub_interval": self.scrub_interval,
            "faults": self.faults,
        }


def shard_partition(groups: int, shards: int) -> list[list[int]]:
    """Contiguous near-equal split of group indices across shards."""
    if not 1 <= shards <= groups:
        raise ConfigError(
            f"shards must be in [1, groups={groups}], got {shards}"
        )
    base, extra = divmod(groups, shards)
    out: list[list[int]] = []
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        out.append(list(range(start, start + size)))
        start += size
    return out


def check_id_space(columnar: ColumnarTrace, group: int) -> None:
    """Refuse remapped traces whose strided file ids reach the paging
    binaries' reserved range (they share the servers' block space)."""
    largest = columnar.max_file_id()
    if largest >= EXECUTABLE_FILE_ID_BASE:
        raise ConfigError(
            f"group {group}: remapped file id {largest} collides with "
            f"the executable id space (>= {EXECUTABLE_FILE_ID_BASE}); "
            f"lower scale or groups"
        )


# --------------------------------------------------------------------------
# pipeline tasks
# --------------------------------------------------------------------------


@dataclass
class GroupTraceTask:
    """Generate one group's trace (columnar, never materialized) and
    relabel it into the merged cluster's id space."""

    profile: TraceProfile
    seed: int
    scale: float
    client_count: int
    group: int
    groups: int
    #: First merged-cluster client id of this group's block.  With the
    #: registry-derived unequal split the blocks are no longer uniform,
    #: so the base is planned (``ScaleOutPlan.group_client_offsets``),
    #: not derived from ``group * client_count``.
    client_base: int = 0

    def key_fields(self) -> dict[str, Any]:
        return {
            "kind": "group-trace",
            "profile": self.profile,
            "seed": self.seed,
            "scale": self.scale,
            "client_count": self.client_count,
            "group": self.group,
            "groups": self.groups,
            "client_base": self.client_base,
        }

    def run(self) -> SyntheticTrace:
        trace = generate_trace(
            self.profile,
            seed=self.seed,
            scale=self.scale,
            client_count=self.client_count,
            materialize=False,
        )
        remapped = trace.columnar.remap_group(
            self.group, self.groups, client_base=self.client_base
        )
        check_id_space(remapped, self.group)
        trace.columnar = remapped
        return trace

    def codec_context(self) -> dict[str, Any] | None:
        return None


@dataclass
class ShardReplayTask:
    """Replay one shard's groups against an owned-only cluster.

    The cluster constructs only the shard's groups' clients and servers
    (:class:`~repro.fs.sharding.MachineRoster` stubs refuse foreign
    traffic loudly), so per-shard memory and construction time scale
    with the owned slice, not the whole cluster -- and the result
    already carries exactly the owned machines' counters, no slimming
    pass needed.
    """

    plan_fields: dict[str, Any]
    group_traces: list[tuple[int, ColumnarTrace]]
    config: ClusterConfig
    duration: float
    seed: int

    def key_fields(self) -> dict[str, Any]:
        return {
            "kind": "shard-replay",
            "plan": self.plan_fields,
            "groups": tuple(group for group, _ in self.group_traces),
            "config": self.config,
            "duration": self.duration,
            "seed": self.seed,
        }

    def run(self) -> ClusterResult:
        return _replay_groups(
            self.group_traces, self.config, self.duration, self.seed
        )

    def codec_context(self) -> dict[str, Any] | None:
        return None


# --------------------------------------------------------------------------
# the scale-out stages
# --------------------------------------------------------------------------


def build_group_traces(
    plan: ScaleOutPlan,
    *,
    workers: int | None = 1,
    cache=None,
    report: PipelineReport | None = None,
) -> list[SyntheticTrace]:
    """Generate (or load) every group's remapped columnar trace."""
    counts = plan.group_client_counts
    offsets = plan.group_client_offsets
    tasks = [
        GroupTraceTask(
            profile=plan.profile,
            seed=plan.group_seed(group),
            scale=plan.group_scale,
            client_count=counts[group],
            group=group,
            groups=plan.groups,
            client_base=offsets[group],
        )
        for group in range(plan.groups)
    ]
    return run_stage(
        "group-traces", tasks, workers=workers, cache=cache, report=report
    )


def _replay_groups(
    group_traces: Sequence[tuple[int, ColumnarTrace]],
    config: ClusterConfig,
    duration: float,
    seed: int,
    *,
    oracle=None,
    obs=None,
) -> ClusterResult:
    """Replay the merged ``(group, trace)`` streams against a cluster
    owning exactly those groups -- a shard, or with every group the
    unpartitioned reference.  The merge ranks by group, so a shard's
    dispatch order is the full order restricted to its groups, and the
    replay streams records chunk-at-a-time
    (:meth:`ColumnarTrace.iter_records`): peak memory is the columns
    plus one chunk, never a whole day's record list."""
    merged = ColumnarTrace.merge(
        [trace for _, trace in group_traces],
        ranks=[group for group, _ in group_traces],
    )
    return run_cluster_on_trace(
        merged.iter_records(), duration, config, seed=seed,
        oracle=oracle, obs=obs,
        owned_groups=[group for group, _ in group_traces],
    )


def run_partitioned_replay(
    plan: ScaleOutPlan,
    traces: Sequence[SyntheticTrace] | None = None,
    *,
    shards: int | None = None,
    workers: int | None = 1,
    cache=None,
    report: PipelineReport | None = None,
) -> ClusterResult:
    """The scale-out replay: shard by group, replay, merge.

    ``shards`` defaults to one per group (maximum parallelism); any
    value in ``[1, groups]`` yields the identical merged result.
    """
    if traces is None:
        traces = build_group_traces(
            plan, workers=workers, cache=cache, report=report
        )
    if shards is None:
        shards = plan.groups
    owned = shard_partition(plan.groups, shards)
    config = plan.cluster_config()
    duration = traces[0].duration
    plan_fields = plan.key_fields()
    tasks = [
        ShardReplayTask(
            plan_fields=plan_fields,
            group_traces=[(group, traces[group].columnar) for group in groups],
            config=config,
            duration=duration,
            seed=plan.replay_seed,
        )
        for groups in owned
    ]
    results = run_stage(
        "shard-replays", tasks, workers=workers, cache=cache, report=report
    )
    return merge_cluster_results(results, owned)


def run_unpartitioned_replay(
    plan: ScaleOutPlan,
    traces: Sequence[SyntheticTrace] | None = None,
    *,
    oracle=None,
    obs=None,
) -> ClusterResult:
    """Replay the whole merged trace in one cluster -- the reference
    the partitioned replay is pinned against (and the path the
    identity tests and the ``scale_out`` experiment run)."""
    if traces is None:
        traces = build_group_traces(plan)
    return _replay_groups(
        [(group, trace.columnar) for group, trace in enumerate(traces)],
        plan.cluster_config(), traces[0].duration, plan.replay_seed,
        oracle=oracle, obs=obs,
    )


# --------------------------------------------------------------------------
# cross-shard merge of the observability layers
# --------------------------------------------------------------------------


def merge_obs_timeseries(
    series: Sequence, owned_groups: Sequence[Sequence[int]], plan: ScaleOutPlan
):
    """Merge per-shard obs timeseries by machine ownership.

    An owned-only shard's sampler saw just its own groups' machines, so
    the merged series walks the union of every shard's machine names
    (sorted -- the order an unpartitioned observed replay registers
    them in) and takes each machine from the shard owning its group.
    A machine no shard accounts for is a partitioning bug and raises a
    contextual error rather than a bare ``KeyError``.
    """
    from repro.obs.sampler import CounterTimeseries

    owner: dict[int, Any] = {}
    for ts, groups in zip(series, owned_groups):
        for group in groups:
            owner[group] = ts
    offsets = plan.group_client_offsets
    servers_per_group = plan.servers_per_group
    merged = CounterTimeseries(series[0].sample_interval)
    names = sorted(set().union(*(ts.machines.keys() for ts in series)))
    for name in names:
        if name.startswith("client-"):
            group = bisect_right(offsets, int(name.split("-")[1])) - 1
        elif name.startswith("server-"):
            group = int(name.split("-")[1]) // servers_per_group
        else:  # a lone "server" only exists in ungrouped clusters
            group = 0
        ts = owner.get(group)
        if ts is None or name not in ts.machines:
            raise SimulationError(
                f"machine {name!r} belongs to group {group}, which no "
                f"shard in the merge owns (owned groups: "
                f"{sorted(owner)}; shards sampled {len(names)} machines)"
            )
        merged.machines[name] = ts.machines[name]
    return merged


def merge_oracle_versions(
    oracles: Sequence, owned_groups: Sequence[Sequence[int]], groups: int
) -> dict[int, int]:
    """Merge per-shard oracle version maps by file-id residue class.

    A shard's oracle observes its own groups' file ids (``file_id %
    groups`` names the owner), so those merge as a disjoint union.
    Negative (sentinel) ids are shared: every shard whose clients did
    directory passthrough may have observed them, and determinism
    demands the shards *agree* -- a disagreement means the partitioning
    leaked state between groups, so it raises a seed-carrying error
    instead of silently keeping the last writer.
    """
    merged: dict[int, int] = {}
    shared_sources: dict[int, Any] = {}
    for oracle, owned in zip(oracles, owned_groups):
        owned_set = set(owned)
        for file_id, version in oracle.version_map().items():
            if file_id < 0:
                prior = merged.get(file_id)
                if prior is not None and prior != version:
                    raise SimulationError(
                        f"shards disagree on shared sentinel file "
                        f"{file_id}: one shard (owning groups "
                        f"{sorted(shared_sources[file_id])}) observed "
                        f"version {prior}, another (owning groups "
                        f"{sorted(owned_set)}) observed {version} "
                        f"(oracle seed {oracle.seed})"
                    )
                merged[file_id] = version
                shared_sources.setdefault(file_id, owned_set)
            elif file_id % groups in owned_set:
                merged[file_id] = version
    return merged
