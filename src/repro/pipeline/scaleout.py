"""Scale-out replay: partitioned trace generation and sharded replay.

The paper's cluster was one Sprite installation; here it is the
one-group case of a grouped cluster.  At ``scale >= 10`` (hundreds of
clients, tens of millions of records) one process replaying one trace
is hours of wall clock and many gigabytes of records, so this module
makes the *population* partitionable.  It only plans: each group's
trace is a :class:`~repro.pipeline.tasks.TraceTask` and each shard a
:class:`~repro.pipeline.tasks.ReplayTask`, the same two tasks the
registry's experiments run, and the group layout (which clients and
servers each group owns) is the :class:`~repro.fs.config.ClusterConfig`
the plan builds.

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
* replay then shards by group: each shard's replay task replays only
  its groups' records against an *owned-only* cluster -- only the owned
  groups' machines are constructed; roster stubs refuse foreign traffic
  loudly -- and :func:`repro.fs.cluster.merge_cluster_results` selects every
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

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.common.errors import ConfigError
from repro.fs.cluster import ClusterResult, merge_cluster_results
from repro.fs.config import ClusterConfig
from repro.fs.faults import FaultConfig
from repro.pipeline.runner import PipelineReport, run_stage
from repro.pipeline.tasks import ReplayTask, TraceTask, replay_groups
from repro.workload.generator import SyntheticTrace
from repro.workload.profiles import TraceProfile, scaled_client_count

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
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")
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
        """The registry's client scaling (:func:`scaled_client_count`),
        applied to the *total* scale -- a scale-100 plan fields exactly
        the clients a scale-100 unpartitioned experiment would."""
        return scaled_client_count(self.scale)

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
    config = plan.cluster_config()
    tasks = []
    for group in range(plan.groups):
        clients = config.client_slice(group)
        tasks.append(
            TraceTask(
                profile=plan.profile,
                seed=plan.group_seed(group),
                scale=plan.group_scale,
                client_count=len(clients),
                group=group,
                groups=plan.groups,
                client_base=clients.start,
            )
        )
    return run_stage(
        "group-traces", tasks, workers=workers, cache=cache, report=report
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
        ReplayTask(
            trace_fields=plan_fields,
            group_traces=[(group, traces[group].columnar) for group in groups],
            duration=duration,
            config=config,
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
    return replay_groups(
        [(group, trace.columnar) for group, trace in enumerate(traces)],
        plan.cluster_config(), traces[0].duration, plan.replay_seed,
        oracle=oracle, obs=obs,
    )
