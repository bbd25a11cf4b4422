"""Picklable task specs for the pipeline stages.

A task carries everything a worker process needs to produce one
artifact, plus the fields that address that artifact in the cache.
Seeds are baked into the spec (one per trace, one per replay), so the
same task produces the same artifact no matter which process runs it,
in what order, or alongside what else -- parallel output is identical
to serial output by construction.

There is one task per stage, and scale-out is its general case.  A
:class:`TraceTask` generates one group's trace and relabels it into the
cluster's id space; the study's day traces are group 0 of one, whose
relabelling changes no id.  A :class:`ReplayTask` replays a list of
``(group, columns)`` streams against a cluster owning exactly those
groups; a registry replay is the one pair ``[(0, trace.columnar)]``,
and a scale-out shard is its owned groups' pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.common.errors import ConfigError
from repro.fs.cluster import ClusterResult, run_cluster_on_trace
from repro.fs.config import ClusterConfig
from repro.fs.paging import EXECUTABLE_FILE_ID_BASE
from repro.trace.columnar import ColumnarTrace
from repro.workload.generator import SyntheticTrace, generate_trace
from repro.workload.profiles import TraceProfile


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


@dataclass
class TraceTask:
    """Generate one group's synthetic day trace, relabelled into the
    cluster's id space (:meth:`ColumnarTrace.remap_group`): file, open
    and user ids strided into group ``group``'s residue class of
    ``groups``, client ids shifted to the group's block at
    ``client_base``.  The one-group defaults leave every id as
    generated."""

    profile: TraceProfile
    seed: int
    scale: float
    client_count: int
    group: int = 0
    groups: int = 1
    #: First cluster client id of this group's block
    #: (``ClusterConfig.client_slice(group).start``).
    client_base: int = 0

    def key_fields(self) -> dict[str, Any]:
        # The full profile goes into the key, so recalibrating a knob
        # invalidates exactly the traces it affects.
        return {
            "kind": "trace",
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
        )
        remapped = trace.columnar.remap_group(
            self.group, self.groups, client_base=self.client_base
        )
        check_id_space(remapped, self.group)
        return replace(trace, columnar=remapped)


def replay_groups(
    group_traces: Sequence[tuple[int, ColumnarTrace]],
    config: ClusterConfig,
    duration: float,
    seed: int,
    *,
    oracle=None,
    obs=None,
) -> ClusterResult:
    """Replay the merged ``(group, trace)`` streams against a cluster
    owning exactly those groups -- one trace of a one-group cluster, a
    shard, or with every group the unpartitioned reference.  The merge
    ranks by group, so a shard's dispatch order is the full order
    restricted to its groups (one stream is replayed as it is), and the
    replay reads the merged columns directly
    (:meth:`ColumnarTrace.iter_columns`): peak memory is the columns
    plus one gathered chunk, and no record object is ever built."""
    merged = ColumnarTrace.merge(
        [trace for _, trace in group_traces],
        ranks=[group for group, _ in group_traces],
    )
    return run_cluster_on_trace(
        merged, duration, config, seed=seed,
        oracle=oracle, obs=obs,
        owned_groups=[group for group, _ in group_traces],
    )


@dataclass
class ReplayTask:
    """Replay ``(group, columns)`` streams through a simulated cluster
    that owns exactly those groups (:func:`replay_groups`).

    A scale-out shard constructs only its groups' clients and servers
    (:class:`~repro.fs.sharding.MachineRoster` stubs refuse foreign
    traffic loudly), so per-shard memory and construction time scale
    with the owned slice, not the whole cluster.
    """

    #: The fields that address what is replayed: the trace task's key,
    #: or the scale-out plan's.
    trace_fields: dict[str, Any]
    group_traces: list[tuple[int, ColumnarTrace]]
    duration: float
    config: ClusterConfig
    seed: int

    def key_fields(self) -> dict[str, Any]:
        return {
            "kind": "replay",
            "trace": self.trace_fields,
            "groups": tuple(group for group, _ in self.group_traces),
            "duration": self.duration,
            "config": self.config,
            "seed": self.seed,
        }

    def run(self) -> ClusterResult:
        return replay_groups(
            self.group_traces, self.config, self.duration, self.seed
        )


def run_task(task) -> Any:
    """Top-level entry point for worker processes (must be picklable)."""
    return task.run()
