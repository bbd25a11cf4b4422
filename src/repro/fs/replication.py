"""Block replication: failover reads, failure detection, re-replication.

The paper's availability story is stark: a Sprite file lived on exactly
one server, so a server crash blacked out every file on it until reboot
(Section 8 measures those outages).  This module adds the standard
remedy on top of the PR 5 sharded cluster:

* **Placement** (:meth:`repro.fs.sharding.Placement.replicas_of`) maps
  each file to ``r`` distinct servers -- the primary plus ``r - 1``
  splitmix64-chained picks -- stable across runs, workers, and seeds.
* **Failover reads**: the client kernel routes every per-file operation
  to the first *live* replica instead of stalling on a crashed primary
  (see ``ClientKernel._route_replicated``).
* **Write propagation**: the replica that serves an open/close/writeback
  runs the full consistency protocol; the client then mirrors the
  outcome to the other live replicas (``replica_open``/``replica_close``
  RPCs and a ``write_block`` fan-out), keeping registrations and version
  stamps convergent so a later failover is seamless.  Pushes a down
  replica misses are queued here as a **pending log** and applied when
  it recovers -- before the clients' reopen sweeps run.
* **Failure detection**: a heartbeat tick (a ``SharedTicker``
  subscription, sharing the writeback scan's coalesced engine event at
  the default period) counts consecutive missed beats per server and
  declares a server dead after ``heartbeat_miss_threshold`` misses.
* **Re-replication**: a dead declaration triggers a background copy of
  every file the dead server hosted onto the next live server in the
  file's placement chain, restoring ``r`` reachable copies.  Substitute
  replicas are dropped again when the dead server reboots (its durable
  copy, patched from the pending log, rejoins the replica set).

With ``replication_factor=1`` none of this is constructed: no manager,
no heartbeat subscription, no fan-out -- replays are byte-identical to
builds that predate this module.

The divergence *check* lives in :mod:`repro.fs.oracle` (a final sweep
comparing version stamps across each file's live replicas); this module
only hands it the per-group replica maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.render import format_number, render_table
from repro.common.units import KB
from repro.fs.sharding import Placement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fs.cluster import ClusterResult
    from repro.fs.server import Server


class ReplicaMap:
    """The current file -> replica-set map.

    The *base* replicas are the pure placement function and are cached
    per file; *substitute* replicas added by re-replication are layered
    on top and dropped when the server they stood in for recovers.
    """

    __slots__ = ("placement", "replication_factor", "_base", "_extra")

    def __init__(self, placement: Placement, replication_factor: int) -> None:
        self.placement = placement
        self.replication_factor = replication_factor
        self._base: dict[int, tuple[int, ...]] = {}
        #: file_id -> {substitute server -> dead server it stands in for}
        self._extra: dict[int, dict[int, int]] = {}

    def base_replicas(self, file_id: int) -> tuple[int, ...]:
        replicas = self._base.get(file_id)
        if replicas is None:
            replicas = self._base[file_id] = self.placement.replicas_of(
                file_id, self.replication_factor
            )
        return replicas

    def replicas(self, file_id: int) -> tuple[int, ...]:
        """Base replicas plus any live substitutes, primary first."""
        base = self.base_replicas(file_id)
        extra = self._extra.get(file_id)
        if not extra:
            return base
        return base + tuple(sorted(extra))

    def add_substitute(self, file_id: int, target: int, dead: int) -> None:
        self._extra.setdefault(file_id, {})[target] = dead

    def drop_substitutes_for(self, dead: int) -> None:
        """The dead server recovered: its stand-ins retire."""
        empty = []
        for file_id, extra in self._extra.items():
            for target in [t for t, d in extra.items() if d == dead]:
                del extra[target]
            if not extra:
                empty.append(file_id)
        for file_id in empty:
            del self._extra[file_id]

    def forget(self, file_id: int) -> None:
        """The file was deleted."""
        self._extra.pop(file_id, None)


class ReplicationManager:
    """Heartbeat failure detector + pending log + re-replication.

    One per cluster, constructed only when ``replication_factor > 1``.
    Everything it does is driven by deterministic engine events (the
    heartbeat tick) or by explicit cluster calls, so replays stay
    byte-identical across worker counts.

    The manager carries one :class:`ReplicaMap` per owned client group,
    each over the group's :meth:`~repro.fs.sharding.Placement.group_view`
    (the classic cluster is the one-group case, ``{0: map}`` over every
    server), because shared file ids -- the negative sentinels and the
    read-only binaries -- resolve to a different server slice per group.
    Every lookup resolves the map through the server id it concerns
    (``sid // servers_per_group`` names the group); each client is
    handed its own group's map.
    """

    def __init__(
        self,
        engine,
        servers: "list[Server]",
        placement: Placement,
        replication_factor: int,
        miss_threshold: int,
        ticker,
        groups: int = 1,
        owned_groups: "tuple[int, ...] | None" = None,
    ) -> None:
        self.engine = engine
        self.servers = servers
        owned = tuple(range(groups)) if owned_groups is None else owned_groups
        #: Owned group -> its :class:`ReplicaMap`; the integrity layer
        #: and the oracle resolve replica sets through these too.
        self.group_maps = {
            group: ReplicaMap(
                placement.group_view(group, groups), replication_factor
            )
            for group in owned
        }
        self._servers_per_group = placement.num_servers // groups
        self.miss_threshold = miss_threshold
        self._missed = [0] * len(servers)
        #: Servers currently declared dead by the detector (a superset
        #: snapshot lag is fine: declaration needs k missed beats, so a
        #: crashed server is routed around long before it is declared).
        self._dead: set[int] = set()
        #: Pushes a down replica missed: server -> {file ->
        #: (delete_pending, version)}.  ``delete_pending`` records that
        #: the file was deleted while the replica was down, so its stale
        #: durable copy must be invalidated -- *before* any version is
        #: applied, because a deleted-then-recreated file's new version
        #: must not max-merge against the pre-delete stamp.  Applied (in
        #: file order) at recovery, before the clients' reopen sweeps
        #: re-register.
        self._pending: dict[int, dict[int, tuple[bool, int | None]]] = {}
        #: Test hook: servers that silently drop propagation (both the
        #: live fan-out and the pending log).  Used by the oracle's
        #: negative tests to manufacture replica divergence.
        self.skip_propagation_to: set[int] = set()
        #: Optional observability hook (repro.obs); every use is guarded.
        self.obs = None
        #: Integrity layer (repro.fs.integrity), set by the cluster when
        #: built; re-replication then copies verified block content too.
        self.integrity = None
        self._subscription = ticker.subscribe(self._heartbeat_tick)

    def _map_for_server(self, server_id: int) -> ReplicaMap:
        return self.group_maps[server_id // self._servers_per_group]

    # --- the failure detector ----------------------------------------------------

    def _heartbeat_tick(self) -> None:
        now = self.engine.now
        for server in self.servers:
            sid = server.server_id
            if server.up:
                self._missed[sid] = 0
                continue
            self._missed[sid] += 1
            server.counters.heartbeats_missed += 1
            if self._missed[sid] == self.miss_threshold and sid not in self._dead:
                self._dead.add(sid)
                server.counters.failure_detections += 1
                if self.obs is not None:
                    self.obs.on_failure_detected(now, sid, self._missed[sid])
                self._rereplicate(now, sid)

    # --- the pending log ---------------------------------------------------------

    def queue_pending(self, server_id: int, file_id: int, version: int | None) -> None:
        """Record a push a down replica missed (``None`` = a delete).

        The log keeps outcomes, not history: a delete *drops* any
        version queued earlier (replaying a push for a file that no
        longer exists would resurrect it), and a later push for a
        deleted file marks it deleted-then-recreated so recovery
        invalidates the stale durable copy before stamping the new
        version.
        """
        if server_id in self.skip_propagation_to:
            return
        log = self._pending.setdefault(server_id, {})
        if version is None:
            log[file_id] = (True, None)
            return
        entry = log.get(file_id)
        if entry is not None and entry[0]:
            log[file_id] = (True, version)
        else:
            log[file_id] = (False, version)

    def flush_pending(self, server_id: int) -> None:
        """Apply (and clear) a server's pending log.

        Runs at recovery, and also when a client is forced to route an
        operation to a still-down server (every replica down): the
        operation logically executes at that server's recovery, so the
        pushes it missed must land first to keep versions monotonic.
        """
        pending = self._pending.pop(server_id, None)
        if not pending:
            return
        server = self.servers[server_id]
        for file_id in sorted(pending):
            deleted, version = pending[file_id]
            if deleted:
                # Invalidate first: after it, the server reads as
                # version 0, so a recreate's version applies exactly
                # rather than max-merging against the pre-delete stamp.
                server.invalidate_file(file_id)
            if version is not None:
                server.apply_replica_version(file_id, version)

    # --- cluster transitions -----------------------------------------------------

    def on_server_recovered(self, now: float, server_id: int) -> None:
        """The server rebooted: patch its durable state from the pending
        log, retire its substitutes, and reset the detector."""
        self.flush_pending(server_id)
        self._map_for_server(server_id).drop_substitutes_for(server_id)
        self._missed[server_id] = 0
        self._dead.discard(server_id)

    # --- re-replication ----------------------------------------------------------

    def _rereplicate(self, now: float, dead_id: int) -> None:
        """Restore ``r`` reachable copies of every file the dead server
        hosted.

        The hosted set is discovered from the live replicas' durable
        state (the dead server cannot be asked).  Each file's substitute
        is the first live server in its full placement chain that is not
        already a replica; it receives the freshest live version stamp
        and a copy of the freshest replica's resident cache blocks.
        Registrations are not copied -- they converge through the normal
        open/close fan-out.  Files created after this declaration stay
        at ``r - 1`` copies until the dead server returns (the detector
        declares once per outage).
        """
        servers = self.servers
        rmap = self._map_for_server(dead_id)
        placement = rmap.placement
        candidates: set[int] = set()
        # Only the dead server's own group slice can hold (or receive)
        # copies of its files.
        spg = self._servers_per_group
        first = (dead_id // spg) * spg
        for sid in range(first, first + spg):
            if servers[sid].up:
                candidates.update(servers[sid]._files.keys())
        for file_id in sorted(candidates):
            replicas = rmap.replicas(file_id)
            if dead_id not in replicas:
                continue
            live = [s for s in replicas if servers[s].up]
            if not live:
                continue
            target_id = None
            for cand in placement.replicas_of(file_id, placement.chain_width):
                if cand not in replicas and servers[cand].up:
                    target_id = cand
                    break
            if target_id is None:
                continue  # no live server left to copy onto
            src = max(
                live, key=lambda s: (servers[s].peek_version(file_id), -s)
            )
            version = servers[src].peek_version(file_id)
            target = servers[target_id]
            target.apply_replica_version(file_id, version)
            blocks = sorted(servers[src].cache._by_file.get(file_id, ()))
            for index in blocks:
                target.cache.install(file_id, index, now)
            target.counters.rereplicated_files += 1
            target.counters.rereplication_blocks += len(blocks)
            rmap.add_substitute(file_id, target_id, dead_id)
            if self.integrity is not None:
                self.integrity.copy_file(now, src, target_id, file_id)
            if self.obs is not None:
                self.obs.on_rereplication(
                    now, dead_id, target_id, file_id, len(blocks)
                )


# --- Table A: availability and data loss vs. replication factor ---------------


@dataclass
class ReplicationCell:
    """Availability and replication-cost totals for one replay."""

    label: str
    replication_factor: int

    server_crashes: int = 0
    downtime_seconds: float = 0.0
    stall_seconds: float = 0.0
    rpc_retries: int = 0
    lost_dirty_blocks: int = 0
    lost_dirty_bytes: int = 0

    failover_reads: int = 0
    failover_ops: int = 0
    replica_writeback_blocks: int = 0
    replica_version_pushes: int = 0
    rereplicated_files: int = 0
    rereplication_blocks: int = 0
    heartbeats_missed: int = 0
    failure_detections: int = 0

    oracle_checks: int = 0
    oracle_violations: int = 0

    @classmethod
    def from_result(
        cls, label: str, result: "ClusterResult", oracle: Any = None
    ) -> "ReplicationCell":
        cell = cls(
            label=label,
            replication_factor=result.config.replication_factor,
            server_crashes=result.server_counters.crashes,
            downtime_seconds=result.server_counters.downtime_seconds,
            replica_version_pushes=(
                result.server_counters.replica_version_pushes
            ),
            rereplicated_files=result.server_counters.rereplicated_files,
            rereplication_blocks=result.server_counters.rereplication_blocks,
            heartbeats_missed=result.server_counters.heartbeats_missed,
            failure_detections=result.server_counters.failure_detections,
        )
        for counters in result.final_counters.values():
            cell.stall_seconds += counters.stall_seconds
            cell.rpc_retries += counters.rpc_retries
            cell.lost_dirty_blocks += counters.lost_dirty_blocks
            cell.lost_dirty_bytes += counters.lost_dirty_bytes
            cell.failover_reads += counters.failover_reads
            cell.failover_ops += counters.failover_ops
            cell.replica_writeback_blocks += counters.replica_writeback_blocks
        if oracle is not None:
            cell.oracle_checks = oracle.checks_run
            cell.oracle_violations = len(oracle.violations)
        return cell

    @property
    def lost_kbytes(self) -> float:
        return self.lost_dirty_bytes / KB


@dataclass
class ReplicationStudyResult:
    """The sweep: one cell per replication factor, same fault timeline."""

    cells: list[ReplicationCell] = field(default_factory=list)

    def cell_for(self, label: str) -> ReplicationCell:
        for cell in self.cells:
            if cell.label == label:
                return cell
        raise KeyError(f"no sweep cell labelled {label!r}")

    def render(self) -> str:
        headers = ["Measurement"] + [cell.label for cell in self.cells]

        def row(label: str, getter, precision: int = 1) -> list[str]:
            return [label] + [
                format_number(getter(cell), precision) for cell in self.cells
            ]

        rows = [
            row("Process-seconds stalled", lambda c: c.stall_seconds, 1),
            row("RPC retries (backoff)", lambda c: float(c.rpc_retries), 0),
            row("Dirty Kbytes lost to crashes", lambda c: c.lost_kbytes, 1),
            row("Failover reads", lambda c: float(c.failover_reads), 0),
            row("Ops routed around a down replica",
                lambda c: float(c.failover_ops), 0),
            row("Replica writeback fan-out (blocks)",
                lambda c: float(c.replica_writeback_blocks), 0),
            row("Replica version pushes",
                lambda c: float(c.replica_version_pushes), 0),
            row("Failure detections", lambda c: float(c.failure_detections), 0),
            row("Files re-replicated", lambda c: float(c.rereplicated_files), 0),
            row("Blocks copied by re-replication",
                lambda c: float(c.rereplication_blocks), 0),
            row("Oracle checks", lambda c: float(c.oracle_checks), 0),
            row("Oracle violations", lambda c: float(c.oracle_violations), 0),
        ]
        first = self.cells[0] if self.cells else None
        note = None
        if first is not None:
            note = (
                f"Same trace and fault timeline in every column "
                f"({first.server_crashes} server crashes, "
                f"{format_number(first.downtime_seconds, 0)} s server "
                f"downtime); only the replication factor varies.  With one "
                f"copy a crash blacks out the file's shard; extra replicas "
                f"turn those stalls into failover reads, and the heartbeat "
                f"detector re-replicates the dead server's files so the "
                f"cluster returns to full redundancy before the reboot."
            )
        return render_table(
            "Table A. Availability and data loss vs. replication factor",
            headers,
            rows,
            note=note,
        )


def compute_replication_study(
    labelled_results: list[tuple[str, "ClusterResult", Any]],
) -> ReplicationStudyResult:
    """Pool each replay of the replication sweep into one table cell."""
    return ReplicationStudyResult(
        cells=[
            ReplicationCell.from_result(label, result, oracle)
            for label, result, oracle in labelled_results
        ]
    )
