"""The online protocol-invariant oracle.

A :class:`ProtocolOracle` hooks the RPC transport and checks protocol
safety after every delivery, turning "the chaos run looked fine" into
machine-checked invariants:

* **at-most-once execution** -- no (client, sequence number) pair is
  ever executed twice, however the channel duplicated, reordered, or
  retransmitted it;
* **monotonic version stamps** -- a file's durable version never moves
  backwards across opens, revalidations, crashes, and recoveries
  (deletes legitimately reset a file's stamp, so the oracle forgets a
  file when its delete executes);
* **no stale data after a completed invalidation** -- once a recall
  callback is delivered, the client holds no dirty blocks of the file;
  once a cache-disable is delivered, it holds no blocks at all;
* **dirty-byte conservation** -- at end of replay, every block a client
  ever dirtied is accounted for: written back, absorbed by a delete,
  destroyed by a counted fault, or still resident dirty.

A violated invariant raises (or, in collection mode, records) a
structured :class:`InvariantViolation` carrying the replay seed, so any
failure is replayable from its exception alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fs.client import ClientKernel


@dataclass(frozen=True, slots=True)
class Violation:
    """One observed protocol-safety breach."""

    invariant: str
    time: float
    seed: int | None
    details: str

    def __str__(self) -> str:
        return (
            f"[{self.invariant}] t={self.time:.3f} seed={self.seed}: "
            f"{self.details}"
        )


class InvariantViolation(SimulationError):
    """Raised by the oracle; carries the structured violation (including
    the replay seed) as :attr:`violation`."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class ProtocolOracle:
    """Checks protocol safety after every transport delivery.

    ``seed`` is stamped into violations so they replay; with
    ``raise_on_violation`` False the oracle records violations instead
    of raising, letting one chaos run collect all of them.

    The oracle never touches counters or randomness: attaching it to a
    replay must not change what the replay computes, only what it
    checks.
    """

    def __init__(
        self, seed: int | None = None, raise_on_violation: bool = True
    ) -> None:
        self.seed = seed
        self.raise_on_violation = raise_on_violation
        self.violations: list[Violation] = []
        self.checks_run = 0
        #: Optional observation hub (repro.obs); when set, every check
        #: and violation is mirrored into the event trace.
        self.obs: Any | None = None
        #: (server_id, client_id, seq) executions; seq -1 (fast path) is
        #: untracked.  Sequence numbers are per transport, and a client
        #: has one transport per server shard, so the key must carry the
        #: server id: two shards legitimately both see (client, 0).
        self._executed: set[tuple[int, int, int]] = set()
        #: file_id -> highest version stamp ever observed.
        self._versions: dict[int, int] = {}
        #: The replication manager's per-group replica maps (group ->
        #: :class:`~repro.fs.replication.ReplicaMap`) and the slice
        #: width, set by the cluster when replication is configured;
        #: they enable the per-group replica-divergence final check and
        #: switch the writeback ledger to the fan-out counter.
        self.group_maps: "dict[int, Any] | None" = None
        self.servers_per_group: int = 0
        #: The cluster's :class:`~repro.fs.integrity.IntegrityManager`,
        #: set by the cluster when the integrity layer is built; enables
        #: the end-state silent-corruption sweep.
        self.integrity: Any | None = None

    def _flag(self, invariant: str, time: float, details: str) -> None:
        violation = Violation(
            invariant=invariant, time=time, seed=self.seed, details=details
        )
        self.violations.append(violation)
        if self.obs is not None:
            self.obs.on_oracle_violation(time, invariant, details)
        if self.raise_on_violation:
            raise InvariantViolation(violation)

    # --- transport hooks --------------------------------------------------------

    def on_execute(
        self, now: float, client_id: int, seq: int, op: str,
        args: tuple, reply: Any, server_id: int = 0,
    ) -> None:
        """Called by the server endpoint after executing a request."""
        self.checks_run += 1
        if self.obs is not None:
            self.obs.on_oracle_check(now, "execute", client_id, op)
        if seq >= 0:
            key = (server_id, client_id, seq)
            if key in self._executed:
                self._flag(
                    "at-most-once", now,
                    f"server {server_id}: client {client_id} seq {seq} "
                    f"({op}) executed twice",
                )
            self._executed.add(key)
        if op in ("open_file", "revalidate_file"):
            file_id = args[0]
            version = reply.version if op == "open_file" else reply
            known = self._versions.get(file_id, 0)
            if version < known:
                self._flag(
                    "monotonic-versions", now,
                    f"file {file_id} version moved backwards: "
                    f"{known} -> {version} (at {op})",
                )
            self._versions[file_id] = max(known, version)
        elif op == "delete_file":
            # A recreated file legitimately restarts its stamp.
            self._versions.pop(args[0], None)

    def on_callback(
        self, now: float, client: "ClientKernel", kind: str, file_id: int
    ) -> None:
        """Called after a server callback is delivered to a client."""
        self.checks_run += 1
        if self.obs is not None:
            self.obs.on_oracle_check(now, "callback", client.client_id, kind)
        if kind == "recall":
            leftover = client.cache.dirty_blocks_of_file(file_id)
            if leftover:
                self._flag(
                    "no-stale-after-invalidation", now,
                    f"client {client.client_id} kept {len(leftover)} dirty "
                    f"blocks of file {file_id} after a delivered recall",
                )
        elif kind == "cache_disable":
            leftover = client.cache.blocks_of_file(file_id)
            if leftover:
                self._flag(
                    "no-stale-after-invalidation", now,
                    f"client {client.client_id} kept {len(leftover)} blocks "
                    f"of file {file_id} after a delivered cache disable",
                )

    # --- end-of-replay checks ---------------------------------------------------

    def final_check(
        self,
        now: float,
        clients: list["ClientKernel"],
        servers: list[Any] | None = None,
    ) -> None:
        """Dirty-byte conservation, checked once the replay settles.

        With multiple ``servers`` given, also checks the cross-shard
        ledger: every dirty block any client cleaned crossed the wire to
        exactly one server, so the cluster-wide writeback counts must
        balance (``write_block`` executes exactly once per clean under
        the at-most-once transport, whichever shard it lands on).  A
        single-server cluster skips it -- the per-client conservation
        sweep below already covers one server, and skipping keeps the
        check count (which rendered reports embed) identical to
        pre-sharding replays.
        """
        if servers is not None and len(servers) > 1:
            self.checks_run += 1
            if self.obs is not None:
                self.obs.on_oracle_check(
                    now, "final", -1, "cross-shard-writeback-ledger"
                )
            received = sum(s.counters.block_writes for s in servers)
            if self.group_maps is not None:
                # Replicated writebacks fan out: every clean crosses the
                # wire once per live replica, and the clients count each
                # transfer in replica_writeback_blocks.
                cleaned = sum(
                    c.counters.replica_writeback_blocks for c in clients
                )
            else:
                cleaned = sum(
                    c.counters.blocks_cleaned_total for c in clients
                )
            if received != cleaned:
                per_server = ", ".join(
                    f"server {s.server_id}: {s.counters.block_writes}"
                    for s in servers
                )
                self._flag(
                    "cross-shard-writeback-ledger", now,
                    f"clients cleaned {cleaned} dirty blocks but servers "
                    f"received {received} ({per_server})",
                )
        if self.group_maps is not None and servers is not None:
            spg = self.servers_per_group
            for group in sorted(self.group_maps):
                self._check_replica_divergence(
                    now, servers, self.group_maps[group],
                    range(group * spg, (group + 1) * spg),
                )
        if self.integrity is not None:
            # **No silent corruption at end of replay** -- every durable
            # block an up server acknowledged either verifies against
            # its checksum and acknowledged generation, or its loss was
            # detected and booked (declared lost / flagged by a read or
            # scrub).  Anything else is corruption the integrity
            # machinery never saw: the one failure mode checksums and
            # scrubbing exist to rule out.
            self.checks_run += 1
            if self.obs is not None:
                self.obs.on_oracle_check(now, "final", -1, "silent-corruption")
            for detail in self.integrity.silent_corruption_report():
                self._flag("silent-corruption", now, detail)
        for client in clients:
            self.checks_run += 1
            if self.obs is not None:
                self.obs.on_oracle_check(
                    now, "final", client.client_id, "dirty-byte-conservation"
                )
            counters = client.counters
            accounted = (
                counters.blocks_cleaned_total
                + counters.dirty_blocks_discarded
                + counters.lost_dirty_blocks
                + client.cache.dirty_evictions
                + client.cache.dirty_count
            )
            if accounted != counters.blocks_dirtied:
                self._flag(
                    "dirty-byte-conservation", now,
                    f"client {client.client_id} dirtied "
                    f"{counters.blocks_dirtied} blocks but accounts for "
                    f"{accounted} (cleaned {counters.blocks_cleaned_total}, "
                    f"discarded {counters.dirty_blocks_discarded}, lost "
                    f"{counters.lost_dirty_blocks}, dirty-evicted "
                    f"{client.cache.dirty_evictions}, resident "
                    f"{client.cache.dirty_count})",
                )

    def _check_replica_divergence(
        self, now: float, servers: list[Any], replica_map: Any,
        server_ids: range,
    ) -> None:
        """Every file's *live* replicas must agree on its version stamp.

        Write propagation (replica_open fan-out) pushes the serving
        replica's version to the other live replicas synchronously, and
        the pending log patches a recovering replica before any client
        sweep reads it -- so at any quiescent point, two up replicas
        disagreeing means propagation was lost.  Down replicas are
        excluded: their patch is still queued.  A server that never saw
        the file reads as version 0, which only agrees with version 0.

        ``server_ids`` is one group's server slice: the sweep runs once
        per owned group with the group's own map (once over every
        server for the classic one-group cluster).
        """
        self.checks_run += 1
        if self.obs is not None:
            self.obs.on_oracle_check(now, "final", -1, "replica-divergence")
        known: set[int] = set()
        for sid in server_ids:
            known.update(servers[sid]._files.keys())
        for file_id in sorted(known):
            live = [
                s for s in replica_map.replicas(file_id)
                if servers[s].up
            ]
            if len(live) < 2:
                continue
            versions = {s: servers[s].peek_version(file_id) for s in live}
            if len(set(versions.values())) > 1:
                detail = ", ".join(
                    f"server {s}: v{v}" for s, v in sorted(versions.items())
                )
                self._flag(
                    "replica-divergence", now,
                    f"file {file_id} diverged across live replicas "
                    f"({detail})",
                )

    def version_map(self) -> dict[int, int]:
        """The highest version stamp observed per file id (a copy).

        The public face of the internal version ledger: shard merges
        (:func:`repro.pipeline.scaleout.merge_oracle_versions`) read
        this instead of reaching into ``_versions``.
        """
        return dict(self._versions)

    def assert_clean(self) -> None:
        """Raise on the first recorded violation (collection mode)."""
        if self.violations:
            raise InvariantViolation(self.violations[0])
