"""The client kernel: cache management, delayed writes, consistency.

Implements the client half of Sprite's caching mechanism:

* 4-Kbyte blocks cached on read and write, LRU replacement;
* cache size negotiated with the VM model (grow by claiming free or
  20-minute-aged pages, shrink when VM demand spikes);
* 30-second delayed writes, scanned every 5 seconds by a daemon; when
  any block of a file is 30 seconds dirty, *all* the file's dirty
  blocks are written (Section 5.4);
* fsync write-through on application request;
* consistency actions: flush stale blocks on version mismatch at open,
  honour server recalls, bypass the cache entirely for files under
  concurrent write-sharing;
* fault handling: RPC retry with exponential backoff while the server
  is crashed or the network partitioned, graceful degradation (stall or
  fail) when the timeout expires, and Sprite's stateful recovery sweep
  (reopen, revalidate, replay overdue writes) when the server returns.

The replay is open-loop, so a "stalled" operation books its retries and
stall time in the counters and then executes -- logically at the moment
the server came back -- without advancing the global clock (see
:mod:`repro.fs.faults` for the conventions).
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import SimulationError
from repro.common.rng import RngStream
from repro.fs.cache import BlockCache, CacheBlock, CleanReason
from repro.fs.config import ClusterConfig
from repro.fs.counters import ClientCounters
from repro.fs.oracle import ProtocolOracle
from repro.fs.rpc import RpcTransport
from repro.fs.server import Server
from repro.fs.sharding import MachineRoster, Placement
from repro.sim.engine import Engine
from repro.sim.timers import SharedTicker

# Bound counter positions for the hot paths.  The generated attribute
# properties cost a Python call per bump; the per-block loops below bump
# the flat value list directly through these indexes instead (see
# ClientCounters.INDEX).
_IDX = ClientCounters.INDEX
_FILE_OPEN_OPS = _IDX["file_open_ops"]
_FILE_BYTES_READ = _IDX["file_bytes_read"]
_FILE_BYTES_WRITTEN = _IDX["file_bytes_written"]
_SHARED_BYTES_READ = _IDX["shared_bytes_read"]
_SHARED_BYTES_WRITTEN = _IDX["shared_bytes_written"]
_PAGING_CODE_BYTES = _IDX["paging_code_bytes"]
_PAGING_DATA_BYTES = _IDX["paging_data_bytes"]
_CACHE_READ_OPS = _IDX["cache_read_ops"]
_CACHE_READ_MISSES = _IDX["cache_read_misses"]
_CACHE_READ_MISS_BYTES = _IDX["cache_read_miss_bytes"]
_CACHE_WRITE_OPS = _IDX["cache_write_ops"]
_CACHE_WRITE_BYTES = _IDX["cache_write_bytes"]
_WRITE_FETCH_OPS = _IDX["write_fetch_ops"]
_WRITE_FETCH_BYTES = _IDX["write_fetch_bytes"]
_MIGRATED_READ_OPS = _IDX["migrated_read_ops"]
_MIGRATED_READ_MISSES = _IDX["migrated_read_misses"]
_MIGRATED_READ_BYTES = _IDX["migrated_read_bytes"]
_MIGRATED_READ_MISS_BYTES = _IDX["migrated_read_miss_bytes"]
_MIGRATED_WRITE_OPS = _IDX["migrated_write_ops"]
_MIGRATED_WRITE_BYTES = _IDX["migrated_write_bytes"]
_MIGRATED_WRITE_FETCH_OPS = _IDX["migrated_write_fetch_ops"]
_PAGING_READ_OPS = _IDX["paging_read_ops"]
_PAGING_READ_MISSES = _IDX["paging_read_misses"]
_PAGING_READ_MISS_BYTES = _IDX["paging_read_miss_bytes"]
_STALE_READS_SERVED = _IDX["stale_reads_served"]
_STALE_READ_BYTES = _IDX["stale_read_bytes"]
_BLOCKS_DIRTIED = _IDX["blocks_dirtied"]
_BYTES_WRITTEN_TO_SERVER = _IDX["bytes_written_to_server"]
_BLOCKS_REPLACED_FOR_FILE = _IDX["blocks_replaced_for_file"]
_REPLACE_AGE_SUM_FILE = _IDX["replace_age_sum_file"]
_FAILOVER_READS = _IDX["failover_reads"]
_REPLICA_WRITEBACK_BLOCKS = _IDX["replica_writeback_blocks"]
_CHECKSUM_FAILURES = _IDX["checksum_failures"]
#: CleanReason -> (count index, age-sum index) for _clean_block.
_CLEAN_IDX = {
    CleanReason.DELAY: (_IDX["blocks_cleaned_delay"], _IDX["clean_age_sum_delay"]),
    CleanReason.FSYNC: (_IDX["blocks_cleaned_fsync"], _IDX["clean_age_sum_fsync"]),
    CleanReason.RECALL: (
        _IDX["blocks_cleaned_recall"], _IDX["clean_age_sum_recall"]
    ),
    CleanReason.VM: (_IDX["blocks_cleaned_vm"], _IDX["clean_age_sum_vm"]),
    CleanReason.RECOVERY: (
        _IDX["blocks_cleaned_recovery"], _IDX["clean_age_sum_recovery"]
    ),
}


def _shard_zero(file_id: int) -> int:
    """``_shard_of`` for single-server clusters (bound per instance)."""
    return 0


class ClientKernel:
    """One diskless Sprite client.

    Every server interaction goes through a per-shard
    :class:`~repro.fs.rpc.RpcTransport`: at-most-once RPC over a seeded
    lossy channel.  The cluster builds each client with its group's
    server slice (``servers``: the plain server list, or a
    :class:`MachineRoster` when the slice is narrower than the cluster),
    one channel stream per slice server, the group's ``placement``
    view, the shared writeback ``ticker``, and the shard that holds the
    client's backing files (``paging_shard``).  ``oracle`` attaches the
    protocol-invariant oracle.  ``replication`` (the cluster's
    ReplicationManager) and ``replica_map`` (the client's group's
    ReplicaMap) turn on replicated routing.
    """

    def __init__(
        self,
        client_id: int,
        config: ClusterConfig,
        engine: Engine,
        servers: Sequence[Server],
        vm,
        channel_rngs: Sequence[RngStream],
        placement: Placement,
        ticker: SharedTicker,
        paging_shard: int,
        oracle: ProtocolOracle | None = None,
        replication=None,
        replica_map=None,
        integrity=None,
    ) -> None:
        self.client_id = client_id
        self.config = config
        self.engine = engine
        self.servers = servers
        self.placement = placement
        self.vm = vm
        transports = [
            RpcTransport(self, server, config.faults, rng, oracle)
            for server, rng in zip(servers, channel_rngs)
        ]
        self.transports: Sequence[RpcTransport] = (
            servers.like(transports, kind="transport to server")
            if isinstance(servers, MachineRoster) else transports
        )
        #: Backing-file paging is pinned to one shard per client (a
        #: process's backing file lives on a single server), inside the
        #: client's group slice.
        self._paging_shard = paging_shard
        self.counters = ClientCounters()
        # The 5-second writeback daemon: every client of a cluster
        # shares one coalesced tick, which calls this client's scan only
        # while the cache arms it (it holds dirty blocks).
        self._daemon = ticker.subscribe(self._writeback_scan, armed=False)
        self.cache = BlockCache(config.block_size, self._daemon)
        #: Optional observability hook (repro.obs); every use is guarded
        #: so None (the default) leaves all code paths untouched.
        self.obs = None
        self._known_version: dict[int, int] = {}
        self._uncacheable: set[int] = set()
        self._max_cache_blocks = max(
            1, int(config.client_page_count * config.max_cache_fraction)
        )
        #: Pages granted by VM but not currently holding a block
        #: (freed by invalidations; the cache keeps them greedily).
        self._spare_pages = 0
        #: Fault state.  ``epoch`` increments on every crash so the
        #: cluster can drop closes whose opens died with the machine.
        self.up = True
        self.epoch = 0
        self.partition_until = 0.0
        #: file_id -> [read opens, write opens] held by this client;
        #: what the reopen protocol re-registers after a server crash.
        self._open_files: dict[int, list[int]] = {}
        if len(servers) == 1:
            # Single-server cluster: every file lives on shard 0, so
            # skip the placement hash (an instance attribute shadows
            # the method -- it is called on every open/close/read/write).
            self._shard_of = _shard_zero
        #: Replication (repro.fs.replication).  ``_route`` is the
        #: serving-shard picker every per-file operation uses: without a
        #: manager it *is* ``_shard_of`` (zero new cost, byte-identical
        #: routing); with one it prefers the first live replica of the
        #: file in ``replica_map``, this client's group's map.
        self._replication = replication
        self._replica_map = replica_map
        self._replicated = replication is not None
        #: Integrity layer (repro.fs.integrity); None (the default)
        #: keeps every read/write path exactly as before.
        self.integrity = integrity
        self._routed_failover = False
        if self._replicated:
            self._route = self._route_replicated
        else:
            self._route = self._shard_of

    # --- shard routing -----------------------------------------------------------

    def _shard_of(self, file_id: int) -> int:
        # Shadowed by ``_shard_zero`` on single-server clusters.
        return self.placement.shard_of(file_id)

    def _transport_for(self, file_id: int) -> RpcTransport:
        return self.transports[self.placement.shard_of(file_id)]

    def _route_replicated(self, file_id: int) -> int:
        """The serving shard under replication: the primary while it is
        up, else the first live replica (a failover), else the replica
        that recovers soonest (the op stalls against it, executing
        logically at its recovery -- so its pending pushes land first).
        ``_route`` binds to this only when a replication manager exists.
        """
        replicas = self._replica_map.replicas(file_id)
        servers = self.servers
        if servers[replicas[0]].up:
            self._routed_failover = False
            return replicas[0]
        for sid in replicas[1:]:
            if servers[sid].up:
                self._routed_failover = True
                self.counters.failover_ops += 1
                return sid
        self._routed_failover = False
        target = min(replicas, key=lambda s: servers[s].down_until)
        self._replication.flush_pending(target)
        return target

    def _propagate_open(
        self, now: float, file_id: int, served: int,
        will_write: bool, version: int,
    ) -> None:
        """Mirror a served open to the other replicas: registrations and
        the (possibly bumped) version stamp go to the live ones; a down
        replica gets the version queued in the pending log (its
        registrations are rebuilt by the reopen sweep at recovery)."""
        manager = self._replication
        skip = manager.skip_propagation_to
        for sid in self._replica_map.replicas(file_id):
            if sid == served or sid in skip:
                continue
            if self.servers[sid].up:
                self.transports[sid].call(
                    now, "replica_open", file_id, self.client_id,
                    will_write, version,
                )
            elif will_write:
                manager.queue_pending(sid, file_id, version)

    def _propagate_close(
        self, now: float, file_id: int, served: int, wrote: bool
    ) -> None:
        """Mirror a served close to the other live replicas."""
        skip = self._replication.skip_propagation_to
        for sid in self._replica_map.replicas(file_id):
            if sid == served or sid in skip or not self.servers[sid].up:
                continue
            self.transports[sid].call(
                now, "replica_close", file_id, self.client_id, wrote
            )

    # --- consistency hooks -------------------------------------------------------

    def receive_cacheability(self, file_id: int, cacheable: bool) -> None:
        """Server callback: a cacheability change arrives as a message
        on this client's channel (lossy delivery, retried until it
        lands)."""
        now = self.engine.now
        self._transport_for(file_id).deliver_callback(
            now,
            lambda: self.set_cacheability(file_id, cacheable),
            "cache_disable" if not cacheable else "cache_enable",
            file_id,
        )

    def set_cacheability(self, file_id: int, cacheable: bool) -> None:
        """Server-driven: disable or re-enable caching for a file."""
        if cacheable:
            self._uncacheable.discard(file_id)
            return
        self._uncacheable.add(file_id)
        # Flush what we hold: dirty data goes back, everything drops.
        if self.has_dirty_data(file_id):
            self._clean_file(self.engine.now, file_id, CleanReason.RECALL)
        self._spare_pages += len(self.cache.invalidate_file(file_id))

    def has_dirty_data(self, file_id: int) -> bool:
        return bool(self.cache.dirty_blocks_of_file(file_id))

    def receive_recall(self, now: float, file_id: int) -> None:
        """Server callback: a dirty-data recall arrives as a message on
        this client's channel (lossy delivery, retried until it
        lands)."""
        self._transport_for(file_id).deliver_callback(
            now,
            lambda: self.recall_dirty_data(now, file_id),
            "recall",
            file_id,
        )

    def recall_dirty_data(self, now: float, file_id: int) -> None:
        """The server recalls this client's dirty data for a file."""
        self._clean_file(now, file_id, CleanReason.RECALL)

    # --- faults and recovery -------------------------------------------------------

    def reachable(self, now: float) -> bool:
        """Can the server reach this client right now?"""
        return self.up and now >= self.partition_until

    def _unavailable_until(self, now: float, server: Server) -> float:
        """When ``server`` becomes reachable again (== ``now`` if it
        already is)."""
        until = now
        if not server.up:
            until = max(until, server.down_until)
        if now < self.partition_until:
            until = max(until, self.partition_until)
        return until

    def await_server(self, now: float, shard: int, data_op: bool = False) -> bool:
        """Gate one operation on the availability of server ``shard``.

        Returns True when the operation may proceed (immediately, or
        after a booked stall), False when a data operation gives up
        under ``degraded_mode="fail"``.  Naming operations always
        stall -- Sprite's opens and closes cannot be dropped.  One shard
        being down never gates traffic to the others.
        """
        until = self._unavailable_until(now, self.servers[shard])
        if until <= now:
            return True
        faults = self.config.faults
        wait = until - now
        transport = self.transports[shard]
        if wait <= faults.rpc_timeout or not data_op or faults.degraded_mode == "stall":
            self.counters.rpc_retries += transport.outage_resend_loop(wait)
            self.counters.stall_seconds += wait
            if self.obs is not None:
                self.obs.on_stall(now, self.client_id, wait, "outage")
            return True
        self.counters.rpc_retries += transport.outage_resend_loop(
            faults.rpc_timeout
        )
        self.counters.stall_seconds += faults.rpc_timeout
        self.counters.rpc_failed_ops += 1
        if self.obs is not None:
            self.obs.on_stall(
                now, self.client_id, faults.rpc_timeout, "timeout"
            )
        return False

    def crash(self, now: float) -> None:
        """This machine dies.  Every cached block -- including dirty
        data the 30-second delay had not yet written back -- is lost;
        that loss is the paper's headline delayed-write caveat."""
        self.counters.crashes += 1
        self.epoch += 1
        self.up = False
        block_size = self.config.block_size
        victims = self.cache.clear()
        for block in victims:
            if block.dirty:
                self.counters.lost_dirty_blocks += 1
                self.counters.lost_dirty_bytes += max(
                    1, min(block.written_end, block_size)
                )
        # The reboot keeps the machine's memory: pages the VM had lent
        # to the cache stay lent, just empty.
        self._spare_pages += len(victims)
        self._known_version.clear()
        self._uncacheable.clear()
        self._open_files.clear()

    def reboot(self, now: float) -> None:
        """The machine comes back with a cold cache."""
        self.up = True

    def partition(self, now: float, until: float) -> None:
        """The network cuts this client off from the server until
        ``until`` (overlapping partitions extend the window)."""
        if now >= self.partition_until:
            self.counters.partitions += 1
        self.partition_until = max(self.partition_until, until)

    def heal_partition(self, now: float) -> None:
        """The partition ends; re-validate what we kept cached and
        replay writes that came due while cut off."""
        if now < self.partition_until or not self.up:
            return  # extended by a later partition, or machine is down
        if not any(server.up for server in self.servers):
            return  # still unreachable; the server recovery sweep will run
        # Sweep only the shards that are up; a shard still crashed will
        # drive its own sweep through ``on_server_recovered``.
        self._revalidate_cached_files(now)
        self._replay_overdue_writes(now)

    def on_server_recovered(self, now: float, server_id: int) -> None:
        """Sprite's stateful reopen protocol, client side, for the
        recovered shard.

        Re-register every open file on that server, re-validate every
        cached file against its durable version stamps, and replay dirty
        blocks whose writeback came due during the outage.  No cached
        block survives recovery without re-validation.  Files on other
        shards are untouched -- their servers never lost state.
        """
        if not self.up or now < self.partition_until:
            return  # unreachable clients recover later (reboot or heal)
        # Files that were uncacheable are re-evaluated from scratch:
        # the server lost the sharing state and the reopens below
        # rebuild it, broadcasting cache-disable for files still shared.
        self._uncacheable = {
            file_id
            for file_id in self._uncacheable
            if not self._hosted_on(file_id, server_id)
        }
        transport = self.transports[server_id]
        for file_id in sorted(self._open_files):
            if not self._hosted_on(file_id, server_id):
                continue
            reads, writes = self._open_files[file_id]
            if reads or writes:
                self.counters.reopen_rpcs += 1
                transport.call(
                    now, "reopen_file", file_id, self.client_id, reads, writes
                )
        self._revalidate_cached_files(now, server_id)
        self._replay_overdue_writes(now, server_id)

    def _hosted_on(self, file_id: int, server_id: int) -> bool:
        """Does ``server_id`` currently hold a replica of ``file_id``?
        (The file's one shard when unreplicated.)"""
        if self._replicated:
            return server_id in self._replica_map.replicas(file_id)
        return self._shard_of(file_id) == server_id

    def _sweep_shard(self, file_id: int, server_id: int | None) -> int | None:
        """The shard a recovery sweep should talk to for ``file_id``,
        or None when the sweep does not cover the file.

        ``server_id`` None is the heal-partition sweep: it covers every
        file whose serving replica is up (the routed shard under
        replication).  An explicit id limits the sweep to files hosted
        on the server that just recovered, addressed directly.
        """
        if server_id is not None:
            return server_id if self._hosted_on(file_id, server_id) else None
        shard = self._route(file_id)
        return shard if self.servers[shard].up else None

    def _revalidate_cached_files(
        self, now: float, server_id: int | None = None
    ) -> None:
        """One validation RPC per cached file; drop blocks whose
        version no longer matches (dirty ones among them are lost --
        they conflict with writes accepted elsewhere)."""
        block_size = self.config.block_size
        for file_id in sorted(self.cache.resident_files()):
            shard = self._sweep_shard(file_id, server_id)
            if shard is None:
                continue
            self.counters.revalidate_rpcs += 1
            current = self.transports[shard].call(
                now, "revalidate_file", file_id
            )
            known = self._known_version.get(file_id)
            if known is not None and known == current:
                continue
            victims = self.cache.invalidate_file(file_id)
            for block in victims:
                if block.dirty:
                    self.counters.lost_dirty_blocks += 1
                    self.counters.lost_dirty_bytes += max(
                        1, min(block.written_end, block_size)
                    )
            self.counters.blocks_invalidated_on_recovery += len(victims)
            self._spare_pages += len(victims)
            self._known_version.pop(file_id, None)

    def _replay_overdue_writes(
        self, now: float, server_id: int | None = None
    ) -> None:
        """Write back dirty blocks whose 30-second deadline passed while
        the server was unreachable (the "replay un-acked writes" half of
        the reopen protocol)."""
        cutoff = now - self.config.writeback_delay
        overdue = self.cache.dirty_blocks_older_than(cutoff)
        for file_id in sorted({b.file_id for b in overdue}):
            shard = self._sweep_shard(file_id, server_id)
            if shard is None:
                continue
            self._clean_file(now, file_id, CleanReason.RECOVERY)
            self.transports[shard].call(
                now, "note_written_back", file_id, self.client_id
            )

    # --- opens and closes ---------------------------------------------------------

    def open_file(self, now: float, file_id: int, will_write: bool) -> bool:
        """Open a file; returns True if it is cacheable here.

        Flushes stale cached data when the server's version is newer
        than the version this cache was loaded from (the timestamp
        mechanism).
        """
        self.counters.file_open_ops += 1
        shard = self._route(file_id)
        # Naming op: always stalls through outages.
        self.await_server(now, shard=shard)
        reply = self.transports[shard].call(
            now, "open_file", file_id, self.client_id, will_write
        )
        if self._replicated:
            self._propagate_open(now, file_id, shard, will_write, reply.version)
        counts = self._open_files.get(file_id)
        if counts is None:
            counts = self._open_files[file_id] = [0, 0]
        counts[1 if will_write else 0] += 1
        known = self._known_version.get(file_id)
        expected = reply.version - 1 if will_write else reply.version
        if known is not None and known != expected and known != reply.version:
            # Our cached copy predates the current version: flush it.
            self._discard_stale_blocks(file_id)
        self._known_version[file_id] = reply.version
        if not reply.cacheable:
            self._uncacheable.add(file_id)
        return reply.cacheable

    def close_file(
        self, now: float, file_id: int, wrote: bool, fsync: bool = False
    ) -> None:
        """Close a file, optionally forcing its dirty data through."""
        shard = self._route(file_id)
        # Naming op: always stalls through outages.
        self.await_server(now, shard=shard)
        transport = self.transports[shard]
        if fsync and wrote:
            self._clean_file(now, file_id, CleanReason.FSYNC)
            transport.call(now, "note_written_back", file_id, self.client_id)
        transport.call(now, "close_file", file_id, self.client_id, wrote)
        if self._replicated:
            self._propagate_close(now, file_id, shard, wrote)
        counts = self._open_files.get(file_id)
        if counts is not None:
            counts[1 if wrote else 0] = max(0, counts[1 if wrote else 0] - 1)
            if counts == [0, 0]:
                del self._open_files[file_id]

    # --- reads and writes -----------------------------------------------------------

    def read(
        self,
        now: float,
        file_id: int,
        offset: int,
        length: int,
        migrated: bool = False,
        paging_kind: str | None = None,
    ) -> None:
        """Application (or pager) read of a byte range.

        ``paging_kind`` is ``"code"`` or ``"data"`` for cacheable page
        faults; ``None`` for ordinary file reads.
        """
        if length <= 0:
            return
        paging = paging_kind is not None
        shard = self._route(file_id)
        counters = self.counters._values
        if self._replicated and self._routed_failover:
            counters[_FAILOVER_READS] += 1
        if file_id in self._uncacheable:
            counters[_SHARED_BYTES_READ] += length
            if self.await_server(now, data_op=True, shard=shard):
                self.transports[shard].call(
                    now, "passthrough_read", file_id, length
                )
            return
        if paging_kind == "code":
            counters[_PAGING_CODE_BYTES] += length
        elif paging_kind == "data":
            counters[_PAGING_DATA_BYTES] += length
        else:
            counters[_FILE_BYTES_READ] += length
            if migrated:
                counters[_MIGRATED_READ_BYTES] += length

        # Faults: while the file's server is unreachable, cache hits may
        # serve stale bytes (the durable version moved on without us) and
        # misses stall or fail per the degraded mode.  ``fetch_allowed``
        # gates (and books the stall for) this call's misses just once.
        file_server = self.servers[shard]
        unreachable = self._unavailable_until(now, file_server) > now
        stale = unreachable and (
            file_server.peek_version(file_id)
            > self._known_version.get(file_id, 0)
        )
        fetch_allowed: bool | None = None

        cache = self.cache
        transport_call = self.transports[shard].call
        block_size = self.config.block_size
        end = offset + length
        first = offset // block_size
        last = (end - 1) // block_size
        # Per-block op counters bump once for the whole run: nothing
        # samples counters mid-call, so the aggregate is identical.
        n_blocks = last - first + 1
        counters[_CACHE_READ_OPS] += n_blocks
        if paging:
            counters[_PAGING_READ_OPS] += n_blocks
        if migrated:
            counters[_MIGRATED_READ_OPS] += n_blocks
        blocks = cache._blocks
        blocks_get = blocks.get
        move_to_end = blocks.move_to_end
        for index in range(first, last + 1):
            key = (file_id, index)
            block = blocks_get(key)
            if block is not None:
                # The LRU touch, inlined -- the hottest path of the
                # whole replay; the overlap arithmetic is skipped
                # entirely on a healthy hit.
                block.last_referenced = now
                move_to_end(key)
                if stale:
                    block_start = index * block_size
                    block_end = block_start + block_size
                    counters[_STALE_READS_SERVED] += 1
                    counters[_STALE_READ_BYTES] += (
                        end if end < block_end else block_end
                    ) - (offset if offset > block_start else block_start)
                continue
            block_start = index * block_size
            block_end = block_start + block_size
            overlap = (end if end < block_end else block_end) - (
                offset if offset > block_start else block_start
            )
            # Miss: fetch from the server and install.
            counters[_CACHE_READ_MISSES] += 1
            if unreachable:
                if fetch_allowed is None:
                    fetch_allowed = self.await_server(
                        now, data_op=True, shard=shard
                    )
                if not fetch_allowed:
                    continue  # dropped transfer: nothing crossed the wire
            counters[_CACHE_READ_MISS_BYTES] += overlap
            if paging:
                counters[_PAGING_READ_MISSES] += 1
                counters[_PAGING_READ_MISS_BYTES] += overlap
            if migrated:
                counters[_MIGRATED_READ_MISSES] += 1
                counters[_MIGRATED_READ_MISS_BYTES] += overlap
            if transport_call(now, "fetch_block", file_id, index, overlap) is False:
                counters[_CHECKSUM_FAILURES] += 1
            if self.obs is not None:
                self.obs.on_block_fetch(now, self.client_id, file_id, index, overlap)
            self._make_room(now)
            block = cache.insert(key, now, migrated=migrated)
            block.written_end = block_size  # a fetched block is full

    def write(
        self,
        now: float,
        file_id: int,
        offset: int,
        length: int,
        migrated: bool = False,
    ) -> None:
        """Application write of a byte range."""
        if length <= 0:
            return
        shard = self._route(file_id)
        counters = self.counters._values
        if file_id in self._uncacheable:
            counters[_SHARED_BYTES_WRITTEN] += length
            if self.await_server(now, data_op=True, shard=shard):
                self.transports[shard].call(
                    now, "passthrough_write", file_id, length
                )
            return
        counters[_FILE_BYTES_WRITTEN] += length
        counters[_CACHE_WRITE_BYTES] += length
        if migrated:
            counters[_MIGRATED_WRITE_BYTES] += length

        # Faults: write fetches need the server; when one is dropped in
        # "fail" mode the write degrades to an unfetched overwrite (the
        # block starts empty instead of being filled from the server).
        # Write-through mode stalls through outages like any sync write.
        unreachable = self._unavailable_until(now, self.servers[shard]) > now
        fetch_allowed: bool | None = None
        if unreachable and self.config.write_through:
            self.await_server(now, shard=shard)

        cache = self.cache
        block_size = self.config.block_size
        first = offset // block_size
        last = (offset + length - 1) // block_size
        n_blocks = last - first + 1
        counters[_CACHE_WRITE_OPS] += n_blocks
        if migrated:
            counters[_MIGRATED_WRITE_OPS] += n_blocks
        blocks = cache._blocks
        blocks_get = blocks.get
        write_through = self.config.write_through
        for index in range(first, last + 1):
            block_start = index * block_size
            begin = max(offset, block_start)
            end = min(offset + length, block_start + block_size)
            key = (file_id, index)
            block = blocks_get(key)
            if block is None:
                partial = begin > block_start or end < block_start + block_size
                overwrites_existing = begin > block_start
                fetch = partial and overwrites_existing
                if fetch and unreachable:
                    if fetch_allowed is None:
                        fetch_allowed = self.await_server(
                            now, data_op=True, shard=shard
                        )
                    fetch = fetch_allowed
                if fetch:
                    # Partial write of a non-resident block: fetch it
                    # first (Table 6's "write fetch").
                    counters[_WRITE_FETCH_OPS] += 1
                    counters[_WRITE_FETCH_BYTES] += block_size
                    if migrated:
                        counters[_MIGRATED_WRITE_FETCH_OPS] += 1
                    fetched = self.transports[shard].call(
                        now, "fetch_block", file_id, index, block_size
                    )
                    if fetched is False:
                        counters[_CHECKSUM_FAILURES] += 1
                    if self.obs is not None:
                        self.obs.on_block_fetch(
                            now, self.client_id, file_id, index, block_size
                        )
                    self._make_room(now)
                    block = cache.insert(key, now, migrated=migrated)
                    block.written_end = block_size
                else:
                    self._make_room(now)
                    block = cache.insert(key, now, migrated=migrated)
                    block.written_end = 0
            if block.dirty:
                # Inlined mark_dirty fast path: an already-dirty block
                # only needs its LRU position and reference refreshed.
                block.last_referenced = now
                if migrated:
                    block.migrated = True
                blocks.move_to_end(key)
            else:
                counters[_BLOCKS_DIRTIED] += 1
                cache.mark_dirty(key, now, migrated=migrated)
            if block.written_end < end - block_start:
                block.written_end = end - block_start
            if write_through:
                self._clean_block(now, block, CleanReason.FSYNC)

    def delete_on_server(self, now: float, file_id: int) -> None:
        """Issue the delete/truncate naming RPC: one message carries
        both the name operation and the server-side invalidation."""
        shard = self._route(file_id)
        # Naming op: always stalls through outages.
        self.await_server(now, shard=shard)
        self.transports[shard].call(now, "delete_file", file_id)
        if self._replicated:
            # Every replica must drop the file; a down replica gets the
            # delete queued in its pending log.
            manager = self._replication
            skip = manager.skip_propagation_to
            for sid in self._replica_map.replicas(file_id):
                if sid == shard or sid in skip:
                    continue
                if self.servers[sid].up:
                    self.transports[sid].call(now, "delete_file", file_id)
                else:
                    manager.queue_pending(sid, file_id, None)
            self._replica_map.forget(file_id)

    def delete_file(self, now: float, file_id: int) -> None:
        """Handle a delete (or truncate-to-zero) of a file."""
        for block in self.cache.blocks_of_file(file_id):
            if block.dirty:
                # Absorbed by the delayed-write policy: never reaches
                # the server (the ~10% write savings).
                self.counters.dirty_bytes_discarded += max(1, block.written_end)
                self.counters.dirty_blocks_discarded += 1
            self.cache.remove(block.key)
            self._spare_pages += 1
        self._known_version.pop(file_id, None)

    def directory_read(self, now: float, length: int, file_id: int = -1) -> None:
        """Directories are not cached on clients.

        ``file_id`` picks the serving shard (a directory lives with its
        server); the RPC itself stays the anonymous ``-1`` passthrough
        the single-server protocol always used.
        """
        self.counters.directory_bytes_read += length
        shard = self._route(file_id)
        if self.await_server(now, data_op=True, shard=shard):
            self.transports[shard].call(now, "passthrough_read", -1, length)

    # --- paging -------------------------------------------------------------------

    def paging_backing(self, now: float, nbytes: int, is_write: bool) -> None:
        """Backing-file traffic: straight to the server.  Paging cannot
        fail open -- a dropped page would kill the process -- so it
        always uses stall semantics."""
        if is_write:
            self.counters.paging_backing_bytes_written += nbytes
        else:
            self.counters.paging_backing_bytes_read += nbytes
        self.await_server(now, shard=self._paging_shard)
        self.transports[self._paging_shard].call(now, "paging_transfer", nbytes)

    # --- internals ------------------------------------------------------------------

    def _make_room(self, now: float) -> None:
        """Ensure space for one more block: reuse a spare page, grow if
        VM permits, else evict the LRU block."""
        if self._spare_pages > 0:
            self._spare_pages -= 1
            return
        if len(self.cache._blocks) < self._max_cache_blocks:
            if self.vm.claim_for_cache(now, 1) == 1:
                return
        victim = self.cache.lru_block()
        if victim is None:
            # Cache is empty and VM gave nothing: force one page.
            if self.vm.claim_for_cache(now, 1) != 1:
                raise SimulationError(
                    f"client {self.client_id} has no memory for even one block"
                )
            return
        if victim.dirty:
            # Rare: a dirty block reached the LRU end before the daemon
            # cleaned it.  Write it back before reuse.
            self._clean_block(now, victim, CleanReason.VM)
        age = now - victim.last_referenced
        if age < 0.0:
            age = 0.0
        counters = self.counters._values
        counters[_BLOCKS_REPLACED_FOR_FILE] += 1
        counters[_REPLACE_AGE_SUM_FILE] += age
        if self.obs is not None:
            self.obs.on_evict(now, self.client_id, "for_file", age)
        self.cache.remove(victim.key)

    def surrender_pages(self, now: float, pages: int) -> int:
        """VM demand spike: give up to ``pages`` blocks back to the VM
        system.  Returns how many pages were actually surrendered."""
        # Spare pages go first -- they hold no data.
        spare_given = min(self._spare_pages, pages)
        self._spare_pages -= spare_given
        if spare_given:
            self.vm.release_from_cache(spare_given)
        surrendered = spare_given
        for _ in range(pages - spare_given):
            victim = self.cache.lru_block()
            if victim is None:
                break
            if victim.dirty:
                self._clean_block(now, victim, CleanReason.VM)
            age = max(0.0, now - victim.last_referenced)
            self.counters.blocks_replaced_for_vm += 1
            self.counters.replace_age_sum_vm += age
            if self.obs is not None:
                self.obs.on_evict(now, self.client_id, "for_vm", age)
            self.cache.remove(victim.key)
            self.vm.release_from_cache(1)
            surrendered += 1
        return surrendered

    def _writeback_scan(self) -> None:
        """The 5-second daemon: clean files with 30-second-old data."""
        cache = self.cache
        if not cache._dirty:
            # Nothing dirty anywhere: sleep until the cache's next first
            # dirty block re-arms the daemon.
            self._daemon.disarm()
            return
        now = self.engine.now
        if not self.up or now < self.partition_until:
            # Dead machine or partitioned: the daemon does not retry --
            # overdue blocks are replayed by the recovery sweep (or by
            # the first scan after the outage ends).
            return
        cutoff = now - self.config.writeback_delay
        oldest = cache.oldest_dirty_since()
        if oldest is not None and oldest > cutoff:
            return  # dirty data exists but none of it is 30s old yet
        old_blocks = cache.dirty_blocks_older_than(cutoff)
        if not old_blocks:
            return
        # All dirty blocks of a file go when any block is 30s old.  A
        # crashed shard's files are skipped (their recovery sweep will
        # replay them); the other shards' writebacks proceed -- one
        # server down never stalls the rest of the cluster.  The
        # explicit ``up`` check covers the instant at the end of a
        # scheduled outage, before recovery has actually run.
        for file_id in sorted({b.file_id for b in old_blocks}):
            shard = self._route(file_id)
            server = self.servers[shard]
            if not server.up or self._unavailable_until(now, server) > now:
                continue
            self._clean_file(now, file_id, CleanReason.DELAY)
            self.transports[shard].call(
                now, "note_written_back", file_id, self.client_id
            )

    def _clean_file(self, now: float, file_id: int, reason: CleanReason) -> None:
        for block in self.cache.dirty_blocks_of_file(file_id):
            self._clean_block(now, block, reason)

    def _clean_block(self, now: float, block: CacheBlock, reason: CleanReason) -> None:
        nbytes = max(1, min(block.written_end, self.config.block_size))
        age = max(0.0, now - block.dirty_since) if block.dirty_since >= 0 else 0.0
        counters = self.counters._values
        if self.integrity is not None:
            # One generation per cleaned block; the write_block RPCs
            # below persist this generation on every replica they reach.
            self.integrity.begin_write(block.file_id, block.index)
        if not self._replicated:
            self.transports[self._shard_of(block.file_id)].call(
                now, "write_block", block.file_id, block.index, nbytes
            )
        else:
            # The writeback fans out to every live replica so each holds
            # current bytes; with all replicas down it lands on the one
            # that recovers soonest (executing logically at recovery).
            skip = self._replication.skip_propagation_to
            targets = [
                sid
                for sid in self._replica_map.replicas(block.file_id)
                if self.servers[sid].up and sid not in skip
            ]
            if not targets:
                targets = [self._route(block.file_id)]
            for sid in targets:
                self.transports[sid].call(
                    now, "write_block", block.file_id, block.index, nbytes
                )
            counters[_REPLICA_WRITEBACK_BLOCKS] += len(targets)
        counters[_BYTES_WRITTEN_TO_SERVER] += nbytes
        count_index, age_index = _CLEAN_IDX[reason]
        counters[count_index] += 1
        counters[age_index] += age
        if self.obs is not None:
            self.obs.on_writeback(
                now, self.client_id, reason.value, age, nbytes
            )
        self.cache.mark_clean(block.key)

    def _discard_stale_blocks(self, file_id: int) -> None:
        """Drop a file's blocks because the server's version moved on
        (the timestamp mechanism at open).  Dirty blocks among them --
        possible only under faults, when a recall could not reach us --
        are counted discarded so the dirty-block ledger stays balanced."""
        for block in self.cache.invalidate_file(file_id):
            if block.dirty:
                self.counters.dirty_bytes_discarded += max(1, block.written_end)
                self.counters.dirty_blocks_discarded += 1
            self._spare_pages += 1

    def snapshot_sizes(self) -> None:
        """Refresh the sampled size counters before a snapshot."""
        self.counters.cache_size_bytes = self.cache.size_bytes
        self.counters.vm_resident_bytes = (
            self.vm.vm_resident_pages * self.config.block_size
        )
        self.counters.dirty_blocks_resident = self.cache.dirty_count
