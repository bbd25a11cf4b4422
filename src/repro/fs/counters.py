"""The kernel counters.

Section 3: "approximately 50 counters that recorded statistics about
cache traffic, ages of blocks in the cache, the size of the cache, etc.
A user-level process read the counters at regular intervals."  The
simulator keeps the same counters per client and snapshots them on a
simulated schedule; :mod:`repro.caching` post-processes the snapshots
into Tables 4-9, just as the authors post-processed their counter
files.

The counters used to be ``slots`` dataclasses; they are now backed by
one flat list of values per instance, because the replay copies,
samples, and serializes them constantly:

* ``copy()`` is a single C-level ``list.copy`` instead of ~50
  ``getattr``/``setattr`` pairs (snapshots take thousands of copies);
* ``as_row()`` / ``from_row()`` hand the columnar codec and the obs
  sampler a ready-made row in declaration order -- the same tuple
  layout the dataclass version produced, so the artifact wire format
  is unchanged;
* hot paths may bind ``INDEX["name"]`` once and bump
  ``counters._values[i]`` directly, skipping attribute descriptors.

Every field is still a real (generated) property, so
``counters.cache_read_ops += 1`` and ``getattr(counters, name)`` work
exactly as before; ``FIELDS`` replaces ``dataclasses.fields`` for code
that iterates counter names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable


class _ArrayCounters:
    """A named bundle of cumulative counters on one flat value list."""

    __slots__ = ("_values",)

    #: Counter names in declaration order (the dataclass field order of
    #: earlier versions -- also the codec's row layout, do not reorder).
    FIELDS: tuple[str, ...] = ()
    _DEFAULTS: tuple = ()
    #: name -> position in ``_values``; hot sites bind these once.
    INDEX: dict[str, int] = {}

    def __init__(self, **overrides) -> None:
        self._values = list(self._DEFAULTS)
        if overrides:
            index = self.INDEX
            values = self._values
            for name, value in overrides.items():
                if name not in index:
                    raise TypeError(
                        f"{type(self).__name__} has no counter {name!r}"
                    )
                values[index[name]] = value

    def copy(self):
        """A value snapshot of every counter."""
        clone = object.__new__(type(self))
        clone._values = self._values.copy()
        return clone

    def as_row(self) -> tuple:
        """All values as a tuple in :attr:`FIELDS` order (the exact row
        shape the columnar codec and the obs sampler store)."""
        return tuple(self._values)

    @classmethod
    def from_row(cls, row):
        """Rebuild from an :meth:`as_row` tuple."""
        obj = object.__new__(cls)
        obj._values = list(row)
        return obj

    @classmethod
    def aggregate(cls, many: "Iterable") -> "_ArrayCounters":
        """Field-wise sum (downtime and stall seconds included), the
        whole-cluster view Tables 4-9 report."""
        values = list(cls._DEFAULTS)
        for counters in many:
            for i, value in enumerate(counters._values):
                values[i] += value
        total = object.__new__(cls)
        total._values = values
        return total

    def digest(self) -> str:
        """A stable hex digest of the exact counter values: SHA-256 of
        the ``repr`` of :meth:`as_row` (``repr`` distinguishes ``1``
        from ``1.0``, so this pins byte-exact state, not just numeric
        equality).  The partitioned-replay identity checks compare
        shard-merged replays to unpartitioned ones through these."""
        return hashlib.sha256(
            repr(tuple(self._values)).encode("ascii")
        ).hexdigest()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    __hash__ = None  # mutable, like the eq=True dataclass it replaced

    def __getstate__(self):
        return self._values

    def __setstate__(self, state) -> None:
        self._values = list(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.FIELDS, self._values)
        )
        return f"{type(self).__name__}({body})"


def _declare_counters(cls, spec: tuple) -> None:
    """Install the field tables and one generated property per counter.

    The properties are compiled with their index baked in as a literal
    (the same exec-codegen trick the columnar codec uses), so attribute
    access costs one Python call plus a C-level list index.
    """
    cls.FIELDS = tuple(name for name, _ in spec)
    cls._DEFAULTS = tuple(default for _, default in spec)
    cls.INDEX = {name: i for i, name in enumerate(cls.FIELDS)}
    lines = []
    for i, name in enumerate(cls.FIELDS):
        lines.append(f"def _get_{name}(self): return self._values[{i}]")
        lines.append(f"def _set_{name}(self, value): self._values[{i}] = value")
        lines.append(f"cls.{name} = property(_get_{name}, _set_{name})")
    exec("\n".join(lines), {"cls": cls})  # noqa: S102 - static, local source


#: (name, default) per counter, in the historical dataclass field order.
_CLIENT_SPEC = (
    # --- raw application traffic (before any cache) -----------------------
    ("file_open_ops", 0),
    ("file_bytes_read", 0),
    ("file_bytes_written", 0),
    ("shared_bytes_read", 0),  # uncacheable: concurrent write-sharing
    ("shared_bytes_written", 0),
    ("directory_bytes_read", 0),  # uncacheable: directories not cached
    ("paging_code_bytes", 0),  # cacheable paging (executable files)
    ("paging_data_bytes", 0),  # cacheable paging (initialized data)
    ("paging_backing_bytes_read", 0),  # uncacheable paging
    ("paging_backing_bytes_written", 0),
    # --- cache operations -------------------------------------------------
    ("cache_read_ops", 0),
    ("cache_read_misses", 0),
    ("cache_read_bytes", 0),
    ("cache_read_miss_bytes", 0),  # bytes fetched from the server
    ("cache_write_ops", 0),
    ("cache_write_bytes", 0),
    ("write_fetch_ops", 0),  # partial write of a non-resident block
    ("write_fetch_bytes", 0),
    # migrated-process split of the above
    ("migrated_read_ops", 0),
    ("migrated_read_misses", 0),
    ("migrated_read_bytes", 0),
    ("migrated_read_miss_bytes", 0),
    ("migrated_write_ops", 0),
    ("migrated_write_bytes", 0),
    ("migrated_write_fetch_ops", 0),
    # paging cache behaviour
    ("paging_read_ops", 0),
    ("paging_read_misses", 0),
    ("paging_read_miss_bytes", 0),
    # --- writeback --------------------------------------------------------
    ("bytes_written_to_server", 0),
    ("blocks_dirtied", 0),  # clean->dirty transitions, ever
    ("blocks_cleaned_delay", 0),
    ("blocks_cleaned_fsync", 0),
    ("blocks_cleaned_recall", 0),
    ("blocks_cleaned_vm", 0),
    ("blocks_cleaned_recovery", 0),  # replayed after a crash/partition
    ("clean_age_sum_delay", 0.0),
    ("clean_age_sum_fsync", 0.0),
    ("clean_age_sum_recall", 0.0),
    ("clean_age_sum_vm", 0.0),
    ("clean_age_sum_recovery", 0.0),
    ("dirty_bytes_discarded", 0),  # deleted/truncated before writeback
    ("dirty_blocks_discarded", 0),
    # --- faults and recovery ----------------------------------------------
    ("crashes", 0),  # times this client rebooted
    ("partitions", 0),  # partitions that hit this client
    ("lost_dirty_blocks", 0),  # dirty data destroyed by a crash or conflict
    ("lost_dirty_bytes", 0),
    ("rpc_retries", 0),  # backoff attempts against an unreachable server
    ("rpc_failed_ops", 0),  # data ops dropped after rpc_timeout ("fail" mode)
    ("stall_seconds", 0.0),  # process-seconds spent waiting for the server
    ("ops_dropped_while_down", 0),  # trace records hitting a dead client
    ("stale_reads_served", 0),  # cache hits on stale data while partitioned
    ("stale_read_bytes", 0),
    # --- the message-level transport (repro.fs.rpc) -----------------------
    # All zero unless the channel is lossy: the transport books nothing
    # on the inert fast path, keeping fault-free runs byte-identical.
    ("rpc_messages_sent", 0),  # packets offered to the lossy channel
    ("rpc_retransmissions", 0),  # resends after a lost request or reply
    ("rpc_replies_lost", 0),  # request executed but its reply dropped
    # Channel-delay stall.  This is a *component* of stall_seconds, not
    # an addition to it: every second booked here was also booked there.
    # Consumers must report one or the other, never their sum (the
    # difference is the backoff and outage share of the stall).
    ("rpc_delay_seconds", 0.0),
    ("reopen_rpcs", 0),  # recovery: re-register open files
    ("revalidate_rpcs", 0),  # recovery: version-check cached files
    ("blocks_invalidated_on_recovery", 0),  # failed re-validation
    ("dirty_blocks_resident", 0),  # current, sampled at snapshot time
    # --- replacement ------------------------------------------------------
    ("blocks_replaced_for_file", 0),
    ("blocks_replaced_for_vm", 0),
    ("replace_age_sum_file", 0.0),  # seconds since last reference
    ("replace_age_sum_vm", 0.0),
    # --- cache size -------------------------------------------------------
    ("cache_size_bytes", 0),  # current, sampled at snapshot time
    ("vm_resident_bytes", 0),
    # --- replication (repro.fs.replication) -------------------------------
    # All zero at replication_factor=1: the unreplicated client never
    # routes around its primary or fans writebacks out.
    ("failover_reads", 0),  # reads served by a non-primary replica
    ("failover_ops", 0),  # any op routed around a down primary
    ("replica_writeback_blocks", 0),  # write_block fan-out, all targets
    # --- integrity (repro.fs.integrity) -----------------------------------
    # Zero unless disk faults or scrubbing are configured.
    ("checksum_failures", 0),  # fetches that hit unrepairable corruption
)


class ClientCounters(_ArrayCounters):
    """Cumulative counters for one client kernel."""

    __slots__ = ()

    @property
    def raw_file_bytes(self) -> int:
        """All application file bytes, cacheable or not."""
        return (
            self.file_bytes_read
            + self.file_bytes_written
            + self.shared_bytes_read
            + self.shared_bytes_written
            + self.directory_bytes_read
        )

    @property
    def raw_paging_bytes(self) -> int:
        return (
            self.paging_code_bytes
            + self.paging_data_bytes
            + self.paging_backing_bytes_read
            + self.paging_backing_bytes_written
        )

    @property
    def raw_total_bytes(self) -> int:
        return self.raw_file_bytes + self.raw_paging_bytes

    @property
    def uncacheable_bytes(self) -> int:
        return (
            self.shared_bytes_read
            + self.shared_bytes_written
            + self.directory_bytes_read
            + self.paging_backing_bytes_read
            + self.paging_backing_bytes_written
        )

    @property
    def blocks_cleaned_total(self) -> int:
        """Dirty blocks written to the server, any reason."""
        return (
            self.blocks_cleaned_delay
            + self.blocks_cleaned_fsync
            + self.blocks_cleaned_recall
            + self.blocks_cleaned_vm
            + self.blocks_cleaned_recovery
        )

    @property
    def server_bytes(self) -> int:
        """Bytes that crossed the network to or from the server.

        ``cache_read_miss_bytes`` already includes the miss bytes of
        cacheable paging, so paging misses must not be added again.
        """
        return (
            self.cache_read_miss_bytes
            + self.write_fetch_bytes
            + self.bytes_written_to_server
            + self.uncacheable_bytes
        )


_declare_counters(ClientCounters, _CLIENT_SPEC)


_SERVER_SPEC = (
    ("rpc_count", 0),
    ("open_rpcs", 0),
    ("naming_rpcs", 0),  # closes, deletes, directory ops
    ("block_reads", 0),  # blocks served to client caches
    ("block_read_bytes", 0),
    ("block_writes", 0),  # writebacks received
    ("block_write_bytes", 0),
    ("passthrough_read_bytes", 0),  # uncacheable (shared) reads
    ("passthrough_write_bytes", 0),
    ("paging_bytes", 0),
    ("recalls_issued", 0),
    ("cache_disables", 0),
    ("concurrent_write_sharing_opens", 0),
    ("server_cache_hits", 0),
    ("server_cache_misses", 0),
    ("disk_reads", 0),
    ("disk_writes", 0),
    # --- faults and recovery ----------------------------------------------
    ("crashes", 0),
    ("downtime_seconds", 0.0),
    ("reopen_rpcs", 0),  # clients re-registering opens after recovery
    ("revalidate_rpcs", 0),  # clients version-checking cached files
    ("recalls_failed", 0),  # dirty-data recall hit an unreachable client
    # --- at-most-once RPC (repro.fs.rpc) ----------------------------------
    ("duplicate_rpcs_suppressed", 0),  # arrivals not executed again
    ("rpc_replies_replayed", 0),  # answered from the reply cache
    ("stale_rpcs_dropped", 0),  # reply not kept: dropped, never replayed
    # Never booked: the reply cache keeps what a transport can ask for
    # and evicts nothing.  The slot stays until the next SCHEMA_VERSION
    # bump, because the row layout feeds recorded counter digests.
    ("dedup_evictions", 0),
    # --- replication (repro.fs.replication) -------------------------------
    # All zero at replication_factor=1: no heartbeats, no replica ops.
    ("replica_version_pushes", 0),  # version stamps merged from peers
    ("rereplicated_files", 0),  # files copied here to restore r copies
    ("rereplication_blocks", 0),  # resident blocks copied with them
    ("heartbeats_missed", 0),  # beats this server failed to answer
    ("failure_detections", 0),  # times the detector declared this server dead
    # --- integrity (repro.fs.integrity) -----------------------------------
    # Zero unless disk faults or scrubbing are configured.
    ("checksum_failures", 0),  # verified reads that caught corruption
    ("blocks_repaired", 0),  # corrupt blocks restored from a live replica
    ("blocks_declared_lost", 0),  # corruption with no valid copy left
    ("scrub_blocks_checked", 0),  # blocks the scrubber verified
    ("scrub_corruptions_found", 0),  # scrub detections (then repaired/lost)
    ("disk_bit_rot_events", 0),  # injected: stored payload garbled
    ("disk_torn_writes", 0),  # injected: write persisted garbled
    ("disk_lost_writes", 0),  # injected: write acked, never persisted
)


class ServerCounters(_ArrayCounters):
    """Cumulative counters for the file server."""

    __slots__ = ()


_declare_counters(ServerCounters, _SERVER_SPEC)


@dataclass(slots=True)
class CounterSnapshot:
    """One timestamped reading of a client's counters."""

    time: float
    client_id: int
    counters: ClientCounters = field(repr=False)
