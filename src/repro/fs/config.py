"""Cluster simulator configuration.

Every policy constant the paper describes is a field here, so ablations
(write-through instead of delayed writes, a fixed 10% cache as in
contemporary UNIX kernels, symmetric VM trading) are configuration
changes rather than code changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from repro.common.errors import ConfigError
from repro.fs.faults import FaultConfig
from repro.common.units import (
    BLOCK_SIZE,
    DEFAULT_CLIENT_COUNT,
    DEFAULT_CLIENT_MEMORY,
    DEFAULT_SERVER_MEMORY,
    DELAYED_WRITE_SECONDS,
    MB,
    VM_PREFERENCE_SECONDS,
    WRITEBACK_SCAN_INTERVAL,
)


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of one simulated Sprite cluster."""

    client_count: int = DEFAULT_CLIENT_COUNT
    client_memory: int = DEFAULT_CLIENT_MEMORY
    server_memory: int = DEFAULT_SERVER_MEMORY
    block_size: int = BLOCK_SIZE

    #: File servers in the cluster.  The measured cluster had four; the
    #: file space is partitioned across them by a seeded hash of the
    #: file id (see repro.fs.sharding).  1 = the classic single-server
    #: configuration, byte-identical to builds that predate sharding.
    num_servers: int = 1
    #: Seed of the file->server placement hash.  Deliberately separate
    #: from the replay seed so placement is stable across the seed
    #: offsets the experiment tables use for their replays.
    placement_seed: int = 0

    #: Copies of every file, on distinct servers.  1 = no replication
    #: (byte-identical to builds that predate it); r > 1 places each
    #: file on r servers chosen by the placement hash, serves reads
    #: from any live replica, and re-replicates when the failure
    #: detector declares a replica dead.
    replication_factor: int = 1
    #: The failure detector's heartbeat period.  The default matches
    #: the writeback scan interval so the detector shares that single
    #: coalesced tick (repro.sim.timers.SharedTicker).
    heartbeat_interval: float = WRITEBACK_SCAN_INTERVAL
    #: Consecutive missed heartbeats before a server is declared dead
    #: and its files re-replicated.
    heartbeat_miss_threshold: int = 3

    #: Dirty data is written to the server this long after it was written.
    writeback_delay: float = DELAYED_WRITE_SECONDS
    #: The daemon scans for 30-second-old dirty blocks at this period.
    writeback_scan_interval: float = WRITEBACK_SCAN_INTERVAL
    #: Write everything through immediately (ablation of the delay).
    write_through: bool = False

    #: Memory the kernel itself occupies on each client (not tradable).
    kernel_memory: int = 4 * MB
    #: Minimum size the file cache may shrink to.
    min_cache_size: int = 512 * 1024
    #: VM pages must be unreferenced this long before the file cache may
    #: claim them (Sprite's 20-minute preference for virtual memory).
    vm_preference: float = VM_PREFERENCE_SECONDS
    #: Cap the cache at this fraction of memory; 1.0 = Sprite's dynamic
    #: behaviour, 0.10 = the fixed allocation of contemporary UNIX.
    max_cache_fraction: float = 1.0

    #: Probability that an application follows a written file's close
    #: with an fsync (Table 9's "write-through requested by application").
    fsync_probability: float = 0.13

    #: Counter snapshots are taken at this period (seconds).
    snapshot_interval: float = 300.0

    #: Independent client groups for scale-out (partitioned) replay.
    #: 1 (the default) is the classic fully-shared cluster,
    #: byte-identical to builds that predate grouping.  With G > 1 the
    #: clients are divided into G contiguous equal blocks and the
    #: servers into G contiguous equal slices; each group's clients
    #: route every operation into their own slice, file ids are
    #: group-strided (``file_id % G`` names the owning group), and the
    #: per-close fsync decision becomes a pure hash of the open id so
    #: no cross-group RNG sequencing exists.  Groups therefore evolve
    #: independently, which is what lets a replay be partitioned across
    #: workers and merged byte-identically (repro.pipeline.scaleout).
    client_groups: int = 1

    #: Per-group client counts for unequal splits (scale-out planning
    #: distributes a population remainder over the first groups).  The
    #: empty default keeps the historical equal split, in which case
    #: ``client_groups`` must evenly divide ``client_count``; when set
    #: it must have one positive entry per group summing to
    #: ``client_count``.  Group ``g`` owns the contiguous client-id
    #: block starting at ``sum(sizes[:g])``.
    client_group_sizes: tuple[int, ...] = ()

    #: Paging model: target paging bytes as a fraction of file bytes
    #: (the paper measured paging at roughly 35% of all traffic).
    paging_intensity: float = 1.0

    #: Background scrub period in seconds (repro.fs.integrity): each
    #: server's durable blocks are checksum-verified in chunks at this
    #: interval, with a full verification pass at end of replay.  0 (the
    #: default) disables scrubbing; combined with zero disk-fault rates
    #: no integrity layer is built at all and replays stay
    #: byte-identical to builds that predate it.
    scrub_interval: float = 0.0

    #: Fault injection (server/client crashes, network partitions) and
    #: the RPC retry policy.  All rates default to zero: a default
    #: config replays byte-identically to a fault-free build.
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        for name in (
            "heartbeat_interval", "writeback_delay", "writeback_scan_interval",
            "vm_preference", "snapshot_interval", "paging_intensity",
            "scrub_interval",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.client_count <= 0:
            raise ConfigError("need at least one client")
        if self.num_servers <= 0:
            raise ConfigError("need at least one server")
        if not 1 <= self.replication_factor <= self.num_servers:
            raise ConfigError(
                f"replication factor {self.replication_factor} must be in "
                f"[1, num_servers={self.num_servers}]"
            )
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat interval must be positive")
        if self.heartbeat_miss_threshold < 1:
            raise ConfigError("heartbeat miss threshold must be at least 1")
        if self.block_size <= 0 or self.block_size % 512:
            raise ConfigError(f"implausible block size {self.block_size}")
        if self.client_memory < self.kernel_memory + self.min_cache_size:
            raise ConfigError("client memory smaller than kernel + minimum cache")
        if self.writeback_delay < 0 or self.writeback_scan_interval <= 0:
            raise ConfigError("bad writeback timing parameters")
        if not 0.0 <= self.fsync_probability <= 1.0:
            raise ConfigError(f"bad fsync probability {self.fsync_probability}")
        if not 0.0 < self.max_cache_fraction <= 1.0:
            raise ConfigError(f"bad max cache fraction {self.max_cache_fraction}")
        if self.snapshot_interval <= 0:
            raise ConfigError("snapshot interval must be positive")
        if self.scrub_interval < 0:
            raise ConfigError(
                f"scrub_interval must be >= 0 seconds (0 = scrubbing off), "
                f"got {self.scrub_interval}"
            )
        if not isinstance(self.faults, FaultConfig):
            raise ConfigError(
                f"faults must be a FaultConfig, got {type(self.faults).__name__}"
            )
        if self.client_groups < 1:
            raise ConfigError(
                f"client_groups must be >= 1, got {self.client_groups}"
            )
        if self.client_group_sizes and self.client_groups == 1:
            raise ConfigError(
                "client_group_sizes requires client_groups > 1 "
                f"(got sizes {self.client_group_sizes})"
            )
        if self.client_groups > 1:
            if self.client_group_sizes:
                if len(self.client_group_sizes) != self.client_groups:
                    raise ConfigError(
                        f"client_group_sizes has {len(self.client_group_sizes)} "
                        f"entries for client_groups={self.client_groups}"
                    )
                if any(size < 1 for size in self.client_group_sizes):
                    raise ConfigError(
                        "every client group needs at least one client, got "
                        f"sizes {self.client_group_sizes}"
                    )
                if sum(self.client_group_sizes) != self.client_count:
                    raise ConfigError(
                        f"client_group_sizes sum to "
                        f"{sum(self.client_group_sizes)}, not "
                        f"client_count={self.client_count}"
                    )
            elif self.client_count % self.client_groups:
                raise ConfigError(
                    f"client_groups={self.client_groups} must evenly divide "
                    f"client_count={self.client_count} (or pass "
                    "client_group_sizes for an unequal split)"
                )
            if self.num_servers % self.client_groups:
                raise ConfigError(
                    f"client_groups={self.client_groups} must evenly divide "
                    f"num_servers={self.num_servers}"
                )
            # Replication, fault timelines, and scrub cursors are all
            # confined to a group's own server slice and RNG fork, so
            # they compose with grouping; the one per-group bound is
            # that a file's replica chain must fit its group's slice.
            if self.replication_factor > self.servers_per_group:
                raise ConfigError(
                    f"replication_factor={self.replication_factor} does not "
                    f"fit a group's server slice (num_servers="
                    f"{self.num_servers} // client_groups="
                    f"{self.client_groups} = "
                    f"{self.servers_per_group} servers per "
                    "group)"
                )

    @property
    def client_page_count(self) -> int:
        """Tradable pages per client (total minus kernel)."""
        return (self.client_memory - self.kernel_memory) // self.block_size

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Per-group client counts (a 1-tuple for the classic cluster)."""
        if self.client_groups == 1:
            return (self.client_count,)
        if self.client_group_sizes:
            return self.client_group_sizes
        return (
            self.client_count // self.client_groups,
        ) * self.client_groups

    @property
    def group_client_offsets(self) -> tuple[int, ...]:
        """Prefix sums of :attr:`group_sizes`, length ``groups + 1``:
        group ``g`` owns the client-id block ``[off[g], off[g+1])``."""
        return tuple(accumulate(self.group_sizes, initial=0))

    # The group layout: every module that needs to know which clients
    # and servers a group owns asks these, so the arithmetic lives here
    # alone.  The classic cluster is the one-group case: group 0 owns
    # every client and every server.

    @property
    def servers_per_group(self) -> int:
        """Width of each group's contiguous server slice."""
        return self.num_servers // self.client_groups

    def server_slice(self, group: int) -> range:
        """The server ids group ``group`` owns."""
        width = self.servers_per_group
        return range(group * width, (group + 1) * width)

    def client_slice(self, group: int) -> range:
        """The client ids group ``group`` owns."""
        offsets = self.group_client_offsets
        return range(offsets[group], offsets[group + 1])

    def group_of_server(self, server_id: int) -> int:
        """The group whose server slice holds ``server_id``."""
        return server_id // self.servers_per_group
