"""Fault injection and crash recovery.

The paper measures a healthy cluster, but its Section 5 caveats are all
about failure: Sprite's 30-second delayed writes can lose up to 30
seconds of work on a crash, and its stateful servers must rebuild their
open-file state from the clients when they reboot.  This module turns
those caveats into measurable experiments:

* a :class:`FaultSchedule` -- a deterministic, seeded list of
  :class:`FaultEvent`\\ s (server crashes, client crashes, network
  partitions) generated from the rates in :class:`FaultConfig`;
* a :class:`FaultInjector` that arms the schedule on the cluster's
  event engine, so faults interleave with the trace replay exactly like
  the writeback daemons and counter snapshots do;
* the accounting helpers for RPC retry with exponential backoff.

Recovery follows Sprite's stateful reopen protocol (Section 5.6 of the
paper and the Sprite recovery papers): when the server returns, each
client re-registers its open files (reopen RPCs), re-validates every
cached file against the server's durable version stamp (dropping stale
blocks), and immediately replays dirty blocks whose writeback came due
while the server was unreachable.

Accounting conventions (the replay is open-loop, so the global clock
never stalls):

* A stalled operation books the retries and the stall time it *would*
  have experienced -- ``stall_seconds`` is process-seconds, summed over
  stalled operations, and can exceed the wall-clock downtime when many
  operations stall concurrently.
* Naming operations (open, close, fsync, delete) always use "stall"
  semantics: they eventually execute, logically at recovery time.
  Data operations (block fetches, passthrough reads/writes) honour
  ``degraded_mode``: ``"stall"`` behaves like a hard mount, ``"fail"``
  gives up after ``rpc_timeout`` and drops the transfer.
* With every rate at its default of zero the subsystem is inert: no
  events are scheduled, no random stream is consumed, and no counter
  moves -- fault-free runs are byte-identical to a build without this
  module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.common.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fs.cluster import Cluster
    from repro.fs.config import ClusterConfig

#: ``FaultEvent.target`` value meaning server 0 -- *the* server of a
#: single-server cluster.  In a sharded cluster a server crash may also
#: target an explicit server id >= 0.
SERVER_TARGET = -1


class FaultKind(enum.Enum):
    """What breaks."""

    SERVER_CRASH = "server_crash"
    CLIENT_CRASH = "client_crash"
    PARTITION = "partition"


class DiskFaultKind(enum.Enum):
    """How a disk lies (see :mod:`repro.fs.integrity`)."""

    #: A durable block's stored payload is garbled in place.
    BIT_ROT = "bit_rot"
    #: The next write persists garbled bytes under the intended checksum.
    TORN_WRITE = "torn_write"
    #: The next write is acknowledged but never persisted.
    LOST_WRITE = "lost_write"


@dataclass(frozen=True, slots=True)
class DiskFaultEvent:
    """One injected disk fault.  Unlike a :class:`FaultEvent`, nothing
    heals: corruption persists until detected and repaired, which is the
    whole point of the integrity layer."""

    time: float
    kind: DiskFaultKind
    server_id: int
    #: Pre-drawn uniform in [0, 1) picking the bit-rot victim among the
    #: server's durable blocks at fire time (unused by the armed kinds);
    #: drawing it at schedule time keeps the replay RNG untouched.
    selector: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"disk fault scheduled before time zero: {self.time}")
        if self.server_id < 0:
            raise ConfigError(f"disk fault needs a server id, got {self.server_id}")
        if not 0.0 <= self.selector < 1.0:
            raise ConfigError(f"disk fault selector must be in [0, 1): {self.selector}")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected fault: something breaks at ``time`` and heals
    ``duration`` seconds later."""

    time: float
    kind: FaultKind
    #: Client id; or for server crashes a server id (SERVER_TARGET = -1
    #: aliases server 0, the only server of a classic cluster).
    target: int
    duration: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"fault scheduled before time zero: {self.time}")
        if self.duration <= 0:
            raise ConfigError(f"fault needs a positive duration: {self.duration}")
        if self.kind is FaultKind.SERVER_CRASH and self.target < SERVER_TARGET:
            raise ConfigError(
                "server crashes must target SERVER_TARGET or a server id"
            )
        if self.kind is not FaultKind.SERVER_CRASH and self.target < 0:
            raise ConfigError(f"client fault needs a client target, got {self.target}")

    @property
    def end_time(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection knobs; all rates default to zero (no faults).

    Rates are events per simulated *hour* (per client-hour for client
    faults), turned into exponential inter-arrival gaps by
    :meth:`FaultSchedule.generate`.  Downtimes and partition durations
    are exponential means, floored at one second.
    """

    #: Server crashes per simulated hour (0 = never).
    server_crash_rate: float = 0.0
    #: Mean seconds the server stays down per crash.
    server_downtime: float = 60.0
    #: Client crashes per client per simulated hour.
    client_crash_rate: float = 0.0
    #: Mean seconds a crashed client stays down.
    client_downtime: float = 120.0
    #: Network partitions per client per simulated hour.
    partition_rate: float = 0.0
    #: Mean seconds a partition lasts.
    partition_duration: float = 30.0

    #: A client gives up on an unreachable server after this much
    #: cumulative backoff (data operations in ``"fail"`` mode only).
    rpc_timeout: float = 30.0
    #: First retry delay; doubles (``rpc_backoff_factor``) up to
    #: ``rpc_max_backoff`` -- classic exponential backoff.
    rpc_initial_backoff: float = 0.1
    rpc_backoff_factor: float = 2.0
    rpc_max_backoff: float = 5.0
    #: What a data operation does when the timeout expires with the
    #: server still unreachable: ``"stall"`` keeps waiting (hard mount),
    #: ``"fail"`` drops the transfer (fail open).
    degraded_mode: str = "stall"

    #: Message-level network faults (see :mod:`repro.fs.rpc`).  Each is
    #: the per-message probability that the lossy channel drops,
    #: duplicates, holds back (reorders), or delays a packet.  All
    #: default to zero: the transport then never consumes randomness
    #: and replays stay byte-identical to a build without it.
    message_loss_rate: float = 0.0
    message_duplicate_rate: float = 0.0
    message_reorder_rate: float = 0.0
    message_delay_rate: float = 0.0
    #: Mean seconds a delayed message is late (exponential).
    message_delay_mean: float = 0.05

    #: Disk faults (see :mod:`repro.fs.integrity`), events per server
    #: per simulated hour.  All default to zero: no integrity layer is
    #: built and replays stay byte-identical to builds without it.
    disk_corruption_rate: float = 0.0  # bit-rot events
    disk_torn_write_rate: float = 0.0
    disk_lost_write_rate: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject impossible knob combinations with a :class:`ConfigError`."""
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("server_crash_rate", "client_crash_rate", "partition_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("server_downtime", "client_downtime", "partition_duration"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.rpc_timeout <= 0:
            raise ConfigError("rpc_timeout must be positive")
        if self.rpc_initial_backoff <= 0 or self.rpc_max_backoff <= 0:
            raise ConfigError("backoff delays must be positive")
        if self.rpc_backoff_factor < 1.0:
            raise ConfigError("rpc_backoff_factor must be >= 1")
        if self.degraded_mode not in ("stall", "fail"):
            raise ConfigError(
                f"degraded_mode must be 'stall' or 'fail', got {self.degraded_mode!r}"
            )
        for name in (
            "message_loss_rate",
            "message_duplicate_rate",
            "message_reorder_rate",
            "message_delay_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.message_delay_mean <= 0:
            raise ConfigError(
                f"message_delay_mean must be positive, got {self.message_delay_mean}"
            )
        for name in (
            "disk_corruption_rate",
            "disk_torn_write_rate",
            "disk_lost_write_rate",
        ):
            rate = getattr(self, name)
            if rate < 0:
                raise ConfigError(
                    f"{name} must be >= 0 events per server-hour, got {rate}"
                )

    @property
    def any_faults(self) -> bool:
        """True when any outage fault can actually occur."""
        return (
            self.server_crash_rate > 0
            or self.client_crash_rate > 0
            or self.partition_rate > 0
        )

    @property
    def any_network_faults(self) -> bool:
        """True when the message channel can misbehave."""
        return (
            self.message_loss_rate > 0
            or self.message_duplicate_rate > 0
            or self.message_reorder_rate > 0
            or self.message_delay_rate > 0
        )

    @property
    def any_disk_faults(self) -> bool:
        """True when a disk can lie (the integrity layer is needed)."""
        return (
            self.disk_corruption_rate > 0
            or self.disk_torn_write_rate > 0
            or self.disk_lost_write_rate > 0
        )


@dataclass
class FaultSchedule:
    """A time-ordered list of fault events for one replay.

    Build one explicitly for scripted scenarios, or derive one from the
    rates in a :class:`FaultConfig` with :meth:`generate` -- the same
    config, population, duration, and stream always yield the same
    schedule, no matter what else consumes randomness.
    """

    events: list[FaultEvent] = field(default_factory=list)
    #: Disk faults (bit rot, torn writes, lost writes); a separate list
    #: because nothing heals them -- they have no duration, and they are
    #: applied through the integrity layer, not the outage machinery.
    disk_events: list[DiskFaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(
            self.events, key=lambda e: (e.time, e.kind.value, e.target)
        )
        self.disk_events = sorted(
            self.disk_events, key=lambda e: (e.time, e.kind.value, e.server_id)
        )

    def __len__(self) -> int:
        return len(self.events) + len(self.disk_events)

    @classmethod
    def generate(
        cls,
        config: "ClusterConfig",
        duration: float,
        rng: RngStream,
        owned_groups: tuple[int, ...] | None = None,
    ) -> "FaultSchedule":
        """Draw a schedule over ``[0, duration)`` from ``config.faults``.

        Each failure process (every server's crashes and disk faults,
        each client's crashes, each client's partitions) draws from its
        own forked stream, and the next fault is drawn from the end of
        the previous outage, so faults of one kind never overlap on one
        target.  Each server is an independent crash process at the
        full ``server_crash_rate``.

        Each of the config's client groups owns its client block and
        server slice.  With several groups every stream hangs off its
        group's fork (``rng.fork(f"group-{g}")``), and ``fork`` is a
        pure function of the parent key and name -- so group ``g``'s
        timeline is a pure function of ``(config, duration, seed, g)``,
        and a shard passing only its ``owned_groups`` gets exactly the
        events the full schedule holds for them (the canonical sort in
        :meth:`__post_init__` makes the concatenation order irrelevant).
        One group draws straight off ``rng``, and its server 0 keeps the
        historical ``"server"`` stream and ``SERVER_TARGET`` target, so
        single-server schedules are unchanged.
        """
        faults = config.faults
        groups = config.client_groups
        events: list[FaultEvent] = []
        disk_events: list[DiskFaultEvent] = []

        def draw(
            stream: RngStream,
            rate_per_hour: float,
            mean_downtime: float,
            kind: FaultKind,
            target: int,
        ) -> None:
            if rate_per_hour <= 0:
                return
            mean_gap = 3600.0 / rate_per_hour
            t = 0.0
            while True:
                t += stream.exponential(mean_gap)
                if t >= duration:
                    return
                down = max(1.0, stream.exponential(mean_downtime))
                events.append(FaultEvent(t, kind, target, down))
                t += down

        def draw_disk(
            stream: RngStream,
            rate_per_hour: float,
            kind: DiskFaultKind,
            server_id: int,
        ) -> None:
            if rate_per_hour <= 0:
                return
            mean_gap = 3600.0 / rate_per_hour
            t = 0.0
            while True:
                t += stream.exponential(mean_gap)
                if t >= duration:
                    return
                # The bit-rot victim selector is drawn here, at schedule
                # time, so applying the fault consumes no replay RNG.
                disk_events.append(
                    DiskFaultEvent(t, kind, server_id, stream.random())
                )

        for group in owned_groups if owned_groups is not None else range(groups):
            if not 0 <= group < groups:
                raise ConfigError(f"group {group} out of range for {groups}")
            grng = rng if groups == 1 else rng.fork(f"group-{group}")
            for server_id in config.server_slice(group):
                if groups == 1 and server_id == 0:
                    crash_stream, target = grng.fork("server"), SERVER_TARGET
                else:
                    crash_stream = grng.fork(f"server-{server_id}")
                    target = server_id
                draw(
                    crash_stream,
                    faults.server_crash_rate,
                    faults.server_downtime,
                    FaultKind.SERVER_CRASH,
                    target,
                )
                draw_disk(
                    grng.fork(f"disk-bitrot-{server_id}"),
                    faults.disk_corruption_rate,
                    DiskFaultKind.BIT_ROT,
                    server_id,
                )
                draw_disk(
                    grng.fork(f"disk-torn-{server_id}"),
                    faults.disk_torn_write_rate,
                    DiskFaultKind.TORN_WRITE,
                    server_id,
                )
                draw_disk(
                    grng.fork(f"disk-lost-{server_id}"),
                    faults.disk_lost_write_rate,
                    DiskFaultKind.LOST_WRITE,
                    server_id,
                )
            for client_id in config.client_slice(group):
                draw(
                    grng.fork(f"client-crash-{client_id}"),
                    faults.client_crash_rate,
                    faults.client_downtime,
                    FaultKind.CLIENT_CRASH,
                    client_id,
                )
                draw(
                    grng.fork(f"partition-{client_id}"),
                    faults.partition_rate,
                    faults.partition_duration,
                    FaultKind.PARTITION,
                    client_id,
                )
        return cls(events, disk_events)


class FaultInjector:
    """Arms a schedule on a cluster's event engine.

    Crashes and their recoveries are ordinary engine events, so they
    fire deterministically between trace records -- a fault at the same
    timestamp as a record fires first (the engine runs up to the record
    time before the record is dispatched).  Recoveries scheduled past
    the replay's end simply never fire: the run ends with the fault
    outstanding and the counters say so.
    """

    def __init__(self, cluster: "Cluster", schedule: FaultSchedule) -> None:
        self._cluster = cluster
        self.schedule = schedule
        self.injected = 0

    def arm(self) -> None:
        engine = self._cluster.engine
        obs = self._cluster.obs
        for event in self.schedule.events:
            engine.schedule_at(event.time, partial(self.apply, event))
            if obs is not None:
                obs.on_fault_armed(event)
        for disk_event in self.schedule.disk_events:
            engine.schedule_at(
                disk_event.time, partial(self.apply_disk, disk_event)
            )

    def apply(self, event: FaultEvent) -> None:
        cluster = self._cluster
        self.injected += 1
        obs = cluster.obs
        if obs is not None:
            obs.on_fault_fired(cluster.engine.now, event)
        if event.kind is FaultKind.SERVER_CRASH:
            server_id = 0 if event.target < 0 else event.target
            server_id %= len(cluster.servers)
            cluster.crash_server(event.end_time, server_id)
            cluster.engine.schedule_at(
                event.end_time, partial(cluster.recover_server, server_id)
            )
        elif event.kind is FaultKind.CLIENT_CRASH:
            client = cluster.clients[event.target % len(cluster.clients)]
            cluster.crash_client(client)
            cluster.engine.schedule_at(
                event.end_time, partial(cluster.reboot_client, client)
            )
        else:
            client = cluster.clients[event.target % len(cluster.clients)]
            cluster.partition_client(client, event.end_time)
            cluster.engine.schedule_at(
                event.end_time, partial(cluster.heal_client, client)
            )

    def apply_disk(self, event: DiskFaultEvent) -> None:
        """Fire one disk fault through the cluster's integrity layer.

        A no-op on a cluster built without one (a scripted disk schedule
        against a config that never asked for integrity): the fault has
        no store to corrupt.
        """
        cluster = self._cluster
        integrity = cluster.integrity
        if integrity is None:
            return
        self.injected += 1
        now = cluster.engine.now
        server_id = event.server_id % len(cluster.servers)
        obs = cluster.obs
        if obs is not None:
            obs.on_disk_fault(now, server_id, event.kind.value)
        if event.kind is DiskFaultKind.BIT_ROT:
            integrity.inject_bit_rot(now, server_id, event.selector)
        elif event.kind is DiskFaultKind.TORN_WRITE:
            integrity.arm_torn(server_id)
        else:
            integrity.arm_lost(server_id)
