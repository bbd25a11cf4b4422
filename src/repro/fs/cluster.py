"""The cluster: clients + server + engine, driven by a trace replay.

The replay walks a time-ordered record stream, advancing the event
engine (which fires the 5-second writeback daemons, VM working-set
decays, and counter snapshots) between records, and dispatches each
record to the client named in it.  Paging traffic is synthesized by the
per-client paging models, pulsed on every open.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import RngStream
from repro.common.units import MB
from repro.fs.client import ClientKernel
from repro.fs.config import ClusterConfig
from repro.fs.counters import ClientCounters, CounterSnapshot, ServerCounters
from repro.fs.faults import FaultInjector, FaultSchedule
from repro.fs.oracle import ProtocolOracle
from repro.fs.paging import PagingModel
from repro.fs.server import Server
from repro.fs.sharding import MachineRoster, Placement, _mix64
from repro.fs.vm import VirtualMemory
from repro.sim.engine import Engine
from repro.sim.timers import SharedTicker
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    DeleteRecord,
    DirectoryReadRecord,
    OpenRecord,
    ReadRunRecord,
    TraceRecord,
    TruncateRecord,
    WriteRunRecord,
)


@dataclass
class ClusterResult:
    """Everything the measurement post-processing needs."""

    config: ClusterConfig
    duration: float
    snapshots: dict[int, list[CounterSnapshot]]
    final_counters: dict[int, ClientCounters]
    #: Aggregate across all servers (the single server's counters when
    #: ``num_servers == 1``) -- what Tables 5-9 consume.
    server_counters: ServerCounters
    records_replayed: int = 0
    #: One entry per server shard, in server-id order.  For a classic
    #: single-server cluster this is a 1-tuple whose entry equals
    #: ``server_counters``.
    per_server_counters: tuple[ServerCounters, ...] = ()
    #: Global server ids of the ``per_server_counters`` rows.  An
    #: owned-only shard replay carries rows for its owned servers only,
    #: so the merge needs the ids; every producer sets them.
    server_ids: tuple[int, ...] = ()
    #: Wall-clock seconds spent constructing the cluster (machines,
    #: placement, RNG forks) -- the cost owned-only construction exists
    #: to bound; summed across shards by the merge.
    construction_seconds: float = 0.0
    #: Shared-ticker firings over the replay (writeback scans,
    #: heartbeats, snapshots, scrubs): the recurring-event overhead an
    #: owned-only shard avoids paying for foreign machines.
    tick_events: int = 0

    def all_snapshots(self) -> list[CounterSnapshot]:
        out: list[CounterSnapshot] = []
        for per_client in self.snapshots.values():
            out.extend(per_client)
        out.sort(key=lambda snap: (snap.client_id, snap.time))
        return out


@dataclass(slots=True)
class _OpenState:
    client_id: int
    file_id: int
    migrated: bool
    wrote: bool = False
    #: Client crash epoch at open time; a close whose open predates the
    #: client's last reboot is dropped (that open died with the machine).
    epoch: int = 0


class Cluster:
    """One simulated Sprite cluster.

    ``fault_schedule`` injects an explicit, scripted set of faults; when
    omitted and ``config.faults`` has non-zero rates, a schedule is
    generated deterministically from the cluster seed at replay time.
    With fault rates at zero and no explicit schedule, nothing fault-
    related runs and the replay is byte-identical to a fault-free build.

    ``oracle`` attaches a :class:`~repro.fs.oracle.ProtocolOracle` to
    every client's RPC transport; its dirty-conservation sweep runs once
    after the final snapshot.

    ``obs`` attaches a :class:`~repro.obs.observer.Observation`: counter
    sampling, event tracing, and latency histograms.  Observation is
    read-only -- the replay's counters and tables are identical with it
    on or off (and with it off, not a single obs code path runs).
    """

    def __init__(
        self,
        config: ClusterConfig,
        seed: int = 7,
        fault_schedule: FaultSchedule | None = None,
        oracle: ProtocolOracle | None = None,
        obs=None,
        owned_groups: Sequence[int] | None = None,
    ) -> None:
        construction_start = time.perf_counter()
        self.config = config
        self.engine = Engine()
        #: Coalesced recurring ticks, one ticker per distinct period:
        #: the per-client writeback daemons, the snapshot collector, and
        #: the obs sampler all share batched tick events instead of each
        #: pushing their own heap entry every interval.
        self._tickers: dict[float, SharedTicker] = {}
        self.rng = RngStream.root(seed).fork("cluster")
        self._fault_schedule = fault_schedule
        self.oracle = oracle
        self.obs = obs
        #: File -> server placement; a pure function of the file id and
        #: ``config.placement_seed``, independent of the replay seed.
        self.placement = Placement(config.num_servers, config.placement_seed)
        #: Partitioned replay (``config.client_groups > 1``): every
        #: client routes through its group's placement view, so no
        #: server ever serves two groups, and the per-close fsync
        #: decision becomes a pure hash of the open id -- the only
        #: cluster-level RNG draw the replay loop made, and the one
        #: thing that would have sequenced groups against each other.
        #: ``groups == 1`` keeps the historical bernoulli draw, byte-
        #: identical to builds that predate grouping.
        groups = config.client_groups
        self._fsync_salt = 0
        self._fsync_threshold: int | None = None
        if groups > 1:
            if fault_schedule is not None:
                raise ConfigError(
                    "explicit fault schedules are not supported with "
                    "client_groups > 1"
                )
            self._fsync_salt = _mix64(seed ^ 0x9E3779B97F4A7C15)
            self._fsync_threshold = int(config.fsync_probability * 2.0**64)
        #: Owned-only construction: a shard replay instantiates only its
        #: ``owned_groups``' clients and servers; the rest of the
        #: cluster exists only as :class:`MachineRoster` routing stubs
        #: that refuse foreign traffic loudly.  The default owns every
        #: group -- the classic full cluster, with plain lists.
        if owned_groups is None:
            owned = tuple(range(groups))
        else:
            owned = tuple(sorted(set(owned_groups)))
            if not owned or owned[0] < 0 or owned[-1] >= groups:
                raise ConfigError(
                    f"owned_groups {list(owned)} must be a non-empty "
                    f"subset of 0..{groups - 1} "
                    f"(client_groups={groups})"
                )
        self._owned_groups = owned
        partial = len(owned) < groups
        spg = self._servers_per_group = config.num_servers // groups
        self.servers: Sequence[Server]
        if partial:
            owned_server_ids = [
                sid
                for group in owned
                for sid in range(group * spg, (group + 1) * spg)
            ]
            self.servers = MachineRoster(
                "server",
                config.num_servers,
                [
                    Server(config.server_memory, config.block_size,
                           server_id=sid)
                    for sid in owned_server_ids
                ],
                owned_server_ids,
            )
        else:
            self.servers = [
                Server(config.server_memory, config.block_size, server_id=i)
                for i in range(config.num_servers)
            ]
        #: Per-group client lists: broadcasts -- cacheability changes,
        #: delete fan-out, recovery sweeps -- are confined to the one
        #: group they can affect, which is both the scalability win and
        #: what keeps a partial shard from ever touching a foreign
        #: machine.  The classic cluster is the one-group case.
        self._group_clients: dict[int, list[ClientKernel]] = {}
        self._client_group: dict[int, int] = {}
        for server in self.servers:
            server.on_cacheability_change = (
                lambda file_id, cacheable, _group=server.server_id // spg:
                    self._group_cacheability(_group, file_id, cacheable)
            )

        #: Replication (repro.fs.replication): constructed only when
        #: configured, so an unreplicated cluster runs no heartbeat
        #: ticks, no fan-out, and no new code at all -- byte-identical
        #: to builds that predate replication.
        self.replication = None
        if config.replication_factor > 1:
            from repro.fs.replication import ReplicationManager

            self.replication = ReplicationManager(
                self.engine,
                self.servers,
                self.placement,
                config.replication_factor,
                config.heartbeat_miss_threshold,
                ticker=self.shared_ticker(config.heartbeat_interval),
                groups=groups,
                owned_groups=owned,
            )
            if oracle is not None:
                oracle.group_maps = self.replication.group_maps
                oracle.servers_per_group = spg

        #: Integrity layer (repro.fs.integrity): per-block checksums,
        #: verified reads with repair-from-replica, and the background
        #: scrubber.  Built only when a disk-fault rate or scrub
        #: interval (or an explicit schedule with disk events) asks for
        #: it -- otherwise ``integrity`` stays None everywhere and the
        #: replay is byte-identical to builds that predate it.
        self.integrity = None
        if (
            config.faults.any_disk_faults
            or config.scrub_interval > 0
            or (fault_schedule is not None and fault_schedule.disk_events)
        ):
            from repro.fs.integrity import IntegrityManager

            self.integrity = IntegrityManager(
                self.servers,
                group_maps=(
                    self.replication.group_maps
                    if self.replication is not None
                    else None
                ),
                servers_per_group=spg,
            )
            for server in self.servers:
                server.integrity = self.integrity
            if self.replication is not None:
                self.replication.integrity = self.integrity
            if oracle is not None:
                oracle.integrity = self.integrity
            if config.scrub_interval > 0:
                self._scrub_sub = self.shared_ticker(
                    config.scrub_interval
                ).subscribe(self._scrub_tick)

        #: VM base demand: the window system and daemons hold a slab of
        #: memory permanently; per-client jitter keeps machines distinct.
        self.clients: Sequence[ClientKernel]
        self.paging: Sequence[PagingModel]
        binaries = PagingModel.build_binaries(self.rng.fork("binaries"))
        # Every client -- in the full replay and in a partial shard alike
        # -- sees exactly its group's server slice, its group's placement
        # view, and its group's replica map.  A slice narrower than the
        # cluster is a roster that keeps global ids; a slice covering
        # every server (one group) is the plain server list.  Client
        # rngs keep their global names, and channel streams are forked
        # only for slice servers (forks are pure, so the never-used
        # foreign forks change nothing), which is what makes a shard's
        # client byte-identical to the same client in the unpartitioned
        # replay.
        offsets = config.group_client_offsets
        client_items: list[ClientKernel] = []
        paging_items: list[PagingModel] = []
        client_ids: list[int] = []
        for group in owned:
            slice_ids = list(range(group * spg, (group + 1) * spg))
            slice_servers = [self.servers[sid] for sid in slice_ids]
            server_roster = (
                self.servers if spg == config.num_servers
                else MachineRoster(
                    "server", config.num_servers, slice_servers, slice_ids
                )
            )
            group_placement = self.placement.group_view(group, groups)
            replica_map = (
                self.replication.group_maps[group]
                if self.replication is not None
                else None
            )
            members: list[ClientKernel] = []
            for client_id in range(offsets[group], offsets[group + 1]):
                client_rng = self.rng.fork(f"client-{client_id}")
                base_pages = int(
                    client_rng.uniform(6.0, 9.0) * MB / config.block_size
                )
                vm = VirtualMemory(
                    total_pages=config.client_page_count,
                    preference_seconds=config.vm_preference,
                    base_demand_pages=min(
                        base_pages, config.client_page_count // 2
                    ),
                    cache_floor_pages=config.min_cache_size // config.block_size,
                )
                # Server 0 keeps the historical "channel" fork name.
                channel_rngs = [
                    client_rng.fork("channel" if sid == 0 else f"channel-{sid}")
                    for sid in slice_ids
                ]
                client = ClientKernel(
                    client_id, config, self.engine, server_roster, vm,
                    channel_rng=channel_rngs,
                    oracle=oracle,
                    placement=group_placement,
                    ticker=self.shared_ticker(config.writeback_scan_interval),
                    replication=self.replication,
                    replica_map=replica_map,
                    integrity=self.integrity,
                    # Pin paging inside the group's server slice (the
                    # classic ``client_id % num_servers`` would leak
                    # paging traffic onto other groups' servers).
                    paging_shard=group * spg + client_id % spg,
                )
                for server in slice_servers:
                    server.register_client(client)
                members.append(client)
                paging_items.append(
                    PagingModel(
                        client,
                        self.engine,
                        client_rng.fork("paging"),
                        binaries,
                        intensity=config.paging_intensity,
                    )
                )
                self._client_group[client_id] = group
            self._group_clients[group] = members
            client_items.extend(members)
            client_ids.extend(range(offsets[group], offsets[group + 1]))
        if partial:
            roster = MachineRoster(
                "client", config.client_count, client_items, client_ids
            )
            self.clients = roster
            self.paging = roster.like(paging_items, kind="paging model")
        else:
            self.clients = client_items
            self.paging = paging_items

        self._snapshots: dict[int, list[CounterSnapshot]] = {
            c.client_id: [] for c in self.clients
        }
        self._snapshot_timer = self.shared_ticker(
            config.snapshot_interval
        ).subscribe(self._take_snapshots)
        self._opens: dict[int, _OpenState] = {}
        self._records = 0
        self._dispatch = self._build_dispatch_table()
        if obs is not None:
            obs.attach(self)
        self.construction_seconds = time.perf_counter() - construction_start

    # --- plumbing ------------------------------------------------------------

    def shared_ticker(self, period: float) -> SharedTicker:
        """The cluster-wide coalesced tick for ``period`` (one engine
        event per interval no matter how many subscribers)."""
        ticker = self._tickers.get(period)
        if ticker is None:
            ticker = self._tickers[period] = SharedTicker(self.engine, period)
        return ticker

    @property
    def server(self) -> Server:
        """Shard 0 -- *the* server when ``num_servers == 1``."""
        return self.servers[0]

    def _group_cacheability(
        self, group: int, file_id: int, cacheable: bool
    ) -> None:
        """Grouped broadcast: only the owning group's clients can hold
        the file (ids are group-strided and binaries are never
        write-shared), so the sweep stops at the group boundary."""
        for client in self._group_clients[group]:
            client.receive_cacheability(file_id, cacheable)

    def _take_snapshots(self) -> None:
        now = self.engine.now
        for client in self.clients:
            client.snapshot_sizes()
            self._snapshots[client.client_id].append(
                CounterSnapshot(
                    time=now,
                    client_id=client.client_id,
                    counters=client.counters.copy(),
                )
            )

    def _scrub_tick(self) -> None:
        self.integrity.scrub_tick(self.engine.now)

    # --- fault transitions -------------------------------------------------------

    def crash_server(self, down_until: float, server_id: int = 0) -> None:
        """Server ``server_id`` crashes, staying down until ``down_until``."""
        self.servers[server_id].crash(self.engine.now, down_until)

    def recover_server(self, server_id: int = 0) -> None:
        """Server ``server_id`` reboots; every reachable client runs the
        reopen protocol for that shard, in client order (deterministic).

        A no-op when an overlapping fault extended the outage past now
        (the extended fault's own recovery callback will run the sweep).
        """
        now = self.engine.now
        if not self.servers[server_id].recover(now):
            return
        if self.replication is not None:
            # Pending pushes land before the clients' sweeps revalidate
            # against the recovered server's version stamps.
            self.replication.on_server_recovered(now, server_id)
        if self.obs is not None:
            # Encoding: -1 - server_id, so the single-server case keeps
            # its historical -1 target.
            self.obs.on_fault_recovered(now, "server_crash", -1 - server_id)
        # Only the server's own group's clients can hold its files; a
        # foreign client's sweep would be a no-op (and a partial shard
        # has no foreign clients to run it on).
        group = server_id // self._servers_per_group
        for client in self._group_clients[group]:
            client.on_server_recovered(now, server_id)

    def crash_client(self, client: ClientKernel) -> None:
        """A client dies: its cache (and any un-written dirty data) is
        lost and every server that could know it purges its
        registrations (its group's server slice -- it never registered
        anywhere else)."""
        client.crash(self.engine.now)
        spg = self._servers_per_group
        first = self._client_group[client.client_id] * spg
        for sid in range(first, first + spg):
            self.servers[sid].client_crashed(client.client_id)

    def reboot_client(self, client: ClientKernel) -> None:
        client.reboot(self.engine.now)
        if self.obs is not None:
            self.obs.on_fault_recovered(
                self.engine.now, "client_crash", client.client_id
            )

    def partition_client(self, client: ClientKernel, until: float) -> None:
        client.partition(self.engine.now, until)

    def heal_client(self, client: ClientKernel) -> None:
        client.heal_partition(self.engine.now)
        if self.obs is not None:
            self.obs.on_fault_recovered(
                self.engine.now, "partition", client.client_id
            )

    # --- record dispatch ---------------------------------------------------------

    def _build_dispatch_table(self):
        """Exact-type -> bound handler: one dict lookup per record.

        Kinds with no handler (creates, repositions, and the per-request
        shared reads/writes, whose bytes the coalesced run records
        already carry) are counted by the replay and otherwise skipped.
        Records addressed to a crashed client are dropped (the user's
        processes died with the machine), as are closes whose opens
        predate the client's last reboot.
        """
        return {
            OpenRecord: self._dispatch_open,
            ReadRunRecord: self._dispatch_read_run,
            WriteRunRecord: self._dispatch_write_run,
            CloseRecord: self._dispatch_close,
            DeleteRecord: self._dispatch_delete,
            TruncateRecord: self._dispatch_delete,
            DirectoryReadRecord: self._dispatch_directory_read,
        }

    def _dispatch_open(self, record: OpenRecord, now: float) -> None:
        client = self.clients[record.client_id % len(self.clients)]
        if not client.up:
            client.counters.ops_dropped_while_down += 1
            return
        will_write = record.mode is not AccessMode.READ
        client.open_file(now, record.file_id, will_write)
        self._opens[record.open_id] = _OpenState(
            client_id=record.client_id,
            file_id=record.file_id,
            migrated=record.migrated,
            epoch=client.epoch,
        )
        self.paging[client.client_id].on_activity(now, record.migrated)

    def _dispatch_read_run(self, record: ReadRunRecord, now: float) -> None:
        client = self.clients[record.client_id % len(self.clients)]
        if not client.up:
            client.counters.ops_dropped_while_down += 1
            return
        client.read(
            now, record.file_id, record.offset, record.length,
            migrated=record.migrated,
        )

    def _dispatch_write_run(self, record: WriteRunRecord, now: float) -> None:
        client = self.clients[record.client_id % len(self.clients)]
        if not client.up:
            client.counters.ops_dropped_while_down += 1
            return
        client.write(
            now, record.file_id, record.offset, record.length,
            migrated=record.migrated,
        )
        state = self._opens.get(record.open_id)
        if state is not None:
            state.wrote = True

    def _dispatch_close(self, record: CloseRecord, now: float) -> None:
        client = self.clients[record.client_id % len(self.clients)]
        state = self._opens.pop(record.open_id, None)
        if not client.up or (state is not None and state.epoch != client.epoch):
            # Machine is down, or it rebooted since the open: the
            # open-file handle died with it.
            client.counters.ops_dropped_while_down += 1
            return
        wrote = state.wrote if state is not None else False
        threshold = self._fsync_threshold
        if threshold is None:
            fsync = wrote and self.rng.bernoulli(self.config.fsync_probability)
        else:
            # Grouped clusters: a pure per-open hash, so the decision is
            # independent of which other groups' closes the replay saw.
            fsync = wrote and (
                _mix64(record.open_id ^ self._fsync_salt) < threshold
            )
        client.close_file(now, record.file_id, wrote, fsync=fsync)

    def _dispatch_delete(self, record: TraceRecord, now: float) -> None:
        client = self.clients[record.client_id % len(self.clients)]
        if not client.up:
            client.counters.ops_dropped_while_down += 1
            return
        client.delete_on_server(now, record.file_id)
        # Group-strided file ids: only the deleting client's own group
        # can hold blocks of the file.
        group = self._client_group[client.client_id]
        for each in self._group_clients[group]:
            each.delete_file(now, record.file_id)

    def _dispatch_directory_read(
        self, record: DirectoryReadRecord, now: float
    ) -> None:
        client = self.clients[record.client_id % len(self.clients)]
        if not client.up:
            client.counters.ops_dropped_while_down += 1
            return
        client.directory_read(now, record.length, file_id=record.file_id)

    # --- main entry ------------------------------------------------------------

    def replay(
        self, records: Iterable[TraceRecord], duration: float
    ) -> ClusterResult:
        """Replay a full trace and return the measurement data."""
        schedule = self._fault_schedule
        if schedule is None and (
            self.config.faults.any_faults or self.config.faults.any_disk_faults
        ):
            # Per-group timelines: group g's events are a pure function
            # of (config, duration, seed, g), so a shard generating only
            # its owned groups gets exactly the events the unpartitioned
            # schedule holds for them.
            schedule = FaultSchedule.generate(
                self.config.faults,
                self.config.client_count,
                duration,
                self.rng.fork("faults"),
                num_servers=self.config.num_servers,
                group_sizes=self.config.group_sizes,
                owned_groups=self._owned_groups,
            )
        if schedule is not None and len(schedule):
            FaultInjector(self, schedule).arm()
        # Hot loop: one handler lookup per record, and run_until is skipped whenever the record lands before the next
        # pending event (the cached next_wake is refreshed only when the
        # engine's schedule counter shows something new was scheduled --
        # or the engine itself ran, which can only make the cache stale
        # in the harmless too-early direction).
        engine = self.engine
        get_handler = self._dispatch.get
        last_time = 0.0
        next_wake = engine.next_event_time()
        seen_sequence = engine._sequence
        for record in records:
            time = record.time
            if time < last_time:
                raise SimulationError(
                    f"trace records out of order at {time}"
                )
            last_time = time
            if time > engine._now:
                if next_wake is not None and next_wake <= time:
                    engine.run_until(time)
                    next_wake = engine.next_event_time()
                    seen_sequence = engine._sequence
                else:
                    # No event due before this record: advancing the
                    # clock directly is exactly advance_to(time).
                    engine._now = time
            self._records += 1
            handler = get_handler(type(record))
            if handler is not None:
                handler(record, time)
            if engine._sequence != seen_sequence:
                seen_sequence = engine._sequence
                next_wake = engine.next_event_time()
        if duration > self.engine.now:
            self.engine.run_until(duration)
        for server in self.servers:
            # Book the elapsed part of any outage still open at the end,
            # so downtime_seconds reflects real wall time, not the
            # crash-time prediction.
            server.finalize_downtime(self.engine.now)
        if self.integrity is not None and self.config.scrub_interval > 0:
            # Close the scrub loop: one full verification pass so every
            # detectable corruption is repaired (or declared lost) before
            # the oracle's silent-corruption sweep and the final reading.
            self.integrity.final_scrub(self.engine.now)
        self._take_snapshots()  # final reading
        if self.oracle is not None:
            self.oracle.final_check(self.engine.now, self.clients, self.servers)
        if self.obs is not None:
            # After the final snapshot, so the closing sample carries
            # the same refreshed gauges the result does.
            self.obs.finalize(self.engine.now)
        per_server = tuple(s.counters.copy() for s in self.servers)
        if len(per_server) == 1:
            aggregate = per_server[0].copy()
        else:
            aggregate = ServerCounters.aggregate(per_server)
        return ClusterResult(
            config=self.config,
            duration=duration,
            snapshots=self._snapshots,
            final_counters={
                c.client_id: c.counters.copy() for c in self.clients
            },
            server_counters=aggregate,
            records_replayed=self._records,
            per_server_counters=per_server,
            server_ids=tuple(s.server_id for s in self.servers),
            construction_seconds=self.construction_seconds,
            tick_events=sum(t.fire_count for t in self._tickers.values()),
        )


def merge_cluster_results(
    results: Sequence[ClusterResult],
    owned_groups: Sequence[Sequence[int]],
) -> ClusterResult:
    """Merge shard replays of a grouped cluster into one result.

    Each shard replayed the same cluster (same config, same seed) with
    only its ``owned_groups``' machines constructed, and dispatched
    only those groups' records; because groups share no servers, no RNG
    stream, and no state, a shard's owned clients and servers end in
    exactly the state the unpartitioned replay leaves them in.  The
    merge is therefore pure selection: every client's counters/
    snapshots and every server's row come from the shard that owns its
    group (rows resolved through ``server_ids``), the aggregate is
    recomputed in global server-id order (the same float-summation
    order the unpartitioned replay uses), and record counts add up
    because every record was dispatched by exactly one shard.  The
    construction-time and tick-overhead gauges are summed -- they
    report what the shard fleet actually spent.
    """
    if not results or len(results) != len(owned_groups):
        raise ConfigError(
            f"need one owned-group list per result, got {len(results)} "
            f"results and {len(owned_groups)} lists"
        )
    config = results[0].config
    groups = config.client_groups
    owner: dict[int, int] = {}
    for index, (result, owned) in enumerate(zip(results, owned_groups)):
        if result.config != config:
            raise ConfigError("shard results disagree on cluster config")
        for group in owned:
            if group in owner:
                raise ConfigError(f"group {group} owned by two shards")
            owner[group] = index
    if sorted(owner) != list(range(groups)):
        raise ConfigError(
            f"owned groups {sorted(owner)} do not cover 0..{groups - 1}"
        )
    # Per-shard row maps keyed by global server id: an owned-only shard
    # carries rows for its owned servers only (``server_ids`` names
    # them).
    row_maps: list[dict[int, ServerCounters]] = []
    for result in results:
        ids = result.server_ids
        if len(ids) != len(result.per_server_counters):
            raise ConfigError(
                f"result carries {len(result.per_server_counters)} server "
                f"rows but {len(ids)} server ids"
            )
        row_maps.append(dict(zip(ids, result.per_server_counters)))
    offsets = config.group_client_offsets
    servers_per_group = config.num_servers // groups
    snapshots: dict[int, list[CounterSnapshot]] = {}
    final_counters: dict[int, ClientCounters] = {}
    per_server: list[ServerCounters] = []
    for group in range(groups):
        result = results[owner[group]]
        for client_id in range(offsets[group], offsets[group + 1]):
            snapshots[client_id] = result.snapshots[client_id]
            final_counters[client_id] = result.final_counters[client_id]
        rows = row_maps[owner[group]]
        for sid in range(
            group * servers_per_group, (group + 1) * servers_per_group
        ):
            try:
                per_server.append(rows[sid])
            except KeyError:
                raise ConfigError(
                    f"shard owning group {group} carries no counters for "
                    f"server {sid}"
                ) from None
    if len(per_server) == 1:
        aggregate = per_server[0].copy()
    else:
        aggregate = ServerCounters.aggregate(per_server)
    return ClusterResult(
        config=config,
        duration=results[0].duration,
        snapshots=snapshots,
        final_counters=final_counters,
        server_counters=aggregate,
        records_replayed=sum(r.records_replayed for r in results),
        per_server_counters=tuple(per_server),
        server_ids=tuple(range(config.num_servers)),
        construction_seconds=sum(r.construction_seconds for r in results),
        tick_events=sum(r.tick_events for r in results),
    )


def run_cluster_on_trace(
    records: Iterable[TraceRecord],
    duration: float,
    config: ClusterConfig | None = None,
    seed: int = 7,
    fault_schedule: FaultSchedule | None = None,
    oracle: ProtocolOracle | None = None,
    obs=None,
    owned_groups: Sequence[int] | None = None,
) -> ClusterResult:
    """Build a cluster and replay one trace: the one replay entry point.

    ``owned_groups`` builds an owned-only shard of a grouped cluster
    (see :class:`Cluster`); the default owns every group.
    """
    cluster = Cluster(
        config or ClusterConfig(), seed=seed, fault_schedule=fault_schedule,
        oracle=oracle, obs=obs, owned_groups=owned_groups,
    )
    return cluster.replay(records, duration)
