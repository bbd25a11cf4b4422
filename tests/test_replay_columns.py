"""Differential tests for the columnar replay loop (``Cluster.replay``).

``RecordLoopCluster`` keeps the record-object replay loop and its
type-keyed ``_dispatch_*`` handlers verbatim, as the reference: one
frozen record per row, ``type(record)`` picks the handler.  The
production loop reads gathered columns and dispatches on the kind code.
Over small, valid but adversarial record streams -- records exactly on
tick timestamps, equal timestamps, deletes and truncates under open,
handlerless kinds, a close whose open predates a client reboot -- both
must leave every counter, snapshot, tick and engine event identical,
in a plain, a lossy-with-oracle, a replicated-with-faults and a grouped
cluster.  Over the same streams, attaching a protocol oracle or an
observation to a plain cluster must not steer the replay; a grouped
stream replayed as owned-only shards and merged must equal one replay;
and a raise-mode oracle must stay clean in replicated clusters under
the strategy's faults plus overlapping server crashes.  The same
streams, cut by a window, also drive the trace analyses: over the
columns, Tables 1-3, 10-12 and Figures 1-4 must equal the record paths
kept in ``tests/reference_analysis.py`` and
``tests/reference_consistency.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from unittest import mock

import pytest

import repro.fs.cluster as cluster_module
from repro.analysis import (
    assemble_accesses,
    compute_activity,
    compute_access_patterns,
    compute_file_sizes,
    compute_lifetimes,
    compute_open_times,
    compute_run_lengths,
    compute_table1,
)
from repro.analysis.access_patterns import render_table3
from repro.analysis.sharded import per_server_activity, per_server_table1
from repro.analysis.table1 import render_table1
from repro.common.cdf import Cdf
from repro.common.errors import SimulationError
from repro.consistency import (
    compute_actions,
    extract_shared_activity,
    simulate_polling,
    simulate_schemes,
)
from repro.consistency.actions import render_table10
from repro.consistency.polling import render_table11
from repro.consistency.schemes import render_table12
from repro.fs.cluster import Cluster, ClusterResult, merge_cluster_results
from repro.fs.config import ClusterConfig
from repro.fs.counters import ServerCounters
from repro.fs.faults import (
    FaultConfig,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.fs.oracle import InvariantViolation, ProtocolOracle
from repro.fs.sharding import Placement, _mix64
from repro.obs.observer import ObsConfig, Observation
from repro.sim import Engine, SharedTicker
from repro.trace.columnar import ColumnarTrace, ColumnarTraceBuilder
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    CreateRecord,
    DeleteRecord,
    DirectoryReadRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    SharedReadRecord,
    SharedWriteRecord,
    TraceRecord,
    TruncateRecord,
    WriteRunRecord,
)
from repro.trace.validate import validate_stream

import reference_analysis
import reference_consistency
import reference_ticks
from reference_trace import materialize
from checkers import all_snapshots
from test_rpc_transport import server_values

hypothesis = pytest.importorskip("hypothesis")
given = hypothesis.given
st = hypothesis.strategies


# --------------------------------------------------------------------------
# the reference: the record-object loop, verbatim
# --------------------------------------------------------------------------


@dataclass(slots=True)
class _RecordOpenState:
    client_id: int
    file_id: int
    migrated: bool
    wrote: bool = False
    epoch: int = 0


class RecordLoopCluster(Cluster):
    """``Cluster`` replaying one record object at a time through a
    type-keyed dispatch table (the loop the columnar one replaced)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dispatch = self._build_dispatch_table()

    def _build_dispatch_table(self):
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
        self._opens[record.open_id] = _RecordOpenState(
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
            client.counters.ops_dropped_while_down += 1
            return
        wrote = state.wrote if state is not None else False
        threshold = self._fsync_threshold
        if threshold is None:
            fsync = wrote and self.rng.bernoulli(self.config.fsync_probability)
        else:
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

    def replay(self, records, duration: float) -> ClusterResult:
        schedule = self._fault_schedule
        if schedule is None and (
            self.config.faults.any_faults or self.config.faults.any_disk_faults
        ):
            schedule = FaultSchedule.generate(
                self.config,
                duration,
                self.rng.fork("faults"),
                owned_groups=self._owned_groups,
            )
        if schedule is not None and len(schedule):
            FaultInjector(self, schedule).arm()
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
            server.finalize_downtime(self.engine.now)
        if self.integrity is not None and self.config.scrub_interval > 0:
            self.integrity.final_scrub(self.engine.now)
        self._take_snapshots()
        if self.oracle is not None:
            self.oracle.final_check(self.engine.now, self.clients, self.servers)
        if self.obs is not None:
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


# --------------------------------------------------------------------------
# configs and the comparison
# --------------------------------------------------------------------------

CLIENTS = 4
SEED = 11

LOSSY = FaultConfig(
    message_loss_rate=0.2,
    message_duplicate_rate=0.1,
    message_reorder_rate=0.1,
    message_delay_rate=0.2,
)


CONFIGS: dict[str, ClusterConfig] = {
    "plain": ClusterConfig(client_count=CLIENTS),
    "lossy+oracle": ClusterConfig(client_count=CLIENTS, faults=LOSSY),
    "replicated+faults": ClusterConfig(
        client_count=CLIENTS, num_servers=3, replication_factor=2
    ),
    "grouped": ClusterConfig(
        client_count=CLIENTS, num_servers=2, client_groups=2
    ),
}


def _fingerprint(cluster: Cluster, result: ClusterResult, oracle) -> dict:
    return {
        "clients": {
            cid: counters.digest()
            for cid, counters in sorted(result.final_counters.items())
        },
        "servers": [row.digest() for row in result.per_server_counters],
        "aggregate": result.server_counters.digest(),
        "snapshots": [
            (snap.time, snap.client_id, snap.counters.digest())
            for snap in all_snapshots(result)
        ],
        "records_replayed": result.records_replayed,
        "tick_events": result.tick_events,
        "events_run": cluster.engine.events_run,
        "fsync_blocks": _fsync_blocks(result),
        "violations": (
            None if oracle is None else [str(v) for v in oracle.violations]
        ),
    }


def _fsync_blocks(result: ClusterResult) -> int:
    return sum(c.blocks_cleaned_fsync for c in result.final_counters.values())


def _fsync_event(blocks: int) -> None:
    """Report whether an fsync draw came out "yes" and had data to clean."""
    hypothesis.event("an fsync cleaned a block" if blocks else "no fsync clean")


def _build(cls, name, schedule=None, seed=SEED, obs=None):
    """A ``cls`` cluster in config ``name`` replaying ``schedule``, and
    its oracle (or None)."""
    oracle = (
        ProtocolOracle(seed=seed, raise_on_violation=False)
        if name in ("lossy+oracle", "replicated+faults")
        else None
    )
    cluster = cls(
        CONFIGS[name], seed=seed, oracle=oracle, obs=obs,
        fault_schedule=schedule,
    )
    return cluster, oracle


def _run(cls, name, records, duration, schedule=None, seed=SEED) -> dict:
    cluster, oracle = _build(
        cls, name, schedule if name == "replicated+faults" else None, seed
    )
    result = cluster.replay(records, duration)
    return _fingerprint(cluster, result, oracle)


def assert_loops_agree(records, duration, schedule=None, seed=SEED) -> dict:
    """Replay ``records`` through both loops in every config; returns
    the production fingerprints by config name."""
    validate_stream(ColumnarTrace.from_records(records), allow_open_at_end=True)
    out = {}
    for name in CONFIGS:
        reference = _run(
            RecordLoopCluster, name, records, duration, schedule, seed
        )
        columns = _run(
            Cluster, name, ColumnarTrace.from_records(records), duration,
            schedule, seed,
        )
        assert columns == reference, name
        out[name] = columns
    return out


# --------------------------------------------------------------------------
# the stream strategy
# --------------------------------------------------------------------------

FILES = (0, 1, 2, 3, 5, 8)


def _next_time(draw, now: float) -> float:
    step = draw(st.sampled_from(("same", "tick5", "tick300", "small", "large")))
    if step == "same":
        return now
    if step == "tick5":
        return (math.floor(now / 5.0) + 1) * 5.0
    if step == "tick300":
        return (math.floor(now / 300.0) + 1) * 300.0
    if step == "small":
        return now + draw(st.sampled_from((0.25, 1.5, 3.0)))
    return now + draw(st.sampled_from((7.0, 31.0, 95.5)))


@st.composite
def record_streams(draw):
    """A short, valid, time-ordered stream over 4 clients and 6 files,
    plus a replay duration and a fault schedule (a client crash, often
    just after one of the stream's opens, and a server crash on one of
    its timestamps)."""
    now = 0.0
    episodes: dict[int, tuple[int, int]] = {}  # open_id -> (client, file)
    next_open = 1
    records: list[TraceRecord] = []
    for _ in range(draw(st.integers(1, 40))):
        now = _next_time(draw, now)
        actions = [
            "open", "delete", "truncate", "create", "shared_read",
            "shared_write", "dir_read",
        ]
        if episodes:
            actions += ["read", "write", "reposition", "close", "close"]
        action = draw(st.sampled_from(actions))
        client = draw(st.integers(0, CLIENTS - 1))
        file_id = draw(st.sampled_from(FILES))
        migrated = draw(st.booleans())
        if action == "open":
            mode = draw(st.sampled_from(tuple(AccessMode)))
            records.append(OpenRecord(
                now, 0, open_id=next_open, file_id=file_id, user_id=client,
                client_id=client, mode=mode, migrated=migrated,
            ))
            episodes[next_open] = (client, file_id)
            next_open += 1
        elif action in ("read", "write", "reposition", "close"):
            open_id = draw(st.sampled_from(sorted(episodes)))
            client, file_id = episodes[open_id]
            offset = draw(st.sampled_from((0, 4096, 10000)))
            length = draw(st.sampled_from((0, 1, 4096, 70000)))
            if action == "read":
                records.append(ReadRunRecord(
                    now, 0, open_id=open_id, file_id=file_id,
                    client_id=client, offset=offset, length=length,
                    migrated=migrated,
                ))
            elif action == "write":
                records.append(WriteRunRecord(
                    now, 0, open_id=open_id, file_id=file_id,
                    client_id=client, offset=offset, length=length,
                    migrated=migrated,
                ))
            elif action == "reposition":
                records.append(RepositionRecord(
                    now, 0, open_id=open_id, file_id=file_id,
                    client_id=client, offset_before=offset,
                    offset_after=length,
                ))
            else:
                del episodes[open_id]
                records.append(CloseRecord(
                    now, 0, open_id=open_id, file_id=file_id,
                    client_id=client,
                ))
        elif action in ("delete", "truncate"):
            cls = DeleteRecord if action == "delete" else TruncateRecord
            records.append(cls(now, 0, file_id=file_id, client_id=client))
        elif action == "create":
            records.append(CreateRecord(now, 0, file_id=file_id, client_id=client))
        elif action == "dir_read":
            records.append(DirectoryReadRecord(
                now, 0, file_id=-1 - file_id, client_id=client,
                length=draw(st.sampled_from((0, 512, 8192))),
            ))
        else:
            cls = SharedReadRecord if action == "shared_read" else SharedWriteRecord
            records.append(cls(
                now, 0, file_id=file_id, client_id=client, offset=0,
                length=4096, migrated=migrated,
            ))
    last = records[-1].time
    duration = draw(st.sampled_from((
        last, (math.floor(last / 300.0) + 2) * 300.0,
    )))
    times = sorted({r.time for r in records})
    opens = [r for r in records if isinstance(r, OpenRecord)]
    if opens and draw(st.booleans()):
        # Crash an opener just after its open, so a later close of
        # that episode predates nothing but the reboot.
        victim = draw(st.sampled_from(opens))
        crash_at, target = victim.time + 0.5, victim.client_id
    else:
        crash_at = draw(st.sampled_from(times)) + draw(st.sampled_from((0.0, 0.5)))
        target = draw(st.integers(0, CLIENTS - 1))
    client_crash = FaultEvent(
        crash_at, FaultKind.CLIENT_CRASH, target,
        draw(st.sampled_from((1.0, 5.0, 60.0))),
    )
    server_crash = FaultEvent(
        draw(st.sampled_from(times)),
        FaultKind.SERVER_CRASH,
        draw(st.integers(0, 2)),
        draw(st.sampled_from((2.0, 30.0))),
    )
    return records, max(duration, 1.0), FaultSchedule([client_crash, server_crash])


#: A drawn replay seed: under one fixed seed every RNG-driven decision
#: (the fsync draw, the lossy channel's draws) would repeat its first
#: few outcomes in every example.
seeds = st.integers(0, 2**16)


@hypothesis.settings(max_examples=60, deadline=None)
@given(record_streams(), seeds)
def test_property_column_loop_matches_the_record_loop(stream, seed):
    records, duration, schedule = stream
    fingerprints = assert_loops_agree(records, duration, schedule, seed)
    _fsync_event(fingerprints["plain"]["fsync_blocks"])


# --------------------------------------------------------------------------
# attachments read the replay, they never steer it
# --------------------------------------------------------------------------


def _replay_plain(
    records, duration, seed, oracle=None, obs=None
) -> ClusterResult:
    cluster = Cluster(CONFIGS["plain"], seed=seed, oracle=oracle, obs=obs)
    return cluster.replay(ColumnarTrace.from_records(records), duration)


def _client_digests(result: ClusterResult) -> tuple:
    return (
        [
            (cid, counters.digest())
            for cid, counters in sorted(result.final_counters.items())
        ],
        [
            (snap.time, snap.client_id, snap.counters.digest())
            for snap in all_snapshots(result)
        ],
    )


@hypothesis.settings(max_examples=60, deadline=None)
@given(record_streams(), seeds)
def test_property_oracle_on_matches_oracle_off(stream, seed):
    """An attached oracle only watches: on an inert channel a call runs
    the server op directly either way, so every client and server
    counter and snapshot stays exact, and the oracle finds nothing."""
    records, duration, _ = stream
    bare = _replay_plain(records, duration, seed)
    _fsync_event(_fsync_blocks(bare))
    oracle = ProtocolOracle(seed=seed, raise_on_violation=False)
    checked = _replay_plain(records, duration, seed, oracle=oracle)
    assert [str(v) for v in oracle.violations] == []
    assert _client_digests(checked) == _client_digests(bare)
    assert server_values(checked) == server_values(bare)


@hypothesis.settings(max_examples=60, deadline=None)
@given(record_streams(), seeds)
def test_property_obs_on_matches_obs_off(stream, seed):
    records, duration, _ = stream
    bare = _replay_plain(records, duration, seed)
    _fsync_event(_fsync_blocks(bare))
    observed = _replay_plain(records, duration, seed, obs=Observation())
    assert _client_digests(observed) == _client_digests(bare)
    assert server_values(observed) == server_values(bare)


# --------------------------------------------------------------------------
# ticks beside the heap, armed fan-out: against the heap-only reference
# --------------------------------------------------------------------------


def _label(callback):
    """A fired event's callback, comparable across the two engines."""
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, (SharedTicker, reference_ticks.SharedTicker)):
        return ("tick", owner.period)
    return getattr(callback, "__qualname__", type(callback).__qualname__)


def _recorded(engine, callback):
    label = _label(callback)

    def fire():
        engine.fired.append((engine.now, label))
        callback()

    return fire


class RecordingEngine(Engine):
    """The production engine, logging every fired event and tick."""

    def __init__(self) -> None:
        super().__init__()
        self.fired: list = []

    def schedule_at(self, time, callback):
        return super().schedule_at(time, _recorded(self, callback))

    def schedule_tick(self, time, fire):
        super().schedule_tick(time, _recorded(self, fire))

    def run_idle_ticks(self, time, period):
        ran, after = super().run_idle_ticks(time, period)
        for _ in range(ran):
            self.fired.append((time, ("tick", period)))
            time += period
        return ran, after


class RecordingReferenceEngine(reference_ticks.Engine):
    """The heap-only reference engine, logging every fired event."""

    def __init__(self) -> None:
        super().__init__()
        self.fired: list = []

    def schedule_at(self, time, callback):
        return super().schedule_at(time, _recorded(self, callback))


#: The configs the tick comparison runs: every ``CONFIGS`` entry, plus
#: an observed replicated cluster whose 5 s sampler shares the writeback
#: and heartbeat tick and is cancelled at the end of the replay.
TICK_CONFIGS = (*CONFIGS, "replicated+faults+obs")


def _run_on_engine(reference: bool, name, records, duration, schedule, seed):
    engine_cls = RecordingReferenceEngine if reference else RecordingEngine
    ticker_cls = reference_ticks.SharedTicker if reference else SharedTicker
    base, obs = name, None
    if name.endswith("+obs"):
        base = name.removesuffix("+obs")
        obs = Observation(ObsConfig(sample_interval=5.0))
    if CONFIGS[base].client_groups > 1:
        schedule = None  # a grouped cluster draws its faults from rates
    with mock.patch.object(cluster_module, "Engine", engine_cls), \
            mock.patch.object(cluster_module, "SharedTicker", ticker_cls):
        cluster, oracle = _build(Cluster, base, schedule, seed, obs)
    assert isinstance(cluster.engine, engine_cls)
    result = cluster.replay(ColumnarTrace.from_records(records), duration)
    fingerprint = _fingerprint(cluster, result, oracle)
    fingerprint["fired"] = cluster.engine.fired
    # Every tick takes one sequence number, run or skipped.
    fingerprint["sequence"] = cluster.engine._sequence
    return fingerprint


#: Outage lengths per fault kind: shorter and longer than one 5 s scan
#: period, and than the 30 s writeback delay.
OUTAGES = {
    FaultKind.CLIENT_CRASH: (1.0, 5.0, 60.0),
    FaultKind.PARTITION: (7.0, 40.0, 95.0),
    FaultKind.SERVER_CRASH: (2.0, 30.0),
}


@st.composite
def streams_with_outages(draw):
    """A :func:`record_streams` draw followed by one write episode per
    fault kind, in a drawn order: a client writes, an outage begins
    while the block is dirty, and the client writes again during and
    after it.

    Each outage is where a clean-cache shortcut can go wrong: a crash
    empties the cache, so the next write must re-arm the daemon; a
    partitioned daemon holds its dirty blocks across scans; a server
    crash arms the heartbeat and skips that server's files.
    """
    records, duration, schedule = draw(record_streams())
    client = draw(st.integers(0, CLIENTS - 1))
    file_id = draw(st.sampled_from(FILES))
    open_id = 1 + max(
        (r.open_id for r in records if isinstance(r, OpenRecord)), default=0
    )
    now = records[-1].time
    tail: list[TraceRecord] = []
    events = list(schedule.events)
    for kind in draw(st.permutations(tuple(OUTAGES))):
        now = _next_time(draw, now)
        ids = dict(open_id=open_id, file_id=file_id, client_id=client)
        open_id += 1
        outage = draw(st.sampled_from(OUTAGES[kind]))
        target = client if kind is not FaultKind.SERVER_CRASH else (
            draw(st.integers(0, 2))
        )
        fault_at = now + 1.0
        events.append(FaultEvent(fault_at, kind, target, outage))
        tail.append(OpenRecord(now, 0, mode=AccessMode.WRITE, **ids))
        for at in (now + 0.5, fault_at + 0.5, fault_at + outage + 0.5):
            tail.append(WriteRunRecord(
                at, 0, offset=draw(st.sampled_from((0, 4096, 10000))),
                length=draw(st.sampled_from((1, 4096, 70000))), **ids,
            ))
        now = fault_at + outage + draw(st.sampled_from((1.0, 31.0)))
        tail.append(CloseRecord(now, 0, **ids))
    duration = max(duration, (math.floor(now / 300.0) + 1) * 300.0)
    return [*records, *tail], duration, FaultSchedule(events)


@hypothesis.settings(max_examples=60, deadline=None)
@given(streams_with_outages(), seeds)
def test_property_ticks_match_the_heap_reference(stream, seed):
    """Keyed ticks and the armed fan-out fire the same events, in the
    same order, and leave every counter and snapshot equal to a cluster
    on the heap-only engine whose ticker calls every subscriber."""
    records, duration, schedule = stream
    validate_stream(ColumnarTrace.from_records(records), allow_open_at_end=True)
    for name in TICK_CONFIGS:
        reference = _run_on_engine(
            True, name, records, duration, schedule, seed
        )
        production = _run_on_engine(
            False, name, records, duration, schedule, seed
        )
        assert production == reference, name
        if name == "plain":
            _fsync_event(production["fsync_blocks"])


# --------------------------------------------------------------------------
# owned-only shards, merged, equal one replay
# --------------------------------------------------------------------------

#: Rate-driven faults for a grouped cluster (explicit schedules are
#: refused there); rates are per simulated hour, and streams span
#: minutes, so most examples see a crash or a partition.
GROUP_FAULTS = FaultConfig(
    server_crash_rate=30.0,
    server_downtime=30.0,
    client_crash_rate=30.0,
    client_downtime=60.0,
    partition_rate=30.0,
    partition_duration=20.0,
)

PARTITIONED_CONFIGS: dict[str, ClusterConfig] = {
    "grouped": CONFIGS["grouped"],
    "grouped+replicated+faults": ClusterConfig(
        client_count=CLIENTS, num_servers=4, client_groups=2,
        replication_factor=2, faults=GROUP_FAULTS,
    ),
}


def _group_streams(records, config: ClusterConfig):
    """The stream moved into per-group id spaces, whole and per group.

    Each record's file id is strided into its client's group residue
    class (``file_id * groups + group``); negative directory sentinels
    pass through, as in :meth:`ColumnarTrace.remap_group`.
    """
    groups = config.client_groups
    offsets = config.group_client_offsets
    whole: list[TraceRecord] = []
    per_group: list[list[TraceRecord]] = [[] for _ in range(groups)]
    for record in records:
        group = bisect_right(offsets, record.client_id) - 1
        if record.file_id >= 0:
            record = replace(record, file_id=record.file_id * groups + group)
        whole.append(record)
        per_group[group].append(record)
    return whole, per_group


def _merge_fingerprint(result: ClusterResult) -> dict:
    """Everything the shard merge must reproduce; ``tick_events`` and
    ``construction_seconds`` are left out because the merge sums them
    as fleet gauges."""
    return {
        "clients": _client_digests(result),
        "servers": [row.digest() for row in result.per_server_counters],
        "aggregate": result.server_counters.digest(),
        "records_replayed": result.records_replayed,
    }


def assert_shards_match_one_replay(
    records, duration, name, seed=SEED
) -> ClusterResult:
    config = PARTITIONED_CONFIGS[name]
    whole, per_group = _group_streams(records, config)
    reference = Cluster(config, seed=seed).replay(
        ColumnarTrace.from_records(whole), duration
    )
    owned = [[group] for group in range(config.client_groups)]
    shards = [
        Cluster(config, seed=seed, owned_groups=groups).replay(
            ColumnarTrace.from_records(per_group[groups[0]]), duration
        )
        for groups in owned
    ]
    merged = merge_cluster_results(shards, owned)
    assert _merge_fingerprint(merged) == _merge_fingerprint(reference), name
    return reference


def _groups_closing_a_written_file(records, config: ClusterConfig) -> int:
    offsets = config.group_client_offsets
    written = {r.open_id for r in records if isinstance(r, WriteRunRecord)}
    return len({
        bisect_right(offsets, r.client_id) - 1
        for r in records
        if isinstance(r, CloseRecord) and r.open_id in written
    })


@st.composite
def streams_closing_a_written_file_per_group(draw):
    """A :func:`record_streams` draw followed by one written-and-closed
    episode per client group, the groups' opens, writes and closes
    interleaved in a drawn order, plus a drawn replay seed.

    A close of a written file is where the replay makes its one
    cluster-level random draw, the fsync decision.  Plain draws seldom
    close a written file in both groups, and under one fixed seed the
    first few decisions are fixed too, so a decision that leaked across
    groups would rarely show without the tail and the seed.
    """
    records, duration, _ = draw(record_streams())
    offsets = PARTITIONED_CONFIGS["grouped"].group_client_offsets
    first_open = 1 + max(
        (r.open_id for r in records if isinstance(r, OpenRecord)), default=0
    )
    episodes = [
        (
            first_open + group,
            draw(st.integers(offsets[group], offsets[group + 1] - 1)),
            draw(st.sampled_from(FILES)),
        )
        for group in range(len(offsets) - 1)
    ]
    now = records[-1].time
    tail: list[TraceRecord] = []
    for kind in (OpenRecord, WriteRunRecord, CloseRecord):
        for open_id, client, file_id in draw(st.permutations(episodes)):
            now = _next_time(draw, now)
            ids = dict(open_id=open_id, file_id=file_id, client_id=client)
            if kind is OpenRecord:
                tail.append(OpenRecord(now, 0, mode=AccessMode.WRITE, **ids))
            elif kind is WriteRunRecord:
                tail.append(WriteRunRecord(
                    now, 0, offset=0,
                    length=draw(st.sampled_from((1, 4096, 70000))), **ids,
                ))
            else:
                tail.append(CloseRecord(now, 0, **ids))
    seed = draw(seeds)
    return [*records, *tail], max(duration, now), seed


@hypothesis.settings(max_examples=60, deadline=None)
@given(streams_closing_a_written_file_per_group())
def test_property_partitioned_matches_unpartitioned(stream):
    records, duration, seed = stream
    groups = _groups_closing_a_written_file(
        records, PARTITIONED_CONFIGS["grouped"]
    )
    hypothesis.event(f"groups closing a written file: {groups} of 2")
    assert_shards_match_one_replay(records, duration, "grouped", seed)
    reference = assert_shards_match_one_replay(
        records, duration, "grouped+replicated+faults", seed
    )
    faults = reference.server_counters.crashes + sum(
        c.crashes + c.partitions for c in reference.final_counters.values()
    )
    hypothesis.event("fault fired" if faults else "no fault fired")


# --------------------------------------------------------------------------
# the protocol oracle stays clean, in raise mode
# --------------------------------------------------------------------------

ORACLE_CONFIGS: dict[str, ClusterConfig] = {
    "replicated+faults": CONFIGS["replicated+faults"],
    "replicated-r3+faults": ClusterConfig(
        client_count=CLIENTS, num_servers=4, replication_factor=3
    ),
}


@st.composite
def streams_with_server_crashes(draw):
    """A :func:`record_streams` draw plus up to three extra server
    crashes, each starting inside the strategy's own server outage, so
    two or three servers are down at once."""
    records, duration, schedule = draw(record_streams())
    (outage,) = [
        e for e in schedule.events if e.kind is FaultKind.SERVER_CRASH
    ]
    extra = [
        FaultEvent(
            outage.time + draw(st.sampled_from((0.0, 0.5, 1.5))),
            FaultKind.SERVER_CRASH,
            draw(st.integers(0, 2)),
            draw(st.sampled_from((2.0, 30.0, 120.0))),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    return records, duration, FaultSchedule([*schedule.events, *extra])


@hypothesis.settings(max_examples=60, deadline=None)
@given(streams_with_server_crashes())
def test_property_oracle_stays_clean_under_crashes(stream):
    """A raise-mode oracle fails the example at its first violation.

    The replay seed stays fixed here: a drawn seed may reach the known
    orphaned-substitute divergence (pinned as a strict xfail below),
    which a raise-mode oracle would report as a failure of this test.
    """
    records, duration, schedule = stream
    for config in ORACLE_CONFIGS.values():
        oracle = ProtocolOracle(seed=SEED, raise_on_violation=True)
        cluster = Cluster(
            config, seed=SEED, oracle=oracle, fault_schedule=schedule
        )
        cluster.replay(ColumnarTrace.from_records(records), duration)


@pytest.mark.xfail(
    strict=True,
    raises=InvariantViolation,
    reason="retired substitutes keep their copy; a later re-replication "
    "re-adopts the orphan at its stale version",
)
@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_orphaned_substitute_after_a_second_crash(name):
    """The Table A replica divergence, shrunk from a variant of the
    property above whose extra crashes need not overlap.  Server 0 is
    down twice, for 30 s each time.  At r=2 file 0 lives on servers
    (2, 0); at r=3 on (3, 0, 2), and the story is the same:

    1. At t=15 server 0 is declared dead and server 1 stands in for it;
       the write-open at t=25 stamps v1 on every live copy.
    2. Server 0 recovers at t=30 and server 1 retires, keeping its v1.
    3. Server 0 crashes again at t=50.5; the delete at t=60 resets the
       live replicas to v0, but never reaches the orphan on server 1.
    4. At t=65 server 0 is declared dead again, re-replication adopts
       server 1 once more, and the version max-merge leaves it at v1.
    """
    records = [
        OpenRecord(5.0, 0, open_id=1, file_id=0, client_id=0,
                   mode=AccessMode.READ),
        OpenRecord(25.0, 0, open_id=2, file_id=0, client_id=0,
                   mode=AccessMode.WRITE),
        DeleteRecord(60.0, 0, file_id=0, client_id=0),
    ]
    schedule = FaultSchedule([
        FaultEvent(0.0, FaultKind.SERVER_CRASH, 0, 30.0),
        FaultEvent(50.5, FaultKind.SERVER_CRASH, 0, 30.0),
    ])
    oracle = ProtocolOracle(seed=SEED, raise_on_violation=True)
    cluster = Cluster(
        ORACLE_CONFIGS[name], seed=SEED, oracle=oracle, fault_schedule=schedule
    )
    cluster.replay(ColumnarTrace.from_records(records), 65.0)


# --------------------------------------------------------------------------
# named cases
# --------------------------------------------------------------------------


def _episode(open_id, client, file_id, t_open, t_write, t_close):
    return [
        OpenRecord(t_open, 0, open_id=open_id, file_id=file_id,
                   client_id=client, mode=AccessMode.WRITE),
        WriteRunRecord(t_write, 0, open_id=open_id, file_id=file_id,
                       client_id=client, offset=0, length=9000),
        CloseRecord(t_close, 0, open_id=open_id, file_id=file_id,
                    client_id=client),
    ]


def test_close_whose_open_predates_a_client_reboot_is_dropped():
    """Client 1 opens at t=10, crashes at t=12 for 5 s, writes and
    closes after the reboot: the close is dropped by the epoch check in
    both loops, and the write (made after the reboot) still counts."""
    records = _episode(1, 1, 3, 10.0, 20.0, 25.0)
    schedule = FaultSchedule([
        FaultEvent(12.0, FaultKind.CLIENT_CRASH, 1, 5.0),
        FaultEvent(40.0, FaultKind.SERVER_CRASH, 0, 2.0),
    ])
    config = CONFIGS["replicated+faults"]
    cluster = Cluster(config, seed=SEED, fault_schedule=schedule)
    result = cluster.replay(ColumnarTrace.from_records(records), 600.0)
    assert result.final_counters[1].ops_dropped_while_down == 1
    assert_loops_agree(records, 600.0, schedule)


def test_records_on_tick_timestamps_and_equal_times():
    """Records exactly on the 5 s writeback and 300 s snapshot ticks,
    several at one timestamp, and a replay that ends on the last one."""
    records = [
        *_episode(1, 0, 1, 0.0, 5.0, 5.0),
        *_episode(2, 2, 1, 5.0, 300.0, 300.0),
        TruncateRecord(300.0, 0, file_id=1, client_id=2),
        CreateRecord(300.0, 0, file_id=2, client_id=3),
        DeleteRecord(600.0, 0, file_id=1, client_id=0),
    ]
    records.sort(key=lambda r: r.time)
    fingerprints = assert_loops_agree(records, 600.0)
    assert fingerprints["plain"]["records_replayed"] == len(records)


def test_delete_under_open_and_handlerless_kinds():
    records = [
        OpenRecord(1.0, 0, open_id=1, file_id=4, client_id=0,
                   mode=AccessMode.READ_WRITE),
        WriteRunRecord(2.0, 0, open_id=1, file_id=4, client_id=0,
                       offset=0, length=20000),
        DeleteRecord(2.0, 0, file_id=4, client_id=1),
        SharedReadRecord(3.0, 0, file_id=4, client_id=1, length=4096),
        SharedWriteRecord(3.0, 0, file_id=4, client_id=1, length=4096),
        RepositionRecord(4.0, 0, open_id=1, file_id=4, client_id=0),
        ReadRunRecord(4.0, 0, open_id=1, file_id=4, client_id=0,
                      offset=0, length=20000),
        CloseRecord(9.0, 0, open_id=1, file_id=4, client_id=0),
    ]
    fingerprints = assert_loops_agree(records, 310.0)
    assert fingerprints["plain"]["records_replayed"] == len(records)


# --------------------------------------------------------------------------
# Section 4 over columns: Tables 1, 1a and 3 and Figures 1-4
# --------------------------------------------------------------------------

SIZES = (0, 1, 4096, 10000, 70000, 74096)


@dataclass
class _Windowed:
    """One sealed stream, as both analysis paths read it."""

    name: str
    columnar: ColumnarTrace
    records: list
    duration: float


def _with_fields(draw, record: TraceRecord, run_ends: dict) -> TraceRecord:
    """Draw the fields the analyses read that ``record_streams`` leaves
    at their defaults: users (some unknown), sizes and byte ages; and
    start most runs where their episode's previous run ended, so runs
    continue in place, in either direction."""
    changes = {"user_id": draw(st.integers(-1, CLIENTS - 1))}
    if isinstance(record, OpenRecord):
        changes["size_at_open"] = draw(st.sampled_from(SIZES))
    elif isinstance(record, CloseRecord):
        changes["size_at_close"] = draw(st.sampled_from(SIZES))
    elif isinstance(record, (ReadRunRecord, WriteRunRecord)):
        if record.open_id in run_ends and draw(st.integers(0, 3)):
            changes["offset"] = run_ends[record.open_id]
        run_ends[record.open_id] = changes.get("offset", record.offset) + record.length
    elif isinstance(record, (DeleteRecord, TruncateRecord)):
        changes["size"] = draw(st.sampled_from(SIZES))
        age = draw(st.sampled_from((None, 0.0, 2.5, 40.0, 900.0)))
        if age is not None:
            changes["oldest_byte_time"] = record.time - age
            changes["newest_byte_time"] = record.time - age + draw(
                st.sampled_from((0.0, 1.0, 30.0, 2000.0))
            )
    return replace(record, **changes)


@st.composite
def windowed_streams(draw):
    """A ``record_streams`` stream with drawn users, sizes, byte ages and
    continued runs, sealed with a window cut from its own timestamps:
    the first one to three timestamps' records (shifted to negative
    times) and, when more than one timestamp is left, the last one to
    three timestamps' records are dropped from the stream but stay in
    their kinds' tables, so opens, closes and runs lose their partners
    at both ends."""
    records, _, _ = draw(record_streams())
    times = sorted({r.time for r in records})
    count = len(times)
    lo = draw(st.integers(min(1, count - 1), min(3, count - 1)))
    hi = draw(st.integers(min(1, count - lo - 1), max(0, min(3, count - lo - 1))))
    start = times[lo]
    end = times[count - hi] if hi else times[-1] + 1.0
    builder = ColumnarTraceBuilder()
    run_ends: dict[int, int] = {}
    for record in records:
        record = _with_fields(draw, replace(record, time=record.time - start), run_ends)
        builder.append(
            type(record), tuple(getattr(record, f.name) for f in fields(record))
        )
    columnar = builder.seal(end - start)
    hypothesis.event(
        "rows outside the window"
        if len(columnar) < len(records) else "every row in the window"
    )
    return columnar, end - start


def _samples(cdf) -> list:
    """A CDF's samples with their types, in insertion order."""
    return [(type(v), v, type(w), w) for v, w in cdf._samples]


def assert_section4_matches_the_record_path(traces, placement_seed) -> None:
    ours = [compute_table1(t.name, t.columnar, t.duration) for t in traces]
    theirs = [reference_analysis.compute_table1(t.name, t.records, t.duration) for t in traces]
    assert [vars(s) for s in ours] == [vars(s) for s in theirs]
    assert render_table1(ours) == render_table1(theirs)
    for num_servers in range(1, 5):
        placement = Placement(num_servers, placement_seed)
        ours = per_server_table1(traces, placement)
        theirs = reference_analysis.per_server_table1(traces, placement)
        assert [vars(s) for s in ours] == [vars(s) for s in theirs], num_servers
        assert render_table1(ours) == render_table1(theirs)

    tables = [assemble_accesses(t.columnar) for t in traces]
    accesses = [list(reference_analysis.assemble_accesses(t.records)) for t in traces]
    assert [len(table) for table in tables] == [len(a) for a in accesses]
    pooled = [access for per_trace in accesses for access in per_trace]
    ours = [compute_access_patterns(tables)]
    ours += [compute_access_patterns([table]) for table in tables]
    theirs = [reference_analysis.compute_access_patterns(pooled)]
    theirs += [reference_analysis.compute_access_patterns(a) for a in accesses]
    for mine, other in zip(ours, theirs):
        assert mine.cells == other.cells
        assert mine.skipped_zero_byte == other.skipped_zero_byte
    assert render_table3(ours[0], ours[1:]) == render_table3(theirs[0], theirs[1:])

    records = [r for t in traces for r in t.records]
    for mine, other in (
        (compute_run_lengths(tables), reference_analysis.compute_run_lengths(pooled)),
        (compute_file_sizes(tables), reference_analysis.compute_file_sizes(pooled)),
        (compute_open_times(tables), reference_analysis.compute_open_times(pooled)),
        (compute_lifetimes(t.columnar for t in traces),
         reference_analysis.compute_lifetimes(records)),
    ):
        assert vars(mine).keys() == vars(other).keys()
        for name, value in vars(mine).items():
            if isinstance(value, Cdf):
                assert _samples(value) == _samples(getattr(other, name)), name
            else:
                assert value == getattr(other, name), name
        assert mine.render() == other.render()


@hypothesis.settings(max_examples=200, deadline=None)
@given(st.lists(windowed_streams(), min_size=1, max_size=3), st.integers(0, 99))
def test_property_section4_matches_the_record_path(streams, placement_seed):
    """Tables 1, 1a (at 1-4 servers) and 3 and Figures 1-4 read the
    columns of windowed streams exactly as the record path reads their
    materialized records: the same rows, CDF samples in the same order
    with the same types, and the same rendered text."""
    traces = [
        _Windowed(f"t{index}", columnar, materialize(columnar), duration)
        for index, (columnar, duration) in enumerate(streams)
    ]
    assert_section4_matches_the_record_path(traces, placement_seed)


# --------------------------------------------------------------------------
# Table 2 and Sections 5.5-5.6 over columns: Tables 2, 2a and 10-12
# --------------------------------------------------------------------------


def assert_activity_and_consistency_match_the_record_path(traces, placement_seed):
    ours = compute_activity((t.columnar, t.duration) for t in traces)
    theirs = reference_analysis.compute_activity((t.records, t.duration) for t in traces)
    assert ours == theirs
    assert ours.render() == theirs.render()
    for num_servers in range(1, 5):
        placement = Placement(num_servers, placement_seed)
        ours = per_server_activity(traces, placement)
        theirs = reference_analysis.per_server_activity(traces, placement)
        assert ours == theirs, num_servers
        assert [r.render() for r in ours] == [r.render() for r in theirs]

    ours = [compute_actions(t.columnar) for t in traces]
    theirs = [reference_consistency.compute_actions(t.records) for t in traces]
    assert ours == theirs
    assert render_table10(ours) == render_table10(theirs)

    ours, theirs = [], []
    for interval in (60.0, 3.0):
        ours.append([simulate_polling(t.columnar, interval, t.duration) for t in traces])
        theirs.append([
            reference_consistency.simulate_polling(t.records, interval, t.duration)
            for t in traces
        ])
    assert ours == theirs
    assert render_table11(*ours) == render_table11(*theirs)

    ours = [extract_shared_activity(t.columnar) for t in traces]
    theirs = [reference_consistency.extract_shared_activity(t.records) for t in traces]
    assert ours == theirs
    ours = [simulate_schemes(activities) for activities in ours]
    theirs = [simulate_schemes(activities) for activities in theirs]
    assert ours == theirs
    assert render_table12(ours) == render_table12(theirs)


def _shared_request_beside_a_solo_run() -> list[tuple[ColumnarTrace, float]]:
    """One stream in which a read open's run of file 7 and another
    client's shared read of file 7 land at the same time, the run first.
    No writer opened the file, so the run is solo (outside every sharing
    window) and must sort after the shared request: a tie generated
    streams draw too rarely to pin on their own."""
    records = [
        OpenRecord(time=0.0, server_id=0, open_id=1, file_id=7, client_id=0),
        ReadRunRecord(time=5.0, server_id=0, open_id=1, file_id=7,
                      client_id=0, offset=0, length=10),
        SharedReadRecord(time=5.0, server_id=0, file_id=7, user_id=1,
                         client_id=1, offset=0, length=30),
        CloseRecord(time=6.0, server_id=0, open_id=1, file_id=7,
                    client_id=0, bytes_read=10),
    ]
    return [(ColumnarTrace.from_records(records), 60.0)]


@hypothesis.settings(max_examples=200, deadline=None)
@given(st.lists(windowed_streams(), min_size=1, max_size=3), st.integers(0, 99))
@hypothesis.example(_shared_request_beside_a_solo_run(), 0)
def test_property_activity_and_consistency_match_the_record_path(
    streams, placement_seed
):
    """Tables 2 and 2a (at 1-4 servers), 10, 11 and 12 and the shared
    request streams read the columns of windowed streams (shared reads
    and writes, unknown users, migrated rows) exactly as the record path
    reads their materialized records: equal floats, requests and
    intervals in the same order, and the same rendered text."""
    traces = [
        _Windowed(f"t{index}", columnar, materialize(columnar), duration)
        for index, (columnar, duration) in enumerate(streams)
    ]
    assert_activity_and_consistency_match_the_record_path(traces, placement_seed)
