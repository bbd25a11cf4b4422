"""End-to-end data integrity: checksums, disk faults, scrub, repair.

Covers the integrity layer (repro.fs.integrity) at three levels:

* **unit** -- the checksum content model, each disk-fault kind's
  detection story (bit rot and torn writes are caught by checksums;
  lost writes only by the scrubber's generation cross-check at r >= 2),
  repair-from-replica vs. declared loss, and the chunked scrub walk;
* **properties** (Hypothesis, skipped when unavailable) -- checksum
  round-trips, counter-row round-trips, and the columnar codec carrying
  the new integrity counters;
* **chaos** -- full replays under seeded disk faults: zero oracle
  integrity violations with replicas and scrubbing on (even with server
  crashes in the mix), strictly positive exposed corruption with the
  defences off, and determinism of the whole machinery;

plus the replication pending-log regression (a file deleted while a
replica was down must be dropped from the log, not replayed) and the
validation stories for every new knob.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.common.units import MB
from repro.fs import (
    ClusterConfig,
    DiskFaultEvent,
    DiskFaultKind,
    FaultConfig,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    IntegrityManager,
    Placement,
    ProtocolOracle,
    Server,
    block_checksum,
    block_payload,
    checksum_ok,
    run_cluster_on_trace,
)
from repro.fs.cluster import Cluster
from repro.fs.integrity import _garble
from repro.fs.replication import ReplicaMap, ReplicationManager
from repro.sim.engine import Engine
from repro.sim.timers import SharedTicker

pytestmark = pytest.mark.integrity

BLOCK = 4096


def _integrity_cluster(num_servers: int, replication_factor: int = 1):
    """Servers plus a wired IntegrityManager (no engine, no clients)."""
    servers = [
        Server(1 * MB, BLOCK, server_id=i) for i in range(num_servers)
    ]
    group_maps = (
        {0: ReplicaMap(Placement(num_servers), replication_factor)}
        if replication_factor > 1
        else None
    )
    manager = IntegrityManager(
        servers, ClusterConfig(num_servers=num_servers), group_maps=group_maps
    )
    for server in servers:
        server.integrity = manager
    return servers, manager


def _write_everywhere(manager, servers, file_id, index, now=0.0):
    """One logical client writeback fanned out to every server."""
    manager.begin_write(file_id, index)
    for server in servers:
        server.write_block(now, file_id, index, BLOCK)


# --------------------------------------------------------------------------
# the content model
# --------------------------------------------------------------------------


def test_checksum_round_trip_and_garble_detection():
    payload = block_payload(7, 3, 1)
    checksum = block_checksum(payload)
    assert checksum_ok(payload, checksum)
    assert not checksum_ok(_garble(payload), checksum)
    # Garbling twice must NOT restore validity (the mangle is a mix,
    # not an involutive flip): two faults on one block stay detectable.
    assert not checksum_ok(_garble(_garble(payload)), checksum)


def test_payload_is_a_pure_function_of_the_write():
    assert block_payload(1, 2, 3) == block_payload(1, 2, 3)
    assert block_payload(1, 2, 3) != block_payload(1, 2, 4)
    assert block_payload(1, 2, 3) != block_payload(1, 3, 3)
    assert block_payload(1, 2, 3) != block_payload(2, 2, 3)


# --------------------------------------------------------------------------
# fault kinds, detection, repair
# --------------------------------------------------------------------------


def test_bit_rot_is_detected_on_a_miss_read_and_repaired_from_replica():
    servers, manager = _integrity_cluster(2, replication_factor=2)
    _write_everywhere(manager, servers, 5, 0)
    assert manager.inject_bit_rot(1.0, 0, 0.0)
    # The server cache still holds the good RAM copy; rot hides behind
    # a hot cache until the copy is evicted or the machine reboots.
    assert servers[0].fetch_block(2.0, 5, 0, BLOCK) is True
    assert servers[0].counters.checksum_failures == 0
    servers[0].cache.clear()
    assert servers[0].fetch_block(3.0, 5, 0, BLOCK) is True  # repaired
    assert servers[0].counters.checksum_failures == 1
    assert servers[0].counters.blocks_repaired == 1
    assert servers[0].counters.blocks_declared_lost == 0
    assert manager.silent_corruption_report() == []


def test_bit_rot_at_r1_becomes_a_declared_loss():
    servers, manager = _integrity_cluster(1)
    _write_everywhere(manager, servers, 5, 0)
    manager.inject_bit_rot(1.0, 0, 0.0)
    servers[0].cache.clear()
    assert servers[0].fetch_block(2.0, 5, 0, BLOCK) is False
    assert servers[0].counters.checksum_failures == 1
    assert servers[0].counters.blocks_declared_lost == 1
    # Accountably gone is not silently gone.
    assert manager.silent_corruption_report() == []


def test_torn_write_persists_garbage_under_the_intended_checksum():
    servers, manager = _integrity_cluster(2, replication_factor=2)
    manager.arm_torn(0)
    _write_everywhere(manager, servers, 9, 2)
    assert servers[0].counters.disk_torn_writes == 1
    servers[0].cache.clear()
    assert servers[0].fetch_block(1.0, 9, 2, BLOCK) is True  # repaired
    assert servers[0].counters.checksum_failures == 1
    assert servers[0].counters.blocks_repaired == 1


def test_lost_write_is_invisible_to_checksums_but_caught_by_scrub():
    servers, manager = _integrity_cluster(2, replication_factor=2)
    _write_everywhere(manager, servers, 4, 1)
    manager.arm_lost(0)
    _write_everywhere(manager, servers, 4, 1)  # lost on server 0
    assert servers[0].counters.disk_lost_writes == 1
    servers[0].cache.clear()
    # The stale generation still verifies: reads cannot see a lost
    # write, which is exactly why the scrubber cross-checks stamps.
    assert servers[0].fetch_block(1.0, 4, 1, BLOCK) is True
    assert servers[0].counters.checksum_failures == 0
    manager.final_scrub(2.0)
    assert servers[0].counters.scrub_corruptions_found == 1
    assert servers[0].counters.blocks_repaired == 1
    assert manager.silent_corruption_report() == []


def test_lost_first_write_leaves_no_store_entry_yet_is_not_silent():
    servers, manager = _integrity_cluster(2, replication_factor=2)
    manager.arm_lost(0)
    _write_everywhere(manager, servers, 6, 0)  # first write, lost on 0
    # Exposed until the scrubber walks the *expected* ledger too.
    assert len(manager.silent_corruption_report()) == 1
    manager.final_scrub(1.0)
    assert servers[0].counters.blocks_repaired == 1
    assert manager.silent_corruption_report() == []


def test_scrubber_walks_in_bounded_chunks():
    servers, manager = _integrity_cluster(1)
    for index in range(IntegrityManager.SCRUB_CHUNK + 40):
        _write_everywhere(manager, servers, 1, index)
    manager.scrub_tick(1.0)
    assert (
        servers[0].counters.scrub_blocks_checked
        == IntegrityManager.SCRUB_CHUNK
    )
    manager.scrub_tick(2.0)  # cursor wraps after finishing the tail
    assert (
        servers[0].counters.scrub_blocks_checked
        == IntegrityManager.SCRUB_CHUNK + 40
    )


def test_delete_drops_every_integrity_trace_of_the_file():
    servers, manager = _integrity_cluster(1)
    _write_everywhere(manager, servers, 3, 0)
    manager.inject_bit_rot(1.0, 0, 0.0)
    servers[0].invalidate_file(3)
    # The corrupt block died with the file: nothing left to expose.
    assert manager.silent_corruption_report() == []
    manager.final_scrub(2.0)
    assert servers[0].counters.scrub_corruptions_found == 0


# --------------------------------------------------------------------------
# disk-fault schedule generation
# --------------------------------------------------------------------------


def test_disk_fault_schedule_is_deterministic_and_inert_at_rate_zero():
    from repro.common.rng import RngStream

    config = FaultConfig(
        disk_corruption_rate=4.0,
        disk_torn_write_rate=1.0,
        disk_lost_write_rate=1.0,
    )
    cluster = ClusterConfig(client_count=4, num_servers=2, faults=config)
    one = FaultSchedule.generate(cluster, 3600.0, RngStream.root(7))
    two = FaultSchedule.generate(cluster, 3600.0, RngStream.root(7))
    assert one.disk_events == two.disk_events
    assert len(one.disk_events) > 0
    assert {e.server_id for e in one.disk_events} <= {0, 1}
    quiet = FaultSchedule.generate(
        ClusterConfig(client_count=4, num_servers=2), 3600.0,
        RngStream.root(7),
    )
    assert quiet.disk_events == []


def test_disk_fault_event_validation():
    DiskFaultEvent(time=1.0, kind=DiskFaultKind.BIT_ROT, server_id=0)
    with pytest.raises(ConfigError):
        DiskFaultEvent(time=-1.0, kind=DiskFaultKind.BIT_ROT, server_id=0)
    with pytest.raises(ConfigError):
        DiskFaultEvent(time=1.0, kind=DiskFaultKind.BIT_ROT, server_id=-1)
    with pytest.raises(ConfigError):
        DiskFaultEvent(
            time=1.0, kind=DiskFaultKind.BIT_ROT, server_id=0, selector=1.0
        )


# --------------------------------------------------------------------------
# knob validation (new integrity knobs + heartbeat regression)
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "knob",
    ["disk_corruption_rate", "disk_torn_write_rate", "disk_lost_write_rate"],
)
def test_negative_disk_fault_rates_are_rejected(knob):
    with pytest.raises(ConfigError, match=f"{knob} must be >= 0"):
        FaultConfig(**{knob: -0.5})


def test_negative_scrub_interval_is_rejected():
    with pytest.raises(ConfigError, match="scrub_interval must be >= 0"):
        ClusterConfig(scrub_interval=-1.0)


def test_negative_heartbeat_knobs_are_rejected():
    """Regression guard: the failure detector's knobs must stay
    validated (a zero interval would spin the ticker forever)."""
    with pytest.raises(ConfigError, match="heartbeat interval"):
        ClusterConfig(num_servers=2, replication_factor=2, heartbeat_interval=0)
    with pytest.raises(ConfigError, match="heartbeat interval"):
        ClusterConfig(
            num_servers=2, replication_factor=2, heartbeat_interval=-5.0
        )
    with pytest.raises(ConfigError, match="heartbeat miss threshold"):
        ClusterConfig(
            num_servers=2, replication_factor=2, heartbeat_miss_threshold=0
        )


def test_experiment_context_rejects_negative_integrity_knobs():
    from repro.experiments import ExperimentContext

    with pytest.raises(ConfigError, match="disk_corruption_rate"):
        ExperimentContext(scale=0.05, disk_corruption_rate=-1.0)
    with pytest.raises(ConfigError, match="scrub_interval"):
        ExperimentContext(scale=0.05, scrub_interval=-1.0)


def test_cli_rejects_negative_integrity_flags(capsys):
    from repro.experiments.cli import main

    with pytest.raises(SystemExit):
        main(["table1", "--disk-corruption-rate", "-1"])
    assert "--disk-corruption-rate must be >= 0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["table1", "--scrub-interval", "-0.5"])
    assert "--scrub-interval must be >= 0" in capsys.readouterr().err


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_knobs_are_rejected(value):
    """NaN passes every ``< 0`` test, so each range check also asks for
    a finite value."""
    from repro.experiments import ExperimentContext
    from repro.pipeline.scaleout import ScaleOutPlan
    from repro.workload.profiles import STANDARD_PROFILES

    for knob in ("scale", "disk_corruption_rate", "scrub_interval"):
        with pytest.raises(ConfigError, match=f"{knob} must be .*finite"):
            ExperimentContext(**{knob: value})
    for knob in ("scrub_interval", "heartbeat_interval", "writeback_delay"):
        with pytest.raises(ConfigError, match=f"{knob} must be finite"):
            ClusterConfig(**{knob: value})
    for knob in ("server_crash_rate", "disk_corruption_rate", "rpc_timeout"):
        with pytest.raises(ConfigError, match=f"{knob} must be finite"):
            FaultConfig(**{knob: value})
    with pytest.raises(ConfigError, match="scale must be positive and finite"):
        ScaleOutPlan(profile=STANDARD_PROFILES[0], scale=value)


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_cli_turns_a_bad_context_into_a_usage_error(capsys, scale):
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as exited:
        main(["table1", "--scale", scale, "--no-cache"])
    assert exited.value.code == 2
    assert "scale must be positive and finite" in capsys.readouterr().err


# --------------------------------------------------------------------------
# replication pending log: deletes must be dropped, not replayed
# --------------------------------------------------------------------------


def _replication_manager(num_servers=2):
    engine = Engine()
    servers = [
        Server(1 * MB, BLOCK, server_id=i) for i in range(num_servers)
    ]
    config = ClusterConfig(
        num_servers=num_servers, replication_factor=2,
        heartbeat_miss_threshold=3,
    )
    manager = ReplicationManager(
        engine, servers, Placement(num_servers), config,
        ticker=SharedTicker(engine, 30.0),
    )
    return servers, manager


def test_pending_delete_drops_a_previously_queued_version():
    servers, manager = _replication_manager()
    servers[1].apply_replica_version(8, 3)  # durable pre-outage stamp
    manager.queue_pending(1, 8, 5)  # push missed while down
    manager.queue_pending(1, 8, None)  # then the file was deleted
    manager.flush_pending(1)
    # The delete wins: replaying the stale push would resurrect the file.
    assert servers[1].peek_version(8) == 0
    assert 8 not in servers[1]._files


def test_pending_delete_then_recreate_applies_the_new_version_exactly():
    servers, manager = _replication_manager()
    servers[1].apply_replica_version(8, 7)  # durable pre-delete stamp
    manager.queue_pending(1, 8, None)  # deleted while down...
    manager.queue_pending(1, 8, 2)  # ...then recreated at version 2
    manager.flush_pending(1)
    # Invalidate-then-apply: the recreate's stamp must not max-merge
    # against the dead file's higher pre-delete version.
    assert servers[1].peek_version(8) == 2


def test_delete_under_a_crashed_primary_does_not_resurrect_the_file():
    """End to end: write a file to both replicas, crash its primary,
    delete it, recover -- the primary's durable copy must be gone, and
    a recreate while the primary was down must land at the recreate's
    version on every replica (the oracle's divergence sweep agrees)."""
    oracle = ProtocolOracle(seed=5, raise_on_violation=True)
    cluster = Cluster(
        ClusterConfig(
            client_count=4, num_servers=2, replication_factor=2,
            paging_intensity=0.0,
        ),
        seed=5,
        oracle=oracle,
    )
    client = cluster.clients[0]
    file_id = 11
    primary = cluster.replication.group_maps[0].base_replicas(file_id)[0]
    other = cluster.replication.group_maps[0].base_replicas(file_id)[1]

    for _ in range(3):  # several write cycles: the version climbs past 1
        client.open_file(0.0, file_id, True)
        client.write(0.0, file_id, 0, 3 * BLOCK)
        client.close_file(0.0, file_id, True, fsync=True)
    v_before = cluster.servers[primary].peek_version(file_id)
    assert v_before > 1
    assert cluster.servers[other].peek_version(file_id) == v_before

    cluster.crash_server(10.0, server_id=primary)
    client.delete_on_server(1.0, file_id)
    client.delete_file(1.0, file_id)
    # Recreate while the primary is still down: the new life of the
    # file starts over, so its version restarts below v_before.
    client.open_file(2.0, file_id, True)
    client.write(2.0, file_id, 0, BLOCK)
    client.close_file(2.0, file_id, True, fsync=True)
    v_new = cluster.servers[other].peek_version(file_id)
    assert 0 < v_new < v_before

    cluster.engine.run_until(10.0)
    cluster.recover_server(primary)
    assert cluster.servers[primary].peek_version(file_id) == v_new
    oracle.final_check(11.0, cluster.clients, cluster.servers)
    assert oracle.violations == []


# --------------------------------------------------------------------------
# property suite (skipped when Hypothesis is unavailable)
# --------------------------------------------------------------------------


hypothesis = pytest.importorskip("hypothesis")
given = hypothesis.given
st = hypothesis.strategies


@given(payload=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_property_checksum_verifies_and_garble_never_does(payload):
    checksum = block_checksum(payload)
    assert 0 <= checksum < (1 << 64)
    assert checksum_ok(payload, checksum)
    assert not checksum_ok(_garble(payload), checksum)


@given(
    file_id=st.integers(min_value=0, max_value=1 << 32),
    index=st.integers(min_value=0, max_value=1 << 20),
    generation=st.integers(min_value=1, max_value=1 << 20),
)
def test_property_payload_checksum_round_trip(file_id, index, generation):
    payload = block_payload(file_id, index, generation)
    assert checksum_ok(payload, block_checksum(payload))
    # A write of the next generation never collides with this one.
    assert payload != block_payload(file_id, index, generation + 1)


@given(values=st.lists(st.integers(min_value=0, max_value=1 << 40)))
def test_property_server_counter_rows_round_trip(values):
    from repro.fs import ServerCounters

    counters = ServerCounters()
    fields = type(counters).FIELDS
    for name, value in zip(fields, values):
        setattr(counters, name, value)
    rebuilt = ServerCounters.from_row(counters.as_row())
    assert rebuilt.as_row() == counters.as_row()
    assert "checksum_failures" in fields
    assert "scrub_blocks_checked" in fields


@given(
    checksum_failures=st.integers(min_value=0, max_value=1 << 30),
    repaired=st.integers(min_value=0, max_value=1 << 30),
    declared=st.integers(min_value=0, max_value=1 << 30),
)
def test_property_codec_carries_integrity_counters(
    checksum_failures, repaired, declared
):
    """A ClusterResult round-trips through the columnar codec with the
    appended integrity counters intact."""
    from repro.fs import ClientCounters, ClusterResult, ServerCounters
    from repro.pipeline.codec import decode_artifact, encode_artifact

    server = ServerCounters()
    server.checksum_failures = checksum_failures
    server.blocks_repaired = repaired
    server.blocks_declared_lost = declared
    client = ClientCounters()
    client.checksum_failures = checksum_failures
    result = ClusterResult(
        config=ClusterConfig(),
        duration=10.0,
        snapshots={0: []},
        final_counters={0: client},
        server_counters=server,
        records_replayed=1,
        per_server_counters=(server.copy(),),
    )
    decoded = decode_artifact(encode_artifact(result))
    assert decoded.server_counters.checksum_failures == checksum_failures
    assert decoded.server_counters.blocks_repaired == repaired
    assert decoded.server_counters.blocks_declared_lost == declared
    assert decoded.final_counters[0].checksum_failures == checksum_failures


# --------------------------------------------------------------------------
# differential: the suspect-set scrubber vs. the full scan it replaced
# --------------------------------------------------------------------------


class FullScanIntegrity(IntegrityManager):
    """The reference scrubber: visits every key of every span and
    re-sorts the store/ledger union at each cursor wrap."""

    def _scrub_span(
        self, now: float, server: "Server", keys: list[tuple[int, int]]
    ) -> None:
        checked = detected = 0
        sid = server.server_id
        for key in keys:
            result = self._scrub_one(now, sid, key)
            if result is None:
                continue
            checked += 1
            if result:
                detected += 1
        if checked:
            server.counters.scrub_blocks_checked += checked
        if detected:
            server.counters.scrub_corruptions_found += detected
            if self.obs is not None:
                self.obs.on_scrub(now, sid, checked, detected)

    def scrub_tick(self, now: float) -> None:
        for server in self.servers:
            if not server.up:
                continue
            sid = server.server_id
            keys = self._scrub_keys[sid]
            pos = self._scrub_pos[sid]
            if pos >= len(keys):
                keys = self._scrub_keys[sid] = sorted(
                    set(self._stores[sid]) | set(self._expected[sid])
                )
                pos = 0
            end = min(len(keys), pos + self.SCRUB_CHUNK)
            self._scrub_pos[sid] = end
            self._scrub_span(now, server, keys[pos:end])

    def final_scrub(self, now: float) -> None:
        for server in self.servers:
            if not server.up:
                continue
            sid = server.server_id
            self._scrub_span(
                now, server,
                sorted(set(self._stores[sid]) | set(self._expected[sid])),
            )


class _IntegrityCalls:
    """A stub ``obs``: records every integrity hook call in order."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def on_scrub(self, *args) -> None:
        self.calls.append(("scrub",) + args)

    def on_integrity_repair(self, *args) -> None:
        self.calls.append(("repair",) + args)

    def on_block_declared_lost(self, *args) -> None:
        self.calls.append(("lost",) + args)

    def on_checksum_failure(self, *args) -> None:
        self.calls.append(("checksum",) + args)


_COUNTER_FIELDS = (
    "scrub_blocks_checked",
    "scrub_corruptions_found",
    "blocks_repaired",
    "blocks_declared_lost",
    "checksum_failures",
)


class _ScrubPair:
    """The reference and the suspect-set manager, each over its own
    servers, sharing one set of replica maps and driven in lockstep."""

    def __init__(self, spg: int, groups: int, r: int, chunk: int) -> None:
        n = spg * groups
        self.spg = spg
        placement = Placement(n)
        config = ClusterConfig(
            client_count=groups, num_servers=n, client_groups=groups
        )
        self.views = [
            placement.group_view(config.server_slice(g)) for g in range(groups)
        ]
        self.maps = (
            {g: ReplicaMap(view, r) for g, view in enumerate(self.views)}
            if r > 1
            else None
        )
        self.managers = []
        for cls in (FullScanIntegrity, IntegrityManager):
            servers = [Server(1 * MB, BLOCK, server_id=i) for i in range(n)]
            manager = cls(servers, config, group_maps=self.maps)
            manager.SCRUB_CHUNK = chunk
            manager.obs = _IntegrityCalls()
            for server in servers:
                server.integrity = manager
            self.managers.append(manager)
        self.now = 0.0

    def chain(self, group: int, file_id: int) -> tuple[int, ...]:
        if self.maps is None:
            return (self.views[group].shard_of(file_id),)
        return self.maps[group].replicas(file_id)

    def apply(self, op: tuple) -> None:
        """Apply one op to both managers, then any chain change to the
        shared maps; the calls that return a value must agree."""
        self.now += 1.0
        n, spg = self.spg * len(self.views), self.spg
        kind, *args = op
        if kind == "copy":
            # Re-replication copies within the source's group slice.
            src, target, file_id = args
            src %= n
            args = [src, src - src % spg + target % spg, file_id]
        results = [self._apply(m, kind, args) for m in self.managers]
        assert results[0] == results[1], op
        if self.maps is None:
            return
        if kind == "copy":
            src, target, file_id = args
            rmap = self.maps[src // spg]
            if target not in rmap.replicas(file_id):
                rmap.add_substitute(file_id, target, src)
        elif kind == "retire":
            sid = args[0] % n
            self.maps[sid // spg].drop_substitutes_for(sid)

    def _apply(self, manager, kind: str, args: list):
        now, servers = self.now, manager.servers
        n = len(servers)
        if kind == "write":
            group, file_id, index = args
            manager.begin_write(file_id, index)
            for sid in self.chain(group % len(self.views), file_id):
                if servers[sid].up:
                    manager.server_write(servers[sid], now, file_id, index)
        elif kind == "torn":
            manager.arm_torn(args[0])
        elif kind == "lost":
            manager.arm_lost(args[0])
        elif kind == "rot":
            return manager.inject_bit_rot(now, *args)
        elif kind == "toggle":
            server = servers[args[0] % n]
            server.up = not server.up
        elif kind == "copy":
            return manager.copy_file(now, *args)
        elif kind == "invalidate":
            manager.invalidate_file(args[0] % n, args[1])
        elif kind == "read":
            sid, file_id, index, from_cache = args
            return manager.verify_read(
                servers[sid % n], now, file_id, index, from_cache
            )
        elif kind == "tick":
            manager.scrub_tick(now)
        elif kind == "final":
            manager.final_scrub(now)
        else:
            assert kind == "retire"  # a chain change only
        return None

    def assert_agree(self, op: tuple) -> None:
        ref, new = self.managers
        for a, b in zip(ref.servers, new.servers):
            assert [getattr(a.counters, f) for f in _COUNTER_FIELDS] == [
                getattr(b.counters, f) for f in _COUNTER_FIELDS
            ], op
        assert ref._stores == new._stores, op
        assert ref._expected == new._expected, op
        assert ref._declared_lost == new._declared_lost, op
        assert ref.obs.calls == new.obs.calls, op
        for sid, keys in enumerate(new._keys):
            assert keys == sorted(
                set(new._stores[sid]) | set(new._expected[sid])
            ), op


#: Few files, blocks and servers, so ops collide on the same keys.
_FILES = st.sampled_from([0, 0, 1, 1, 2, -1])
_INDEXES = st.integers(min_value=0, max_value=1)
_SIDS = st.integers(min_value=0, max_value=5)
_WRITE = st.tuples(st.just("write"), st.integers(0, 1), _FILES, _INDEXES)
_TICK = st.tuples(st.just("tick"))
_TOGGLE = st.tuples(st.just("toggle"), _SIDS)

_SCRUB_OPS = st.one_of(
    _WRITE, _WRITE, _WRITE, _TICK, _TICK, _TOGGLE, _TOGGLE,
    st.tuples(st.just("torn"), _SIDS),
    st.tuples(st.just("lost"), _SIDS),
    st.tuples(
        st.just("rot"), _SIDS,
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    ),
    st.tuples(st.just("copy"), _SIDS, _SIDS, _FILES),
    st.tuples(st.just("retire"), _SIDS),
    st.tuples(st.just("invalidate"), _SIDS, _FILES),
    st.tuples(st.just("read"), _SIDS, _FILES, _INDEXES, st.booleans()),
    st.tuples(st.just("final")),
)


def _run_scrub_pair(spg, groups, r, chunk, ops):
    pair = _ScrubPair(spg, groups, min(r, spg), chunk)
    for op in ops:
        pair.apply(op)
        pair.assert_agree(op)
    return pair


@hypothesis.settings(max_examples=300, deadline=None)
@given(
    layout=st.sampled_from(
        [(spg, 1) for spg in range(2, 7)] + [(spg, 2) for spg in range(1, 4)]
    ),
    r=st.integers(min_value=1, max_value=3),
    chunk=st.integers(min_value=1, max_value=5),
    ops=st.lists(_SCRUB_OPS, min_size=20, max_size=80),
)
def test_property_suspect_scrub_matches_the_full_scan(layout, r, chunk, ops):
    """Counters, stores, ledgers, declared losses and the obs call
    sequence agree with the full-scan scrubber after every op."""
    spg, groups = layout
    _run_scrub_pair(spg, groups, r, chunk, ops)


def test_scrub_regression_stale_copy_is_caught_when_its_peer_returns():
    """A push missed while down leaves an older copy; the newer write
    marks it, and it stays suspect while the newer copy's server is
    down -- the visit in between must not settle it."""
    pair = _ScrubPair(spg=2, groups=1, r=2, chunk=4)
    a, b = pair.chain(0, 0)
    for op in [
        ("write", 0, 0, 0), ("toggle", a), ("write", 0, 0, 0),
        ("toggle", a), ("toggle", b), ("tick",), ("toggle", b), ("tick",),
    ]:
        pair.apply(op)
        pair.assert_agree(op)
    assert pair.managers[1].servers[a].counters.blocks_repaired == 1


def test_scrub_regression_copy_onto_a_substitute_is_suspect():
    """Re-replication copies an older generation onto a substitute
    while the newest copy's server is down; once it returns, the
    substitute's cross-check must run."""
    pair = _ScrubPair(spg=3, groups=1, r=2, chunk=4)
    a, b = pair.chain(0, 0)
    (c,) = set(range(3)) - {a, b}
    for op in [
        ("write", 0, 0, 0), ("toggle", a), ("write", 0, 0, 0),
        ("toggle", a), ("toggle", b), ("copy", a, c, 0), ("toggle", b),
        ("tick",),
    ]:
        pair.apply(op)
        pair.assert_agree(op)
    assert pair.managers[1].servers[c].counters.blocks_repaired == 1


# --------------------------------------------------------------------------
# chaos: full replays under seeded disk faults
# --------------------------------------------------------------------------


DISK_KNOBS = FaultConfig(
    disk_corruption_rate=6.0,
    disk_torn_write_rate=2.0,
    disk_lost_write_rate=2.0,
)


def test_integrity_replay_is_deterministic(small_trace):
    config = ClusterConfig(
        client_count=4, num_servers=4, replication_factor=2,
        paging_intensity=0.0, scrub_interval=60.0, faults=DISK_KNOBS,
    )
    rows = []
    for _ in range(2):
        result = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration, config, seed=17
        )
        rows.append(
            (
                result.server_counters.as_row(),
                tuple(
                    c.as_row() for c in result.final_counters.values()
                ),
            )
        )
    assert rows[0] == rows[1]


def test_zero_rate_config_builds_no_integrity_layer(small_trace):
    cluster = Cluster(ClusterConfig(client_count=4))
    assert cluster.integrity is None
    result = cluster.replay(small_trace.columnar, small_trace.duration)
    assert result.server_counters.checksum_failures == 0
    assert result.server_counters.scrub_blocks_checked == 0
    assert result.server_counters.disk_bit_rot_events == 0
    assert all(
        c.checksum_failures == 0 for c in result.final_counters.values()
    )


@pytest.mark.slow
def test_chaos_no_silent_corruption_with_replicas_and_scrubbing(small_trace):
    """r=2 with scrubbing on, under disk faults AND rolling server
    crashes: the oracle's end-state sweep must find zero silent
    corruption, and the defences must actually have fired."""
    duration = small_trace.duration
    outage = duration * 0.08
    crashes = [
        FaultEvent(
            time=duration * (0.15 + 0.2 * sid),
            kind=FaultKind.SERVER_CRASH,
            target=sid,
            duration=outage,
        )
        for sid in range(4)
    ]
    from repro.common.rng import RngStream

    config = ClusterConfig(
        client_count=4, num_servers=4, replication_factor=2,
        paging_intensity=0.0, scrub_interval=30.0, faults=DISK_KNOBS,
    )
    schedule = FaultSchedule.generate(config, duration, RngStream.root(31))
    schedule = FaultSchedule(crashes, disk_events=schedule.disk_events)
    oracle = ProtocolOracle(seed=31, raise_on_violation=False)
    result = run_cluster_on_trace(
        small_trace.columnar, duration, config, seed=31,
        fault_schedule=schedule, oracle=oracle,
    )
    assert result.server_counters.disk_bit_rot_events > 0
    assert result.server_counters.scrub_blocks_checked > 0
    assert result.server_counters.blocks_repaired > 0
    silent = [
        v for v in oracle.violations if v.invariant == "silent-corruption"
    ]
    assert silent == []


@pytest.mark.slow
def test_chaos_undefended_corruption_is_exposed(small_trace):
    """r=1 with scrubbing off under the same disk-fault load: the
    oracle must expose corruption, or the defended run above proves
    nothing."""
    oracle = ProtocolOracle(seed=31, raise_on_violation=False)
    config = ClusterConfig(
        client_count=4, num_servers=4,
        paging_intensity=0.0, faults=DISK_KNOBS,
    )
    run_cluster_on_trace(
        small_trace.columnar, small_trace.duration, config, seed=31,
        oracle=oracle,
    )
    exposed = [
        v for v in oracle.violations if v.invariant == "silent-corruption"
    ]
    assert len(exposed) > 0


@pytest.mark.slow
def test_integrity_experiment_meets_its_pins(experiment_context):
    """Table C's acceptance criteria, straight off the metrics."""
    from repro.experiments import run_experiment

    result = run_experiment("integrity", experiment_context)
    metrics = result.metrics
    assert metrics["exposed_r1_scrub0"] > 0
    assert metrics["exposed_r2_scrub60"] == 0
    assert metrics["exposed_r3_scrub30"] == 0
    assert metrics["oracle_violations_r2_scrub60"] == 0
    assert metrics["oracle_violations_r3_scrub30"] == 0
    assert metrics["repaired_r2_scrub60"] > 0
    assert metrics["detected_r1_scrub60"] > 0
    assert "Table C" in result.rendered
