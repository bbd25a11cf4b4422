"""Scripted fault scenarios: each test injects one specific failure and
checks the protocol's visible footprint (counters and server state).

The chaos suite (:mod:`tests.test_faults_chaos`) covers randomized
schedules and global invariants; these tests pin down the individual
mechanisms -- reopen, revalidation, replay, retry backoff, stale reads,
degraded modes -- one at a time.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.errors import ConfigError
from repro.fs import (
    Cluster,
    ClusterConfig,
    FaultConfig,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    SERVER_TARGET,
    run_cluster_on_trace,
)
from repro.fs.rpc import BackoffPolicy
from repro.common.rng import RngStream
from repro.trace.columnar import ColumnarTrace

KB = 1024


def make_cluster(**kwargs) -> Cluster:
    config = ClusterConfig(client_count=2, **kwargs)
    return Cluster(config, seed=77)


# --- configuration and schedule --------------------------------------------------


class TestFaultConfig:
    def test_defaults_are_inert(self):
        assert not FaultConfig().any_faults

    def test_any_rate_arms_the_subsystem(self):
        assert FaultConfig(server_crash_rate=0.1).any_faults
        assert FaultConfig(client_crash_rate=0.1).any_faults
        assert FaultConfig(partition_rate=0.1).any_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"server_crash_rate": -1.0},
            {"server_downtime": 0.0},
            {"client_downtime": -5.0},
            {"rpc_timeout": 0.0},
            {"rpc_initial_backoff": 0.0},
            {"rpc_backoff_factor": 0.5},
            {"degraded_mode": "panic"},
            {"message_loss_rate": -0.1},
            {"message_loss_rate": 1.5},
            {"message_duplicate_rate": -0.1},
            {"message_duplicate_rate": 1.0001},
            {"message_reorder_rate": 2.0},
            {"message_delay_rate": -1.0},
            {"message_delay_mean": 0.0},
            {"message_delay_mean": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FaultConfig(**kwargs)

    def test_cluster_config_rejects_plain_dict(self):
        with pytest.raises(ConfigError):
            ClusterConfig(faults={"server_crash_rate": 1.0})


class TestFaultEvent:
    def test_server_crash_must_target_server(self):
        # A server id >= 0 or SERVER_TARGET is valid (sharded clusters
        # target individual servers); anything below -1 is not.
        with pytest.raises(ConfigError):
            FaultEvent(0.0, FaultKind.SERVER_CRASH, -2, 10.0)

    def test_server_crash_accepts_shard_targets(self):
        assert FaultEvent(0.0, FaultKind.SERVER_CRASH, 3, 10.0).target == 3
        assert (
            FaultEvent(0.0, FaultKind.SERVER_CRASH, SERVER_TARGET, 10.0).target
            == SERVER_TARGET
        )

    def test_client_fault_needs_client_target(self):
        with pytest.raises(ConfigError):
            FaultEvent(0.0, FaultKind.CLIENT_CRASH, SERVER_TARGET, 10.0)

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError):
            FaultEvent(0.0, FaultKind.PARTITION, 0, 0.0)

    def test_end_time(self):
        event = FaultEvent(5.0, FaultKind.PARTITION, 0, 7.5)
        assert event.end_time == 12.5


class TestBackoff:
    @staticmethod
    def attempts(config, wait):
        return BackoffPolicy.from_config(config).attempts_for_wait(wait)

    def test_single_attempt_for_tiny_wait(self):
        assert self.attempts(FaultConfig(), 0.05) == 1

    def test_exponential_series(self):
        # Delays 0.1, 0.2, 0.4 reach a cumulative 0.7 >= 0.5 on the
        # third attempt.
        assert self.attempts(FaultConfig(), 0.5) == 3

    def test_backoff_caps_at_max(self):
        config = FaultConfig(
            rpc_initial_backoff=1.0, rpc_backoff_factor=2.0, rpc_max_backoff=2.0
        )
        # Delays 1, 2, 2, 2, ... -> 60 seconds needs 1 + ceil(59/2) = 31.
        assert self.attempts(config, 60.0) == 31


class TestFaultSchedule:
    CLUSTER = ClusterConfig(
        client_count=4,
        faults=FaultConfig(
            server_crash_rate=1.0, client_crash_rate=0.5, partition_rate=2.0
        ),
    )

    def test_zero_rates_yield_empty_schedule(self):
        schedule = FaultSchedule.generate(
            ClusterConfig(client_count=8), 86400.0,
            RngStream.root(1).fork("faults"),
        )
        assert len(schedule) == 0

    def test_deterministic_for_same_stream(self):
        a = FaultSchedule.generate(
            self.CLUSTER, 86400.0, RngStream.root(9).fork("faults")
        )
        b = FaultSchedule.generate(
            self.CLUSTER, 86400.0, RngStream.root(9).fork("faults")
        )
        assert a.events == b.events
        assert len(a) > 0

    def test_events_inside_horizon_and_sorted(self):
        schedule = FaultSchedule.generate(
            self.CLUSTER, 3600.0, RngStream.root(3).fork("faults")
        )
        times = [e.time for e in schedule.events]
        assert times == sorted(times)
        assert all(0 <= t < 3600.0 for t in times)

    def test_no_overlap_per_failure_process(self):
        schedule = FaultSchedule.generate(
            self.CLUSTER, 86400.0, RngStream.root(5).fork("faults")
        )
        by_process: dict[tuple, float] = {}
        for event in schedule.events:
            process = (event.kind, event.target)
            assert event.time >= by_process.get(process, 0.0)
            by_process[process] = event.end_time

    #: Every rate on: server, client and partition outages plus all
    #: three disk-fault kinds.
    ALL_RATES = FaultConfig(
        server_crash_rate=1.0, client_crash_rate=0.5, partition_rate=2.0,
        disk_corruption_rate=0.5, disk_torn_write_rate=0.5,
        disk_lost_write_rate=0.5,
    )
    GROUP_SIZES = (3, 2, 2, 1)

    def _all_rates(self, group_sizes=(), owned_groups=None) -> FaultSchedule:
        config = ClusterConfig(
            client_count=8, num_servers=4,
            client_groups=max(1, len(group_sizes)),
            client_group_sizes=group_sizes, faults=self.ALL_RATES,
        )
        return FaultSchedule.generate(
            config, 86400.0, RngStream.root(1991).fork("faults"),
            owned_groups=owned_groups,
        )

    @staticmethod
    def _digest(schedule: FaultSchedule) -> str:
        return hashlib.sha256(
            repr(schedule.events + schedule.disk_events).encode()
        ).hexdigest()

    def test_one_group_schedule_is_pinned(self):
        """The exact events of a one-group, four-server schedule:
        server 0 on the historical ``"server"`` stream and target."""
        schedule = self._all_rates()
        assert (len(schedule.events), len(schedule.disk_events)) == (588, 140)
        assert any(e.target == SERVER_TARGET for e in schedule.events)
        assert self._digest(schedule) == (
            "1f1b1a693356579dd1fa8ea8e20d311e771b5543c6454f223d1cd4a77c162b9e"
        )

    def test_grouped_schedule_is_pinned(self):
        """The exact events of a four-group schedule: every stream under
        its group's fork, every server crash on an explicit id."""
        schedule = self._all_rates(group_sizes=self.GROUP_SIZES)
        assert (len(schedule.events), len(schedule.disk_events)) == (591, 136)
        assert all(e.target >= 0 for e in schedule.events)
        assert self._digest(schedule) == (
            "8f4854c939320a08567583f9f667f6012fc658292a044e9fdb79c4ec9d20f706"
        )

    def test_owned_group_schedules_compose_to_the_full_schedule(self):
        full = self._all_rates(group_sizes=self.GROUP_SIZES)
        parts = [
            self._all_rates(group_sizes=self.GROUP_SIZES, owned_groups=(g,))
            for g in range(len(self.GROUP_SIZES))
        ]
        assert all(len(part) for part in parts)
        assert FaultSchedule(
            [e for part in parts for e in part.events],
            [e for part in parts for e in part.disk_events],
        ) == full

    def test_explicit_schedule_sorts_events(self):
        late = FaultEvent(50.0, FaultKind.PARTITION, 0, 5.0)
        early = FaultEvent(10.0, FaultKind.PARTITION, 1, 5.0)
        assert FaultSchedule([late, early]).events == [early, late]


# --- server crash and the reopen protocol -----------------------------------------


class TestServerCrash:
    def test_crash_loses_volatile_state_keeps_versions(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        client.open_file(0.0, 7, will_write=True)
        client.write(0.0, 7, 0, 8 * KB)
        version_before = cluster.servers[0].state_of(7).version

        cluster.crash_server(down_until=50.0, server_id=0)
        state = cluster.servers[0].state_of(7)
        assert not cluster.servers[0].up
        assert not state.writers and not state.readers
        assert state.last_writer == -1
        assert len(cluster.servers[0].cache) == 0
        assert state.version == version_before  # durable on disk
        assert cluster.servers[0].counters.crashes == 1
        # Downtime is booked from real timestamps at recovery, not
        # predicted at crash time.
        assert cluster.servers[0].counters.downtime_seconds == 0.0
        cluster.engine.run_until(50.0)
        cluster.recover_server(0)
        assert cluster.servers[0].counters.downtime_seconds == pytest.approx(50.0)

    def test_reopen_reregisters_open_files(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        client.open_file(0.0, 7, will_write=True)
        client.open_file(0.0, 9, will_write=False)

        cluster.engine.run_until(10.0)
        cluster.crash_server(down_until=20.0, server_id=0)
        cluster.engine.run_until(20.0)
        cluster.recover_server(0)

        assert cluster.servers[0].counters.reopen_rpcs == 2
        assert cluster.servers[0].state_of(7).writers == {0: 1}
        assert cluster.servers[0].state_of(9).readers == {0: 1}
        assert client.counters.reopen_rpcs == 2

    def test_recovery_revalidates_every_cached_file(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        for file_id in (3, 4, 5):
            client.open_file(0.0, file_id, will_write=False)
            client.read(0.0, file_id, 0, 4 * KB)
            client.close_file(0.0, file_id, wrote=False)

        cluster.crash_server(down_until=30.0, server_id=0)
        cluster.engine.run_until(30.0)
        cluster.recover_server(0)

        resident = set(client.cache.resident_files())
        assert client.counters.revalidate_rpcs >= len(resident)
        # Versions matched, so the blocks survived.
        assert client.counters.blocks_invalidated_on_recovery == 0
        assert resident == {3, 4, 5}

    def test_recovery_invalidates_stale_cached_files(self):
        cluster = make_cluster()
        reader, writer = cluster.clients
        reader.open_file(0.0, 11, will_write=False)
        reader.read(0.0, 11, 0, 4 * KB)
        reader.close_file(0.0, 11, wrote=False)

        cluster.crash_server(down_until=30.0, server_id=0)
        # While the reader is cut off, the file's durable version moves
        # on (simulate by bumping the stamp the way an accepted write
        # elsewhere would).
        cluster.servers[0].state_of(11).version += 1
        cluster.engine.run_until(30.0)
        cluster.recover_server(0)

        assert reader.counters.blocks_invalidated_on_recovery == 1
        assert (11, 0) not in reader.cache

    def test_recovery_replays_overdue_writes(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        client.open_file(1.0, 7, will_write=True)
        client.write(1.0, 7, 0, 4 * KB)

        cluster.engine.run_until(10.0)
        cluster.crash_server(down_until=60.0, server_id=0)
        cluster.engine.run_until(60.0)
        assert client.cache.dirty_count == 1  # daemon was gated off
        cluster.recover_server(0)

        assert client.counters.blocks_cleaned_recovery == 1
        assert client.cache.dirty_count == 0
        assert client.counters.lost_dirty_blocks == 0

    def test_write_shared_file_is_redisabled_after_reopen(self):
        cluster = make_cluster()
        writer, reader = cluster.clients
        writer.open_file(0.0, 13, will_write=True)
        reader.open_file(0.0, 13, will_write=False)
        assert 13 in writer._uncacheable

        cluster.crash_server(down_until=10.0, server_id=0)
        cluster.engine.run_until(10.0)
        cluster.recover_server(0)

        assert cluster.servers[0].state_of(13).uncacheable
        assert 13 in writer._uncacheable and 13 in reader._uncacheable


# --- client crash ------------------------------------------------------------------


class TestClientCrash:
    def test_dirty_data_dies_with_the_machine(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        client.open_file(0.0, 7, will_write=True)
        client.write(0.0, 7, 0, 10 * KB)
        assert client.cache.dirty_count == 3

        cluster.crash_client(client)
        assert client.counters.lost_dirty_blocks == 3
        assert client.counters.lost_dirty_bytes > 0
        assert len(client.cache) == 0
        assert cluster.servers[0].state_of(7).last_writer == -1
        assert cluster.servers[0].state_of(7).writers == {}

    def test_epoch_bump_drops_stale_closes(self):
        from repro.trace.records import (
            AccessMode,
            CloseRecord,
            OpenRecord,
            WriteRunRecord,
        )

        schedule = FaultSchedule(
            [FaultEvent(10.0, FaultKind.CLIENT_CRASH, 0, 20.0)]
        )
        records = [
            OpenRecord(time=1.0, open_id=1, file_id=7, server_id=0,
                       client_id=0, mode=AccessMode.WRITE),
            WriteRunRecord(time=2.0, open_id=1, file_id=7, server_id=0,
                           client_id=0, offset=0, length=4 * KB),
            # The machine reboots at t=30; this close's open died with it.
            CloseRecord(time=40.0, open_id=1, file_id=7, server_id=0,
                        client_id=0),
        ]
        result = run_cluster_on_trace(
            ColumnarTrace.from_records(records), 60.0,
            ClusterConfig(client_count=2), seed=5,
            fault_schedule=schedule,
        )
        counters = result.final_counters[0]
        assert counters.crashes == 1
        assert counters.ops_dropped_while_down == 1
        assert counters.lost_dirty_blocks == 1

    def test_ops_to_a_dead_client_are_dropped(self):
        from repro.trace.records import AccessMode, OpenRecord, ReadRunRecord

        schedule = FaultSchedule(
            [FaultEvent(5.0, FaultKind.CLIENT_CRASH, 0, 100.0)]
        )
        records = [
            OpenRecord(time=10.0, open_id=1, file_id=3, server_id=0,
                       client_id=0, mode=AccessMode.READ),
            ReadRunRecord(time=11.0, open_id=1, file_id=3, server_id=0,
                          client_id=0, offset=0, length=KB),
        ]
        result = run_cluster_on_trace(
            ColumnarTrace.from_records(records), 50.0,
            ClusterConfig(client_count=2), seed=5,
            fault_schedule=schedule,
        )
        counters = result.final_counters[0]
        assert counters.ops_dropped_while_down == 2
        assert counters.file_open_ops == 0
        assert counters.cache_read_ops == 0


# --- partitions and degraded modes -------------------------------------------------


class TestPartition:
    def test_stale_reads_are_counted(self):
        cluster = make_cluster()
        reader, writer = cluster.clients
        reader.open_file(0.0, 5, will_write=False)
        reader.read(0.0, 5, 0, 4 * KB)
        reader.close_file(0.0, 5, wrote=False)

        cluster.partition_client(reader, until=100.0)
        # The version moves on while the reader is cut off.
        writer.open_file(1.0, 5, will_write=True)
        writer.write(1.0, 5, 0, 4 * KB)
        writer.close_file(1.0, 5, wrote=True)

        reader.read(2.0, 5, 0, 4 * KB)
        assert reader.counters.stale_reads_served == 1
        assert reader.counters.stale_read_bytes == 4 * KB

    def test_stall_mode_books_retries_and_stall_time(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        cluster.partition_client(client, until=10.0)
        client.open_file(0.0, 5, will_write=False)
        assert client.counters.rpc_retries > 0
        assert client.counters.stall_seconds == pytest.approx(10.0)
        # The op itself executed (stall semantics): the server saw it.
        assert cluster.servers[0].counters.open_rpcs == 1

    def test_fail_mode_drops_data_ops_after_timeout(self):
        cluster = make_cluster(
            faults=FaultConfig(degraded_mode="fail", rpc_timeout=5.0)
        )
        client = cluster.clients[0]
        cluster.partition_client(client, until=100.0)
        client.open_file(0.0, 5, will_write=False)  # naming op: stalls
        before = cluster.servers[0].counters.block_reads
        client.read(0.0, 5, 0, 4 * KB)
        assert client.counters.rpc_failed_ops == 1
        assert cluster.servers[0].counters.block_reads == before
        assert client.counters.cache_read_misses == 1  # miss still counted
        assert len(client.cache) == 0  # nothing crossed the wire

    def test_heal_revalidates_and_replays(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        client.open_file(1.0, 7, will_write=True)
        client.write(1.0, 7, 0, 4 * KB)
        client.close_file(1.0, 7, wrote=True)

        # End the partition off the daemon's 5-second grid so the heal
        # itself (not a coincident scan) does the replaying.
        cluster.partition_client(client, until=57.5)
        cluster.engine.run_until(57.5)
        assert client.cache.dirty_count == 1  # daemon gated off
        cluster.heal_client(client)
        assert client.counters.blocks_cleaned_recovery == 1
        assert client.counters.revalidate_rpcs > 0

    def test_overlapping_partitions_extend_not_recount(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        cluster.partition_client(client, until=50.0)
        cluster.engine.run_until(10.0)
        cluster.partition_client(client, until=80.0)
        assert client.counters.partitions == 1
        assert client.partition_until == 80.0

    def test_failed_recall_keeps_writer_on_record(self):
        cluster = make_cluster()
        writer, reader = cluster.clients
        writer.open_file(0.0, 7, will_write=True)
        writer.write(0.0, 7, 0, 4 * KB)
        writer.close_file(0.0, 7, wrote=True)

        cluster.partition_client(writer, until=100.0)
        reader.open_file(1.0, 7, will_write=False)
        assert cluster.servers[0].counters.recalls_failed == 1
        assert cluster.servers[0].counters.recalls_issued == 0
        # The dirty data is still on the writer, still on record.
        assert cluster.servers[0].state_of(7).last_writer == 0
        assert writer.cache.dirty_count == 1


# --- the injector ------------------------------------------------------------------


class TestFaultInjector:
    def test_scripted_server_crash_through_replay(self, small_trace):
        mid = float(small_trace.columnar.times[small_trace.record_count // 2])
        schedule = FaultSchedule(
            [FaultEvent(mid, FaultKind.SERVER_CRASH, SERVER_TARGET, 120.0)]
        )
        result = run_cluster_on_trace(
            small_trace.columnar,
            small_trace.duration,
            ClusterConfig(client_count=4),
            seed=9,
            fault_schedule=schedule,
        )
        assert result.server_counters.crashes == 1
        assert result.server_counters.downtime_seconds == pytest.approx(120.0)
        total_revalidate = sum(
            c.revalidate_rpcs for c in result.final_counters.values()
        )
        assert total_revalidate == result.server_counters.revalidate_rpcs
        assert total_revalidate > 0

    def test_generated_schedule_arms_automatically(self, small_trace):
        config = ClusterConfig(
            client_count=4,
            faults=FaultConfig(server_crash_rate=2.0, server_downtime=60.0),
        )
        result = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration, config, seed=9
        )
        assert result.server_counters.crashes > 0

    def test_recovery_past_end_stays_down(self):
        schedule = FaultSchedule(
            [FaultEvent(10.0, FaultKind.SERVER_CRASH, SERVER_TARGET, 1e6)]
        )
        cluster = Cluster(
            ClusterConfig(client_count=2), seed=3, fault_schedule=schedule
        )
        result = cluster.replay(ColumnarTrace.from_records([]), 100.0)
        assert not cluster.servers[0].up
        assert result.server_counters.crashes == 1
