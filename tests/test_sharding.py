"""Sharded-cluster tests: placement, fault isolation, and accounting.

The paper's cluster had four file servers; these tests cover the shard
dimension end to end:

* the seeded placement hash is deterministic, covers every shard, and
  pins files with no server affinity (``file_id < 0``) to server 0;
* overlapping server-crash faults book ``crashes`` and
  ``downtime_seconds`` once, from real timestamps (the Table R bug);
* write-sharing bookkeeping is identical no matter what order clients
  registered in;
* crashing one shard leaves every other shard's counters byte-identical
  to a fault-free replay (one shard down must not stall the others);
* the single-server fast path reports its one shard as the aggregate,
  and the per-server report sections render one column per server.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import compute_table1
from repro.analysis.sharded import (
    per_server_table1,
    render_table1_per_server,
    render_table2_per_server,
    render_table7_per_server,
)
from repro.common.errors import ConfigError
from repro.common.units import MB
from repro.fs import (
    ClusterConfig,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    Placement,
    Server,
    ServerCounters,
    run_cluster_on_trace,
)

SHARD_SEEDS = (11, 23, 37, 41, 53)


class TestPlacement:
    def test_deterministic_across_instances(self):
        one = Placement(4, seed=7)
        two = Placement(4, seed=7)
        assert [one.shard_of(i) for i in range(1000)] == [
            two.shard_of(i) for i in range(1000)
        ]

    def test_covers_every_shard_roughly_evenly(self):
        placement = Placement(4)
        counts = [0, 0, 0, 0]
        for file_id in range(4000):
            counts[placement.shard_of(file_id)] += 1
        assert min(counts) > 0
        # A seeded 64-bit mix should not be grossly lopsided.
        assert max(counts) < 2 * min(counts)

    def test_single_server_is_identity(self):
        placement = Placement(1)
        assert all(placement.shard_of(i) == 0 for i in range(-5, 100))

    def test_unplaced_files_land_on_server_zero(self):
        assert Placement(4).shard_of(-1) == 0

    def test_seed_changes_the_layout(self):
        base = [Placement(4, seed=0).shard_of(i) for i in range(256)]
        other = [Placement(4, seed=1).shard_of(i) for i in range(256)]
        assert base != other

    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigError):
            Placement(0)


class TestReplicaPlacement:
    """Property suite for ``Placement.replicas_of`` (the replication
    layer's placement function)."""

    @given(
        file_id=st.integers(min_value=0, max_value=2**62),
        num_servers=st.integers(min_value=1, max_value=8),
        r=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_r_distinct_servers_primary_first(
        self, file_id, num_servers, r, seed
    ):
        r = min(r, num_servers)
        placement = Placement(num_servers, seed=seed)
        replicas = placement.replicas_of(file_id, r)
        assert len(replicas) == r
        assert len(set(replicas)) == r, "replicas must be distinct servers"
        assert replicas[0] == placement.shard_of(file_id)
        assert all(0 <= s < num_servers for s in replicas)

    @given(
        file_id=st.integers(min_value=0, max_value=2**62),
        num_servers=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_stable_across_instances_and_prefix_stable(
        self, file_id, num_servers, seed
    ):
        """Two placements with the same seed agree, and growing ``r``
        only appends -- a file's first k replicas never move when the
        replication factor changes (re-replication targets come from
        the same chain)."""
        one = Placement(num_servers, seed=seed)
        two = Placement(num_servers, seed=seed)
        full = one.replicas_of(file_id, num_servers)
        assert sorted(full) == list(range(num_servers))
        for r in range(1, num_servers + 1):
            chain = two.replicas_of(file_id, r)
            assert chain == full[:r]

    @given(
        num_servers=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_replica_load_within_2x_of_mean(self, num_servers, seed):
        r = min(2, num_servers)
        placement = Placement(num_servers, seed=seed)
        counts = [0] * num_servers
        files = 2000
        for file_id in range(files):
            for server_id in placement.replicas_of(file_id, r):
                counts[server_id] += 1
        mean = files * r / num_servers
        assert max(counts) < 2 * mean
        assert min(counts) > mean / 2

    def test_unplaced_files_take_the_first_r_servers(self):
        assert Placement(4).replicas_of(-1, 3) == (0, 1, 2)

    def test_rejects_out_of_range_replica_counts(self):
        placement = Placement(4)
        for r in (0, 5):
            with pytest.raises(ConfigError):
                placement.replicas_of(7, r)


@st.composite
def _slice_cases(draw):
    """A cluster size, a divisor group count, one group, a seed, a file
    id (sentinels included) and a replica count that fits the slice."""
    num_servers = draw(st.integers(min_value=1, max_value=12))
    groups = draw(st.sampled_from(
        [d for d in range(1, num_servers + 1) if num_servers % d == 0]
    ))
    group = draw(st.integers(min_value=0, max_value=groups - 1))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    file_id = draw(st.integers(min_value=-8, max_value=2**62))
    r = draw(st.integers(min_value=1, max_value=num_servers // groups))
    return num_servers, groups, group, seed, file_id, r


class TestGroupView:
    """A group view is the slice-sized placement shifted onto the
    group's slice, and the one-group view is the placement itself."""

    @given(case=_slice_cases())
    @settings(max_examples=300, deadline=None)
    def test_view_is_slice_placement_shifted(self, case):
        num_servers, groups, group, seed, file_id, r = case
        size = num_servers // groups
        first = group * size
        view = Placement(num_servers, seed=seed).group_view(
            range(first, first + size)
        )
        local = Placement(size, seed=seed)
        assert view.chain_width == size
        assert view.shard_of(file_id) == first + local.shard_of(file_id)
        assert view.replicas_of(file_id, r) == tuple(
            first + server for server in local.replicas_of(file_id, r)
        )

    @given(case=_slice_cases())
    @settings(max_examples=100, deadline=None)
    def test_one_group_view_is_the_placement(self, case):
        num_servers, _, _, seed, file_id, r = case
        placement = Placement(num_servers, seed=seed)
        view = placement.group_view(range(num_servers))
        assert view.chain_width == placement.chain_width == num_servers
        assert view.shard_of(file_id) == placement.shard_of(file_id)
        assert view.replicas_of(file_id, r) == placement.replicas_of(file_id, r)


def _crash(time: float, duration: float, target: int = -1) -> FaultEvent:
    return FaultEvent(
        time=time, kind=FaultKind.SERVER_CRASH, target=target,
        duration=duration,
    )


class TestOverlappingCrashAccounting:
    """Regression: overlapping crash faults used to double-book both
    ``crashes`` and (predicted) ``downtime_seconds``."""

    def test_contained_overlap_books_one_crash_and_true_downtime(
        self, small_trace
    ):
        # Second crash lands while the server is already down and ends
        # inside the first outage: one crash, 50 seconds of downtime.
        schedule = FaultSchedule([_crash(10.0, 50.0), _crash(30.0, 10.0)])
        result = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4), seed=3, fault_schedule=schedule,
        )
        assert result.server_counters.crashes == 1
        assert result.server_counters.downtime_seconds == pytest.approx(50.0)

    def test_extending_overlap_books_the_real_outage_span(self, small_trace):
        # Second crash extends the outage: still one crash, and the
        # booked downtime runs to the *later* recovery (10.0 .. 130.0).
        schedule = FaultSchedule([_crash(10.0, 50.0), _crash(30.0, 100.0)])
        result = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4), seed=3, fault_schedule=schedule,
        )
        assert result.server_counters.crashes == 1
        assert result.server_counters.downtime_seconds == pytest.approx(120.0)


class _StubClient:
    """The minimal client surface the server's open/close path touches."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id

    def reachable(self, now: float) -> bool:
        return True

    def has_dirty_data(self, file_id: int) -> bool:
        return False

    def receive_recall(self, now: float, file_id: int) -> None:
        pass


def _drive_write_sharing(order: list[int]) -> ServerCounters:
    server = Server(cache_bytes=1 << 20, block_size=4096)
    for client_id in order:
        server.register_client(_StubClient(client_id))
    # Three concurrent writers, closed and reopened out of order.
    for client_id in (2, 0, 1):
        server.open_file(0.0, file_id=7, client_id=client_id, will_write=True)
    for client_id in (1, 2, 0):
        server.close_file(1.0, file_id=7, client_id=client_id, wrote=True)
    server.open_file(2.0, file_id=9, client_id=1, will_write=False)
    server.open_file(2.0, file_id=9, client_id=0, will_write=True)
    return server.counters


def test_write_sharing_counters_ignore_registration_order():
    base = _drive_write_sharing([0, 1, 2])
    assert base.concurrent_write_sharing_opens > 0
    assert base.cache_disables > 0
    for order in ([2, 1, 0], [1, 0, 2], [2, 0, 1]):
        assert _drive_write_sharing(order) == base


class TestShardIsolation:
    @pytest.mark.parametrize("seed", SHARD_SEEDS)
    def test_crashed_shard_does_not_perturb_the_others(
        self, seed, small_trace
    ):
        """One shard down mid-trace: the other shards' counters must be
        byte-identical to a fault-free replay of the same seed.

        The client block cache is shared across shards, so eviction
        pressure is the one legitimate coupling between them (blocks of
        a down shard linger dirty and shift the LRU victims).  The
        replay runs with caches large enough that nothing is evicted,
        so any remaining divergence on an up shard is a protocol-level
        isolation bug, which is what this test pins.
        """
        config = ClusterConfig(
            client_count=4, num_servers=3, client_memory=512 * MB
        )
        outage_start = small_trace.duration * 0.3
        outage = small_trace.duration * 0.1
        faulted = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration, config, seed=seed,
            fault_schedule=FaultSchedule(
                [_crash(outage_start, outage, target=1)]
            ),
        )
        clean = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration, config, seed=seed,
            fault_schedule=FaultSchedule([]),
        )
        assert faulted.per_server_counters[1].crashes == 1
        assert faulted.per_server_counters[1].downtime_seconds == (
            pytest.approx(outage)
        )
        for server_id in (0, 2):
            assert (
                faulted.per_server_counters[server_id]
                == clean.per_server_counters[server_id]
            ), f"shard {server_id} perturbed by shard 1's crash"

    def test_sharded_replay_is_deterministic(self, small_trace):
        config = ClusterConfig(client_count=4, num_servers=4)
        one = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration, config, seed=17
        )
        two = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration, config, seed=17
        )
        assert one.final_counters == two.final_counters
        assert one.per_server_counters == two.per_server_counters
        assert one.snapshots == two.snapshots


class TestPerServerAccounting:
    def test_single_server_shard_is_the_aggregate(self, small_trace):
        result = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4), seed=5,
        )
        assert len(result.per_server_counters) == 1
        assert result.per_server_counters[0] == result.server_counters

    def test_aggregate_is_the_shard_sum(self, small_trace):
        result = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4, num_servers=3), seed=5,
        )
        assert len(result.per_server_counters) == 3
        total = ServerCounters.aggregate(result.per_server_counters)
        assert total == result.server_counters
        # The shards genuinely split the load.
        active = [
            c for c in result.per_server_counters if c.rpc_count > 0
        ]
        assert len(active) > 1


@pytest.mark.obs
def test_observed_sharded_replay_integrates_per_server(small_trace):
    """The obs sampler keeps one timeseries per server shard, and each
    integrates exactly to that shard's end-of-run counters."""
    from repro.obs import Observation, ObsConfig

    from checkers import verify_integration

    obs = Observation(ObsConfig(sample_interval=120.0))
    result = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration,
        ClusterConfig(client_count=4, num_servers=3), seed=13, obs=obs,
    )
    names = {s.machine for s in obs.timeseries.server_series()}
    assert names == {"server-0", "server-1", "server-2"}
    problems = verify_integration(
        obs.timeseries, result.final_counters, result.server_counters,
        per_server_counters=result.per_server_counters,
    )
    assert problems == []


def test_replay_codec_round_trips_per_server_counters(small_trace):
    from repro.pipeline.codec import decode_artifact, encode_artifact

    result = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration,
        ClusterConfig(client_count=4, num_servers=3), seed=5,
    )
    decoded = decode_artifact(encode_artifact(result))
    assert decoded.per_server_counters == result.per_server_counters
    assert decoded.server_counters == result.server_counters
    assert decoded.final_counters == result.final_counters


class TestPerServerRendering:
    def test_tables_render_one_column_per_server(self, small_trace):
        placement = Placement(4)
        table1 = render_table1_per_server([small_trace], placement)
        table2 = render_table2_per_server([small_trace], placement)
        result = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4, num_servers=4), seed=5,
        )
        table7 = render_table7_per_server([result])
        for text in (table1, table2, table7):
            for server_id in range(4):
                assert f"server {server_id}" in text

    def test_table1_columns_partition_the_trace(self, small_trace):
        """Table 1a's server columns split every count and byte total of
        the trace's Table 1 row, and each server sees a subset of its
        users."""
        placement = Placement(4, seed=3)
        whole = compute_table1("t", small_trace.columnar, small_trace.duration)
        per_server = per_server_table1([small_trace], placement)
        for attr in (
            "bytes_read", "bytes_written", "directory_bytes_read",
            "open_events", "close_events", "reposition_events",
            "delete_events", "truncate_events", "shared_read_events",
            "shared_write_events",
        ):
            assert sum(getattr(s, attr) for s in per_server) == getattr(whole, attr)
        assert set().union(*(s.users for s in per_server)) == whole.users
        assert sum(s.open_events > 0 for s in per_server) == 4

    def test_per_server_activity_matches_the_record_split(self, small_trace):
        """Table 2a splits records by their file's server through the
        columns; each server sees what the record split handed it."""
        import reference_analysis as reference
        from reference_trace import materialize

        from repro.analysis.sharded import per_server_activity

        placement = Placement(4, seed=3)
        ours = per_server_activity([small_trace], placement)
        assert ours == reference.per_server_activity([small_trace], placement)
        shards = reference.shard_records(materialize(small_trace.columnar), placement)
        assert sum(map(len, shards)) == small_trace.record_count
        assert all(shards)
