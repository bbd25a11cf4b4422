"""Integration tests: replaying traces through the cluster simulator."""

import pytest

from repro.caching import (
    compute_cache_sizes,
    compute_cleaning,
    compute_effectiveness,
    compute_replacement,
    compute_server_traffic,
    compute_traffic_sources,
    machine_days,
)
from repro.fs import ClusterConfig, run_cluster_on_trace
from repro.fs.cluster import Cluster
from repro.fs.counters import ClientCounters
from repro.trace.columnar import ColumnarTrace

from reference_trace import materialize


def aggregate(result):
    return ClientCounters.aggregate(result.final_counters.values())


class TestReplay:
    def test_replays_all_records(self, small_trace, cluster_result):
        assert cluster_result.records_replayed == small_trace.record_count

    def test_replay_is_deterministic(self, small_trace):
        config = ClusterConfig(client_count=4)
        a = run_cluster_on_trace(small_trace.columnar, small_trace.duration,
                                 config, seed=9)
        b = run_cluster_on_trace(small_trace.columnar, small_trace.duration,
                                 config, seed=9)
        assert aggregate(a) == aggregate(b)
        assert a.server_counters == b.server_counters

    def test_byte_conservation(self, small_trace, cluster_result):
        """Raw file bytes seen by clients equal the trace's run bytes
        plus shared passthrough."""
        total = aggregate(cluster_result)
        records = materialize(small_trace.columnar)
        trace_reads = sum(r.length for r in records if r.kind == "read_run")
        trace_writes = sum(r.length for r in records if r.kind == "write_run")
        assert total.file_bytes_read + total.shared_bytes_read == trace_reads
        assert (total.file_bytes_written + total.shared_bytes_written
                == trace_writes)

    def test_server_bytes_not_more_than_raw_plus_fetch_overhead(
        self, cluster_result
    ):
        total = aggregate(cluster_result)
        # The caches must filter traffic, not amplify it wildly.
        assert total.server_bytes < 1.5 * total.raw_total_bytes

    def test_cache_sizes_within_memory(self, cluster_result):
        config = cluster_result.config
        for snaps in cluster_result.snapshots.values():
            for snap in snaps:
                assert snap.counters.cache_size_bytes <= config.client_memory

    def test_snapshots_cover_duration(self, cluster_result):
        for snaps in cluster_result.snapshots.values():
            assert snaps[0].time <= cluster_result.config.snapshot_interval
            assert snaps[-1].time == pytest.approx(cluster_result.duration)

    def test_counters_monotone_across_snapshots(self, cluster_result):
        for snaps in cluster_result.snapshots.values():
            previous = None
            for snap in snaps:
                if previous is not None:
                    assert (snap.counters.cache_read_ops
                            >= previous.counters.cache_read_ops)
                    assert (snap.counters.bytes_written_to_server
                            >= previous.counters.bytes_written_to_server)
                previous = snap

    def test_misses_not_more_than_ops(self, cluster_result):
        total = aggregate(cluster_result)
        assert total.cache_read_misses <= total.cache_read_ops
        assert total.migrated_read_misses <= total.migrated_read_ops
        assert total.paging_read_misses <= total.paging_read_ops

    def test_out_of_order_records_rejected(self, small_trace):
        from repro.common.errors import SimulationError

        # A columnar trace whose rows run backwards, as a corrupt
        # payload would decode: the replay loop's own check refuses it.
        head = ColumnarTrace.from_records(materialize(small_trace.columnar)[:100])
        backwards = ColumnarTrace(
            head.tables, head.kind_idx[::-1], head.row_idx[::-1],
            head.times[::-1],
        )
        cluster = Cluster(ClusterConfig(client_count=4), seed=1)
        with pytest.raises(SimulationError, match="out of order"):
            cluster.replay(backwards, small_trace.duration)

    def test_handlerless_records_are_counted_and_skipped(
        self, small_trace, cluster_result
    ):
        """Metamorphic: creates, repositions and per-request shared
        reads/writes have no replay handler, so removing them leaves
        every client and server counter identical and lowers only
        ``records_replayed`` -- by exactly the records removed."""
        skipped = {"create", "reposition", "shared_read", "shared_write"}
        kept = [r for r in materialize(small_trace.columnar) if r.kind not in skipped]
        removed = small_trace.record_count - len(kept)
        assert removed > 0
        result = run_cluster_on_trace(
            ColumnarTrace.from_records(kept), small_trace.duration,
            ClusterConfig(client_count=4), seed=9,
        )
        assert result.records_replayed == (
            cluster_result.records_replayed - removed
        )
        assert {
            cid: counters.digest()
            for cid, counters in result.final_counters.items()
        } == {
            cid: counters.digest()
            for cid, counters in cluster_result.final_counters.items()
        }
        assert [row.digest() for row in result.per_server_counters] == [
            row.digest() for row in cluster_result.per_server_counters
        ]
        assert result.server_counters == cluster_result.server_counters

    def test_paging_traffic_generated(self, cluster_result):
        total = aggregate(cluster_result)
        assert total.raw_paging_bytes > 0
        assert total.paging_backing_bytes_read > 0
        assert total.paging_code_bytes > 0

    def test_recalls_happen(self, cluster_result):
        assert cluster_result.server_counters.recalls_issued > 0

    def test_server_cache_hit_rate_positive(self, cluster_result):
        counters = cluster_result.server_counters
        assert counters.server_cache_hits > 0


class TestCachingTables:
    def test_machine_days_screen_idle(self, cluster_result):
        all_days = machine_days([cluster_result], only_active=False)
        active_days = machine_days([cluster_result])
        assert len(active_days) <= len(all_days)
        assert all(d.counters.file_open_ops >= 20 for d in active_days)

    def test_table4_plausible(self, cluster_result):
        result = compute_cache_sizes(machine_days([cluster_result]))
        assert result.size.count > 0
        assert 0 < result.size.mean < 24 * 1024 * 1024

    def test_table5_shares_sum_to_one(self, cluster_result):
        result = compute_traffic_sources(machine_days([cluster_result]))
        total = sum(stat.mean for stat in result.shares.values())
        assert total == pytest.approx(1.0, abs=0.01)

    def test_table6_ratios_in_range(self, cluster_result):
        result = compute_effectiveness(machine_days([cluster_result]))
        assert 0.0 < result.read_miss.mean < 1.0
        assert 0.0 < result.writeback_traffic.mean < 2.0
        assert 0.0 <= result.write_fetches.mean < 0.2

    def test_table7_shares_sum_to_one(self, cluster_result):
        result = compute_server_traffic(machine_days([cluster_result]))
        total = sum(stat.mean for stat in result.shares.values())
        assert total == pytest.approx(1.0, abs=0.01)
        assert 0.0 < result.global_server_bytes <= result.global_raw_bytes * 1.5

    def test_table8_shares_complementary(self, cluster_result):
        result = compute_replacement(machine_days([cluster_result]))
        if result.for_file_share.count:
            assert (result.for_file_share.mean + result.for_vm_share.mean
                    == pytest.approx(1.0))

    def test_table9_shares_sum_to_one(self, cluster_result):
        result = compute_cleaning(machine_days([cluster_result]))
        total = sum(stat.mean for stat in result.shares.values())
        assert total == pytest.approx(1.0, abs=0.01)

    def test_table9_delay_age_near_30s(self, cluster_result):
        result = compute_cleaning(machine_days([cluster_result]))
        age = result.ages["30-second delay"].mean
        assert 30.0 <= age <= 60.0

    def test_renderers_produce_text(self, cluster_result):
        days = machine_days([cluster_result])
        for compute in (
            compute_cache_sizes, compute_traffic_sources,
            compute_effectiveness, compute_server_traffic,
            compute_replacement, compute_cleaning,
        ):
            text = compute(days).render()
            assert "Table" in text
            assert len(text.splitlines()) > 4


class TestAblationConfigs:
    def test_write_through_increases_server_writes(self, small_trace):
        base = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4), seed=3,
        )
        through = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4, write_through=True), seed=3,
        )
        assert (aggregate(through).bytes_written_to_server
                > aggregate(base).bytes_written_to_server)

    def test_small_cache_fraction_increases_misses(self, small_trace):
        base = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4), seed=3,
        )
        tiny = run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=4, max_cache_fraction=0.05), seed=3,
        )
        assert (aggregate(tiny).cache_read_misses
                >= aggregate(base).cache_read_misses)

    def test_config_validation(self):
        with pytest.raises(Exception):
            ClusterConfig(client_count=0)
        with pytest.raises(Exception):
            ClusterConfig(fsync_probability=2.0)
        with pytest.raises(Exception):
            ClusterConfig(max_cache_fraction=0.0)
