"""Cross-component invariants: independent parts of the system must
agree about the same quantities."""

from repro.consistency import compute_actions
from repro.fs import ClusterConfig, run_cluster_on_trace
from repro.fs.counters import ClientCounters
from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace
from repro.trace.records import OpenRecord
from repro.workload import STANDARD_PROFILES, generate_trace

from reference_trace import materialize


def aggregate(result) -> ClientCounters:
    return ClientCounters.aggregate(result.final_counters.values())


class TestClientServerAgreement:
    def test_client_and_server_count_the_same_block_reads(self, cluster_result):
        total = aggregate(cluster_result)
        server = cluster_result.server_counters
        # Every client fetch RPC lands at the server exactly once.
        assert server.block_read_bytes == (
            total.cache_read_miss_bytes + total.write_fetch_bytes
        )

    def test_client_and_server_count_the_same_writebacks(self, cluster_result):
        total = aggregate(cluster_result)
        server = cluster_result.server_counters
        assert server.block_write_bytes == total.bytes_written_to_server

    def test_passthrough_agreement(self, cluster_result):
        total = aggregate(cluster_result)
        server = cluster_result.server_counters
        assert server.passthrough_read_bytes == (
            total.shared_bytes_read + total.directory_bytes_read
        )
        assert server.passthrough_write_bytes == total.shared_bytes_written

    def test_paging_agreement(self, cluster_result):
        total = aggregate(cluster_result)
        server = cluster_result.server_counters
        assert server.paging_bytes == (
            total.paging_backing_bytes_read + total.paging_backing_bytes_written
        )

    def test_opens_counted_once_per_open_record(
        self, small_trace, cluster_result
    ):
        opens = sum(1 for r in materialize(small_trace.columnar) if r.kind == "open")
        assert cluster_result.server_counters.open_rpcs == opens
        total = aggregate(cluster_result)
        assert total.file_open_ops == opens

    def test_cache_pages_never_exceed_vm_grant(self, small_trace):
        """During a replay the block count stays within the VM grant.

        Every handler is wrapped to check every client right after it
        runs -- i.e. after the real hot loop (cached ``next_wake`` skip
        included) dispatched the record.  Handlerless kinds stay
        unwrapped, as the loop skips them."""
        from repro.fs.cluster import Cluster

        cluster = Cluster(ClusterConfig(client_count=4), seed=11)
        records = materialize(small_trace.columnar)[:20_000]
        checked = 0

        def checking(handler):
            def check(*args):
                nonlocal checked
                handler(*args)
                for client in cluster.clients:
                    assert len(client.cache) + client._spare_pages == (
                        client.vm.cache
                    )
                checked += 1

            return check

        cluster._handlers = tuple(
            None if handler is None else checking(handler)
            for handler in cluster._handlers
        )
        handled = sum(
            1 for record in records
            if cluster._handlers[RECORD_CLASSES.index(type(record))]
            is not None
        )
        result = cluster.replay(
            ColumnarTrace.from_records(records), records[-1].time
        )
        assert 0 < checked == handled
        assert result.records_replayed == len(records)


class TestAnalysisSimulatorAgreement:
    def test_recall_upper_bound_vs_simulator(self):
        """The trace-level recall estimate (Table 10) is an upper bound
        on the recalls the simulator actually issues."""
        trace = generate_trace(STANDARD_PROFILES[0], seed=31, scale=0.05)
        actions = compute_actions(trace.columnar)
        result = run_cluster_on_trace(
            trace.columnar, trace.duration, ClusterConfig(client_count=4),
            seed=5,
        )
        simulated = result.server_counters.recalls_issued
        # The analysis counts every open in the flush horizon; the
        # simulator skips those whose data already flushed or whose
        # blocks were never dirty.  Allow slack for client-id folding
        # (4 simulated clients stand in for 40 trace clients).
        assert simulated <= actions.recall_opens * 2

    def test_write_sharing_detected_by_both(self, shared_heavy_trace):
        actions = compute_actions(shared_heavy_trace.columnar)
        result = run_cluster_on_trace(
            shared_heavy_trace.columnar, shared_heavy_trace.duration,
            ClusterConfig(client_count=4), seed=5,
        )
        assert actions.write_sharing_opens > 0
        assert result.server_counters.concurrent_write_sharing_opens > 0

    def test_all_profiles_generate_valid_traces(self):
        """Every standard profile produces a legal, analyzable trace."""
        for index, profile in enumerate(STANDARD_PROFILES):
            trace = generate_trace(profile, seed=100 + index, scale=0.03)
            records = materialize(trace.columnar)
            assert records, profile.name
            opens = [r for r in records if isinstance(r, OpenRecord)]
            assert opens, profile.name
            assert trace.validation.records == len(records)
