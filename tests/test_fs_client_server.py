"""Tests for the client kernel, server, and their consistency protocol."""

import pytest

from repro.common.units import MB
from repro.fs.config import ClusterConfig
from repro.fs.servercache import ServerCache
from rigs import build_rig


def make_rig(client_count=2, **config_kwargs):
    """A small engine + server + N clients rig."""
    config = ClusterConfig(client_count=client_count, **config_kwargs)
    engine, server, clients = build_rig(config)

    def fan_out(file_id, cacheable):
        for client in clients:
            client.set_cacheability(file_id, cacheable)

    server.on_cacheability_change = fan_out
    return config, engine, server, clients


class TestClientReadsAndWrites:
    def test_read_miss_then_hit(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=False)
        client.read(1.0, 1, 0, 4096)
        assert client.counters.cache_read_misses == 1
        client.read(2.0, 1, 0, 4096)
        assert client.counters.cache_read_ops == 2
        assert client.counters.cache_read_misses == 1  # second is a hit

    def test_read_spanning_blocks(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=False)
        client.read(1.0, 1, 0, 10_000)  # 3 blocks
        assert client.counters.cache_read_ops == 3
        assert client.counters.cache_read_misses == 3
        assert client.counters.cache_read_miss_bytes == 10_000

    def test_write_creates_dirty_blocks(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 8192)
        assert client.cache.dirty_count == 2
        assert client.counters.cache_write_bytes == 8192
        assert client.counters.bytes_written_to_server == 0  # delayed

    def test_full_block_write_needs_no_fetch(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 4096)
        assert client.counters.write_fetch_ops == 0

    def test_partial_overwrite_of_nonresident_block_fetches(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        # Write into the middle of a block that is not resident.
        client.write(1.0, 1, 100, 50)
        assert client.counters.write_fetch_ops == 1
        assert client.counters.write_fetch_bytes == 4096

    def test_append_from_block_start_needs_no_fetch(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 100)  # partial but from block start
        assert client.counters.write_fetch_ops == 0

    def test_migrated_accounting(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=False)
        client.read(1.0, 1, 0, 4096, migrated=True)
        assert client.counters.migrated_read_ops == 1
        assert client.counters.migrated_read_misses == 1
        client.write(2.0, 1, 0, 4096, migrated=True)
        assert client.counters.migrated_write_ops == 1


class TestDelayedWrites:
    def test_daemon_writes_back_after_30s(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 4096)
        engine.run_until(20.0)
        assert client.counters.bytes_written_to_server == 0
        engine.run_until(40.0)
        assert client.counters.bytes_written_to_server == 4096
        assert client.counters.blocks_cleaned_delay == 1
        assert client.cache.dirty_count == 0

    def test_whole_file_flushed_together(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 4096)
        engine.run_until(25.0)
        client.write(25.5, 1, 4096, 4096)  # fresh block, same file
        engine.run_until(36.0)  # first scan after block 1 turns 30s old
        # The first block hit 30s; the second (only ~10s dirty) goes
        # with it because the whole file is flushed together.
        assert client.counters.blocks_cleaned_delay == 2

    def test_fsync_writes_through_immediately(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 4096)
        client.close_file(1.5, 1, wrote=True, fsync=True)
        assert client.counters.blocks_cleaned_fsync == 1
        assert client.counters.bytes_written_to_server == 4096

    def test_write_through_config(self):
        _, engine, server, (client, _) = make_rig(write_through=True)
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 4096)
        assert client.counters.bytes_written_to_server == 4096
        assert client.cache.dirty_count == 0

    def test_delete_absorbs_dirty_data(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 4096)
        client.close_file(1.5, 1, wrote=True)
        client.delete_file(2.0, 1)
        engine.run_until(60.0)
        assert client.counters.bytes_written_to_server == 0
        assert client.counters.dirty_bytes_discarded == 4096

    def test_writeback_extent_rule(self):
        """Appending 100 bytes writes back only the block prefix."""
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 100)
        engine.run_until(40.0)
        assert client.counters.bytes_written_to_server == 100

    def test_fetched_block_writes_back_whole(self):
        _, engine, server, (client, _) = make_rig()
        client.open_file(0.0, 1, will_write=False)
        client.read(1.0, 1, 0, 4096)
        client.write(2.0, 1, 100, 10)  # dirty a fetched block
        engine.run_until(40.0)
        assert client.counters.bytes_written_to_server == 4096


class TestConsistencyProtocol:
    def test_recall_on_cross_client_open(self):
        _, engine, server, (a, b) = make_rig()
        a.open_file(0.0, 1, will_write=True)
        a.write(1.0, 1, 0, 4096)
        a.close_file(1.5, 1, wrote=True)
        # B opens before A's delayed write fires: the server recalls.
        b.open_file(5.0, 1, will_write=False)
        assert server.counters.recalls_issued == 1
        assert a.counters.blocks_cleaned_recall == 1
        assert a.cache.dirty_count == 0

    def test_no_recall_after_writeback(self):
        _, engine, server, (a, b) = make_rig()
        a.open_file(0.0, 1, will_write=True)
        a.write(1.0, 1, 0, 4096)
        a.close_file(1.5, 1, wrote=True)
        engine.run_until(60.0)  # delayed write completes
        b.open_file(61.0, 1, will_write=False)
        assert server.counters.recalls_issued == 0

    def test_concurrent_write_sharing_disables_caching(self):
        _, engine, server, (a, b) = make_rig()
        a.open_file(0.0, 1, will_write=True)
        b.open_file(1.0, 1, will_write=False)
        assert server.counters.concurrent_write_sharing_opens == 1
        # Both clients now bypass their caches for file 1.
        b.read(2.0, 1, 0, 100)
        assert b.counters.shared_bytes_read == 100
        assert b.counters.cache_read_ops == 0
        a.write(3.0, 1, 0, 100)
        assert a.counters.shared_bytes_written == 100

    def test_cacheable_again_after_all_close(self):
        _, engine, server, (a, b) = make_rig()
        a.open_file(0.0, 1, will_write=True)
        b.open_file(1.0, 1, will_write=False)
        a.close_file(2.0, 1, wrote=True)
        b.read(3.0, 1, 0, 100)
        assert b.counters.shared_bytes_read == 100  # still uncacheable
        b.close_file(4.0, 1, wrote=False)
        # Everyone closed: caching re-enabled.
        b.open_file(5.0, 1, will_write=False)
        b.read(6.0, 1, 0, 100)
        assert b.counters.cache_read_ops == 1

    def test_stale_cache_flushed_on_version_change(self):
        _, engine, server, (a, b) = make_rig()
        b.open_file(0.0, 1, will_write=False)
        b.read(1.0, 1, 0, 4096)
        b.close_file(2.0, 1, wrote=False)
        # A writes a new version.
        a.open_file(10.0, 1, will_write=True)
        a.write(11.0, 1, 0, 4096)
        a.close_file(12.0, 1, wrote=True)
        engine.run_until(60.0)
        # B reopens: its cached block is stale and must be refetched.
        b.open_file(61.0, 1, will_write=False)
        b.read(62.0, 1, 0, 4096)
        assert b.counters.cache_read_misses == 2

    def test_own_write_does_not_invalidate_self(self):
        _, engine, server, (a, _) = make_rig()
        a.open_file(0.0, 1, will_write=True)
        a.write(1.0, 1, 0, 4096)
        a.close_file(2.0, 1, wrote=True)
        a.open_file(3.0, 1, will_write=False)
        a.read(4.0, 1, 0, 4096)
        assert a.counters.cache_read_misses == 0  # own data still valid

    def test_close_with_fsync_prevents_recall(self):
        _, engine, server, (a, b) = make_rig()
        a.open_file(0.0, 1, will_write=True)
        a.write(1.0, 1, 0, 4096)
        a.close_file(1.5, 1, wrote=True, fsync=True)
        b.open_file(2.0, 1, will_write=False)
        assert server.counters.recalls_issued == 0
        assert a.counters.blocks_cleaned_fsync == 1


class TestServer:
    def test_double_register_raises(self):
        from repro.common.errors import ConsistencyError

        _, engine, server, (a, _) = make_rig()
        with pytest.raises(ConsistencyError):
            server.register_client(a)

    def test_rpc_counting(self):
        _, engine, server, (a, _) = make_rig()
        a.open_file(0.0, 1, will_write=False)
        a.read(1.0, 1, 0, 4096)
        a.close_file(2.0, 1, wrote=False)
        assert server.counters.open_rpcs == 1
        assert server.counters.block_reads == 1
        assert server.counters.rpc_count == 3  # open + fetch + close

    def test_invalidate_file_clears_state(self):
        _, engine, server, (a, _) = make_rig()
        a.open_file(0.0, 1, will_write=True)
        a.close_file(1.0, 1, wrote=True)
        server.invalidate_file(1)
        state = server.state_of(1)
        assert state.last_writer == -1


class TestServerCache:
    def test_hit_miss_accounting(self):
        cache = ServerCache(capacity_bytes=4096 * 4, block_size=4096)
        assert not cache.access(1, 0, now=1.0)
        assert cache.access(1, 0, now=2.0)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_at_capacity(self):
        cache = ServerCache(capacity_bytes=4096 * 2, block_size=4096)
        cache.access(1, 0, 1.0)
        cache.access(1, 1, 2.0)
        cache.access(1, 2, 3.0)  # evicts (1, 0)
        assert len(cache) == 2
        assert not cache.access(1, 0, 4.0)  # miss again

    def test_invalidate_file(self):
        cache = ServerCache(capacity_bytes=MB, block_size=4096)
        cache.access(1, 0, 1.0)
        cache.access(2, 0, 1.0)
        assert cache.invalidate_file(1) == 1
        assert len(cache) == 1

    def test_bad_geometry_raises(self):
        from repro.common.errors import CacheError

        with pytest.raises(CacheError):
            ServerCache(capacity_bytes=0, block_size=4096)
