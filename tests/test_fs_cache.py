"""Tests for the client block cache and the VM page-trading model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CacheError, SimulationError
from repro.fs.cache import BlockCache
from repro.fs.vm import VirtualMemory
from repro.sim import Engine, SharedTicker


def new_cache(block_size=4096):
    """A cache whose writeback daemon is a real, disarmed subscription
    that no engine run ever ticks."""
    daemon = SharedTicker(Engine(), 5.0).subscribe(lambda: None, armed=False)
    return BlockCache(block_size, daemon)


@pytest.fixture()
def cache():
    return new_cache()


def touch(cache, key, now):
    """A read hit, as the client's read path applies it inline."""
    cache.get(key).last_referenced = now
    cache._blocks.move_to_end(key)


class TestBlockCache:
    def test_insert_and_get(self, cache):
        block = cache.insert((1, 0), now=1.0)
        assert cache.get((1, 0)) is block
        assert (1, 0) in cache
        assert len(cache) == 1
        assert cache.size_bytes == 4096

    def test_double_insert_raises(self, cache):
        cache.insert((1, 0), now=1.0)
        with pytest.raises(CacheError):
            cache.insert((1, 0), now=2.0)

    def test_lru_order(self, cache):
        cache.insert((1, 0), now=1.0)
        cache.insert((1, 1), now=2.0)
        cache.insert((2, 0), now=3.0)
        assert cache.lru_block().key == (1, 0)
        touch(cache, (1, 0), now=4.0)
        assert cache.lru_block().key == (1, 1)

    def test_evict_lru_removes_oldest(self, cache):
        cache.insert((1, 0), now=1.0)
        cache.insert((1, 1), now=2.0)
        victim = cache.remove(cache.lru_block().key)
        assert victim.key == (1, 0)
        assert len(cache) == 1

    def test_empty_cache_has_no_lru_block(self, cache):
        assert cache.lru_block() is None

    def test_mark_dirty_and_clean(self, cache):
        cache.insert((1, 0), now=1.0)
        cache.mark_dirty((1, 0), now=2.0)
        assert cache.dirty_count == 1
        block = cache.get((1, 0))
        assert block.dirty
        assert block.dirty_since == 2.0
        cache.mark_clean((1, 0))
        assert cache.dirty_count == 0
        assert not block.dirty

    def test_redirty_keeps_original_dirty_since(self, cache):
        cache.insert((1, 0), now=1.0)
        cache.mark_dirty((1, 0), now=2.0)
        cache.mark_dirty((1, 0), now=9.0)
        assert cache.get((1, 0)).dirty_since == 2.0

    def test_dirty_after_clean_restamps(self, cache):
        cache.insert((1, 0), now=1.0)
        cache.mark_dirty((1, 0), now=2.0)
        cache.mark_clean((1, 0))
        cache.mark_dirty((1, 0), now=10.0)
        assert cache.get((1, 0)).dirty_since == 10.0

    def test_mark_dirty_nonresident_raises(self, cache):
        with pytest.raises(CacheError):
            cache.mark_dirty((1, 0), now=1.0)

    def test_mark_clean_nondirty_raises(self, cache):
        cache.insert((1, 0), now=1.0)
        with pytest.raises(CacheError):
            cache.mark_clean((1, 0))

    def test_dirty_blocks_older_than(self, cache):
        cache.insert((1, 0), now=0.0)
        cache.insert((1, 1), now=0.0)
        cache.mark_dirty((1, 0), now=1.0)
        cache.mark_dirty((1, 1), now=50.0)
        old = cache.dirty_blocks_older_than(30.0)
        assert [b.key for b in old] == [(1, 0)]

    def test_dirty_age_query_after_clean_and_redirty(self, cache):
        """The early-exit scan stays correct as blocks leave and re-enter
        the dirty set (re-dirtied blocks re-stamp at the tail)."""
        for index in range(4):
            cache.insert((1, index), now=0.0)
            cache.mark_dirty((1, index), now=float(index))
        cache.mark_clean((1, 1))
        cache.mark_dirty((1, 1), now=10.0)  # back, with a newer stamp
        old = cache.dirty_blocks_older_than(2.5)
        assert [b.key for b in old] == [(1, 0), (1, 2)]
        assert [b.key for b in cache.dirty_blocks_older_than(100.0)] == [
            (1, 0),
            (1, 2),
            (1, 3),
            (1, 1),
        ]

    def test_dirty_age_query_with_nonmonotonic_stamps(self, cache):
        """A caller stamping out of order loses the early exit but not
        correctness (full-scan fallback)."""
        cache.insert((1, 0), now=0.0)
        cache.insert((1, 1), now=0.0)
        cache.insert((1, 2), now=0.0)
        cache.mark_dirty((1, 0), now=20.0)
        cache.mark_dirty((1, 1), now=5.0)  # out of order
        cache.mark_dirty((1, 2), now=30.0)
        assert {b.key for b in cache.dirty_blocks_older_than(10.0)} == {(1, 1)}
        assert {b.key for b in cache.dirty_blocks_older_than(25.0)} == {
            (1, 0),
            (1, 1),
        }

    def test_dirty_order_invariant_resets_when_empty(self, cache):
        cache.insert((1, 0), now=0.0)
        cache.insert((1, 1), now=0.0)
        cache.mark_dirty((1, 0), now=20.0)
        cache.mark_dirty((1, 1), now=5.0)  # breaks the order invariant
        assert not cache._dirty_in_order
        cache.mark_clean((1, 0))
        cache.mark_clean((1, 1))
        assert cache._dirty_in_order  # empty set restores it
        cache.mark_dirty((1, 1), now=1.0)
        assert cache._dirty_in_order

    def test_dirty_order_recovers_once_offender_leaves(self, cache):
        """Regression: cleaning the one out-of-order block restores the
        early-exit scan even while other blocks stay dirty.  The old
        boolean flag stayed stuck until the whole dirty set drained."""
        cache.insert((1, 0), now=0.0)
        cache.insert((1, 1), now=0.0)
        cache.insert((1, 2), now=0.0)
        cache.mark_dirty((1, 0), now=20.0)
        cache.mark_dirty((1, 1), now=5.0)  # the out-of-order stamp
        cache.mark_dirty((1, 2), now=30.0)
        assert not cache._dirty_in_order
        cache.mark_clean((1, 1))  # offender leaves; (1,0),(1,2) stay dirty
        assert cache.dirty_count == 2
        assert cache._dirty_in_order
        # ...and the early-exit scan is still correct.
        assert [b.key for b in cache.dirty_blocks_older_than(25.0)] == [(1, 0)]

    def test_dirty_order_recovers_when_offender_removed(self, cache):
        cache.insert((1, 0), now=0.0)
        cache.insert((1, 1), now=0.0)
        cache.mark_dirty((1, 0), now=20.0)
        cache.mark_dirty((1, 1), now=5.0)
        assert not cache._dirty_in_order
        cache.remove((1, 1))
        assert cache.dirty_count == 1
        assert cache._dirty_in_order

    def test_blocks_of_file_uses_index(self, cache):
        cache.insert((1, 0), now=0.0)
        cache.insert((1, 5), now=0.0)
        cache.insert((2, 0), now=0.0)
        assert {b.key for b in cache.blocks_of_file(1)} == {(1, 0), (1, 5)}
        assert cache.blocks_of_file(99) == []

    def test_dirty_blocks_of_file(self, cache):
        cache.insert((1, 0), now=0.0)
        cache.insert((1, 1), now=0.0)
        cache.mark_dirty((1, 1), now=1.0)
        assert [b.key for b in cache.dirty_blocks_of_file(1)] == [(1, 1)]

    def test_invalidate_file(self, cache):
        cache.insert((1, 0), now=0.0)
        cache.insert((2, 0), now=0.0)
        cache.mark_dirty((1, 0), now=1.0)
        victims = cache.invalidate_file(1)
        assert len(victims) == 1
        assert cache.dirty_count == 0
        assert (2, 0) in cache

    def test_remove_cleans_all_indexes(self, cache):
        cache.insert((1, 0), now=0.0)
        cache.mark_dirty((1, 0), now=1.0)
        cache.remove((1, 0))
        assert cache.dirty_count == 0
        assert cache.blocks_of_file(1) == []
        with pytest.raises(CacheError):
            cache.remove((1, 0))

    def test_evict_dirty_lru_clears_dirty_index(self, cache):
        cache.insert((1, 0), now=0.0)
        cache.mark_dirty((1, 0), now=1.0)
        cache.remove(cache.lru_block().key)
        assert cache.dirty_count == 0

    def test_bad_block_size_raises(self):
        with pytest.raises(CacheError):
            new_cache(block_size=0)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "touch", "remove", "dirty"]),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_index_consistency_property(self, ops):
        """The per-file index always mirrors the block map."""
        cache = new_cache()
        now = 0.0
        for op, file_id, index in ops:
            now += 1.0
            key = (file_id, index)
            if op == "insert" and key not in cache:
                cache.insert(key, now)
            elif op == "touch" and key in cache:
                touch(cache, key, now)
            elif op == "remove" and key in cache:
                cache.remove(key)
            elif op == "dirty" and key in cache:
                cache.mark_dirty(key, now)
        indexed = {
            key for keys in cache._by_file.values() for key in keys
        }
        assert indexed == set(cache._blocks)
        assert set(cache._dirty) <= set(cache._blocks)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from([
                    "insert", "touch", "remove", "dirty", "clean",
                    "invalidate", "clear", "evict",
                ]),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                # Out-of-order dirty stamps get exercised too: offset
                # can reach back before ``now``.
                st.integers(min_value=-40, max_value=2),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_full_invariant_property(self, ops):
        """Every structural invariant holds under arbitrary interleaving
        of the whole public mutation surface, including backdated dirty
        stamps, file invalidation, and eviction of a dirty LRU block.

        After each op the daemon is disarmed when the cache is clean, as
        its scan does; a dirty cache must then have an armed daemon."""
        cache = new_cache()
        daemon = cache._daemon
        now = 0.0
        for op, file_id, index, offset in ops:
            now += 1.0
            key = (file_id, index)
            if op == "insert" and key not in cache:
                cache.insert(key, now)
            elif op == "touch" and key in cache:
                touch(cache, key, now)
            elif op == "remove" and key in cache:
                cache.remove(key)
            elif op == "dirty" and key in cache:
                cache.mark_dirty(key, now + offset)
            elif op == "clean" and key in cache and cache.get(key).dirty:
                cache.mark_clean(key)
            elif op == "invalidate":
                cache.invalidate_file(file_id)
            elif op == "clear":
                cache.clear()
            elif op == "evict" and len(cache):
                cache.remove(cache.lru_block().key)
            if not cache.dirty_count:
                daemon.disarm()
            assert daemon.armed == bool(cache.dirty_count)

            blocks = cache._blocks
            # The per-file index exactly mirrors the block map.
            indexed = {
                k for keys in cache._by_file.values() for k in keys
            }
            assert indexed == set(blocks)
            assert all(cache._by_file.values())  # no empty file buckets
            # Dirty bookkeeping: the dirty dict matches the block flags.
            flagged = {k for k, b in blocks.items() if b.dirty}
            assert set(cache._dirty) == flagged
            assert cache.dirty_count == len(flagged)
            # Byte accounting.
            assert cache.size_bytes == 4096 * len(blocks)
            # The out-of-order set only names dirty-resident blocks.
            assert cache._out_of_order <= set(cache._dirty)
            # The age query equals a brute-force filter, in both modes.
            for threshold in (now - 30.0, now + 1.0):
                expected = [
                    b for b in cache._dirty.values()
                    if b.dirty_since <= threshold
                ]
                got = cache.dirty_blocks_older_than(threshold)
                assert {b.key for b in got} == {b.key for b in expected}


class TestVirtualMemory:
    def make(self, total=1000, base=200, floor=50):
        return VirtualMemory(
            total_pages=total,
            preference_seconds=1200.0,
            base_demand_pages=base,
            cache_floor_pages=floor,
        )

    def test_initial_accounting(self):
        vm = self.make()
        assert vm.active == 200
        assert vm.free == 800
        assert vm.cache == 0

    def test_claim_from_free(self):
        vm = self.make()
        assert vm.claim_for_cache(0.0, 10) == 10
        assert vm.cache == 10
        assert vm.free == 790

    def test_claim_respects_young_aging_pages(self):
        vm = self.make()
        vm.claim_for_cache(0.0, 800)  # all free pages taken
        vm.release(0.0, 100)  # pages begin aging at t=0
        assert vm.claim_for_cache(100.0, 50) == 0  # too young
        assert vm.claim_for_cache(1300.0, 50) == 50  # 20 minutes later

    def test_demand_takes_free_first(self):
        vm = self.make()
        shortfall = vm.demand(0.0, 100)
        assert shortfall == 0
        assert vm.active == 300

    def test_demand_reclaims_own_aging(self):
        vm = self.make()
        vm.release(0.0, 100)  # active 100, aging 100, free 800
        vm.claim_for_cache(0.0, 700)  # cache 700, free 100
        shortfall = vm.demand(1.0, 150)  # 100 free + 50 reclaimed aging
        assert shortfall == 0
        assert vm.aging == 50
        assert vm.active == 250

    def test_demand_shortfall_from_cache(self):
        vm = self.make()
        vm.claim_for_cache(0.0, 800)
        shortfall = vm.demand(1.0, 100)
        assert shortfall == 100
        vm.release_from_cache(shortfall)
        vm.absorb(shortfall)
        assert vm.active == 300
        assert vm.cache == 700

    def test_demand_respects_cache_floor(self):
        vm = self.make(total=300, base=100, floor=50)
        vm.claim_for_cache(0.0, 200)
        shortfall = vm.demand(1.0, 10_000)  # absurd demand
        assert shortfall == 150  # cache can only give down to the floor

    def test_release_caps_at_active(self):
        vm = self.make()
        vm.release(0.0, 10_000)
        assert vm.active == 0
        assert vm.aging == 200

    def test_release_from_cache_validates(self):
        vm = self.make()
        with pytest.raises(SimulationError):
            vm.release_from_cache(1)

    def test_absorb_validates(self):
        vm = self.make()
        with pytest.raises(SimulationError):
            vm.absorb(10_000)

    def test_overcommit_construction_raises(self):
        with pytest.raises(SimulationError):
            VirtualMemory(total_pages=100, preference_seconds=1.0,
                          base_demand_pages=90, cache_floor_pages=20)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["claim", "demand", "release"]),
                st.integers(min_value=1, max_value=200),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_page_conservation_property(self, ops):
        """active + aging + cache + free == total, always."""
        vm = VirtualMemory(
            total_pages=1000, preference_seconds=100.0,
            base_demand_pages=100, cache_floor_pages=10,
        )
        now = 0.0
        for op, amount in ops:
            now += 10.0
            if op == "claim":
                vm.claim_for_cache(now, amount)
            elif op == "demand":
                shortfall = vm.demand(now, amount)
                # the "client" surrenders everything asked
                vm.release_from_cache(shortfall)
                vm.absorb(shortfall)
            else:
                vm.release(now, amount)
            total = vm.active + vm.aging + vm.cache + vm.free
            assert total == 1000
