"""The client block cache.

File data is cached in 4-Kbyte blocks chosen for replacement by least
recent use (Section 5.4).  A block is identified by (file id, block
index).  Dirty blocks remember when they first became dirty so the
writeback daemon can find 30-second-old data, and every block remembers
its last reference so replacement ages can be measured (Table 8).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass

from repro.common.errors import CacheError
from repro.sim.timers import TickSubscription

BlockKey = tuple[int, int]  # (file_id, block_index)


class CleanReason(enum.Enum):
    """Why a dirty block was written to the server (Table 9)."""

    DELAY = "30_second_delay"
    FSYNC = "application_fsync"
    RECALL = "server_recall"
    VM = "given_to_vm"
    RECOVERY = "crash_recovery_replay"  # overdue writes replayed after an outage


@dataclass(slots=True)
class CacheBlock:
    """One resident 4-Kbyte block."""

    file_id: int
    index: int
    dirty: bool = False
    dirty_since: float = -1.0
    last_referenced: float = 0.0
    #: Set while the owning file is being written by a migrated process
    #: (used only for per-class accounting).
    migrated: bool = False
    #: Highest byte offset written within the block.  A writeback sends
    #: "the portion from the beginning of the cache block to the end of
    #: the appended data" (Section 5.2), i.e. this many bytes.  Blocks
    #: fetched from the server are fully valid (= block size).
    written_end: int = 0

    @property
    def key(self) -> BlockKey:
        return (self.file_id, self.index)


class BlockCache:
    """An LRU block cache with explicit dirty-block bookkeeping.

    The cache does not decide its own capacity: the client kernel asks
    the VM negotiation layer how many blocks it may hold and calls
    :meth:`shrink_to`.  That keeps the 20-minute trading policy in one
    place (:mod:`repro.fs.vm`).

    ``daemon`` is the owning client's writeback-tick subscription: the
    first dirty block arms it (the daemon disarms itself on a scan that
    finds the cache clean), so a clean cache costs no scans.
    """

    def __init__(self, block_size: int, daemon: TickSubscription) -> None:
        if block_size <= 0:
            raise CacheError(f"bad block size {block_size}")
        self.block_size = block_size
        self._daemon = daemon
        #: LRU order: oldest first.
        self._blocks: OrderedDict[BlockKey, CacheBlock] = OrderedDict()
        self._dirty: dict[BlockKey, CacheBlock] = {}
        #: ``_dirty`` is insertion-ordered, and blocks are inserted with
        #: the (monotonic) simulated clock, so iteration order is also
        #: ``dirty_since`` order and age queries can stop early.  The
        #: newest stamp detects a non-monotonic caller; the offending
        #: blocks are tracked individually so the early exit returns as
        #: soon as they clean, instead of only when the dirty set fully
        #: drains.
        self._newest_dirty_since = float("-inf")
        #: Dirty blocks whose stamp broke the insertion-order invariant.
        #: While non-empty, age queries fall back to the full scan.
        self._out_of_order: set[BlockKey] = set()
        #: Per-file index so deletes/recalls don't scan the whole cache.
        self._by_file: dict[int, set[BlockKey]] = {}

    @property
    def _dirty_in_order(self) -> bool:
        """True while ``_dirty`` iteration order is ``dirty_since`` order
        (no out-of-order stamps outstanding), enabling the early exit."""
        return not self._out_of_order

    # --- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._blocks

    @property
    def size_bytes(self) -> int:
        return len(self._blocks) * self.block_size

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def get(self, key: BlockKey) -> CacheBlock | None:
        return self._blocks.get(key)

    def blocks_of_file(self, file_id: int) -> list[CacheBlock]:
        """All resident blocks of one file (any order)."""
        keys = self._by_file.get(file_id)
        if not keys:
            return []
        return [self._blocks[key] for key in keys]

    def dirty_blocks_of_file(self, file_id: int) -> list[CacheBlock]:
        """The dirty subset of one file's resident blocks."""
        keys = self._by_file.get(file_id)
        if not keys:
            return []
        return [self._blocks[key] for key in keys if key in self._dirty]

    def dirty_blocks(self) -> list[CacheBlock]:
        """All dirty blocks (unspecified order)."""
        return list(self._dirty.values())

    def dirty_blocks_older_than(self, cutoff: float) -> list[CacheBlock]:
        """Dirty blocks whose data became dirty at or before ``cutoff``.

        The writeback daemon calls this every simulated 5 seconds; with
        the ordering invariant it pays for the old blocks it returns,
        not for every dirty block in the cache.
        """
        if not self._dirty_in_order:
            return [b for b in self._dirty.values() if b.dirty_since <= cutoff]
        out: list[CacheBlock] = []
        for block in self._dirty.values():
            if block.dirty_since > cutoff:
                break
            out.append(block)
        return out

    def oldest_dirty_since(self) -> float | None:
        """O(1) peek at the oldest dirty stamp.

        None when nothing is dirty *or* the ordering invariant is broken
        (out-of-order stamps outstanding) -- callers must treat None as
        "don't know, do the full query", not as "no dirty data".
        """
        if not self._dirty or self._out_of_order:
            return None
        return next(iter(self._dirty.values())).dirty_since

    def resident_files(self) -> list[int]:
        """Ids of every file with at least one resident block."""
        return list(self._by_file)

    def lru_block(self) -> CacheBlock | None:
        """The least recently used block, or None if empty."""
        if not self._blocks:
            return None
        return next(iter(self._blocks.values()))

    # --- mutation ------------------------------------------------------------

    def insert(self, key: BlockKey, now: float, migrated: bool = False) -> CacheBlock:
        """Insert a clean block (fetched or about to be overwritten)."""
        blocks = self._blocks
        if key in blocks:
            raise CacheError(f"double insert of block {key}")
        file_id = key[0]
        block = CacheBlock(file_id, key[1], False, -1.0, now, migrated, 0)
        blocks[key] = block
        by_file = self._by_file
        keys = by_file.get(file_id)
        if keys is None:
            by_file[file_id] = {key}
        else:
            keys.add(key)
        return block

    def mark_dirty(self, key: BlockKey, now: float, migrated: bool = False) -> None:
        """Mark a resident block dirty (first write stamps dirty_since)."""
        block = self._blocks.get(key)
        if block is None:
            raise CacheError(f"write to non-resident block {key}")
        if not block.dirty:
            if not self._dirty:
                self._daemon.arm()
            block.dirty = True
            block.dirty_since = now
            self._dirty[key] = block
            if now >= self._newest_dirty_since:
                self._newest_dirty_since = now
            else:
                # A backdated stamp: only this block violates the
                # iteration-order invariant.  The early exit resumes as
                # soon as every such block is cleaned or removed.
                self._out_of_order.add(key)
        block.last_referenced = now
        block.migrated = block.migrated or migrated
        self._blocks.move_to_end(key)

    def mark_clean(self, key: BlockKey) -> None:
        """Mark a dirty block clean (after writeback)."""
        block = self._dirty.pop(key, None)
        if block is None:
            raise CacheError(f"clean of non-dirty block {key}")
        block.dirty = False
        block.dirty_since = -1.0
        self._out_of_order.discard(key)
        if not self._dirty:
            self._newest_dirty_since = float("-inf")

    def remove(self, key: BlockKey) -> CacheBlock:
        """Remove a block outright (eviction or invalidation)."""
        block = self._blocks.pop(key, None)
        if block is None:
            raise CacheError(f"remove of non-resident block {key}")
        if self._dirty.pop(key, None) is not None:
            self._out_of_order.discard(key)
            if not self._dirty:
                self._newest_dirty_since = float("-inf")
        keys = self._by_file.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_file[key[0]]
        return block

    def clear(self) -> list[CacheBlock]:
        """Drop every block (a client crash: the machine's memory is
        gone).  Returns the blocks that were resident."""
        victims = list(self._blocks.values())
        self._blocks.clear()
        self._dirty.clear()
        self._by_file.clear()
        self._out_of_order.clear()
        self._newest_dirty_since = float("-inf")
        return victims

    def invalidate_file(self, file_id: int) -> list[CacheBlock]:
        """Drop every block of a file (delete, truncate, stale data)."""
        victims = self.blocks_of_file(file_id)
        for block in victims:
            self.remove(block.key)
        return victims
