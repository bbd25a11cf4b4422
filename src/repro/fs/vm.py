"""The virtual memory side of the memory-trading negotiation.

Section 5.1/5.4: caches "vary in size depending on the needs of the file
system and the virtual memory system", and the VM system receives
preference -- "a physical page used for virtual memory cannot be
converted to a file cache page unless it has been unreferenced for at
least 20 minutes."

The model keeps aggregate page counts rather than individual pages:

* ``active`` -- pages in live working sets (untouchable by the cache);
* an *aging queue* -- pages released by exiting/idle processes, each
  batch stamped with its release time; a batch becomes stealable by the
  file cache once it has aged ``preference`` seconds;
* ``cache`` -- pages currently lent to the file cache;
* ``free`` -- everything else.

A demand spike (process start, migrated process arrival) takes free
pages first, then un-ages its own aging pages, and finally forces the
file cache to give pages back -- the Table 8 "given to virtual memory"
evictions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.errors import SimulationError


@dataclass
class _AgingBatch:
    released_at: float
    pages: int


class VirtualMemory:
    """Aggregate page accounting for one client."""

    def __init__(
        self,
        total_pages: int,
        preference_seconds: float,
        base_demand_pages: int = 0,
        cache_floor_pages: int = 0,
    ) -> None:
        if total_pages <= 0:
            raise SimulationError(f"no pages to manage: {total_pages}")
        if base_demand_pages + cache_floor_pages > total_pages:
            raise SimulationError("base VM demand + cache floor exceeds memory")
        self.total_pages = total_pages
        self.preference = preference_seconds
        self.active = base_demand_pages
        self.cache = 0
        #: Pages the VM may never take: the file cache's minimum size.
        self.cache_floor = cache_floor_pages
        self._aging: deque[_AgingBatch] = deque()
        #: Running total of ``_aging`` pages -- ``free`` (and through it
        #: every claim/demand) used to re-sum the whole deque per call.
        self._aging_total = 0

    # --- inspection -----------------------------------------------------------

    @property
    def aging(self) -> int:
        return self._aging_total

    @property
    def free(self) -> int:
        free = self.total_pages - self.active - self._aging_total - self.cache
        if free < 0:
            raise SimulationError(
                f"page accounting broken: active={self.active} "
                f"aging={self.aging} cache={self.cache} total={self.total_pages}"
            )
        return free

    @property
    def vm_resident_pages(self) -> int:
        """Pages the VM system holds (active + not-yet-stealable aging)."""
        return self.active + self.aging

    # --- cache side -----------------------------------------------------------

    def claim_for_cache(self, now: float, pages: int = 1) -> int:
        """The cache asks for pages; returns how many it got."""
        if pages <= 0:
            return 0
        granted = 0
        take_free = min(self.free, pages)
        self.cache += take_free
        granted += take_free
        while granted < pages and self._aging:
            batch = self._aging[0]
            if batch.released_at > now - self.preference:
                break  # everything older is in front; nothing stealable
            take = min(batch.pages, pages - granted)
            batch.pages -= take
            self._aging_total -= take
            if batch.pages == 0:
                self._aging.popleft()
            self.cache += take
            granted += take
        return granted

    def release_from_cache(self, pages: int = 1) -> None:
        """The cache hands pages back (eviction on behalf of VM)."""
        if pages < 0 or pages > self.cache:
            raise SimulationError(
                f"cache released {pages} pages but holds {self.cache}"
            )
        self.cache -= pages

    # --- VM side ----------------------------------------------------------------

    def demand(self, now: float, pages: int) -> int:
        """A working set grows by ``pages``.

        Takes free pages first, then reclaims the VM's own aging pages
        (newest first).  Returns the *shortfall* -- pages that can only
        come from the file cache.  The caller evicts that many blocks
        (:meth:`ClientKernel.surrender_pages`, which calls
        :meth:`release_from_cache`) and then calls :meth:`absorb` for
        the pages actually obtained.
        """
        if pages <= 0:
            return 0
        # The VM system may never squeeze the file cache below its
        # floor; trim the demand to what memory can actually provide
        # (a real machine would be thrashing at this point).
        headroom = max(
            0, self.total_pages - self.cache_floor - self.active - self.aging
        )
        stealable_cache = max(0, self.cache - self.cache_floor)
        pages = min(pages, headroom + stealable_cache)
        needed = pages
        take_free = min(self.free, needed)
        self.active += take_free
        needed -= take_free
        while needed > 0 and self._aging:
            batch = self._aging[-1]
            take = min(batch.pages, needed)
            batch.pages -= take
            self._aging_total -= take
            if batch.pages == 0:
                self._aging.pop()
            self.active += take
            needed -= take
        return min(needed, max(0, self.cache - self.cache_floor))

    def absorb(self, pages: int) -> None:
        """Pages surrendered by the cache become active VM pages."""
        if pages < 0:
            raise SimulationError(f"cannot absorb {pages} pages")
        if self.active + pages + self.aging + self.cache > self.total_pages:
            raise SimulationError("absorb would overcommit memory")
        self.active += pages

    def release(self, now: float, pages: int) -> None:
        """A working set shrinks: pages begin aging toward stealability."""
        if pages <= 0:
            return
        pages = min(pages, self.active)
        self.active -= pages
        if pages:
            self._aging.append(_AgingBatch(released_at=now, pages=pages))
            self._aging_total += pages
