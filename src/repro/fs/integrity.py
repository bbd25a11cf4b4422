"""End-to-end data integrity: checksums, verified reads, scrub, repair.

The paper's data-loss story (Section 5.2) is about *crash* loss: the
30-second writeback delay bounds how much dirty data a dying machine can
take with it.  This module adds the other half of the story -- *silent*
loss, where a disk acknowledges a write and then quietly returns
different bytes -- and the standard defences:

* a **content model**: every durably written block carries a payload (a
  deterministic function of (file, block, write generation)), a
  checksum of that payload, and the generation stamp.  The model is
  integers, not bytes -- enough to detect any corruption the fault
  model can inject, at a dict-entry's cost per durable block;
* **disk faults** (armed by :class:`repro.fs.faults.FaultInjector` from
  seeded :class:`~repro.fs.faults.DiskFaultEvent`\\ s): *bit rot*
  garbles a stored payload in place, a *torn write* persists garbled
  bytes under the intended checksum, and a *lost write* acknowledges
  without persisting anything -- the one failure a checksum alone can
  never see;
* **verified reads**: every ``fetch_block`` that reaches the durable
  store checks the payload against its checksum; a mismatch books a
  ``checksum_failures`` counter and triggers repair;
* **repair from replicas**: the freshest live replica whose copy
  verifies is copied back (the PR 7 placement chain names the
  candidates).  With no valid copy left (always at r=1) the block is
  booked as a **declared loss** -- data is gone, but *accountably*
  gone, which the end-state oracle sweep treats as the crucial
  difference from silent corruption;
* a **background scrubber** on the shared ticker that walks each up
  server's durable blocks in chunks, verifying checksums and -- at
  r >= 2 -- cross-checking generation stamps against live peers, which
  is what catches lost writes.  Its cost follows the faults, not the
  blocks: every fault and write site marks the keys it could have made
  detectable, and a span counts its clean blocks without visiting them.

Table C (:mod:`repro.experiments.studies`) reports corruption exposed,
detected and repaired as a function of scrub interval and replication
factor.

When no disk-fault rate is set and scrubbing is off, none of this is
constructed: no store, no hashing, no RNG draws -- replays stay
byte-identical to builds that predate this module.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import filterfalse
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fs.config import ClusterConfig
    from repro.fs.server import Server

_MASK64 = (1 << 64) - 1

#: XOR'd into a payload before mixing when a fault garbles it.  The
#: garble is a *mix* of the flipped payload, not the flip itself, so two
#: faults on the same block never cancel back to valid content.
_GARBLE_SALT = 0xDEADBEEFCAFEF00D


def block_checksum(payload: int) -> int:
    """A 64-bit checksum of an integer payload (splitmix64 finalizer).

    Pure and stateless: equal payloads always hash equal, and any
    single-event garble the fault model applies changes the value.
    """
    x = (payload ^ 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def checksum_ok(payload: int, checksum: int) -> bool:
    """Does the stored checksum match the stored payload?"""
    return block_checksum(payload) == checksum


def block_payload(file_id: int, index: int, generation: int) -> int:
    """The modelled content of one durable block write.

    A pure function of (file, block, write generation), so every
    replica that acknowledges the same logical write stores the same
    payload -- which is what lets repair and the oracle sweep compare
    copies by value.
    """
    return block_checksum(
        (file_id * 0x8B72E1D9CA3F5A71 + index * 0x6C62272E07BB0142 + generation)
        & _MASK64
    )


def _garble(payload: int) -> int:
    """What a disk fault leaves behind: a mixed, non-invertible mangle."""
    return block_checksum(payload ^ _GARBLE_SALT)


class IntegrityManager:
    """The cluster's checksummed block store and repair engine.

    One per cluster, constructed only when disk faults or scrubbing are
    configured.  It shadows each server's durable blocks (a block
    enters the store on its first ``write_block``), keeps the
    per-server *expected* ledger (the content each server last
    *acknowledged* -- a replica that legitimately missed a push while
    down is stale, not corrupt), and owns every verify / repair /
    declare-lost decision.  Everything is driven by deterministic
    engine events; it draws no randomness of its own (fault victims are
    picked by the pre-drawn selector on the disk event).
    """

    #: Blocks verified per server per scrub tick; the walk cursor wraps.
    SCRUB_CHUNK = 128

    def __init__(
        self, servers: "list[Server]",
        config: "ClusterConfig",
        group_maps: "dict[int, Any] | None",
    ) -> None:
        self.servers = servers
        #: The replication manager's per-group replica maps (group ->
        #: :class:`~repro.fs.replication.ReplicaMap`) when replication is
        #: on; they name the repair candidates, resolved through the
        #: server id a lookup concerns (shared file ids map to a
        #: different slice per group).  None = r=1: every unrepairable
        #: corruption becomes a declared loss.
        self._group_maps = group_maps
        self._config = config
        self._replicated = group_maps is not None
        #: Optional observability hook (repro.obs); every use is guarded.
        self.obs = None
        n = len(servers)
        #: Per server: (file, block) -> (payload, checksum, generation).
        self._stores: list[dict[tuple[int, int], tuple[int, int, int]]] = [
            {} for _ in range(n)
        ]
        #: Per server: (file, block) -> (payload, generation) this
        #: server last *acknowledged* -- what its store must hold.
        self._expected: list[dict[tuple[int, int], tuple[int, int]]] = [
            {} for _ in range(n)
        ]
        #: Per server: file -> block indexes with store/expected entries
        #: (so deletes and re-replication never scan the whole store).
        self._by_file: list[dict[int, set[int]]] = [{} for _ in range(n)]
        #: Per server: blocks whose loss has been booked (accounted, so
        #: the oracle sweep does not count them as silent corruption).
        self._declared_lost: list[set[tuple[int, int]]] = [
            set() for _ in range(n)
        ]
        #: Global write generation per (file, block): bumped once per
        #: client clean, shared by the whole writeback fan-out.
        self._gen: dict[tuple[int, int], int] = {}
        #: Armed torn/lost faults, consumed by the next write.
        self._armed_torn = [0] * n
        self._armed_lost = [0] * n
        #: Per server: the sorted ``store | expected`` key list, kept
        #: incrementally (a key enters on its first write, repair or
        #: copy, and leaves with its file).
        self._keys: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        #: Per server: the keys whose next scrub visit could detect
        #: something.  Every fault and write site marks what it may have
        #: made detectable; a key leaves only once a visit finds it
        #: settled (:meth:`_settled`).
        self._suspects: list[set[tuple[int, int]]] = [set() for _ in range(n)]
        #: Scrub walk state: a copy of the key list plus a cursor.
        self._scrub_keys: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._scrub_pos = [0] * n
        for server in servers:
            server.cache.enable_integrity()

    def _peer_replicas(self, server_id: int, file_id: int) -> tuple[int, ...]:
        """The replica set ``server_id`` belongs to for ``file_id``."""
        group = self._config.group_of_server(server_id)
        return self._group_maps[group].replicas(file_id)

    def _slice(self, server_id: int) -> range:
        """Every server of ``server_id``'s group slice (its replica
        chains never leave it)."""
        config = self._config
        return config.server_slice(config.group_of_server(server_id))

    def _acknowledge(
        self, server_id: int, key: tuple[int, int], payload: int, gen: int
    ) -> None:
        """``server_id`` now owes ``key`` at (payload, gen): its ledger,
        file index and sorted key list take the key in.  A store never
        holds a key its ledger lacks, so the ledger alone says whether
        the key is listed yet."""
        expected = self._expected[server_id]
        if key not in expected:
            insort(self._keys[server_id], key)
        expected[key] = (payload, gen)
        self._by_file[server_id].setdefault(key[0], set()).add(key[1])
        self._declared_lost[server_id].discard(key)

    def _mark_older(self, server_id: int, key: tuple[int, int], gen: int) -> None:
        """A copy of generation ``gen`` landed on ``server_id``: every
        older copy in its slice may now fail the cross-check."""
        stores, suspects = self._stores, self._suspects
        for peer in self._slice(server_id):
            entry = stores[peer].get(key)
            if entry is not None and entry[2] < gen:
                suspects[peer].add(key)

    # --- the write path ---------------------------------------------------------

    def begin_write(self, file_id: int, index: int) -> None:
        """A client starts cleaning a dirty block: one new generation,
        shared by every replica the writeback fans out to."""
        key = (file_id, index)
        self._gen[key] = self._gen.get(key, 0) + 1

    def server_write(self, server: "Server", now: float, file_id: int, index: int) -> None:
        """One server durably applies a writeback (or believes it did:
        an armed torn/lost fault corrupts this very write)."""
        sid = server.server_id
        key = (file_id, index)
        gen = self._gen.get(key)
        if gen is None:
            # A write with no preceding begin_write (direct unit-test
            # drives): open its own generation.
            gen = self._gen[key] = 1
        payload = block_payload(file_id, index, gen)
        checksum = block_checksum(payload)
        self._acknowledge(sid, key, payload, gen)
        if self._armed_lost[sid] > 0:
            # Lost write: acknowledged, never persisted.  The store
            # keeps whatever it held; only the ledger moves -- the one
            # fault a checksum can never see.
            self._armed_lost[sid] -= 1
            self._suspects[sid].add(key)
        elif self._armed_torn[sid] > 0:
            # Torn write: garbled payload persisted under the intended
            # checksum, so the next verify catches it.
            self._armed_torn[sid] -= 1
            self._stores[sid][key] = (_garble(payload), checksum, gen)
            self._suspects[sid].add(key)
        else:
            # A clean write of the newest generation settles its own
            # copy and leaves every older one in the slice stale.
            self._stores[sid][key] = (payload, checksum, gen)
            self._suspects[sid].discard(key)
            self._mark_older(sid, key, gen)
        # The server's in-memory cache copy is the client's bytes and is
        # good regardless of what the disk did with them.
        payloads = server.cache.payloads
        if payloads is not None and key in server.cache._blocks:
            payloads[key] = (payload, checksum)

    # --- the read path ----------------------------------------------------------

    def verify_read(
        self, server: "Server", now: float, file_id: int, index: int,
        from_cache: bool,
    ) -> bool:
        """Verify one ``fetch_block``; returns False only when the block
        is corrupt and no replica could repair it (a declared loss)."""
        sid = server.server_id
        key = (file_id, index)
        payloads = server.cache.payloads
        if from_cache and payloads is not None:
            mirror = payloads.get(key)
            if mirror is not None and checksum_ok(mirror[0], mirror[1]):
                # Served from server RAM: the cached pair verifies.  A
                # rotted disk copy stays hidden behind a hot cache until
                # eviction, a crash, or the scrubber -- deliberately so.
                return True
        entry = self._stores[sid].get(key)
        if entry is None:
            # Never durably written here (read-only data, or a write
            # this server missed while down): nothing to verify.
            return True
        payload, checksum, gen = entry
        if checksum_ok(payload, checksum):
            if payloads is not None and key in server.cache._blocks:
                payloads[key] = (payload, checksum)
            return True
        server.counters.checksum_failures += 1
        if self.obs is not None:
            self.obs.on_checksum_failure(
                now, sid, file_id, index, "cache" if from_cache else "store"
            )
        return self._repair(now, sid, key)

    # --- repair and declared loss -----------------------------------------------

    def _repair(self, now: float, server_id: int, key: tuple[int, int]) -> bool:
        """Restore a corrupt (or vanished-but-acknowledged) block from
        the freshest live replica whose copy verifies; with none left,
        book a declared loss.  Returns True when repaired."""
        best: tuple[int, int, int] | None = None
        best_src = -1
        if self._replicated:
            for peer in self._peer_replicas(server_id, key[0]):
                if peer == server_id or peer >= len(self.servers):
                    continue
                if not self.servers[peer].up:
                    continue
                entry = self._stores[peer].get(key)
                if entry is None or not checksum_ok(entry[0], entry[1]):
                    continue
                if best is None or entry[2] > best[2]:
                    best, best_src = entry, peer
        server = self.servers[server_id]
        if best is None:
            self._stores[server_id].pop(key, None)
            self._declared_lost[server_id].add(key)
            server.counters.blocks_declared_lost += 1
            payloads = server.cache.payloads
            if payloads is not None:
                payloads.pop(key, None)
            if self.obs is not None:
                self.obs.on_block_declared_lost(now, server_id, key[0], key[1])
            return False
        self._stores[server_id][key] = best
        self._acknowledge(server_id, key, best[0], best[2])
        self._suspects[server_id].add(key)
        self._mark_older(server_id, key, best[2])
        server.counters.blocks_repaired += 1
        payloads = server.cache.payloads
        if payloads is not None and key in server.cache._blocks:
            payloads[key] = (best[0], best[1])
        if self.obs is not None:
            self.obs.on_integrity_repair(
                now, server_id, key[0], key[1], best_src
            )
        return True

    # --- disk faults (armed by the FaultInjector) ---------------------------------

    def inject_bit_rot(self, now: float, server_id: int, selector: float) -> bool:
        """Garble one durable block in place, chosen by the event's
        pre-drawn selector over the sorted store (deterministic, and no
        randomness is consumed at fire time; the sorted store is the
        key list filtered to stored keys).  The stored checksum is
        untouched, so the rot is *detectable* -- by whoever looks next.

        The event counter books unconditionally -- it records the seeded
        fault timeline, which is identical across the sweep's columns --
        but rot striking an empty platter garbles nothing (False).
        """
        sid = server_id % len(self.servers)
        self.servers[sid].counters.disk_bit_rot_events += 1
        store = self._stores[sid]
        if not store:
            return False  # nothing durable yet: the rot hits empty platter
        keys = list(filter(store.__contains__, self._keys[sid]))
        key = keys[int(selector * len(keys)) % len(keys)]
        payload, checksum, gen = store[key]
        store[key] = (_garble(payload), checksum, gen)
        self._suspects[sid].add(key)
        return True

    def arm_torn(self, server_id: int) -> None:
        """The next write on this server persists garbled bytes."""
        sid = server_id % len(self.servers)
        self.servers[sid].counters.disk_torn_writes += 1
        self._armed_torn[sid] += 1

    def arm_lost(self, server_id: int) -> None:
        """The next write on this server is acknowledged but dropped."""
        sid = server_id % len(self.servers)
        self.servers[sid].counters.disk_lost_writes += 1
        self._armed_lost[sid] += 1

    # --- deletes and re-replication -----------------------------------------------

    def invalidate_file(self, server_id: int, file_id: int) -> None:
        """The file was deleted on this server: drop every trace of it."""
        indexes = self._by_file[server_id].pop(file_id, None)
        if not indexes:
            return
        store = self._stores[server_id]
        expected = self._expected[server_id]
        lost = self._declared_lost[server_id]
        suspects = self._suspects[server_id]
        for index in indexes:
            key = (file_id, index)
            store.pop(key, None)
            expected.pop(key, None)
            lost.discard(key)
            suspects.discard(key)
        # A file's keys are contiguous in the sorted list.
        keys = self._keys[server_id]
        lo = bisect_left(keys, (file_id,))
        del keys[lo:bisect_left(keys, (file_id + 1,), lo)]

    def copy_file(self, now: float, src_id: int, target_id: int, file_id: int) -> int:
        """Re-replication: copy the source's verified durable blocks of
        one file onto the substitute replica (which then acknowledges
        them -- its expected ledger moves with its store).  Corrupt
        source blocks are never propagated, and a fresher copy already
        on the target is left alone.  Returns the blocks copied."""
        indexes = self._by_file[src_id].get(file_id)
        if not indexes:
            return 0
        src_store = self._stores[src_id]
        target = self.servers[target_id]
        t_store = self._stores[target_id]
        copied = 0
        for index in sorted(indexes):
            key = (file_id, index)
            entry = src_store.get(key)
            if entry is None or not checksum_ok(entry[0], entry[1]):
                continue
            existing = t_store.get(key)
            if (
                existing is not None
                and existing[2] >= entry[2]
                and checksum_ok(existing[0], existing[1])
            ):
                continue
            t_store[key] = entry
            self._acknowledge(target_id, key, entry[0], entry[2])
            self._suspects[target_id].add(key)
            self._mark_older(target_id, key, entry[2])
            payloads = target.cache.payloads
            if payloads is not None and key in target.cache._blocks:
                payloads[key] = (entry[0], entry[1])
            copied += 1
        return copied

    # --- the scrubber -----------------------------------------------------------

    def _scrub_one(
        self, now: float, server_id: int, key: tuple[int, int]
    ) -> bool | None:
        """Verify one block.  Returns None when the key vanished since
        the snapshot, True when something was detected (and repaired or
        declared lost), False when the block is clean."""
        entry = self._stores[server_id].get(key)
        if entry is None:
            if (
                key in self._expected[server_id]
                and key not in self._declared_lost[server_id]
            ):
                # Acknowledged but never persisted: a lost first write.
                self._repair(now, server_id, key)
                return True
            return None
        payload, checksum, gen = entry
        if not checksum_ok(payload, checksum):
            self._repair(now, server_id, key)
            return True
        expected = self._expected[server_id].get(key)
        if expected is not None and (
            expected[1] > gen or (expected[1] == gen and expected[0] != payload)
        ):
            # The block verifies but is not what was acknowledged: a
            # lost write, caught by the generation ledger even with no
            # replica to compare against (repair still needs one).
            self._repair(now, server_id, key)
            return True
        if self._replicated:
            # Generation cross-check against live peers: a verifying
            # payload with a stale stamp is a lost write (or a push the
            # outage swallowed) -- the corruption checksums cannot see.
            for peer in self._peer_replicas(server_id, key[0]):
                if peer == server_id or peer >= len(self.servers):
                    continue
                if not self.servers[peer].up:
                    continue
                peer_entry = self._stores[peer].get(key)
                if (
                    peer_entry is not None
                    and peer_entry[2] > gen
                    and checksum_ok(peer_entry[0], peer_entry[1])
                ):
                    self._repair(now, server_id, key)
                    return True
        return False

    def _settled(self, server_id: int, key: tuple[int, int]) -> bool:
        """After a visit: can no later visit detect anything at ``key``
        until a fault or write event marks it again?

        A visit leaves the key gone, or its copy verified and matching
        its ledger; what remains is that no server in the slice -- up
        or down, verifying or not -- stores a newer generation.  Peers
        going down and up, and re-replication changing a file's chain,
        then cannot make the block detectable without a marking event.
        """
        entry = self._stores[server_id].get(key)
        if entry is None:
            return True
        stores = self._stores
        for peer in self._slice(server_id):
            peer_entry = stores[peer].get(key)
            if peer_entry is not None and peer_entry[2] > entry[2]:
                return False
        return True

    def _scrub_span(
        self, now: float, server: "Server", keys: list[tuple[int, int]]
    ) -> None:
        """Scrub one span of the key list.  Every key still stored, or
        acknowledged and not declared lost, counts as checked; only the
        suspects among them can detect anything, so only they are
        visited, in key order.  A repair writes only its own key, so
        counting up front equals counting at each key's turn."""
        sid = server.server_id
        missing = list(filterfalse(self._stores[sid].__contains__, keys))
        checked = len(keys) - len(missing)
        if missing:
            expected = self._expected[sid]
            lost = self._declared_lost[sid]
            checked += sum(
                1 for key in missing if key in expected and key not in lost
            )
        detected = 0
        suspects = self._suspects[sid]
        if suspects:
            for key in list(filter(suspects.__contains__, keys)):
                if self._scrub_one(now, sid, key):
                    detected += 1
                if self._settled(sid, key):
                    suspects.discard(key)
        if checked:
            server.counters.scrub_blocks_checked += checked
        if detected:
            server.counters.scrub_corruptions_found += detected
            if self.obs is not None:
                self.obs.on_scrub(now, sid, checked, detected)

    def scrub_tick(self, now: float) -> None:
        """One background pass: up to :attr:`SCRUB_CHUNK` blocks per up
        server, walked round-robin by a per-server cursor over a copy of
        the sorted key list (re-taken, including any expected-but-missing
        keys, each time the cursor wraps)."""
        for server in self.servers:
            if not server.up:
                continue
            sid = server.server_id
            keys = self._scrub_keys[sid]
            pos = self._scrub_pos[sid]
            if pos >= len(keys):
                keys = self._scrub_keys[sid] = self._keys[sid].copy()
                pos = 0
            end = min(len(keys), pos + self.SCRUB_CHUNK)
            self._scrub_pos[sid] = end
            self._scrub_span(now, server, keys[pos:end])

    def final_scrub(self, now: float) -> None:
        """One full verification pass at end of replay (scrubbing on):
        every corruption a replica can repair is repaired -- or booked
        as a declared loss -- before the oracle's sweep runs."""
        for server in self.servers:
            if server.up:
                self._scrub_span(now, server, self._keys[server.server_id])

    # --- the oracle sweep -------------------------------------------------------

    def silent_corruption_report(self) -> list[str]:
        """Every *silent* corruption still exposed at end of replay.

        For each up server (a down server's patch is still queued),
        every acknowledged block must either match its ledger entry by
        payload and generation, or carry a booked declared loss; and no
        stored block may fail its own checksum.  Each returned string
        becomes one seed-carrying oracle Violation.
        """
        details: list[str] = []
        for server in self.servers:
            if not server.up:
                continue
            sid = server.server_id
            store = self._stores[sid]
            expected = self._expected[sid]
            lost = self._declared_lost[sid]
            flagged: set[tuple[int, int]] = set()
            for key in sorted(store):
                payload, checksum, gen = store[key]
                if not checksum_ok(payload, checksum):
                    flagged.add(key)
                    details.append(
                        f"server {sid}: block {key} (gen {gen}) fails its "
                        f"checksum with no repair or declared loss booked"
                    )
            for key in sorted(expected):
                if key in lost or key in flagged:
                    continue
                payload, gen = expected[key]
                entry = store.get(key)
                if entry is None:
                    details.append(
                        f"server {sid}: acknowledged block {key} (gen {gen}) "
                        f"vanished without a declared loss"
                    )
                elif entry[0] != payload or entry[2] != gen:
                    details.append(
                        f"server {sid}: block {key} holds gen {entry[2]} but "
                        f"gen {gen} was acknowledged"
                    )
        return details

