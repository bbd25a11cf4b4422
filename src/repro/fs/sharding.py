"""File-to-server placement for the sharded cluster.

The measured cluster had **four** file servers; files were partitioned
across them by subtree (Nelson et al.'s Sprite design), and Tables 1, 2,
and 7 of the paper report activity per server.  The simulator models
that partition with a seeded hash of the file id: every file lives on
exactly one server, the mapping is a pure function of
``(file_id, num_servers, seed)``, and it is therefore stable across
runs, worker counts, and replay seeds -- the properties the pipeline
cache and the per-server tables rely on.

With one server the placement is the constant 0 and costs nothing; the
multi-server hash is a splitmix64-style finalizer, which is cheap
enough for the per-operation routing the client kernel does and mixes
well enough that consecutive file ids spread evenly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TypeVar

from repro.common.errors import ConfigError, SimulationError

_MASK64 = (1 << 64) - 1

_T = TypeVar("_T")


class MachineRoster:
    """An owned-only shard's window onto a global machine list.

    A partitioned shard constructs only its groups' machines, but the
    rest of the simulator speaks *global* ids.  The roster keeps the
    global arithmetic intact while holding only the owned machines:

    * ``len(roster)`` is the **global** machine count, so every
      ``id % len(...)`` modulo stays the identity it always was;
    * ``roster[global_id]`` returns the owned machine, and raises a
      loud :class:`SimulationError` for a machine this shard does not
      own -- the routing stub that turns a confinement bug into an
      immediate, attributable failure instead of silently-diverging
      state;
    * iteration yields the owned machines in global-id order, which is
      exactly the order the unpartitioned replay visits them in.
    """

    __slots__ = ("kind", "_total", "_items", "_by_id")

    def __init__(
        self, kind: str, total: int, items: Iterable[_T],
        ids: Iterable[int],
    ) -> None:
        self.kind = kind
        self._total = total
        self._items = list(items)
        self._by_id = dict(zip(ids, self._items))
        if len(self._by_id) != len(self._items):
            raise ConfigError(
                f"{kind} roster ids do not match its items "
                f"({len(self._by_id)} ids, {len(self._items)} items)"
            )

    def __len__(self) -> int:
        return self._total

    def __iter__(self) -> Iterator[_T]:
        return iter(self._items)

    def __getitem__(self, machine_id: int) -> _T:
        try:
            return self._by_id[machine_id]
        except (KeyError, TypeError):
            raise SimulationError(
                f"{self.kind} {machine_id} is not owned by this shard "
                f"(owned {self.kind}s: {sorted(self._by_id)})"
            ) from None

    @property
    def owned_ids(self) -> list[int]:
        return sorted(self._by_id)

    def like(self, items: Iterable[_T], kind: str | None = None) -> "MachineRoster":
        """A parallel roster over the same ids (e.g. the transports
        matching an owned server slice)."""
        return MachineRoster(kind or self.kind, self._total, items, self._by_id)


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a fast, well-distributed 64-bit mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Placement:
    """The deterministic file -> server map over one server slice.

    ``Placement(n, seed)`` covers the whole cluster; :meth:`group_view`
    returns the same hash confined to one client group's slice.
    ``shard_of`` is the whole interface.  Negative file ids (the
    simulator's "no particular file" sentinel, used by directory
    passthrough) land on the slice's first server -- server 0 for the
    whole cluster.  ``num_servers`` is always the global server count.
    """

    __slots__ = ("num_servers", "seed", "_start", "_size", "_salt")

    def __init__(self, num_servers: int, seed: int = 0) -> None:
        if num_servers < 1:
            raise ConfigError(f"need at least one server, got {num_servers}")
        self.num_servers = num_servers
        self.seed = seed
        self._start = 0
        self._size = num_servers
        # One up-front mix of the seed; per-file work is a single mix.
        self._salt = _mix64(seed * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)

    def shard_of(self, file_id: int) -> int:
        if self._size == 1 or file_id < 0:
            return self._start
        return self._start + _mix64(file_id ^ self._salt) % self._size

    __call__ = shard_of

    @property
    def chain_width(self) -> int:
        """How long a full preference chain is (``replicas_of``'s upper
        bound on ``r``): the slice size."""
        return self._size

    def replicas_of(self, file_id: int, r: int) -> tuple[int, ...]:
        """The ``r`` distinct slice servers holding ``file_id``.

        The first element is always ``shard_of(file_id)`` -- the
        primary -- so ``replicas_of(fid, 1) == (shard_of(fid),)`` and
        replication factor 1 changes nothing.  The remaining replicas
        are drawn without replacement from the slice's other servers by
        re-chaining the splitmix64 hash, so the full chain
        ``replicas_of(fid, chain_width)`` is a stable per-file
        preference order over the slice; the re-replication manager
        walks it to pick substitute hosts.  Negative (sentinel) file ids
        take the slice's first ``r`` servers.
        """
        start, size = self._start, self._size
        if r < 1 or r > size:
            raise ConfigError(
                f"replica count {r} must be in [1, {size}] "
                f"(server slice {start}..{start + size - 1})"
            )
        primary = self.shard_of(file_id)
        if r == 1:
            return (primary,)
        if file_id < 0:
            return tuple(range(start, start + r))
        remaining = [s for s in range(start, start + size) if s != primary]
        chosen = [primary]
        h = _mix64(file_id ^ self._salt)
        for _ in range(r - 1):
            h = _mix64(h + 0x9E3779B97F4A7C15)
            chosen.append(remaining.pop(h % len(remaining)))
        return tuple(chosen)

    def group_view(self, group: int, groups: int) -> "Placement":
        """The placement confined to one client group's server slice.

        Partitioned replay divides ``num_servers`` into ``groups``
        contiguous equal slices; a group's clients route *every* file
        -- group files, shared binaries, directory sentinels -- into
        their own slice, so no server ever sees traffic from two
        groups.  That per-group confinement is what makes shard replays
        byte-identical to the unpartitioned replay: a server's state
        evolves from exactly one group's operations either way.  The
        view keeps the salt, so ``group_view(0, 1)`` is this placement.
        """
        if groups < 1 or self.num_servers % groups != 0:
            raise ConfigError(
                f"{groups} groups must evenly divide "
                f"{self.num_servers} servers"
            )
        if not 0 <= group < groups:
            raise ConfigError(f"group {group} out of range for {groups}")
        view = Placement(self.num_servers, self.seed)
        view._size = self.num_servers // groups
        view._start = group * view._size
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Placement(num_servers={self.num_servers}, seed={self.seed}, "
            f"servers=[{self._start}..{self._start + self._size - 1}])"
        )
