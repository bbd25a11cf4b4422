"""Typed identifiers for the entities the traces talk about.

The trace format and the simulator pass around user, file, client, and
process identifiers constantly.  Using distinct NewTypes keeps signatures
honest (a ``UserId`` cannot silently stand in for a ``FileId``) without
any runtime cost.
"""

from __future__ import annotations

from typing import NewType

#: A user of the cluster (the paper traced ~70 distinct users).
UserId = NewType("UserId", int)

#: A file or directory, unique across the shared hierarchy.
FileId = NewType("FileId", int)

#: A client workstation (0..39 in the measured cluster).
ClientId = NewType("ClientId", int)

#: A server machine.  Servers and clients live in separate namespaces.
ServerId = NewType("ServerId", int)

#: A process; migrated processes keep their id across hosts.
ProcessId = NewType("ProcessId", int)

#: An open-file instance: one open()..close() episode of one process.
OpenId = NewType("OpenId", int)


class IdAllocator:
    """Hands out dense, monotonically increasing integer ids.

    Each entity namespace in the workload generator owns one allocator so
    that ids are reproducible given the same generation order.
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"id allocators start at >= 0, got {start}")
        self._next = start

    def allocate(self) -> int:
        """Return the next unused id."""
        value = self._next
        self._next += 1
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdAllocator(next={self._next})"
