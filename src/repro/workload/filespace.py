"""The shared file hierarchy the workload operates on.

Sprite presented a single shared hierarchy with no local disks; every
file lives on one of the four servers.  The generator needs just enough
file state to produce honest traces: current size, which server holds
the file, and the write times of the oldest and newest bytes (the
paper's Section 4.3 lifetime estimator reads lifetimes straight off
those two times).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import TraceError
from repro.common.ids import FileId, IdAllocator, ServerId, UserId
from repro.common.rng import RngStream


@dataclass
class FileState:
    """Mutable state of one live file."""

    file_id: FileId
    server_id: ServerId
    owner: UserId
    created_at: float
    size: int = 0
    #: Write time of the file's oldest surviving byte (-1 = never written).
    oldest_byte_time: float = -1.0
    #: Write time of the file's newest byte (-1 = never written).
    newest_byte_time: float = -1.0
    #: Client that last wrote this file, for recall modelling (-1 = none).
    last_writer_client: int = -1
    #: Time of the last write, for recall modelling.
    last_write_time: float = -1.0

    def record_write(self, time: float, offset: int, length: int, client: int) -> None:
        """Fold one write run into the byte-age bookkeeping.

        A full overwrite (offset 0 covering the whole file) resets the
        oldest byte; a partial write only refreshes the newest.
        """
        if length <= 0:
            return
        end = offset + length
        covers_all = offset == 0 and end >= self.size
        self.size = max(self.size, end)
        if covers_all or self.oldest_byte_time < 0:
            self.oldest_byte_time = time
        self.newest_byte_time = time
        self.last_writer_client = client
        self.last_write_time = time

    def truncate(self, time: float) -> None:
        """Truncate to zero length; byte ages reset."""
        self.size = 0
        self.oldest_byte_time = -1.0
        self.newest_byte_time = -1.0
        self.last_write_time = time


class FileSpace:
    """The population of live files, plus creation/deletion bookkeeping."""

    def __init__(self, server_count: int, rng: RngStream) -> None:
        if server_count <= 0:
            raise TraceError(f"need at least one server, got {server_count}")
        self.server_count = server_count
        self._rng = rng
        self._ids = IdAllocator()
        self._files: dict[FileId, FileState] = {}
        self.created_count = 0
        self.deleted_count = 0

    def _pick_server(self) -> ServerId:
        """Most traffic went through a single Sun 4 server; weight it 70%
        and spread the rest across the other three."""
        if self.server_count == 1:
            return ServerId(0)
        if self._rng.bernoulli(0.7):
            return ServerId(0)
        return ServerId(self._rng.randint(1, self.server_count - 1))

    def create(self, time: float, owner: UserId, size: int = 0) -> FileState:
        """Create a new file.  A non-zero initial ``size`` models files
        that predate the trace (their bytes are treated as written at
        creation registration time)."""
        if size < 0:
            raise TraceError(f"negative file size: {size}")
        state = FileState(
            file_id=FileId(self._ids.allocate()),
            server_id=self._pick_server(),
            owner=owner,
            created_at=time,
            size=size,
            oldest_byte_time=time if size else -1.0,
            newest_byte_time=time if size else -1.0,
        )
        self._files[state.file_id] = state
        self.created_count += 1
        return state

    def get(self, file_id: FileId) -> FileState:
        state = self._files.get(file_id)
        if state is None:
            raise TraceError(f"file {file_id} does not exist (or was deleted)")
        return state

    def exists(self, file_id: FileId) -> bool:
        return file_id in self._files

    def delete(self, file_id: FileId) -> FileState:
        """Remove a file, returning its final state for the delete record."""
        state = self._files.pop(file_id, None)
        if state is None:
            raise TraceError(f"cannot delete missing file {file_id}")
        self.deleted_count += 1
        return state
