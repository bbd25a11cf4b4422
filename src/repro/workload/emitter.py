"""Record emission: turning application behaviour into legal traces.

Applications express themselves in terms of open episodes, runs, and
file lifecycle operations; :class:`RecordEmitter` turns those into the
trace vocabulary while maintaining the invariants the validator checks
(every run inside an open episode, repositions wherever a run starts
away from the previous position, close totals that match the runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import TraceError
from repro.common.ids import ClientId, IdAllocator, UserId
from repro.trace.columnar import ColumnarTraceBuilder
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    CreateRecord,
    DeleteRecord,
    DirectoryReadRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    SharedReadRecord,
    SharedWriteRecord,
    TraceRecord,
    WriteRunRecord,
)
from repro.workload.filespace import FileSpace, FileState


@dataclass
class OpenEpisode:
    """One in-progress open..close episode."""

    emitter: "RecordEmitter"
    open_id: int
    file: FileState
    user_id: UserId
    client_id: ClientId
    mode: AccessMode
    migrated: bool
    opened_at: float
    position: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    closed: bool = False
    last_time: float = field(default=0.0)

    def _check_open(self, time: float) -> None:
        if self.closed:
            raise TraceError(f"episode {self.open_id} already closed")
        if time < self.last_time:
            raise TraceError(
                f"episode {self.open_id} time went backwards: "
                f"{time} < {self.last_time}"
            )

    def _seek_if_needed(self, time: float, offset: int) -> None:
        """Emit a reposition when a run starts away from the current
        position (the paper's traces logged exactly these lseeks)."""
        if offset != self.position:
            self.emitter._emit_row(
                RepositionRecord,
                (
                    time,
                    int(self.file.server_id),
                    self.open_id,
                    int(self.file.file_id),
                    int(self.user_id),
                    int(self.client_id),
                    self.position,
                    offset,
                    self.migrated,
                ),
            )
            self.position = offset

    def read(self, end_time: float, offset: int, length: int) -> None:
        """One sequential read run ending at ``end_time``."""
        self._check_open(end_time)
        if length <= 0:
            raise TraceError(f"read run needs positive length, got {length}")
        self._seek_if_needed(self.last_time or self.opened_at, offset)
        self.emitter._emit_row(
            ReadRunRecord,
            (
                end_time,
                int(self.file.server_id),
                self.open_id,
                int(self.file.file_id),
                int(self.user_id),
                int(self.client_id),
                offset,
                length,
                self.migrated,
            ),
        )
        self.position = offset + length
        self.bytes_read += length
        self.last_time = end_time

    def write(self, end_time: float, offset: int, length: int) -> None:
        """One sequential write run ending at ``end_time``."""
        self._check_open(end_time)
        if length <= 0:
            raise TraceError(f"write run needs positive length, got {length}")
        self._seek_if_needed(self.last_time or self.opened_at, offset)
        self.emitter._emit_row(
            WriteRunRecord,
            (
                end_time,
                int(self.file.server_id),
                self.open_id,
                int(self.file.file_id),
                int(self.user_id),
                int(self.client_id),
                offset,
                length,
                self.migrated,
            ),
        )
        self.file.record_write(end_time, offset, length, int(self.client_id))
        self.position = offset + length
        self.bytes_written += length
        self.last_time = end_time

    def shared_request(
        self, time: float, offset: int, length: int, is_write: bool
    ) -> None:
        """Log one per-request server event for a write-shared file.

        These are *in addition to* the coalesced runs -- they carry no
        new bytes for Table 1, only the fine-grained request stream the
        consistency simulators consume.
        """
        self._check_open(time)
        cls = SharedWriteRecord if is_write else SharedReadRecord
        self.emitter._emit_row(
            cls,
            (
                time,
                int(self.file.server_id),
                int(self.file.file_id),
                int(self.user_id),
                int(self.client_id),
                offset,
                length,
                self.migrated,
            ),
        )
        self.last_time = time

    def close(self, time: float) -> None:
        """End the episode."""
        self._check_open(time)
        self.closed = True
        self.emitter._emit_row(
            CloseRecord,
            (
                time,
                int(self.file.server_id),
                self.open_id,
                int(self.file.file_id),
                int(self.user_id),
                int(self.client_id),
                self.file.size,
                self.bytes_read,
                self.bytes_written,
                self.migrated,
            ),
        )
        self.emitter._episode_closed(self)


class RecordEmitter:
    """Produces trace records into an in-memory columnar sink.

    Emission appends plain value rows (dataclass field order) to a
    :class:`~repro.trace.columnar.ColumnarTraceBuilder` -- no record
    objects are constructed on the hot path.  The generator seals the
    sink into a sorted :class:`~repro.trace.columnar.ColumnarTrace`.
    """

    def __init__(self, filespace: FileSpace) -> None:
        self.filespace = filespace
        self.sink = ColumnarTraceBuilder()
        self._open_ids = IdAllocator(start=1)
        self._open_episodes: dict[int, OpenEpisode] = {}

    def _emit_row(self, cls: type[TraceRecord], row: tuple) -> None:
        self.sink.append(cls, row)

    def _episode_closed(self, episode: OpenEpisode) -> None:
        self._open_episodes.pop(episode.open_id, None)

    # --- lifecycle operations ----------------------------------------------

    def create_file(
        self, time: float, user_id: UserId, client_id: ClientId, size: int = 0
    ) -> FileState:
        """Create a file and emit the create record."""
        state = self.filespace.create(time, user_id, size=size)
        self._emit_row(
            CreateRecord,
            (
                time,
                int(state.server_id),
                int(state.file_id),
                int(user_id),
                int(client_id),
            ),
        )
        return state

    def register_existing_file(
        self, time: float, user_id: UserId, size: int
    ) -> FileState:
        """Register a file that predates the trace (no create record)."""
        return self.filespace.create(time, user_id, size=size)

    def open_file(
        self,
        time: float,
        file: FileState,
        user_id: UserId,
        client_id: ClientId,
        mode: AccessMode,
        migrated: bool = False,
        truncate: bool = False,
    ) -> OpenEpisode:
        """Open a file, optionally truncating it (O_TRUNC semantics)."""
        if not self.filespace.exists(file.file_id):
            raise TraceError(f"cannot open deleted file {file.file_id}")
        if truncate and mode is AccessMode.READ:
            raise TraceError("cannot truncate a file opened read-only")
        size_at_open = file.size
        if truncate:
            file.truncate(time)
        episode = OpenEpisode(
            emitter=self,
            open_id=self._open_ids.allocate(),
            file=file,
            user_id=user_id,
            client_id=client_id,
            mode=mode,
            migrated=migrated,
            opened_at=time,
            last_time=time,
        )
        self._open_episodes[episode.open_id] = episode
        self._emit_row(
            OpenRecord,
            (
                time,
                int(file.server_id),
                episode.open_id,
                int(file.file_id),
                int(user_id),
                0,
                int(client_id),
                mode,
                size_at_open,
                migrated,
            ),
        )
        return episode

    def delete_file(
        self, time: float, file: FileState, user_id: UserId, client_id: ClientId
    ) -> None:
        """Delete a file, emitting its lifetime information."""
        state = self.filespace.delete(file.file_id)
        self._emit_row(
            DeleteRecord,
            (
                time,
                int(state.server_id),
                int(state.file_id),
                int(user_id),
                int(client_id),
                state.size,
                state.oldest_byte_time,
                state.newest_byte_time,
            ),
        )

    def read_directory(
        self, time: float, user_id: UserId, client_id: ClientId, length: int
    ) -> None:
        """A user-level directory read (always served by the server)."""
        if length <= 0:
            raise TraceError(f"directory read needs positive length, got {length}")
        self._emit_row(
            DirectoryReadRecord,
            (
                time,
                0,
                -1,
                int(user_id),
                int(client_id),
                length,
            ),
        )
