"""Trace record vocabulary.

The original traces recorded file activity at the level of kernel calls:
they logged opens, closes, and repositions (with the file offset before
and after), which is enough to deduce the exact range of bytes each
sequential run transferred.  We store each deduced run explicitly as a
``ReadRunRecord``/``WriteRunRecord`` emitted at the run's closing
boundary -- the same information the paper's analysis recovered, one
step earlier.

Deletions carry the write times of the file's oldest and newest bytes,
because that is exactly how the paper estimates lifetimes (Section 4.3):
per-file lifetime is the average of the oldest and newest byte ages;
per-byte lifetime assumes the file was written sequentially.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Type

from repro.common.errors import TraceError


class AccessMode(enum.Enum):
    """The mode a file was opened in (the *intent*; Table 3 classifies by
    what actually happened, which the analysis derives from the runs)."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """Base class: every record has a timestamp (seconds from trace start)
    and the server that logged it."""

    time: float
    server_id: int

    #: Registry of kind-string -> record class, populated by subclasses.
    _registry: ClassVar[dict[str, Type["TraceRecord"]]] = {}
    kind: ClassVar[str] = "base"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # No zero-arg super() here: ``slots=True`` rebuilds TraceRecord,
        # which would leave this method's ``__class__`` cell pointing at
        # the discarded original.
        # ``@dataclass(slots=True)`` rebuilds the class, so every record
        # class registers twice under the same kind; the final (slotted)
        # class wins.  A *different* class reusing a kind is still an
        # error.
        existing = TraceRecord._registry.get(cls.kind)
        if existing is not None and existing.__qualname__ != cls.__qualname__:
            raise TraceError(f"duplicate trace record kind {cls.kind!r}")
        TraceRecord._registry[cls.kind] = cls

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TraceRecord":
        """Deserialize a trace-file line's dict: the kind, then the
        fields, the mode as its value string.  Each field's JSON type
        must match its annotation: an ``int`` field takes an integer
        (not a bool, a float or a string), a ``float`` field an integer
        or a float (not a bool), a ``bool`` field only a bool.  Anything
        else raises :class:`TraceError`."""
        if not isinstance(data, dict):
            raise TraceError(
                f"trace record must be a JSON object, got {type(data).__name__}"
            )
        try:
            kind = data["kind"]
        except KeyError:
            raise TraceError(f"trace record missing 'kind': {data!r}") from None
        cls = TraceRecord._registry.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise TraceError(f"unknown trace record kind {kind!r}")
        kwargs = {k: v for k, v in data.items() if k != "kind"}
        if "mode" in kwargs and isinstance(kwargs["mode"], str):
            try:
                kwargs["mode"] = AccessMode(kwargs["mode"])
            except ValueError:
                raise TraceError(
                    f"unknown access mode {kwargs['mode']!r} in {kind!r} record"
                ) from None
        annotations = _annotations(cls)
        for name, value in kwargs.items():
            annotation = annotations.get(name)
            if annotation is not None and type(value) not in _JSON_TYPES[annotation]:
                raise TraceError(
                    f"field {name!r} of {kind!r} record must be {annotation}, "
                    f"got {type(value).__name__} {value!r}"
                )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise TraceError(f"bad fields for {kind!r} record: {exc}") from exc


#: The exact value types each field annotation accepts from a JSON line
#: (exact, so a bool never passes for a number).
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "AccessMode": (AccessMode,),
}


@functools.cache
def _annotations(cls: Type[TraceRecord]) -> dict[str, str]:
    """``cls``'s field name -> annotation."""
    return {f.name: f.type for f in fields(cls)}


@dataclass(frozen=True, slots=True)
class OpenRecord(TraceRecord):
    """A file open.  ``open_id`` ties together the whole open..close
    episode; ``migrated`` marks activity performed by a migrated process
    (the basis of Table 2's migration column)."""

    kind: ClassVar[str] = "open"

    open_id: int = 0
    file_id: int = 0
    user_id: int = 0
    process_id: int = 0
    client_id: int = 0
    mode: AccessMode = AccessMode.READ
    size_at_open: int = 0
    migrated: bool = False


@dataclass(frozen=True, slots=True)
class CloseRecord(TraceRecord):
    """A file close, with the totals the server knew at close time."""

    kind: ClassVar[str] = "close"

    open_id: int = 0
    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    size_at_close: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    migrated: bool = False


@dataclass(frozen=True, slots=True)
class ReadRunRecord(TraceRecord):
    """One sequential read run within an open episode.

    A run is bounded at the start by the open or a reposition and at the
    end by the close or another reposition (Section 4.2's definition).
    ``time`` is the run's closing boundary.
    """

    kind: ClassVar[str] = "read_run"

    open_id: int = 0
    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    offset: int = 0
    length: int = 0
    migrated: bool = False


@dataclass(frozen=True, slots=True)
class WriteRunRecord(TraceRecord):
    """One sequential write run within an open episode."""

    kind: ClassVar[str] = "write_run"

    open_id: int = 0
    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    offset: int = 0
    length: int = 0
    migrated: bool = False


@dataclass(frozen=True, slots=True)
class RepositionRecord(TraceRecord):
    """An ``lseek`` that moved the file offset (random access marker)."""

    kind: ClassVar[str] = "reposition"

    open_id: int = 0
    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    offset_before: int = 0
    offset_after: int = 0
    migrated: bool = False


@dataclass(frozen=True, slots=True)
class CreateRecord(TraceRecord):
    """A file creation (new name in the hierarchy)."""

    kind: ClassVar[str] = "create"

    file_id: int = 0
    user_id: int = 0
    client_id: int = 0


@dataclass(frozen=True, slots=True)
class DeleteRecord(TraceRecord):
    """A file or directory removal.

    ``oldest_byte_time``/``newest_byte_time`` are the write times of the
    file's oldest and newest bytes, from which Section 4.3 estimates
    lifetimes.  They are negative (sentinel ``-1.0``) for files never
    written during the trace.
    """

    kind: ClassVar[str] = "delete"

    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    size: int = 0
    oldest_byte_time: float = -1.0
    newest_byte_time: float = -1.0


@dataclass(frozen=True, slots=True)
class TruncateRecord(TraceRecord):
    """A truncate-to-zero; the lifetime analysis treats it as a delete."""

    kind: ClassVar[str] = "truncate"

    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    size: int = 0
    oldest_byte_time: float = -1.0
    newest_byte_time: float = -1.0


@dataclass(frozen=True, slots=True)
class SharedReadRecord(TraceRecord):
    """A single read request on a file undergoing concurrent
    write-sharing.  While a file is uncacheable every request passes
    through to the server, so these were easy for the authors to log;
    they feed the consistency simulations of Sections 5.5 and 5.6."""

    kind: ClassVar[str] = "shared_read"

    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    offset: int = 0
    length: int = 0
    migrated: bool = False


@dataclass(frozen=True, slots=True)
class SharedWriteRecord(TraceRecord):
    """A single write request on a file undergoing write-sharing."""

    kind: ClassVar[str] = "shared_write"

    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    offset: int = 0
    length: int = 0
    migrated: bool = False


@dataclass(frozen=True, slots=True)
class DirectoryReadRecord(TraceRecord):
    """A user-level directory read (e.g. listing a directory); Sprite does
    not cache directories on clients, so these always reach the server."""

    kind: ClassVar[str] = "dir_read"

    file_id: int = 0
    user_id: int = 0
    client_id: int = 0
    length: int = 0
