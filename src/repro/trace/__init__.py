"""Sprite-style file system traces.

The paper's data came from kernel-call-level traces gathered on the four
Sprite file servers: opens, closes, repositions, deletes, truncates, and
-- for files undergoing write-sharing -- individual read/write requests.
This package defines that record vocabulary, a streaming JSON-lines
serialization, a columnar form whose merge orders per-server streams
(:mod:`repro.trace.columnar`), the filters the paper applied
(dropping tracer self-traffic and nightly backups), and a validator for
the per-file event grammar.
"""

from repro.trace.records import (
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
    TruncateRecord,
    WriteRunRecord,
    AccessMode,
)
from repro.trace.reader import TraceReader, read_trace
from repro.trace.writer import TraceWriter, write_trace
from repro.trace.filters import drop_users, drop_self_traffic, time_window
from repro.trace.validate import validate_stream
from repro.trace.tools import TraceSummary, split_by_duration, summarize

__all__ = [
    "AccessMode",
    "TraceRecord",
    "OpenRecord",
    "CloseRecord",
    "ReadRunRecord",
    "WriteRunRecord",
    "RepositionRecord",
    "CreateRecord",
    "DeleteRecord",
    "TruncateRecord",
    "SharedReadRecord",
    "SharedWriteRecord",
    "DirectoryReadRecord",
    "TraceReader",
    "TraceWriter",
    "read_trace",
    "write_trace",
    "drop_users",
    "drop_self_traffic",
    "time_window",
    "validate_stream",
    "TraceSummary",
    "summarize",
    "split_by_duration",
]
