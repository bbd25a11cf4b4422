"""Sprite-style file system traces.

The paper's data came from kernel-call-level traces gathered on the four
Sprite file servers: opens, closes, repositions, deletes, truncates, and
-- for files undergoing write-sharing -- individual read/write requests.
This package defines that record vocabulary, the columnar form that
holds a trace in memory and whose merge orders per-server streams
(:mod:`repro.trace.columnar`), a JSON-lines trace file format read into
and written from it (:mod:`repro.trace.files`), the filter the paper
applied (dropping tracer self-traffic and nightly backups), and a
validator for the per-file event grammar.
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
from repro.trace.files import read_trace, write_trace
from repro.trace.filters import drop_self_traffic
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
    "read_trace",
    "write_trace",
    "drop_self_traffic",
    "validate_stream",
    "TraceSummary",
    "summarize",
    "split_by_duration",
]
