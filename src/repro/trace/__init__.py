"""Sprite-style file system traces.

The paper's data came from kernel-call-level traces gathered on the four
Sprite file servers: opens, closes, repositions, deletes, truncates, and
-- for files undergoing write-sharing -- individual read/write requests.
This package defines that record vocabulary, a JSON-lines trace file
format (:mod:`repro.trace.files`), a columnar form whose merge orders
per-server streams (:mod:`repro.trace.columnar`), the filter the paper
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
