"""The record-walking trace validator, kept as the reference for
``repro.trace.validate``.

This loop visits one record object at a time and keeps a dict of open
episodes.  The production validator checks the same grammar with array
operations over a :class:`~repro.trace.columnar.ColumnarTrace`; on any
stream both must return the same report, or raise the same exception
class for the same rule at the same first failing record
(``tests/test_trace_io.py``).
"""

from __future__ import annotations

from typing import Iterable

from repro.common.errors import TraceError, TraceOrderError
from repro.trace.records import (
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    TraceRecord,
    WriteRunRecord,
)
from repro.trace.validate import ValidationReport


def validate_stream(
    records: Iterable[TraceRecord],
    allow_open_at_end: bool = True,
) -> ValidationReport:
    """Validate a time-ordered record stream; raises on violations."""
    report = ValidationReport()
    open_files: dict[int, int] = {}  # open_id -> file_id
    last_time = float("-inf")

    for record in records:
        report.records += 1
        if record.time < last_time:
            raise TraceOrderError(
                f"record #{report.records} ({record.kind}) at {record.time} "
                f"is earlier than previous record at {last_time}"
            )
        last_time = record.time

        if isinstance(record, OpenRecord):
            if record.open_id in open_files:
                raise TraceError(
                    f"open_id {record.open_id} opened twice without a close"
                )
            open_files[record.open_id] = record.file_id
            report.opens += 1
        elif isinstance(record, CloseRecord):
            expected = open_files.pop(record.open_id, None)
            if expected is None:
                raise TraceError(
                    f"close of unknown open_id {record.open_id} at {record.time}"
                )
            if expected != record.file_id:
                raise TraceError(
                    f"close of open_id {record.open_id} names file "
                    f"{record.file_id} but it was opened on file {expected}"
                )
            report.closes += 1
        elif isinstance(record, (ReadRunRecord, WriteRunRecord, RepositionRecord)):
            expected = open_files.get(record.open_id)
            if expected is None:
                raise TraceError(
                    f"{record.kind} on unopened open_id {record.open_id} "
                    f"at {record.time}"
                )
            if expected != record.file_id:
                raise TraceError(
                    f"{record.kind} on open_id {record.open_id} names file "
                    f"{record.file_id} but the episode is on file {expected}"
                )
            if isinstance(record, (ReadRunRecord, WriteRunRecord)):
                if record.length < 0 or record.offset < 0:
                    raise TraceError(
                        f"negative offset/length in {record.kind} at {record.time}"
                    )

    report.unclosed_open_ids = sorted(open_files)
    if report.unclosed_open_ids and not allow_open_at_end:
        raise TraceError(
            f"{len(report.unclosed_open_ids)} episodes never closed: "
            f"{report.unclosed_open_ids[:10]}"
        )
    return report
