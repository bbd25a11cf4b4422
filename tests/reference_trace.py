"""Record-list references for ``repro.trace``.

``src/`` keeps a trace only as columns.  This module keeps the record
side the columns replaced, so tests can compare against it:

* :func:`materialize`, the columns as the record list they encode;
* the record-walking validator, the reference for
  ``repro.trace.validate``: it visits one record object at a time and
  keeps a dict of open episodes, and on any stream both must return the
  same report, or raise the same exception class for the same rule at
  the same first failing record (``tests/test_trace_io.py``);
* the record-list trace-file writer, self-traffic filter, summarizer
  and splitter, the references for ``repro.trace.files``,
  ``repro.trace.filters`` and ``repro.trace.tools``.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import fields
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import TraceError, TraceOrderError
from repro.pipeline.codec import gc_paused
from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace
from repro.trace.filters import SELF_TRAFFIC_USER_IDS
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    TraceRecord,
    WriteRunRecord,
)
from repro.trace.tools import TraceSummary
from repro.trace.validate import ValidationReport

_MODES = tuple(AccessMode)
_new = object.__new__
_set = object.__setattr__


def _make_filler(kind_index: int):
    """exec-codegen a per-kind object builder.

    ``fill(out, positions, cols)`` materializes ``len(positions)``
    records from parallel Python-list columns and stores them at the
    given positions of ``out`` via ``object.__new__`` +
    ``object.__setattr__`` (no ``__init__``, no default processing,
    one C call per field).
    """
    cls = RECORD_CLASSES[kind_index]
    names = [item.name for item in fields(cls)]
    unpack = ", ".join(f"c{i}" for i in range(len(names)))
    lines = [
        "def fill(out, positions, cols):",
        f"    {unpack}{',' if len(names) == 1 else ''} = cols",
        "    j = 0",
        "    for pos in positions:",
        "        r = _new(_cls)",
    ]
    for i, name in enumerate(names):
        if name == "mode":
            lines.append(f"        _set(r, {name!r}, _MODES[c{i}[j]])")
        else:
            lines.append(f"        _set(r, {name!r}, c{i}[j])")
    lines.append("        out[pos] = r")
    lines.append("        j += 1")
    namespace = {"_new": _new, "_set": _set, "_cls": cls, "_MODES": _MODES}
    exec("\n".join(lines), namespace)
    return namespace["fill"]


_FILLERS = tuple(_make_filler(i) for i in range(len(RECORD_CLASSES)))


def materialize(columnar: ColumnarTrace) -> list[TraceRecord]:
    """The whole trace as a record list, in stream order, built with
    the cyclic GC paused: records whose types and field values are
    exactly what the columns encode."""
    out: list[TraceRecord] = [None] * len(columnar)  # type: ignore[list-item]
    with gc_paused():
        for index in np.unique(columnar.kind_idx).tolist():
            positions = np.nonzero(columnar.kind_idx == index)[0]
            rows = columnar.row_idx[positions]
            cols = [
                column[rows].tolist() for column in columnar.tables[index].columns
            ]
            _FILLERS[index](out, positions.tolist(), cols)
    return out


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


def to_dict(record: TraceRecord) -> dict:
    """One record as a trace-file line's dict: the kind, then the fields
    in declaration order, the access mode as its value string."""
    data = {"kind": record.kind}
    for item in fields(record):
        value = getattr(record, item.name)
        data[item.name] = value.value if isinstance(value, AccessMode) else value
    return data


def write_trace(path: str | os.PathLike[str], records: Iterable[TraceRecord]) -> int:
    """Write ``records`` to ``path``, one per line; returns the count."""
    path = os.fspath(path)
    opened = (
        gzip.open(path, "wt", encoding="utf-8") if path.endswith(".gz")
        else open(path, "w", encoding="utf-8")
    )
    count = 0
    with opened as handle:
        for record in records:
            json.dump(to_dict(record), handle, separators=(",", ":"))
            handle.write("\n")
            count += 1
    return count


def drop_self_traffic(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """Remove tracer self-traffic and nightly-backup records."""
    for record in records:
        if getattr(record, "user_id", None) in SELF_TRAFFIC_USER_IDS:
            continue
        yield record


def summarize(records: Iterable[TraceRecord]) -> TraceSummary:
    """Profile a record stream in one pass."""
    summary = TraceSummary()
    for record in records:
        summary.records += 1
        summary.by_kind[record.kind] += 1
        summary.first_time = min(summary.first_time, record.time)
        summary.last_time = max(summary.last_time, record.time)
        user = getattr(record, "user_id", None)
        if user is not None and user >= 0:
            summary.users.add(user)
        client = getattr(record, "client_id", None)
        if client is not None:
            summary.clients.add(client)
        file_id = getattr(record, "file_id", None)
        if file_id is not None and file_id >= 0:
            summary.files.add(file_id)
        if isinstance(record, ReadRunRecord):
            summary.bytes_read += record.length
        elif isinstance(record, WriteRunRecord):
            summary.bytes_written += record.length
    return summary


def split_by_duration(
    records: Iterable[TraceRecord], piece_duration: float
) -> Iterator[tuple[int, list[TraceRecord]]]:
    """Split a time-ordered stream into consecutive fixed-duration
    pieces, each piece's clock restarting at zero."""
    if piece_duration <= 0:
        raise TraceError(f"piece duration must be positive: {piece_duration}")
    pieces: dict[int, list[TraceRecord]] = {}
    last_time = float("-inf")
    for record in records:
        if record.time < last_time:
            raise TraceError("split_by_duration needs a time-ordered stream")
        last_time = record.time
        index = int(record.time // piece_duration)
        data = to_dict(record)
        data["time"] = record.time - index * piece_duration
        pieces.setdefault(index, []).append(TraceRecord.from_dict(data))
    for index in sorted(pieces):
        yield index, pieces[index]
