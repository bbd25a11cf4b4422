"""Trace utilities: summarization and splitting.

The paper's captures ran for 48 hours and were "divided into eight
24-hour periods"; :func:`split_by_duration` performs that division.
:func:`summarize` gives the quick per-trace profile used by the
examples and by anyone inspecting a trace file.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.common.errors import TraceError
from repro.common.units import bytes_to_mbytes
from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace, _Table
from repro.trace.records import ReadRunRecord, WriteRunRecord


@dataclass
class TraceSummary:
    """A quick profile of one record stream."""

    records: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_read: int = 0
    bytes_written: int = 0
    users: set[int] = field(default_factory=set)
    clients: set[int] = field(default_factory=set)
    files: set[int] = field(default_factory=set)
    first_time: float = float("inf")
    last_time: float = float("-inf")

    @property
    def span_seconds(self) -> float:
        if self.records == 0:
            return 0.0
        return self.last_time - self.first_time

    def render(self) -> str:
        lines = [
            f"records        : {self.records}",
            f"span           : {self.span_seconds / 3600:.1f} hours",
            f"users          : {len(self.users)}",
            f"clients        : {len(self.clients)}",
            f"distinct files : {len(self.files)}",
            f"Mbytes read    : {bytes_to_mbytes(self.bytes_read):.1f}",
            f"Mbytes written : {bytes_to_mbytes(self.bytes_written):.1f}",
            "events by kind :",
        ]
        for kind, count in sorted(self.by_kind.items()):
            lines.append(f"  {kind:<14} {count}")
        return "\n".join(lines)


def summarize(trace: ColumnarTrace) -> TraceSummary:
    """Profile a trace from its columns."""
    summary = TraceSummary(records=len(trace))
    if not len(trace):
        return summary
    counts = np.bincount(trace.kind_idx, minlength=len(RECORD_CLASSES))
    summary.by_kind.update({
        cls.kind: count
        for cls, count in zip(RECORD_CLASSES, counts.tolist()) if count
    })
    summary.first_time = float(trace.times[0])
    summary.last_time = float(trace.times[-1])
    _, users, clients, files = trace.select(
        RECORD_CLASSES, "user_id", "client_id", "file_id"
    )
    summary.users = set(np.unique(users[users >= 0]).tolist())
    summary.clients = set(np.unique(clients).tolist())
    summary.files = set(np.unique(files[files >= 0]).tolist())
    summary.bytes_read = int(trace.select(ReadRunRecord, "length")[1].sum())
    summary.bytes_written = int(trace.select(WriteRunRecord, "length")[1].sum())
    return summary


def split_by_duration(
    trace: ColumnarTrace, piece_duration: float
) -> Iterator[tuple[int, ColumnarTrace]]:
    """Split a trace into consecutive fixed-duration pieces (the
    paper's 48-hour -> 2 x 24-hour division).

    Each piece's clock restarts at zero, so the pieces are standalone
    traces.  Episodes cut by a boundary simply lose their tail, exactly
    as the paper's split did; the analyses tolerate unbalanced episodes.
    """
    if piece_duration <= 0:
        raise TraceError(f"piece duration must be positive: {piece_duration}")
    times = trace.times
    if np.any(times[1:] < times[:-1]):
        raise TraceError("split_by_duration needs a time-ordered stream")
    pieces = np.floor_divide(times, piece_duration)
    for index in np.unique(pieces).tolist():
        shift = int(index) * piece_duration
        keep = pieces == index
        tables = [
            None if table is None else _Table(
                table.kind_index, [table.columns[0] - shift, *table.columns[1:]],
                table.count,
            )
            for table in trace.tables
        ]
        yield int(index), ColumnarTrace(
            tables, trace.kind_idx[keep], trace.row_idx[keep], times[keep] - shift
        )
