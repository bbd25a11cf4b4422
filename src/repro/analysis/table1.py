"""Table 1: overall trace statistics.

One row of counters per trace: users, Mbytes moved, and event counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.render import format_number, render_table
from repro.common.units import HOUR, bytes_to_mbytes
from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace
from repro.trace.records import (
    CloseRecord,
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
)

#: The counter each kind's records add to: one per record, or their
#: lengths for the kinds in ``_BYTES``.
_TALLY: dict[type[TraceRecord], str] = {
    OpenRecord: "open_events",
    CloseRecord: "close_events",
    ReadRunRecord: "bytes_read",
    WriteRunRecord: "bytes_written",
    RepositionRecord: "reposition_events",
    DeleteRecord: "delete_events",
    TruncateRecord: "truncate_events",
    SharedReadRecord: "shared_read_events",
    SharedWriteRecord: "shared_write_events",
    DirectoryReadRecord: "directory_bytes_read",
}
_BYTES = (ReadRunRecord, WriteRunRecord, DirectoryReadRecord)


@dataclass
class TraceStatistics:
    """The Table 1 row for one trace."""

    name: str = ""
    duration_hours: float = 0.0
    users: set[int] = field(default_factory=set)
    migration_users: set[int] = field(default_factory=set)
    bytes_read: int = 0
    bytes_written: int = 0
    directory_bytes_read: int = 0
    open_events: int = 0
    close_events: int = 0
    reposition_events: int = 0
    delete_events: int = 0
    truncate_events: int = 0
    shared_read_events: int = 0
    shared_write_events: int = 0

    @property
    def different_users(self) -> int:
        return len(self.users)

    @property
    def users_of_migration(self) -> int:
        return len(self.migration_users)

    @property
    def mbytes_read(self) -> float:
        return bytes_to_mbytes(self.bytes_read)

    @property
    def mbytes_written(self) -> float:
        return bytes_to_mbytes(self.bytes_written)

    @property
    def mbytes_read_from_directories(self) -> float:
        return bytes_to_mbytes(self.directory_bytes_read)

    def add_trace(self, trace: ColumnarTrace) -> None:
        """Count a trace's records, kind by kind."""
        for cls in RECORD_CLASSES:
            names = [n for n in ("migrated", "length") if n in cls.__dataclass_fields__]
            _, users, *columns = trace.select(cls, "user_id", *names)
            found = dict(zip(names, columns))
            known = users >= 0
            self.users.update(np.unique(users[known]).tolist())
            if "migrated" in found:
                migrated = users[known & found["migrated"]]
                self.migration_users.update(np.unique(migrated).tolist())
            if cls in _TALLY:
                added = int(found["length"].sum()) if cls in _BYTES else len(users)
                setattr(self, _TALLY[cls], getattr(self, _TALLY[cls]) + added)


def compute_table1(name: str, trace: ColumnarTrace, duration: float) -> TraceStatistics:
    """One trace's Table 1 row."""
    stats = TraceStatistics(name=name, duration_hours=duration / HOUR)
    stats.add_trace(trace)
    return stats


#: Table 1 row labels, in the paper's order, with accessor names.
_ROWS: tuple[tuple[str, str], ...] = (
    ("Trace duration (hours)", "duration_hours"),
    ("Different users", "different_users"),
    ("Users of migration", "users_of_migration"),
    ("Mbytes read from files", "mbytes_read"),
    ("Mbytes written to files", "mbytes_written"),
    ("Mbytes read from directories", "mbytes_read_from_directories"),
    ("Open events", "open_events"),
    ("Close events", "close_events"),
    ("Reposition events", "reposition_events"),
    ("Delete events", "delete_events"),
    ("Truncate events", "truncate_events"),
    ("Shared Read events", "shared_read_events"),
    ("Shared Write events", "shared_write_events"),
)


def render_table1(
    per_trace: list[TraceStatistics],
    title: str = "Table 1. Overall trace statistics",
    note: str | None = (
        "Synthetic traces; totals scale with the generation `scale` "
        "factor (multiply by 1/scale to compare with the paper)."
    ),
) -> str:
    """Render all traces side by side, like the paper's Table 1.

    The per-server breakdown reuses the same renderer with one
    *server's* pooled statistics per column instead of one trace's.
    """
    headers = ["Statistic"] + [stats.name for stats in per_trace]
    rows = []
    for label, attr in _ROWS:
        row = [label]
        for stats in per_trace:
            value = getattr(stats, attr)
            row.append(format_number(float(value), 1))
        rows.append(row)
    return render_table(title, headers, rows, note=note)
