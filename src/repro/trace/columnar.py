"""Columnar trace storage: the one in-memory form of a trace.

A day of trace activity at ``scale >= 10`` is millions of records; a
Python object per record costs ~150 bytes plus allocator churn, and a
whole-day list is the single biggest RSS line item in a replay.  This
module stores the stream as *columns* -- one flat array per field per
record kind, plus a global time-sorted order index -- so that:

* generation appends plain value rows (no dataclass construction),
* sorting is an ``argsort`` over one float array instead of an object
  sort,
* replay, validation, the analyses and the trace-file tools never
  build a :class:`~repro.trace.records.TraceRecord`: they read gathered
  field columns (:meth:`ColumnarTrace.gather`, chunk by chunk through
  :meth:`ColumnarTrace.iter_columns`), or the fields of the kinds they
  need (:meth:`ColumnarTrace.select`).  A record exists only while
  :func:`~repro.trace.files.read_trace` feeds one file line through
  :meth:`ColumnarTrace.from_records`, and
* shard math (remapping a group's ids into a disjoint global id space,
  merging group streams into one time-ordered stream) is vectorized
  array arithmetic.

The record classes are the schema: a kind's table has one column per
dataclass field, in field order, and round-trips ``float``/``int``/
``bool`` losslessly.  The sort is stable with emission order as the
tie-break, matching ``list.sort(key=time)`` on an emission-ordered list.

Columns are numpy arrays (a declared dependency).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import TraceError, TraceOrderError
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
    TruncateRecord,
    WriteRunRecord,
)

#: Pinned kind order: the codec-visible layout of a columnar trace.
#: Append only -- positions are part of the payload format.
RECORD_CLASSES: tuple[type[TraceRecord], ...] = (
    OpenRecord,
    CloseRecord,
    ReadRunRecord,
    WriteRunRecord,
    RepositionRecord,
    CreateRecord,
    DeleteRecord,
    TruncateRecord,
    SharedReadRecord,
    SharedWriteRecord,
    DirectoryReadRecord,
)

_KIND_INDEX: dict[type[TraceRecord], int] = {
    cls: index for index, cls in enumerate(RECORD_CLASSES)
}

#: Column code of each access mode (its position in ``AccessMode``).
MODE_CODES: dict[AccessMode, int] = {mode: i for i, mode in enumerate(AccessMode)}

#: dtype code per annotated field type ('f8' float64, 'i8' int64,
#: 'b1' bool, 'u1' enum code).
_DTYPE_BY_ANNOTATION = {
    "float": "f8",
    "int": "i8",
    "bool": "b1",
    "AccessMode": "u1",
}


def _field_specs(cls: type[TraceRecord]) -> tuple[tuple[str, str], ...]:
    specs = []
    for item in dataclass_fields(cls):
        annotation = item.type if isinstance(item.type, str) else item.type.__name__
        dtype = _DTYPE_BY_ANNOTATION.get(annotation)
        if dtype is None:  # pragma: no cover - future field types
            raise TraceError(
                f"{cls.__name__}.{item.name}: no columnar dtype for "
                f"field type {annotation!r}"
            )
        specs.append((item.name, dtype))
    return tuple(specs)


_SPECS: tuple[tuple[tuple[str, str], ...], ...] = tuple(
    _field_specs(cls) for cls in RECORD_CLASSES
)

#: The fields :meth:`ColumnarTrace.iter_columns` gathers, in yield
#: order after the kind code and the time, with their gather dtypes.
COLUMN_FIELDS: tuple[tuple[str, str], ...] = (
    ("client_id", "i8"),
    ("file_id", "i8"),
    ("open_id", "i8"),
    ("offset", "i8"),
    ("length", "i8"),
    ("migrated", "b1"),
    ("mode", "u1"),
)

#: Per kind: ``(slot in COLUMN_FIELDS, column index in the kind's
#: table)`` for each gathered field the kind has.
_COLUMN_SOURCES: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(
        (slot, names.index(field))
        for slot, (field, _) in enumerate(COLUMN_FIELDS)
        if field in names
    )
    for names in ([name for name, _ in specs] for specs in _SPECS)
)

class _Table:
    """Sealed per-kind columns (parallel arrays, one per field)."""

    __slots__ = ("kind_index", "columns", "count")

    def __init__(self, kind_index: int, columns: list, count: int) -> None:
        self.kind_index = kind_index
        self.columns = columns  # aligned with _SPECS[kind_index]
        self.count = count


class ColumnarTraceBuilder:
    """Row sink the emitter appends into; ``seal`` produces the trace.

    Rows are plain value tuples in dataclass field order; a global
    sequence number per row preserves emission order for the stable
    sort's tie-break.
    """

    __slots__ = ("_rows", "_seqs", "_count")

    def __init__(self) -> None:
        self._rows: list[list[tuple]] = [[] for _ in RECORD_CLASSES]
        self._seqs: list[list[int]] = [[] for _ in RECORD_CLASSES]
        self._count = 0

    def append(self, cls: type[TraceRecord], row: tuple) -> None:
        index = _KIND_INDEX[cls]
        self._rows[index].append(row)
        self._seqs[index].append(self._count)
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def seal(self, duration: float | None = None) -> "ColumnarTrace":
        """Freeze rows into columns, drop records outside
        ``[0, duration)`` when given, and time-sort (stable, emission
        order as tie-break)."""
        tables: list[_Table | None] = []
        times_parts: list = []
        seqs_parts: list = []
        kind_parts: list = []
        row_parts: list = []
        for index in range(len(RECORD_CLASSES)):
            rows = self._rows[index]
            if not rows:
                tables.append(None)
                continue
            specs = _SPECS[index]
            transposed = list(zip(*rows))
            columns = []
            for (name, dtype), raw in zip(specs, transposed):
                if dtype == "u1":
                    raw = [MODE_CODES[value] for value in raw]
                columns.append(np.asarray(raw, dtype=dtype))
            count = len(rows)
            tables.append(_Table(index, columns, count))
            times_parts.append(columns[0])  # field 0 is always `time`
            seqs_parts.append(np.asarray(self._seqs[index], dtype="i8"))
            kind_parts.append(np.full(count, index, dtype="u1"))
            row_parts.append(np.arange(count, dtype="i8"))

        if not times_parts:
            return ColumnarTrace(
                tables,
                np.empty(0, dtype="u1"),
                np.empty(0, dtype="i8"),
                np.empty(0, dtype="f8"),
            )

        times = np.concatenate(times_parts)
        seqs = np.concatenate(seqs_parts)
        kinds = np.concatenate(kind_parts)
        rows = np.concatenate(row_parts)
        if duration is not None:
            mask = (times >= 0.0) & (times < duration)
            times, seqs, kinds, rows = (
                times[mask], seqs[mask], kinds[mask], rows[mask],
            )
        order = np.lexsort((seqs, times))
        return ColumnarTrace(tables, kinds[order], rows[order], times[order])


class ColumnarTrace:
    """A sealed, time-sorted trace in columnar form.

    Two traces are equal when their column arrays are: the same tables,
    the same order, the same times.
    """

    #: Column gather chunk (records) for :meth:`iter_columns`: nine
    #: Python lists of a few thousand values each.  Larger chunks buy
    #: no speed and raise the replay's peak RSS.
    COLUMN_CHUNK = 2048

    __slots__ = ("tables", "kind_idx", "row_idx", "times")

    def __init__(self, tables, kind_idx, row_idx, times) -> None:
        self.tables = tables      # list aligned with RECORD_CLASSES (None = empty)
        self.kind_idx = kind_idx  # u1 per sorted position
        self.row_idx = row_idx    # i8 row within the kind's table
        self.times = times        # f8 per sorted position (sorted ascending)

    def __len__(self) -> int:
        return len(self.kind_idx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        if len(self.tables) != len(other.tables):
            return False
        for mine, theirs in zip(self.tables, other.tables):
            if mine is None or theirs is None:
                if mine is not theirs:
                    return False
            elif not all(
                np.array_equal(a, b)
                for a, b in zip(mine.columns, theirs.columns)
            ):
                return False
        return (
            np.array_equal(self.kind_idx, other.kind_idx)
            and np.array_equal(self.row_idx, other.row_idx)
            and np.array_equal(self.times, other.times)
        )

    # --- reading ---------------------------------------------------------

    def iter_columns(
        self, chunk_size: int = COLUMN_CHUNK
    ) -> Iterator[tuple[list, ...]]:
        """The stream as aligned field lists, chunk by chunk, in time order.

        For positions ``[lo, hi)`` each chunk is a tuple of lists: the
        kind code (the ``RECORD_CLASSES`` index), the time, then one
        list per :data:`COLUMN_FIELDS` entry (``mode`` as its
        :data:`MODE_CODES` code).  A field the record's kind lacks
        reads 0.  No record object is built.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        total = len(self)
        for lo in range(0, total, chunk_size):
            hi = min(lo + chunk_size, total)
            yield (
                self.kind_idx[lo:hi].tolist(),
                self.times[lo:hi].tolist(),
                *(values.tolist() for values in self.gather(lo, hi)),
            )

    def gather(self, lo: int, hi: int) -> list[np.ndarray]:
        """One array per :data:`COLUMN_FIELDS` entry for positions
        ``[lo, hi)``, in stream order; a field the kind lacks reads 0."""
        kind_slice = self.kind_idx[lo:hi]
        row_slice = self.row_idx[lo:hi]
        gathered = [np.zeros(hi - lo, dtype=dtype) for _, dtype in COLUMN_FIELDS]
        for index in np.unique(kind_slice).tolist():
            positions = np.nonzero(kind_slice == index)[0]
            rows = row_slice[positions]
            columns = self.tables[index].columns
            for slot, source in _COLUMN_SOURCES[index]:
                gathered[slot][positions] = columns[source][rows]
        return gathered

    def select(
        self,
        kinds: type[TraceRecord] | tuple[type[TraceRecord], ...],
        *names: str,
    ) -> tuple[np.ndarray, ...]:
        """The stream positions of the records of ``kinds`` (one record
        class or a tuple of them), then one array per named field of
        those records, all in stream order.  A field that some of the
        kinds lack reads 0 in their rows; a field none of them has
        raises ``KeyError``.

        A kind's table can hold rows that are not in the stream (``seal``
        drops out-of-window records from the order only), so a kind is
        read through the order's rows, never as whole table columns.
        """
        classes = kinds if isinstance(kinds, tuple) else (kinds,)
        codes = [_KIND_INDEX[cls] for cls in classes]
        dtypes = {}
        for code in codes:
            for name, dtype in _SPECS[code]:
                dtypes.setdefault(name, dtype)
        positions = np.flatnonzero(np.isin(self.kind_idx, codes))
        rows = self.row_idx[positions]
        kind_at = self.kind_idx[positions]
        out = [np.zeros(len(positions), dtype=dtypes[name]) for name in names]
        for code in codes:
            table = self.tables[code]
            if table is None:
                continue
            at = kind_at == code
            kind_rows = rows[at]
            fields = [name for name, _ in _SPECS[code]]
            for column, name in zip(out, names):
                if name in fields:
                    column[at] = table.columns[fields.index(name)][kind_rows]
        return (positions, *out)

    def subset(self, keep: np.ndarray) -> "ColumnarTrace":
        """The records at the stream positions where ``keep`` is true, in
        stream order; the kind tables are shared, not copied."""
        return ColumnarTrace(
            self.tables, self.kind_idx[keep], self.row_idx[keep], self.times[keep]
        )

    # --- shard math --------------------------------------------------------

    def max_file_id(self) -> int:
        """Largest file id referenced by any record (-1 when none) --
        what the scale-out id-space guard checks against the paging
        binaries' reserved range."""
        largest = -1
        for table in self.tables:
            if table is None:
                continue
            specs = _SPECS[table.kind_index]
            for (name, _), column in zip(specs, table.columns):
                if name == "file_id" and len(column):
                    largest = max(largest, int(column.max()))
        return largest

    def remap_group(
        self, group: int, groups: int, client_base: int
    ) -> "ColumnarTrace":
        """Relabel a group-local trace into its global id space.

        File, open, and user ids are strided (``local * groups +
        group``) so every group owns a disjoint residue class --
        ``file_id % groups`` recovers the owning group.  Negative file
        ids (directory-read sentinels) pass through; client ids shift
        by ``client_base``.  Times and order are untouched, so the
        result is still sorted.
        """
        if not 0 <= group < groups:
            raise ValueError(f"group {group} out of range for {groups} groups")
        tables: list[_Table | None] = []
        for table in self.tables:
            if table is None:
                tables.append(None)
                continue
            specs = _SPECS[table.kind_index]
            columns = []
            for (name, _), column in zip(specs, table.columns):
                if name in ("open_id", "user_id"):
                    column = column * groups + group
                elif name == "file_id":
                    column = np.where(
                        column >= 0, column * groups + group, column
                    )
                elif name == "client_id":
                    column = column + client_base
                columns.append(column)
            tables.append(_Table(table.kind_index, columns, table.count))
        return ColumnarTrace(tables, self.kind_idx, self.row_idx, self.times)

    @staticmethod
    def merge(
        traces: Sequence["ColumnarTrace"],
        ranks: Sequence[int] | None = None,
    ) -> "ColumnarTrace":
        """Merge sorted traces into one sorted trace.

        Ties are broken by ``rank`` (the trace's global group index,
        defaulting to its position) and then within-trace order, so the
        merged order is a strict total order: merging any *subset* of
        the traces yields exactly the full merge restricted to that
        subset.  That restriction property is what makes partitioned
        replay's dispatch order provably consistent with the
        unpartitioned replay's.
        """
        if ranks is None:
            ranks = list(range(len(traces)))
        if len(ranks) != len(traces):
            raise ValueError("ranks and traces must align")
        if len(traces) == 1:
            return traces[0]
        if not traces:
            return ColumnarTraceBuilder().seal()

        # Concatenate per-kind tables, tracking each trace's row offset.
        merged_tables: list[_Table | None] = []
        offsets = [[0] * len(RECORD_CLASSES) for _ in traces]
        for index in range(len(RECORD_CLASSES)):
            parts = []
            running = 0
            for t, trace in enumerate(traces):
                offsets[t][index] = running
                table = trace.tables[index]
                if table is not None:
                    parts.append(table)
                    running += table.count
            if not parts:
                merged_tables.append(None)
                continue
            if len(parts) == 1:
                merged_tables.append(parts[0])
            else:
                columns = [
                    np.concatenate([p.columns[c] for p in parts])
                    for c in range(len(parts[0].columns))
                ]
                merged_tables.append(_Table(index, columns, running))

        times = np.concatenate([t.times for t in traces])
        rank_arr = np.concatenate(
            [np.full(len(t), rank, dtype="i8") for t, rank in zip(traces, ranks)]
        )
        pos_arr = np.concatenate([np.arange(len(t), dtype="i8") for t in traces])
        kind_all = np.concatenate([t.kind_idx for t in traces])
        row_parts = []
        for t_index, trace in enumerate(traces):
            shift = np.asarray(offsets[t_index], dtype="i8")
            row_parts.append(trace.row_idx + shift[trace.kind_idx])
        row_all = np.concatenate(row_parts)
        order = np.lexsort((pos_arr, rank_arr, times))
        return ColumnarTrace(
            merged_tables, kind_all[order], row_all[order], times[order]
        )

    # --- wire format -------------------------------------------------------

    def to_payload(self) -> dict:
        """A marshal-compatible payload (the codec's ``C`` artifact body)."""
        kinds = []
        for table in self.tables:
            if table is None:
                kinds.append(None)
                continue
            specs = _SPECS[table.kind_index]
            columns = [
                (dtype, np.ascontiguousarray(column).tobytes())
                for (_, dtype), column in zip(specs, table.columns)
            ]
            kinds.append((table.count, columns))
        order = (
            np.ascontiguousarray(self.kind_idx).tobytes(),
            np.ascontiguousarray(self.row_idx).tobytes(),
            np.ascontiguousarray(self.times).tobytes(),
        )
        return {"version": 1, "kinds": kinds, "order": order}

    @classmethod
    def from_payload(cls, payload: dict) -> "ColumnarTrace":
        if payload.get("version") != 1:
            raise TraceError(
                f"unknown columnar payload version {payload.get('version')!r}"
            )
        tables: list[_Table | None] = []
        for index, entry in enumerate(payload["kinds"]):
            if entry is None:
                tables.append(None)
                continue
            count, columns_payload = entry
            columns = [
                np.frombuffer(data, dtype=dtype)
                for dtype, data in columns_payload
            ]
            tables.append(_Table(index, columns, count))
        kind_data, row_data, time_data = payload["order"]
        return ColumnarTrace(
            tables,
            np.frombuffer(kind_data, dtype="u1"),
            np.frombuffer(row_data, dtype="i8"),
            np.frombuffer(time_data, dtype="f8"),
        )

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "ColumnarTrace":
        """Columnar view of a time-sorted record stream.

        Raises :class:`TraceOrderError` on a record earlier than its
        predecessor, so a merge of ``from_records`` views never silently
        reorders an unsorted input.
        """
        builder = ColumnarTraceBuilder()
        last_time = float("-inf")
        for record in records:
            if record.time < last_time:
                raise TraceOrderError(
                    f"record stream went backwards: {record.time} after "
                    f"{last_time}"
                )
            last_time = record.time
            row = tuple(
                getattr(record, name)
                for name, _ in _SPECS[_KIND_INDEX[type(record)]]
            )
            builder.append(type(record), row)
        return builder.seal()
