"""Columnar trace storage: the scale-out representation of a trace.

A day of trace activity at ``scale >= 10`` is millions of records; a
Python object per record costs ~150 bytes plus allocator churn, and a
whole-day list is the single biggest RSS line item in a replay.  This
module stores the same stream as *columns* -- one flat array per field
per record kind, plus a global time-sorted order index -- so that:

* generation appends plain value rows (no dataclass construction),
* sorting is an ``argsort`` over one float array instead of an object
  sort,
* replay materializes :class:`~repro.trace.records.TraceRecord`
  objects chunk-at-a-time (transient, bounded memory) or never, and
* shard math (remapping a group's ids into a disjoint global id space,
  merging group streams into one time-ordered stream) is vectorized
  array arithmetic.

Byte-identity contract: materializing a columnar trace yields records
whose types and field values are exactly what the classic list path
produced -- columns round-trip ``float``/``int``/``bool`` losslessly
(float64/int64 carry every value the generator emits) and the sort is
stable with emission order as the tie-break, matching the classic
``list.sort(key=time)`` on an emission-ordered list.

Columns are numpy arrays (a declared dependency).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
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

_MODES: tuple[AccessMode, ...] = tuple(AccessMode)
_MODE_CODES: dict[AccessMode, int] = {mode: i for i, mode in enumerate(_MODES)}

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

_new = object.__new__
_set = object.__setattr__


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic GC while allocating large acyclic object graphs.

    A whole-trace materialization allocates hundreds of thousands of
    records, none of them cyclic; left running, the collector would
    traverse the growing live set again and again for nothing.  The
    caller's GC state is restored on exit, including on error.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _make_filler(kind_index: int):
    """exec-codegen a per-kind object builder.

    ``fill(out, positions, cols)`` materializes ``len(positions)``
    records from parallel Python-list columns and stores them at the
    given positions of ``out`` via ``object.__new__`` +
    ``object.__setattr__`` (no ``__init__``, no default processing,
    one C call per field).
    """
    cls = RECORD_CLASSES[kind_index]
    specs = _SPECS[kind_index]
    unpack = ", ".join(f"c{i}" for i in range(len(specs)))
    lines = [
        "def fill(out, positions, cols):",
        f"    {unpack}{',' if len(specs) == 1 else ''} = cols",
        "    j = 0",
        "    for pos in positions:",
        "        r = _new(_cls)",
    ]
    for i, (name, dtype) in enumerate(specs):
        if dtype == "u1":
            lines.append(f"        _set(r, {name!r}, _MODES[c{i}[j]])")
        else:
            lines.append(f"        _set(r, {name!r}, c{i}[j])")
    lines.append("        out[pos] = r")
    lines.append("        j += 1")
    namespace = {"_new": _new, "_set": _set, "_cls": cls, "_MODES": _MODES}
    exec("\n".join(lines), namespace)
    return namespace["fill"]


_FILLERS = tuple(_make_filler(i) for i in range(len(RECORD_CLASSES)))


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

    def emission_order_records(self) -> list[TraceRecord]:
        """All rows as records, in emission order (the classic
        ``emitter.records`` view; unfiltered, unsorted)."""
        out: list[TraceRecord] = [None] * self._count  # type: ignore[list-item]
        for index, cls in enumerate(RECORD_CLASSES):
            for seq, row in zip(self._seqs[index], self._rows[index]):
                out[seq] = cls(*row)
        return out

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
                    raw = [_MODE_CODES[value] for value in raw]
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

    Iteration materializes records chunk-at-a-time; the live set is one
    chunk, never the whole day.
    """

    #: Default materialization chunk (records); ~64k records of mixed
    #: kinds is a few MB of transient objects.
    DEFAULT_CHUNK = 65536

    __slots__ = ("tables", "kind_idx", "row_idx", "times")

    def __init__(self, tables, kind_idx, row_idx, times) -> None:
        self.tables = tables      # list aligned with RECORD_CLASSES (None = empty)
        self.kind_idx = kind_idx  # u1 per sorted position
        self.row_idx = row_idx    # i8 row within the kind's table
        self.times = times        # f8 per sorted position (sorted ascending)

    def __len__(self) -> int:
        return len(self.kind_idx)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.iter_records()

    # --- materialization ---------------------------------------------------

    def _materialize_slice(self, lo: int, hi: int) -> list[TraceRecord]:
        kind_slice = self.kind_idx[lo:hi]
        row_slice = self.row_idx[lo:hi]
        out: list[TraceRecord] = [None] * (hi - lo)  # type: ignore[list-item]
        for index in np.unique(kind_slice).tolist():
            positions = np.nonzero(kind_slice == index)[0]
            rows = row_slice[positions]
            table = self.tables[index]
            cols = [column[rows].tolist() for column in table.columns]
            _FILLERS[index](out, positions.tolist(), cols)
        return out

    def iter_chunks(
        self, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[list[TraceRecord]]:
        """Materialize the stream as bounded record lists, in time order."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        total = len(self)
        for lo in range(0, total, chunk_size):
            yield self._materialize_slice(lo, min(lo + chunk_size, total))

    def iter_records(
        self, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[TraceRecord]:
        """The record stream, materialized chunk-at-a-time."""
        for chunk in self.iter_chunks(chunk_size):
            yield from chunk

    def materialize(self) -> list[TraceRecord]:
        """The whole trace as a record list (the classic representation),
        built with the cyclic GC paused."""
        if len(self) == 0:
            return []
        with gc_paused():
            return self._materialize_slice(0, len(self))

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
