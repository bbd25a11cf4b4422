"""Trace files: one JSON object per line, gzip-compressed for ``.gz``.

One line per record keeps the format greppable.  Both functions work on
a :class:`~repro.trace.columnar.ColumnarTrace`; a line is a record only
on its way into the columns.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import fields
from typing import IO, Iterator

import numpy as np

from repro.common.errors import TraceError, TraceOrderError
from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace
from repro.trace.records import AccessMode, TraceRecord

_MODE_VALUES = tuple(mode.value for mode in AccessMode)


def _open(path: str, mode: str) -> IO[str]:
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def read_trace(path: str | os.PathLike[str]) -> ColumnarTrace:
    """The trace file at ``path`` as a columnar trace, in file order.

    Blank lines are skipped.  A line that is not a valid record raises
    :class:`TraceError`, and a line earlier than the one before it
    :class:`TraceOrderError`, each naming ``path:line``.
    """
    path = os.fspath(path)
    line_number = 0

    def parsed(handle: IO[str]) -> Iterator[TraceRecord]:
        nonlocal line_number
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = TraceRecord.from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            except TraceError as exc:
                raise TraceError(f"{path}:{line_number}: {exc}") from exc
            yield record

    with _open(path, "r") as handle:
        try:
            return ColumnarTrace.from_records(parsed(handle))
        except TraceOrderError as exc:
            raise TraceOrderError(f"{path}:{line_number}: {exc}") from exc


def write_trace(path: str | os.PathLike[str], trace: ColumnarTrace) -> int:
    """Write ``trace`` to ``path``, one line per record in stream order
    (the line :meth:`TraceRecord.from_dict` reads); returns the count."""
    chunk = ColumnarTrace.COLUMN_CHUNK
    with _open(os.fspath(path), "w") as handle:
        for lo in range(0, len(trace), chunk):
            kinds, rows = trace.kind_idx[lo:lo + chunk], trace.row_idx[lo:lo + chunk]
            lines = [""] * len(kinds)
            for index in np.unique(kinds).tolist():
                at = np.flatnonzero(kinds == index)
                cls = RECORD_CLASSES[index]
                names = [item.name for item in fields(cls)]
                columns = [
                    column[rows[at]].tolist() for column in trace.tables[index].columns
                ]
                if "mode" in names:
                    slot = names.index("mode")
                    columns[slot] = [_MODE_VALUES[code] for code in columns[slot]]
                for position, values in zip(at.tolist(), zip(*columns)):
                    line = {"kind": cls.kind, **dict(zip(names, values))}
                    lines[position] = json.dumps(line, separators=(",", ":")) + "\n"
            handle.write("".join(lines))
    return len(trace)
