"""Trace files: one JSON object per line, gzip-compressed for ``.gz``.

One line per record keeps the format greppable and lets a file larger
than memory be read as a stream.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import IO, Iterable, Iterator

from repro.common.errors import TraceError
from repro.trace.records import TraceRecord


def _open(path: str, mode: str) -> IO[str]:
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def read_trace(path: str | os.PathLike[str]) -> Iterator[TraceRecord]:
    """Every record in the trace file at ``path``, in file order.

    Blank lines are skipped.  A line that is not a valid record raises
    :class:`TraceError` naming ``path:line``.
    """
    path = os.fspath(path)
    with _open(path, "r") as handle:
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


def write_trace(path: str | os.PathLike[str], records: Iterable[TraceRecord]) -> int:
    """Write ``records`` to ``path``, one per line; returns the count."""
    count = 0
    with _open(os.fspath(path), "w") as handle:
        for record in records:
            json.dump(record.to_dict(), handle, separators=(",", ":"))
            handle.write("\n")
            count += 1
    return count
