"""Trace grammar validation.

A well-formed trace obeys a small grammar per open episode:

* every ``close``/``read_run``/``write_run``/``reposition`` names an
  ``open_id`` that was opened earlier and not yet closed, and an
  ``open_id`` is not opened again until it is closed;
* runs, repositions and the close of an episode carry the same
  ``file_id`` as its open, and runs have non-negative offset and length;
* timestamps never decrease across the stream;
* at end of stream no episode is left open (unless ``allow_open_at_end``,
  since a 24-hour window can cut an episode in half -- the paper's
  48-hour captures were split the same way).

The generator validates every trace it seals, so a generator change
that emits an illegal stream fails loudly.  The check runs over the
trace's columns and builds no record object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import TraceError, TraceOrderError
from repro.trace.columnar import COLUMN_FIELDS, RECORD_CLASSES, ColumnarTrace
from repro.trace.records import (
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    WriteRunRecord,
)


@dataclass
class ValidationReport:
    """Summary counts from a validation pass."""

    records: int = 0
    opens: int = 0
    closes: int = 0
    unclosed_open_ids: list[int] = field(default_factory=list)

    @property
    def balanced(self) -> bool:
        return not self.unclosed_open_ids


_OPEN = RECORD_CLASSES.index(OpenRecord)
_CLOSE = RECORD_CLASSES.index(CloseRecord)
_RUNS = (RECORD_CLASSES.index(ReadRunRecord), RECORD_CLASSES.index(WriteRunRecord))
#: The kinds that belong to an open episode.
_EPISODE = (_OPEN, _CLOSE, *_RUNS, RECORD_CLASSES.index(RepositionRecord))
_SLOT = {name: slot for slot, (name, _) in enumerate(COLUMN_FIELDS)}


def validate_stream(
    trace: ColumnarTrace,
    allow_open_at_end: bool = True,
) -> ValidationReport:
    """Validate a trace's stream; raises on the first violation.

    The error names the failing record's stream position (0-based).
    Positions are checked in stream order, and within a record time
    order comes first, then the episode rules in the order of the
    module docstring.
    """
    kinds = trace.kind_idx
    times = trace.times
    total = len(trace)
    gathered = trace.gather(0, total)
    open_ids, file_ids, offsets, lengths = (
        gathered[_SLOT[name]]
        for name in ("open_id", "file_id", "offset", "length")
    )

    backwards = np.flatnonzero(times[1:] < times[:-1])
    first_backwards = int(backwards[0]) + 1 if len(backwards) else total

    # Each open_id's episode records in stream order.  While an
    # open_id's records are legal, it is open before record i exactly
    # when its previous record exists and is not a close, and the
    # episode's file is that of its latest open.
    positions = np.flatnonzero(np.isin(kinds, _EPISODE))
    positions = positions[np.argsort(open_ids[positions], kind="stable")]
    episode_ids = open_ids[positions]
    episode_kinds = kinds[positions]
    files = file_ids[positions]
    is_open = episode_kinds == _OPEN
    is_close = episode_kinds == _CLOSE
    count = len(positions)
    was_open = np.zeros(count, dtype=bool)
    was_open[1:] = (episode_ids[1:] == episode_ids[:-1]) & ~is_close[:-1]
    latest_open = np.maximum.accumulate(np.where(is_open, np.arange(count), 0))
    opened_on = np.zeros_like(files)
    opened_on[1:] = files[latest_open[:-1]]
    negative = np.isin(episode_kinds, _RUNS) & (
        (offsets[positions] < 0) | (lengths[positions] < 0)
    )
    # A flag is exact wherever every earlier record of its open_id is
    # legal, so the lowest flagged position is the first violation.
    flagged = np.flatnonzero(
        (is_open & was_open)
        | (~is_open & ~was_open)
        | (~is_open & was_open & ((files != opened_on) | negative))
    )
    at = int(flagged[np.argmin(positions[flagged])]) if len(flagged) else 0
    first_grammar = int(positions[at]) if len(flagged) else total

    if first_backwards < total and first_backwards <= first_grammar:
        i = first_backwards
        raise TraceOrderError(
            f"record {i} ({RECORD_CLASSES[kinds[i]].kind}) at "
            f"{float(times[i])} is earlier than previous record at "
            f"{float(times[i - 1])}"
        )
    if first_grammar < total:
        i = first_grammar
        kind = RECORD_CLASSES[kinds[i]].kind
        open_id, file_id, time = int(open_ids[i]), int(file_ids[i]), float(times[i])
        expected = int(opened_on[at])
        if is_open[at]:
            message = f"open_id {open_id} opened twice without a close"
        elif is_close[at] and not was_open[at]:
            message = f"close of unknown open_id {open_id} at {time}"
        elif not was_open[at]:
            message = f"{kind} on unopened open_id {open_id} at {time}"
        elif is_close[at] and file_id != expected:
            message = (
                f"close of open_id {open_id} names file {file_id} "
                f"but it was opened on file {expected}"
            )
        elif file_id != expected:
            message = (
                f"{kind} on open_id {open_id} names file {file_id} "
                f"but the episode is on file {expected}"
            )
        else:
            message = f"negative offset/length in {kind} at {time}"
        raise TraceError(f"record {i}: {message}")

    last_of_id = np.ones(count, dtype=bool)
    last_of_id[:-1] = episode_ids[1:] != episode_ids[:-1]
    report = ValidationReport(
        records=total,
        opens=int(np.count_nonzero(kinds == _OPEN)),
        closes=int(np.count_nonzero(kinds == _CLOSE)),
        unclosed_open_ids=episode_ids[last_of_id & ~is_close].tolist(),
    )
    if report.unclosed_open_ids and not allow_open_at_end:
        raise TraceError(
            f"{len(report.unclosed_open_ids)} episodes never closed: "
            f"{report.unclosed_open_ids[:10]}"
        )
    return report
