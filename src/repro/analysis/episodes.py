"""Episode assembly: from a trace's columns to a table of accesses.

The paper's Section 4 definitions:

* An **access** is "opening a file, reading and/or writing it, then
  closing the file" (Table 3 caption).
* A **sequential run** is "a portion of a file read or written
  sequentially -- a series of data transfers bounded at the start by an
  open or reposition operation and at the end by a close or another
  reposition operation" (Section 4.2).

The trace format stores run *records* that may split one logical run
into contiguous pieces (a simulator reading a 20-Mbyte input in three
back-to-back chunks repositions nowhere, so the paper would count one
run).  The assembler merges contiguous same-kind records back into
logical runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.columnar import ColumnarTrace
from repro.trace.records import (
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    WriteRunRecord,
)


@dataclass(eq=False)
class AccessTable:
    """One row per completed open..close episode, in the order of the
    closes, with its logical runs in flat arrays.

    Access ``i``'s runs are ``run_*[run_start[i]:run_start[i + 1]]``,
    in stream order.
    """

    duration: np.ndarray       # f8, close time minus open time
    size_at_open: np.ndarray   # i8
    size_at_close: np.ndarray  # i8
    bytes_read: np.ndarray     # i8
    bytes_written: np.ndarray  # i8
    run_start: np.ndarray      # i8, len(self) + 1 CSR offsets
    run_is_write: np.ndarray   # b1
    run_offset: np.ndarray     # i8
    run_length: np.ndarray     # i8

    def __len__(self) -> int:
        return len(self.duration)


def assemble_accesses(trace: ColumnarTrace) -> AccessTable:
    """The completed accesses of a trace's stream, in one array pass.

    An open starts an episode of its ``open_id`` and the first close
    after it ends the episode.  A close with no episode in progress
    (its open fell before the window) is dropped, as is an episode
    still open at the end of the stream (a 24-hour window can split
    one), exactly as an open/close pairing analysis of the original
    traces would drop them.  A run outside a completed episode is
    ignored.  Within an episode a run record continues the previous
    logical run when it has the same direction and starts at the
    previous record's ``offset + length``.
    """
    o_pos, o_id, o_time, o_size = trace.select(OpenRecord, "open_id", "time", "size_at_open")
    c_pos, c_id, c_time, c_size = trace.select(CloseRecord, "open_id", "time", "size_at_close")
    r_pos, r_id, r_offset, r_length = trace.select(ReadRunRecord, "open_id", "offset", "length")
    w_pos, w_id, w_offset, w_length = trace.select(WriteRunRecord, "open_id", "offset", "length")
    n_open, n_close, n_read = len(o_pos), len(c_pos), len(r_pos)
    positions = np.concatenate((o_pos, c_pos, r_pos, w_pos))
    ids = np.concatenate((o_id, c_id, r_id, w_id))
    # Each record's index within the concatenation, in (open_id, stream
    # position) order: one open_id's records become one contiguous
    # block in stream order.
    order = np.lexsort((positions, ids))
    ids = ids[order]
    count = len(order)
    index = np.arange(count)
    is_open = order < n_open
    is_close = (order >= n_open) & (order < n_open + n_close)
    is_run = order >= n_open + n_close

    # The episode a record falls in starts at the latest open of its
    # open_id; it is in the episode if no close came in between.
    first_of_id = np.ones(count, dtype=bool)
    first_of_id[1:] = ids[1:] != ids[:-1]
    id_start = np.maximum.accumulate(np.where(first_of_id, index, 0))
    opened_at = np.maximum.accumulate(np.where(is_open, index, -1))
    closes = np.cumsum(is_close)
    safe_open = np.maximum(opened_at, 0)
    in_episode = (opened_at >= id_start) & (closes - is_close == closes[safe_open])
    ends = np.flatnonzero(is_close & in_episode)
    completed = np.zeros(count, dtype=bool)
    completed[opened_at[ends]] = True

    # Accesses in the order of their closes.
    close_rows = order[ends] - n_open
    by_close = np.argsort(c_pos[close_rows], kind="stable")
    ends = ends[by_close]
    close_rows = close_rows[by_close]
    open_rows = order[opened_at[ends]]
    access_of_open = np.empty(count, dtype=np.int64)
    access_of_open[opened_at[ends]] = np.arange(len(ends))

    # Runs of completed episodes, grouped by access, in stream order.
    runs = np.flatnonzero(is_run & in_episode & completed[safe_open])
    run_access = access_of_open[opened_at[runs]]
    by_access = np.argsort(run_access, kind="stable")
    runs, run_access = runs[by_access], run_access[by_access]
    run_rows = order[runs] - n_open - n_close
    is_write = run_rows >= n_read
    offsets = np.concatenate((r_offset, w_offset))[run_rows]
    lengths = np.concatenate((r_length, w_length))[run_rows]

    new_run = np.ones(len(runs), dtype=bool)
    new_run[1:] = (
        (run_access[1:] != run_access[:-1])
        | (is_write[1:] != is_write[:-1])
        | (offsets[1:] != offsets[:-1] + lengths[:-1])
    )
    starts = np.flatnonzero(new_run)
    run_length = _sums(lengths, np.append(starts, len(runs)))
    run_is_write = is_write[starts]
    run_start = np.searchsorted(run_access[starts], np.arange(len(ends) + 1))
    return AccessTable(
        duration=c_time[close_rows] - o_time[open_rows],
        size_at_open=o_size[open_rows],
        size_at_close=c_size[close_rows],
        bytes_read=_sums(np.where(run_is_write, 0, run_length), run_start),
        bytes_written=_sums(np.where(run_is_write, run_length, 0), run_start),
        run_start=run_start,
        run_is_write=run_is_write,
        run_offset=offsets[starts],
        run_length=run_length,
    )


def _sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exact integer sums of ``values`` between consecutive ``bounds``."""
    summed = np.concatenate(([0], np.cumsum(values)))
    return summed[bounds[1:]] - summed[bounds[:-1]]
