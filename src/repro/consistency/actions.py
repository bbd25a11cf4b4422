"""Table 10: how often consistency actions are invoked.

Both measures are fractions of file opens (directory opens excluded;
the trace format only records file opens):

* **concurrent write-sharing** -- opens that result in a file being
  open on multiple machines with at least one writer;
* **server recall** -- opens for which the file's current data resides
  in another client's cache so the server must retrieve it.  Like the
  paper's number, this is an upper bound: the server does not know
  whether the last writer already flushed via the 30-second delay, so
  every open within the flush horizon of another client's write counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.render import format_with_range, render_table
from repro.common.stats import MinMax
from repro.common.units import DELAYED_WRITE_SECONDS, WRITEBACK_SCAN_INTERVAL
from repro.trace.columnar import MODE_CODES, RECORD_CLASSES, ColumnarTrace
from repro.trace.records import AccessMode, CloseRecord, OpenRecord, WriteRunRecord

_OPEN = RECORD_CLASSES.index(OpenRecord)
_CLOSE = RECORD_CLASSES.index(CloseRecord)
_READ = MODE_CODES[AccessMode.READ]


@dataclass
class ConsistencyActionResult:
    """Table 10 for one trace."""

    opens: int = 0
    write_sharing_opens: int = 0
    recall_opens: int = 0

    @property
    def write_sharing_fraction(self) -> float:
        return self.write_sharing_opens / self.opens if self.opens else 0.0

    @property
    def recall_fraction(self) -> float:
        return self.recall_opens / self.opens if self.opens else 0.0


def compute_actions(
    trace: ColumnarTrace,
    flush_horizon: float = DELAYED_WRITE_SECONDS + WRITEBACK_SCAN_INTERVAL,
) -> ConsistencyActionResult:
    """Sweep one trace's opens, closes and write runs and count
    consistency actions."""
    result = ConsistencyActionResult()
    # per-file open state: client -> open count, and writer clients
    readers: dict[int, dict[int, int]] = {}
    writers: dict[int, dict[int, int]] = {}
    open_mode: dict[int, tuple[int, int, bool]] = {}  # open_id -> (file, client, writer)
    last_write: dict[int, tuple[int, float]] = {}  # file -> (client, time)

    positions, *columns = trace.select(
        (OpenRecord, CloseRecord, WriteRunRecord),
        "time", "file_id", "client_id", "open_id", "mode",
    )
    kinds = trace.kind_idx[positions].tolist()
    for kind, time, file_id, client_id, open_id, mode in zip(
        kinds, *(column.tolist() for column in columns)
    ):
        if kind == _OPEN:
            result.opens += 1
            is_writer = mode != _READ

            # Server recall check: data dirty on another client?
            written = last_write.get(file_id)
            if (
                written is not None
                and written[0] != client_id
                and time - written[1] <= flush_horizon
            ):
                result.recall_opens += 1
                last_write.pop(file_id, None)  # recalled: now clean

            table = writers if is_writer else readers
            by_client = table.setdefault(file_id, {})
            by_client[client_id] = by_client.get(client_id, 0) + 1
            open_mode[open_id] = (file_id, client_id, is_writer)

            # Shared when a writer holds it open and more than one
            # client (writer or reader) has it open.
            holders = writers.get(file_id)
            if holders and (
                len(holders) > 1
                or any(c not in holders for c in readers.get(file_id, ()))
            ):
                result.write_sharing_opens += 1
        elif kind == _CLOSE:
            state = open_mode.pop(open_id, None)
            if state is None:
                continue
            file_id, client_id, is_writer = state
            table = writers if is_writer else readers
            by_client = table.get(file_id, {})
            count = by_client.get(client_id, 0)
            if count <= 1:
                by_client.pop(client_id, None)
                if not by_client:
                    table.pop(file_id, None)
            else:
                by_client[client_id] = count - 1
        else:
            last_write[file_id] = (client_id, time)
    return result


def render_table10(per_trace: list[ConsistencyActionResult]) -> str:
    """Render Table 10 with the pooled value and per-trace min-max."""
    opens = sum(r.opens for r in per_trace)
    sharing = sum(r.write_sharing_opens for r in per_trace)
    recalls = sum(r.recall_opens for r in per_trace)
    sharing_band = MinMax()
    recall_band = MinMax()
    for result in per_trace:
        sharing_band.add(100 * result.write_sharing_fraction)
        recall_band.add(100 * result.recall_fraction)
    rows = [
        [
            "Concurrent write-sharing",
            format_with_range(
                100 * sharing / opens if opens else 0.0, *sharing_band.as_tuple()
            ),
        ],
        [
            "Server recall",
            format_with_range(
                100 * recalls / opens if opens else 0.0, *recall_band.as_tuple()
            ),
        ],
    ]
    return render_table(
        "Table 10. Consistency action frequency (percent of file opens)",
        ["Type of action", "File opens (%)"],
        rows,
        note="Paper: concurrent write-sharing 0.34 (0.18-0.56); server recall 1.7 (0.79-3.35).",
    )
