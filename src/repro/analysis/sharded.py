"""Per-server breakdowns for Tables 1, 2, and 7.

The paper's cluster had **four** file servers, and Tables 1, 2, and 7
report activity and server traffic per server.  With ``num_servers > 1``
the simulator shards the file space across servers by the deterministic
:class:`~repro.fs.sharding.Placement` hash, so the same breakdowns fall
out of the traces and the replay counters:

* **Table 1** -- split each trace's column stream by the server its
  records' files live on and pool each server's part across the
  traces, yielding one Table 1 column per server instead of per trace.
* **Table 2** -- split the column streams the same way and run the
  user-activity computation on each server's part, yielding
  per-server throughput columns.
* **Table 7** -- aggregate each shard's :class:`ServerCounters` across
  the replayed traces and report the traffic mix one column per server.

Records that carry no file (``file_id < 0``, e.g. a client picking a
directory) land on server 0, matching the placement function.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.table1 import TraceStatistics, render_table1
from repro.analysis.activity import ActivityResult, compute_activity
from repro.common.render import format_number, render_table
from repro.common.units import HOUR, MB
from repro.fs.counters import ServerCounters
from repro.fs.sharding import Placement
from repro.trace.columnar import COLUMN_FIELDS, ColumnarTrace

_FILE_SLOT = [name for name, _ in COLUMN_FIELDS].index("file_id")


def _record_servers(trace: ColumnarTrace, placement: Placement) -> np.ndarray:
    """The server each record of the stream is routed to, in stream order."""
    file_ids = trace.gather(0, len(trace))[_FILE_SLOT]
    files, inverse = np.unique(file_ids, return_inverse=True)
    servers = [placement.shard_of(file_id) for file_id in files.tolist()]
    return np.array(servers, dtype=np.int64)[inverse]


def per_server_table1(
    traces: Sequence, placement: Placement
) -> list[TraceStatistics]:
    """One pooled Table 1 row-set per server, across all traces."""
    total_duration = sum(trace.duration for trace in traces)
    per_server = [
        TraceStatistics(f"server {server_id}", total_duration / HOUR)
        for server_id in range(placement.num_servers)
    ]
    for trace in traces:
        servers = _record_servers(trace.columnar, placement)
        for server_id, stats in enumerate(per_server):
            stats.add_trace(trace.columnar.subset(servers == server_id))
    return per_server


def render_table1_per_server(
    traces: Sequence, placement: Placement
) -> str:
    return render_table1(
        per_server_table1(traces, placement),
        title="Table 1a. Overall statistics per server "
        f"(num_servers={placement.num_servers})",
        note=(
            "Each column pools all traces' records routed to one server "
            "by the seeded file placement hash (the paper's cluster had "
            "four servers)."
        ),
    )


def per_server_activity(
    traces: Sequence, placement: Placement
) -> list[ActivityResult]:
    """The Table 2 computation run once per server's part of the
    streams (in trace order, so every downstream computation stays
    deterministic)."""
    routed = [
        (t.columnar, _record_servers(t.columnar, placement), t.duration)
        for t in traces
    ]
    return [
        compute_activity(
            (columnar.subset(servers == server_id), duration)
            for columnar, servers, duration in routed
        )
        for server_id in range(placement.num_servers)
    ]


#: Table 2 per-server rows: label plus accessor path into ActivityResult.
_ACTIVITY_ROWS: tuple[tuple[str, str, str], ...] = (
    ("[10-minute] Average active users", "ten_minute_all", "average_active_users"),
    ("[10-minute] Avg user throughput (KB/s)", "ten_minute_all", "average_throughput_kbs"),
    ("[10-second] Average active users", "ten_second_all", "average_active_users"),
    ("[10-second] Avg user throughput (KB/s)", "ten_second_all", "average_throughput_kbs"),
    ("[10-second] Peak user throughput (KB/s)", "ten_second_all", "peak_user_throughput_kbs"),
    ("[10-second] Peak total throughput (KB/s)", "ten_second_all", "peak_total_throughput_kbs"),
)


def render_table2_per_server(
    traces: Sequence, placement: Placement
) -> str:
    per_server = per_server_activity(traces, placement)
    headers = ["Measure"] + [
        f"server {server_id}" for server_id in range(placement.num_servers)
    ]
    rows = []
    for label, scale_attr, value_attr in _ACTIVITY_ROWS:
        row = [label]
        for result in per_server:
            value = getattr(getattr(result, scale_attr), value_attr)
            row.append(format_number(float(value), 1))
        rows.append(row)
    return render_table(
        "Table 2a. User activity per server "
        f"(num_servers={placement.num_servers})",
        headers,
        rows,
        note=(
            "A user is active on a server in an interval if any of their "
            "records routed to that server falls inside it."
        ),
    )


#: Table 7 per-server rows: label plus a value function of ServerCounters.
_TRAFFIC_ROWS: tuple[tuple[str, str], ...] = (
    ("RPCs handled", "rpc_count"),
    ("Open RPCs", "open_rpcs"),
    ("Block reads (Mbytes)", "block_read_bytes"),
    ("Block writes (Mbytes)", "block_write_bytes"),
    ("Passthrough (Mbytes)", "_passthrough_bytes"),
    ("Paging (Mbytes)", "paging_bytes"),
    ("Recalls issued", "recalls_issued"),
    ("Cache disables", "cache_disables"),
    ("Crashes", "crashes"),
    ("Downtime (seconds)", "downtime_seconds"),
)

_MBYTE_ATTRS = frozenset(
    {"block_read_bytes", "block_write_bytes", "_passthrough_bytes",
     "paging_bytes"}
)


def _traffic_value(counters: ServerCounters, attr: str) -> float:
    if attr == "_passthrough_bytes":
        value: float = (
            counters.passthrough_read_bytes + counters.passthrough_write_bytes
        )
    else:
        value = getattr(counters, attr)
    if attr in _MBYTE_ATTRS:
        value /= MB
    return float(value)


def aggregate_per_server(
    results: Sequence,
) -> list[ServerCounters]:
    """Sum each shard's counters across a set of cluster replays."""
    num_servers = len(results[0].per_server_counters)
    return [
        ServerCounters.aggregate(
            result.per_server_counters[server_id] for result in results
        )
        for server_id in range(num_servers)
    ]


def render_table7_per_server(results: Sequence) -> str:
    per_server = aggregate_per_server(results)
    headers = ["Type"] + [
        f"server {server_id}" for server_id in range(len(per_server))
    ]
    rows = []
    for label, attr in _TRAFFIC_ROWS:
        row = [label]
        for counters in per_server:
            row.append(format_number(_traffic_value(counters, attr), 1))
        rows.append(row)
    return render_table(
        "Table 7a. Server traffic per server "
        f"(num_servers={len(per_server)})",
        headers,
        rows,
        note=(
            "Counters summed over the replayed traces; byte columns are "
            "Mbytes at the server, after client caches filtered the "
            "traffic."
        ),
    )
