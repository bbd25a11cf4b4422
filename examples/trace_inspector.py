#!/usr/bin/env python3
"""Trace inspector: write a trace to disk, read it back, and profile it.

Demonstrates the trace tooling the way a user with their own traces
would drive it: the JSON-lines serialization, the multi-server merge,
the filters (dropping tracer self-traffic), the 48-hour split, and the
one-pass summarizer.

Run:  python examples/trace_inspector.py [path.jsonl.gz]
"""

import sys
import tempfile
from pathlib import Path

from repro.common.units import HOUR
from repro.trace import (
    drop_self_traffic,
    read_trace,
    validate_stream,
    write_trace,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.tools import split_by_duration, summarize
from repro.workload import STANDARD_PROFILES, generate_trace


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        path = Path(tempfile.gettempdir()) / "sprite-trace1.jsonl.gz"

    print(f"Generating trace1 (scale 0.05) and writing {path} ...")
    trace = generate_trace(STANDARD_PROFILES[0], seed=7, scale=0.05)
    count = write_trace(path, trace.records)
    print(f"  wrote {count} records "
          f"({path.stat().st_size / 1024:.0f} KB compressed)")
    print()

    # Read back, filter, validate, summarize: the standard pipeline.
    records = list(drop_self_traffic(read_trace(path)))
    report = validate_stream(records)
    print(f"Validation: {report.opens} opens, {report.closes} closes, "
          f"{len(report.unclosed_open_ids)} cut by the window")
    print()
    print(summarize(records).render())
    print()

    # Per-server streams merge back into one ordered stream.
    by_server: dict[int, list] = {}
    for record in records:
        by_server.setdefault(record.server_id, []).append(record)
    merged = ColumnarTrace.merge(
        [ColumnarTrace.from_records(stream) for stream in by_server.values()]
    ).materialize()
    print(f"Merged {len(by_server)} per-server streams back into "
          f"{len(merged)} ordered records "
          f"(order preserved: {[r.time for r in merged] == sorted(r.time for r in merged)})")
    print()

    # The paper's 48h -> 2 x 24h split, here 24h -> 2 x 12h.
    halves = list(split_by_duration(records, 12 * HOUR))
    for index, piece in halves:
        piece_summary = summarize(piece)
        print(f"half {index}: {piece_summary.records} records, "
              f"{len(piece_summary.users)} users, "
              f"{piece_summary.bytes_read / 2**20:.0f} MB read")


if __name__ == "__main__":
    main()
