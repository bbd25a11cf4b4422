#!/usr/bin/env python3
"""Trace inspector: write a trace to disk, read it back, and profile it.

Demonstrates the trace tooling the way a user with their own traces
would drive it: the JSON-lines serialization, the multi-server merge,
the filters (dropping tracer self-traffic), the 48-hour split, and the
one-pass summarizer.

Exits non-zero if the read-back trace fails validation or the merge
does not come back in time order.  A path ending in ``.gz`` is written
gzip-compressed, any other path as plain text.

Run:  python examples/trace_inspector.py [path.jsonl.gz | path.jsonl]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.common.units import HOUR
from repro.trace import (
    drop_self_traffic,
    read_trace,
    validate_stream,
    write_trace,
)
from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace
from repro.trace.tools import split_by_duration, summarize
from repro.workload import STANDARD_PROFILES, generate_trace


def main() -> int:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        path = Path(tempfile.gettempdir()) / "sprite-trace1.jsonl.gz"

    print(f"Generating trace1 (scale 0.05) and writing {path} ...")
    trace = generate_trace(STANDARD_PROFILES[0], seed=7, scale=0.05)
    count = write_trace(path, trace.columnar)
    print(f"  wrote {count} records ({path.stat().st_size / 1024:.0f} KB)")
    print()

    # Read back, filter, validate, summarize: the standard pipeline.
    # Reading raises TraceError naming the first bad line; validation
    # raises TraceError on the first illegal record.
    kept = drop_self_traffic(read_trace(path))
    report = validate_stream(kept)
    print(f"Validation: {report.opens} opens, {report.closes} closes, "
          f"{len(report.unclosed_open_ids)} cut by the window")
    print()
    print(summarize(kept).render())
    print()

    # Per-server streams merge back into one ordered stream.
    _, servers = kept.select(RECORD_CLASSES, "server_id")
    by_server = [kept.subset(servers == server) for server in np.unique(servers)]
    merged = ColumnarTrace.merge(by_server)
    ordered = bool(np.all(merged.times[1:] >= merged.times[:-1]))
    print(f"Merged {len(by_server)} per-server streams back into "
          f"{len(merged)} ordered records (order preserved: {ordered})")
    print()

    # The paper's 48h -> 2 x 24h split, here 24h -> 2 x 12h.
    halves = list(split_by_duration(kept, 12 * HOUR))
    for index, piece in halves:
        piece_summary = summarize(piece)
        print(f"half {index}: {piece_summary.records} records, "
              f"{len(piece_summary.users)} users, "
              f"{piece_summary.bytes_read / 2**20:.0f} MB read")
    return 0 if ordered and len(merged) == len(kept) else 1


if __name__ == "__main__":
    sys.exit(main())
