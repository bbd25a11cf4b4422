"""Test oracles for the obs layer and the CDF export.

Nothing in the package calls these; the tests use them to read back and
check what the package writes:

* :func:`verify_integration` -- a counter timeseries integrates to
  exactly the end-of-run counters (the obs layer's acceptance property);
* :func:`validate_chrome_trace` -- an exported event trace obeys the
  Chrome trace-event JSON schema;
* :func:`read_cdf_csv` -- reads back a file written by
  :func:`repro.analysis.export.write_cdf_csv`;
* :func:`oracle_versions` -- a protocol oracle's version ledger, so two
  oracles' ledgers can be compared;
* :func:`dirty_blocks_accounted` -- every dirty block's eventual fate,
  which equals ``blocks_dirtied`` in a consistent run;
* :func:`all_snapshots` -- a replay's counter snapshots as one list;
* :func:`emitted_records` -- what a record emitter has appended to its
  columnar sink, as records in emission order;
* :func:`refuse_records` -- makes building any trace record fail the
  test, to pin that a code path reads columns only.
"""

from __future__ import annotations

import csv
import os
from typing import Any, Sequence

from repro.common.errors import AnalysisError
from repro.fs.cluster import ClusterResult
from repro.fs.counters import ClientCounters, CounterSnapshot, ServerCounters
from repro.fs.oracle import ProtocolOracle
from repro.obs.sampler import (
    CLIENT_FIELDS,
    SERVER_FIELDS,
    CounterTimeseries,
    MachineSeries,
)
from repro.trace.columnar import RECORD_CLASSES, ColumnarTraceBuilder
from repro.trace.records import TraceRecord

#: Instantaneous gauges (re-written at every snapshot) rather than
#: cumulative counters: for these the end-of-run value is the *last*
#: sample, not the sum of deltas (the baseline sample is non-zero).
GAUGE_FIELDS: frozenset[str] = frozenset({
    "cache_size_bytes", "vm_resident_bytes", "dirty_blocks_resident",
})


def verify_integration(
    timeseries: CounterTimeseries,
    final_counters: dict[int, ClientCounters],
    server_counters: ServerCounters,
    per_server_counters: Sequence[ServerCounters] | None = None,
    server_ids: Sequence[int] | None = None,
) -> list[str]:
    """Check sum-of-deltas == end-of-run aggregate for every counter.

    Returns a list of mismatches (empty = the timeseries integrates to
    exactly the Table 4-9 inputs).

    A sharded replay samples ``server-0`` .. ``server-N-1`` instead of
    ``server``; pass the result's ``per_server_counters`` and each
    shard's series is checked against its own final counters (the
    aggregate ``server_counters`` is then implied, being the field-wise
    sum of the shards).  An owned-only shard's ``per_server_counters``
    rows are its *owned* servers, not ``0..N-1``; pass the result's
    ``server_ids`` so each row is matched to the right series.
    """
    problems: list[str] = []

    def check(series: MachineSeries, names: Sequence[str], counters) -> None:
        for name in names:
            if name in GAUGE_FIELDS:
                # Gauges overwrite, they don't accumulate: the run's
                # final value is the closing sample itself.
                got = series.column(name)[-1]
                how = "last sample"
            else:
                # Sum of the deltas: last sample - first sample.
                values = series.column(name)
                got = values[-1] - values[0]
                how = "integrated"
            expected = getattr(counters, name)
            if got != expected:
                problems.append(
                    f"{series.machine}.{name}: {how} {got!r} "
                    f"!= final {expected!r}"
                )

    for client_id, counters in sorted(final_counters.items()):
        check(timeseries.series(f"client-{client_id}"), CLIENT_FIELDS, counters)
    if "server" in timeseries.machines:
        check(timeseries.series("server"), SERVER_FIELDS, server_counters)
    elif per_server_counters is not None:
        ids = (
            list(server_ids) if server_ids
            else list(range(len(per_server_counters)))
        )
        if len(ids) != len(per_server_counters):
            problems.append(
                f"{len(ids)} server ids for "
                f"{len(per_server_counters)} per-server counter rows"
            )
            return problems
        for server_id, counters in zip(ids, per_server_counters):
            check(
                timeseries.series(f"server-{server_id}"),
                SERVER_FIELDS, counters,
            )
    else:
        problems.append(
            "no 'server' series and no per_server_counters to check the "
            f"per-shard series against; have {sorted(timeseries.machines)}"
        )
    return problems


_VALID_PHASES = frozenset("BEXiICPnbesfNODMVvRcaAt(){}")


def validate_chrome_trace(trace: dict[str, Any]) -> list[str]:
    """Check a trace object against the Chrome trace-event JSON schema.

    Returns a list of problems (empty = valid).  Checks the JSON-object
    format: a ``traceEvents`` array whose rows carry the required
    ``name``/``ph``/``ts``/``pid``/``tid`` fields with the right types,
    ``dur`` on complete events, and known phase codes.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["top-level 'traceEvents' must be a list"]
    for i, row in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = row.get("ph")
        if not isinstance(ph, str) or ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
        if not isinstance(row.get("name"), str):
            problems.append(f"{where}: 'name' must be a string")
        if not isinstance(row.get("ts", 0), (int, float)):
            problems.append(f"{where}: 'ts' must be numeric")
        elif ph != "M" and "ts" not in row:
            problems.append(f"{where}: missing 'ts'")
        for key in ("pid", "tid"):
            if not isinstance(row.get(key), int):
                problems.append(f"{where}: '{key}' must be an integer")
        if ph == "X" and not isinstance(row.get("dur"), (int, float)):
            problems.append(f"{where}: complete event missing numeric 'dur'")
        if ph == "C" and not isinstance(row.get("args"), dict):
            problems.append(f"{where}: counter event missing 'args'")
    return problems


def read_cdf_csv(path: str | os.PathLike[str]) -> dict[str, list[tuple[float, float]]]:
    """Read back a file written by ``write_cdf_csv``."""
    curves: dict[str, list[tuple[float, float]]] = {}
    with open(os.fspath(path), "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["curve", "value", "fraction"]:
            raise AnalysisError(f"{path} is not a CDF export (header {header})")
        for name, value, fraction in reader:
            curves.setdefault(name, []).append((float(value), float(fraction)))
    return curves


def oracle_versions(oracle: ProtocolOracle) -> dict[int, int]:
    """The highest version stamp ``oracle`` observed per file id (a copy)."""
    return dict(oracle._versions)


def dirty_blocks_accounted(counters: ClientCounters) -> int:
    """Every dirty block's eventual fate: written back, absorbed by a
    delete, destroyed by a fault, or still dirty at the final snapshot.
    Equals ``counters.blocks_dirtied`` in a consistent run (the chaos
    suites' conservation invariant)."""
    return (
        counters.blocks_cleaned_total
        + counters.dirty_blocks_discarded
        + counters.lost_dirty_blocks
        + counters.dirty_blocks_resident
    )


def all_snapshots(result: ClusterResult) -> list[CounterSnapshot]:
    """Every client's snapshots, ordered by client then time."""
    out = [snap for per_client in result.snapshots.values() for snap in per_client]
    out.sort(key=lambda snap: (snap.client_id, snap.time))
    return out


def emitted_records(sink: ColumnarTraceBuilder) -> list[TraceRecord]:
    """The rows appended to ``sink`` (a record emitter's ``sink``) as
    records, in emission order: unfiltered and unsorted, since the sink
    is not sealed."""
    out: list[TraceRecord] = [None] * len(sink)  # type: ignore[list-item]
    for cls, seqs, rows in zip(RECORD_CLASSES, sink._seqs, sink._rows):
        for seq, row in zip(seqs, rows):
            out[seq] = cls(*row)
    return out


def refuse_records(monkeypatch) -> None:
    """Make constructing any trace record fail the test.

    Every record class is refused at ``__init__``, which every
    construction outside a raw ``object.__new__`` goes through:
    ``TraceRecord.from_dict`` (the trace-file reader), hand-built
    records fed to ``ColumnarTrace.from_records`` and
    ``dataclasses.replace``.
    """

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    for cls in RECORD_CLASSES:
        monkeypatch.setattr(cls, "__init__", refuse)
