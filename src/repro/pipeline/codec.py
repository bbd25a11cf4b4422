"""Fast artifact serialization for the cache.

Plain pickling is correct but slow for trace-shaped artifacts: a day
trace is ~100k tiny frozen dataclass records, and pickle spends several
microseconds per object rebuilding each one.  Loading a cached trace
that way costs a substantial fraction of regenerating it, which would
cap the warm-cache speedup well below what the hardware allows.

This codec stores a trace as its columnar form instead: the
:class:`~repro.trace.columnar.ColumnarTrace` payload (one flat array
per field per record kind, plus the time order), serialized with
:mod:`marshal` (C-speed for primitives).  A trace that carried a
materialized record list gets it back from
:meth:`~repro.trace.columnar.ColumnarTrace.materialize` -- the builder
generation itself uses, so the records are exactly the generated ones.
Object-heavy loads run with the cyclic GC paused; the rebuilt graphs
are trees.

Payloads are tagged by their first byte:

* ``C`` -- a :class:`~repro.workload.SyntheticTrace`: the columnar
  payload marshal-packed, profile/users/validation pickled, plus
  whether ``records`` was materialized.
* ``I`` -- a per-trace ``list[Access]`` in *index form*: open/close
  records stored as indexes into the owning trace's record list, which
  the caller supplies as decode context (the records are then shared
  with the already-decoded trace instead of rebuilt).  An access list
  without that context, or whose records do not resolve, is pickled.
* ``R`` -- a :class:`~repro.fs.cluster.ClusterResult` (marshalled
  counter snapshots, pickled config).
* ``O`` -- a :class:`~repro.obs.sampler.CounterTimeseries` (per-machine
  sample tables, pure marshal -- no pickle at all).
* ``P`` -- anything else, plain pickle.
"""

from __future__ import annotations

import marshal
import pickle
from typing import Any, Sequence

from repro.analysis.episodes import Access, LogicalRun
from repro.fs.cluster import ClusterResult
from repro.fs.counters import ClientCounters, CounterSnapshot, ServerCounters
from repro.obs.sampler import CounterTimeseries
from repro.trace.columnar import ColumnarTrace, gc_paused
from repro.trace.records import TraceRecord
from repro.workload.generator import SyntheticTrace

_TAG_PICKLE = b"P"
_TAG_ACCESSES_INDEXED = b"I"
_TAG_REPLAY = b"R"
_TAG_OBS = b"O"
_TAG_COLUMNAR_TRACE = b"C"

#: marshal format version (stable, supported by every CPython we target).
_MARSHAL_VERSION = 2


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------


def _encode_columnar_trace(trace: SyntheticTrace) -> bytes:
    if trace.records and len(trace.records) != len(trace.columnar):
        raise ValueError(
            f"trace {trace.name} carries {len(trace.records)} records but "
            f"{len(trace.columnar)} columnar rows"
        )
    body = pickle.dumps(
        {
            "columnar": marshal.dumps(
                trace.columnar.to_payload(), _MARSHAL_VERSION
            ),
            "materialized": bool(trace.records),
            "profile": trace.profile,
            "seed": trace.seed,
            "scale": trace.scale,
            "users": trace.users,
            "validation": trace.validation,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _TAG_COLUMNAR_TRACE + body


def _decode_columnar_trace(body: bytes) -> SyntheticTrace:
    state = pickle.loads(body)
    columnar = ColumnarTrace.from_payload(marshal.loads(state["columnar"]))
    return SyntheticTrace(
        profile=state["profile"],
        seed=state["seed"],
        scale=state["scale"],
        records=columnar.materialize() if state["materialized"] else [],
        users=state["users"],
        validation=state["validation"],
        columnar=columnar,
    )


# --------------------------------------------------------------------------
# accesses
# --------------------------------------------------------------------------


def _encode_accesses_indexed(
    accesses: Sequence[Access], records: Sequence[TraceRecord]
) -> bytes | None:
    """Pack accesses as indexes into ``records``, or None if they don't
    all resolve (then the list is pickled instead).

    Records are matched by equality, not identity: when the stage ran in
    a worker process the Access objects came back through pickle and no
    longer alias the parent's trace records.
    """
    index_of: dict[TraceRecord, int] = {
        record: index for index, record in enumerate(records)
    }
    entries = []
    for access in accesses:
        open_index = index_of.get(access.open_record)
        close_index = index_of.get(access.close_record)
        if open_index is None or close_index is None:
            return None
        entries.append(
            (
                open_index,
                close_index,
                [
                    (run.is_write, run.offset, run.length, run.end_time)
                    for run in access.runs
                ],
                access.reposition_count,
            )
        )
    return _TAG_ACCESSES_INDEXED + marshal.dumps(entries, _MARSHAL_VERSION)


def _decode_accesses_indexed(
    body: bytes, records: Sequence[TraceRecord]
) -> list[Access]:
    entries = marshal.loads(body)
    with gc_paused():
        return [
            Access(
                records[open_index],
                records[close_index],
                [LogicalRun(*row) for row in run_rows],
                repositions,
            )
            for open_index, close_index, run_rows, repositions in entries
        ]


# --------------------------------------------------------------------------
# cluster replays
# --------------------------------------------------------------------------

# Counter rows are the counters' own declaration-order value tuples
# (``as_row``), which is exactly the field order the dataclass-era
# codec marshalled -- the wire layout is unchanged.


def _encode_replay(result: ClusterResult) -> bytes:
    counters = marshal.dumps(
        (
            result.server_counters.as_row(),
            {cid: c.as_row() for cid, c in result.final_counters.items()},
            {
                cid: [
                    (s.time, s.client_id, s.counters.as_row()) for s in snaps
                ]
                for cid, snaps in result.snapshots.items()
            },
            tuple(c.as_row() for c in result.per_server_counters),
        ),
        _MARSHAL_VERSION,
    )
    body = pickle.dumps(
        {
            "config": result.config,
            "duration": result.duration,
            "records_replayed": result.records_replayed,
            "counters": counters,
            "server_ids": result.server_ids,
            "construction_seconds": result.construction_seconds,
            "tick_events": result.tick_events,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _TAG_REPLAY + body


def _decode_replay(body: bytes) -> ClusterResult:
    state = pickle.loads(body)
    server_row, final_rows, snapshot_rows, per_server_rows = marshal.loads(
        state["counters"]
    )
    make_client = ClientCounters.from_row
    make_server = ServerCounters.from_row
    _new, _osa = object.__new__, object.__setattr__
    with gc_paused():
        snapshots: dict[int, list[CounterSnapshot]] = {}
        for cid, rows in snapshot_rows.items():
            per_client = snapshots[cid] = []
            for time, client_id, counter_row in rows:
                snap = _new(CounterSnapshot)
                _osa(snap, "time", time)
                _osa(snap, "client_id", client_id)
                _osa(snap, "counters", make_client(counter_row))
                per_client.append(snap)
        final_counters = {
            cid: make_client(row) for cid, row in final_rows.items()
        }
    return ClusterResult(
        config=state["config"],
        duration=state["duration"],
        snapshots=snapshots,
        final_counters=final_counters,
        server_counters=make_server(server_row),
        records_replayed=state["records_replayed"],
        per_server_counters=tuple(
            make_server(row) for row in per_server_rows
        ),
        server_ids=tuple(state["server_ids"]),
        construction_seconds=state["construction_seconds"],
        tick_events=state["tick_events"],
    )


# --------------------------------------------------------------------------
# counter timeseries (repro.obs)
# --------------------------------------------------------------------------


def _encode_timeseries(timeseries: CounterTimeseries) -> bytes:
    # The payload is primitives all the way down (field-name tuples,
    # time lists, value-row tuples), so marshal carries it whole.
    return _TAG_OBS + marshal.dumps(timeseries.to_payload(), _MARSHAL_VERSION)


def _decode_timeseries(body: bytes) -> CounterTimeseries:
    return CounterTimeseries.from_payload(marshal.loads(body))


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def encode_artifact(artifact: Any, context: dict[str, Any] | None = None) -> bytes:
    """Serialize an artifact to a tagged payload.

    ``context`` may carry the owning trace's record list (``"records"``),
    letting access lists pack as record *indexes* rather than copies.
    Raises ValueError for a trace whose ``records`` disagree in length
    with its columnar form (the cache turns that into a failed store).
    """
    if isinstance(artifact, SyntheticTrace):
        return _encode_columnar_trace(artifact)
    if isinstance(artifact, ClusterResult):
        return _encode_replay(artifact)
    if isinstance(artifact, CounterTimeseries):
        return _encode_timeseries(artifact)
    if (
        isinstance(artifact, list)
        and artifact
        and all(isinstance(item, Access) for item in artifact)
        and context is not None
        and context.get("records") is not None
    ):
        payload = _encode_accesses_indexed(artifact, context["records"])
        if payload is not None:
            return payload
    return _TAG_PICKLE + pickle.dumps(
        artifact, protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_artifact(payload: bytes, context: dict[str, Any] | None = None) -> Any:
    """Inverse of :func:`encode_artifact`.

    Index-form access payloads need the same ``context`` they were
    encoded with; without it they fail to decode (a cache miss, never an
    error, at the cache layer).
    """
    tag, body = payload[:1], payload[1:]
    if tag == _TAG_COLUMNAR_TRACE:
        return _decode_columnar_trace(body)
    if tag == _TAG_REPLAY:
        return _decode_replay(body)
    if tag == _TAG_ACCESSES_INDEXED:
        if context is None or context.get("records") is None:
            raise ValueError("index-form access payload needs trace records")
        return _decode_accesses_indexed(body, context["records"])
    if tag == _TAG_OBS:
        return _decode_timeseries(body)
    if tag == _TAG_PICKLE:
        with gc_paused():
            return pickle.loads(body)
    raise ValueError(f"unknown artifact tag {tag!r}")
