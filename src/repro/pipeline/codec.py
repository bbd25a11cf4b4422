"""Fast artifact serialization for the cache.

Plain pickling is correct but slow for trace-shaped artifacts: a day
trace is ~100k tiny frozen dataclass records, and pickle spends several
microseconds per object rebuilding each one.  Loading a cached trace
that way costs a substantial fraction of regenerating it, which would
cap the warm-cache speedup well below what the hardware allows.

This codec stores a trace as its columnar form instead: the
:class:`~repro.trace.columnar.ColumnarTrace` payload (one flat array
per field per record kind, plus the time order), serialized with
:mod:`marshal` (C-speed for primitives).  A decoded trace is the
generated trace's columns, array for array; no record is built.
Replay snapshots, the one object-heavy load, are rebuilt with the
cyclic GC paused (:func:`gc_paused`); the rebuilt graphs are trees.

Payloads are tagged by their first byte:

* ``C`` -- a :class:`~repro.workload.SyntheticTrace`: the columnar
  payload marshal-packed, profile/users/validation pickled.
* ``R`` -- a :class:`~repro.fs.cluster.ClusterResult` (marshalled
  counter snapshots, pickled config).
* ``O`` -- a :class:`~repro.obs.sampler.CounterTimeseries` (per-machine
  sample tables, pure marshal -- no pickle at all).

Nothing else is an artifact: :func:`encode_artifact` refuses any other
type with a :class:`TypeError`, which the cache's ``store`` reports as
not stored.
"""

from __future__ import annotations

import gc
import marshal
import pickle
from contextlib import contextmanager
from typing import Any, Iterator

from repro.fs.cluster import ClusterResult
from repro.fs.counters import ClientCounters, CounterSnapshot, ServerCounters
from repro.obs.sampler import CounterTimeseries
from repro.trace.columnar import ColumnarTrace
from repro.workload.generator import SyntheticTrace

_TAG_REPLAY = b"R"
_TAG_OBS = b"O"
_TAG_COLUMNAR_TRACE = b"C"

#: marshal format version (stable, supported by every CPython we target).
_MARSHAL_VERSION = 2


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic GC while a decode allocates a large acyclic object
    graph (the collector would re-traverse it for nothing); the caller's
    GC state is restored on exit, including on error."""
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------


def _encode_columnar_trace(trace: SyntheticTrace) -> bytes:
    body = pickle.dumps(
        {
            "columnar": marshal.dumps(
                trace.columnar.to_payload(), _MARSHAL_VERSION
            ),
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
        users=state["users"],
        validation=state["validation"],
        columnar=columnar,
    )


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


def encode_artifact(artifact: Any) -> bytes:
    """Serialize an artifact to a tagged payload."""
    if isinstance(artifact, SyntheticTrace):
        return _encode_columnar_trace(artifact)
    if isinstance(artifact, ClusterResult):
        return _encode_replay(artifact)
    if isinstance(artifact, CounterTimeseries):
        return _encode_timeseries(artifact)
    raise TypeError(f"no artifact encoding for {type(artifact).__name__}")


def decode_artifact(payload: bytes) -> Any:
    """Inverse of :func:`encode_artifact`."""
    tag, body = payload[:1], payload[1:]
    if tag == _TAG_COLUMNAR_TRACE:
        return _decode_columnar_trace(body)
    if tag == _TAG_REPLAY:
        return _decode_replay(body)
    if tag == _TAG_OBS:
        return _decode_timeseries(body)
    raise ValueError(f"unknown artifact tag {tag!r}")
