"""Structured event tracing with Chrome-trace-event export.

The paper's authors watched their cluster through counters sampled "at
regular intervals"; for debugging the reproduction itself we also want
the *events between* the samples -- each RPC send/retransmit/reply,
block fetch/writeback/evict, fault arm/fire/recover, and oracle check.
:class:`TraceRecorder` buffers those as plain tuples and exports them in
the Chrome trace-event JSON format, which loads directly into Perfetto
(https://ui.perfetto.dev) for a zoomable per-machine timeline.

Only the JSON-object form with a top-level ``traceEvents`` array is
emitted, and only four phases are used:

* ``i`` -- instant events (a retransmission, an oracle check);
* ``X`` -- complete events with a duration (an RPC round-trip, a stall,
  a fault's injected outage);
* ``C`` -- counter events (sampled gauges, drawn as area charts);
* ``M`` -- metadata naming the per-machine "processes".

Timestamps are simulated seconds converted to integer microseconds (the
unit the format requires).  Machines map to trace "pids": the server is
pid 0 and client ``k`` is pid ``k + 1``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

#: pid assigned to the server's timeline (server 0 in a sharded cluster).
SERVER_PID = 0


def client_pid(client_id: int) -> int:
    """The trace pid for a client machine (server holds pid 0)."""
    return client_id + 1


def server_pid(server_id: int) -> int:
    """The trace pid for a server shard.

    Shard 0 keeps the historical pid 0; extra shards take the negative
    pids, which clients (pids >= 1) can never collide with.
    """
    return -server_id


def _us(seconds: float) -> int:
    """Simulated seconds -> integer microseconds (trace-event unit)."""
    return round(seconds * 1_000_000)


@dataclass(slots=True)
class TraceEvent:
    """One trace-event row, already in Chrome trace-event field names."""

    name: str
    ph: str
    ts: int  # microseconds
    pid: int
    cat: str
    dur: int = 0  # microseconds; X events only
    args: dict[str, Any] = field(default_factory=dict)

    def as_json_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "name": self.name,
            "ph": self.ph,
            "ts": self.ts,
            "pid": self.pid,
            "tid": 0,
            "cat": self.cat,
        }
        if self.ph == "X":
            obj["dur"] = self.dur
        if self.ph == "i":
            obj["s"] = "t"  # instant scope: thread
        if self.args:
            obj["args"] = self.args
        return obj


class TraceRecorder:
    """Bounded buffer of trace events with Chrome-JSON export.

    The buffer is capped (``max_events``) so a long chaos replay cannot
    exhaust memory; once full, further events are *counted* in
    :attr:`dropped` but not stored -- the export reports the drop count
    rather than silently truncating.
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive: {max_events}")
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.dropped = 0
        #: pids that appeared, for process_name metadata on export.
        self._machines: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.events)

    def name_machine(self, pid: int, name: str) -> None:
        self._machines[pid] = name

    def _push(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def instant(
        self, now: float, pid: int, cat: str, name: str,
        args: dict[str, Any] | None = None,
    ) -> None:
        """An instantaneous event (phase ``i``)."""
        self._push(TraceEvent(
            name=name, ph="i", ts=_us(now), pid=pid, cat=cat,
            args=args or {},
        ))

    def span(
        self, start: float, duration: float, pid: int, cat: str, name: str,
        args: dict[str, Any] | None = None,
    ) -> None:
        """A complete event with a duration (phase ``X``)."""
        self._push(TraceEvent(
            name=name, ph="X", ts=_us(start), pid=pid, cat=cat,
            dur=max(0, _us(duration)), args=args or {},
        ))

    def counter(
        self, now: float, pid: int, name: str, values: dict[str, float],
    ) -> None:
        """A counter sample (phase ``C``; Perfetto draws an area chart)."""
        self._push(TraceEvent(
            name=name, ph="C", ts=_us(now), pid=pid, cat="counter",
            args=dict(values),
        ))

    # --- export -----------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object."""
        rows: list[dict[str, Any]] = [
            {
                "name": "process_name", "ph": "M", "ts": 0,
                "pid": pid, "tid": 0,
                "args": {"name": name},
            }
            for pid, name in sorted(self._machines.items())
        ]
        rows.extend(event.as_json_obj() for event in self.events)
        return {
            "traceEvents": rows,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs",
                "clock": "simulated seconds (exported as microseconds)",
                "events_recorded": len(self.events),
                "events_dropped": self.dropped,
            },
        }

    def write(self, path: str | os.PathLike[str]) -> None:
        """Write the trace as JSON; openable at https://ui.perfetto.dev."""
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, separators=(",", ":"))
