"""The discrete-event engine: a clock plus a heap of pending callbacks.

Events scheduled at the same timestamp fire in scheduling order (FIFO),
which keeps runs deterministic regardless of heap tie-breaking.

Heap entries are plain ``(time, sequence, event)`` tuples, so every
heap compare is a C-level tuple comparison -- the sequence number is
unique, so the event object itself is never compared.  (The engine used
to order dataclass instances; at millions of events the generated
Python ``__lt__`` was a measurable slice of replay wall clock.)

Cancellation is lazy: a cancelled event stays in the heap (marked) and
is discarded when it reaches the top, so ``cancel``, ``pending``, and
``next_event_time`` are all O(1) apart from amortized heap
maintenance.  A live-event counter replaces the old full-heap scans,
and the heap is compacted when cancelled entries come to dominate it,
so a workload that schedules and cancels millions of timers (every
open schedules a writeback, most are cancelled by the close) stays
linear.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import SchedulingError

Callback = Callable[[], None]

#: Compact the heap when it holds more than this many cancelled entries
#: *and* they outnumber the live ones (amortized O(1) per cancel).
_COMPACT_MIN_STALE = 64


@dataclass(slots=True)
class _ScheduledEvent:
    time: float
    sequence: int
    callback: Callback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: True once the event has left the heap (fired or discarded); a
    #: cancel after that point must not touch the live count.
    done: bool = field(default=False, compare=False)


class EventHandle:
    """Returned by :meth:`Engine.schedule`; lets the creator cancel."""

    __slots__ = ("_event", "_engine")

    def __init__(self, event: _ScheduledEvent, engine: "Engine") -> None:
        self._event = event
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; a no-op once the
        event has already fired."""
        event = self._event
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._engine._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class Engine:
    """A monotonic simulated clock driving timestamped callbacks."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        #: Min-heap of ``(time, sequence, _ScheduledEvent)`` tuples.
        self._heap: list[tuple[float, int, _ScheduledEvent]] = []
        #: Monotone schedule counter: the next event's tie-break sequence
        #: number, and a cheap change detector for "did anything get
        #: scheduled since I last looked?" (the replay loop caches
        #: :meth:`next_event_time` against it).
        self._sequence = 0
        self._events_run = 0
        self._live = 0  # scheduled, not yet fired, not cancelled
        self._stale = 0  # cancelled events still sitting in the heap
        #: Optional observability hook (repro.obs): notified after each
        #: fired event.  None by default -- one predictable branch per
        #: event is the whole cost of the inert path.
        self._observer = None

    def attach_observer(self, observer) -> None:
        """Attach an object with ``on_engine_event(time)`` (repro.obs)."""
        self._observer = observer

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.  O(1)."""
        return self._live

    @property
    def events_run(self) -> int:
        """Total callbacks executed so far."""
        return self._events_run

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time}; the clock is already at {self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = _ScheduledEvent(time=time, sequence=sequence, callback=callback)
        heapq.heappush(self._heap, (time, sequence, event))
        self._live += 1
        return EventHandle(event, self)

    def schedule_after(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback)

    def next_event_time(self) -> float | None:
        """The timestamp of the next live event, or None when idle.

        O(1) apart from purging cancelled entries off the top.  The
        replay loop uses it to skip :meth:`run_until` entirely between
        trace records that fall inside the same quiet stretch.
        """
        self._purge_cancelled_top()
        if not self._heap:
            return None
        return self._heap[0][0]

    def _note_cancelled(self) -> None:
        """Bookkeeping for a cancel; compacts when stale entries dominate."""
        self._live -= 1
        self._stale += 1
        if self._stale > _COMPACT_MIN_STALE and self._stale > self._live:
            survivors = []
            for entry in self._heap:
                event = entry[2]
                if event.cancelled:
                    event.done = True
                else:
                    survivors.append(entry)
            self._heap = survivors
            heapq.heapify(self._heap)
            self._stale = 0

    def _purge_cancelled_top(self) -> None:
        """Drop cancelled events sitting at the top of the heap."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2].done = True
            self._stale -= 1

    def run_until(self, end_time: float) -> None:
        """Fire all events with time <= ``end_time``, then advance the
        clock to exactly ``end_time``."""
        if end_time < self._now:
            raise SchedulingError(
                f"cannot run until {end_time}; the clock is already at {self._now}"
            )
        heap = self._heap
        while True:
            self._purge_cancelled_top()
            if not heap or heap[0][0] > end_time:
                break
            event = heapq.heappop(heap)[2]
            event.done = True
            self._live -= 1
            self._now = event.time
            self._events_run += 1
            event.callback()
            if self._observer is not None:
                self._observer.on_engine_event(event.time)
        self._now = end_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine(now={self._now:.3f}, pending={self.pending})"
