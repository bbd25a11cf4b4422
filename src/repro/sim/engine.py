"""The discrete-event engine: a clock, a heap of pending callbacks, and
the periodic ticks kept beside it.

Events scheduled at the same timestamp fire in scheduling order (FIFO),
which keeps runs deterministic regardless of heap tie-breaking.

Periodic ticks (:class:`~repro.sim.timers.SharedTicker`) do not go
through the heap's event objects: each ticker keys its next fire as a
``(time, sequence)`` entry in a small side heap (one entry per ticker),
taking its sequence number from the same counter as :meth:`schedule_at`.
:meth:`run_until` merges the two heaps in ``(time, sequence)`` order, so
a tick and an event at the same timestamp fire in exactly the order one
shared heap would give them, while a tick builds no event, no handle and
touches no heap entry of the (far larger) event heap.  A ticker with no
armed subscriber runs its next ticks through :meth:`run_idle_ticks`, one
loop step each.

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
import math
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
        #: Min-heap of ``(time, sequence, fire)``: each periodic ticker's
        #: next fire (at most one entry per ticker, never cancelled).
        self._ticks: list[tuple[float, int, Callback]] = []
        #: Monotone schedule counter: the next event's tie-break sequence
        #: number, and a cheap change detector for "did anything get
        #: scheduled since I last looked?" (the replay loop caches
        #: :meth:`next_event_time` against it).
        self._sequence = 0
        self._events_run = 0
        #: The ``end_time`` of the current (or last) :meth:`run_until`.
        self._until = start_time
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
        """Number of not-yet-fired, not-cancelled events, a keyed tick
        counting as one.  O(1)."""
        return self._live + len(self._ticks)

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

    def schedule_tick(self, time: float, fire: Callback) -> None:
        """Key a periodic ticker's next fire at ``time``.

        The fire takes the next sequence number, exactly as
        :meth:`schedule_at` would, but lives beside the event heap: it
        cannot be cancelled, and it costs no event object.  A ticker
        keys one fire at a time and re-keys from inside ``fire``.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time}; the clock is already at {self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._ticks, (time, sequence, fire))

    def run_idle_ticks(self, time: float, period: float) -> tuple[int, float]:
        """Run, from inside a tick, an idle ticker's following ticks.

        An idle ticker (every subscriber disarmed) calls nobody, so its
        ticks at ``time``, ``time + period``, ... that would fire next in
        this :meth:`run_until` -- before its ``end_time`` and before any
        other pending event or tick -- are run here in one loop: each
        counts as an event run and takes the sequence number its re-key
        would have taken.  With an observer attached none is run (each
        must be shown to it in order).  Returns how many ran and the time
        of the first tick that did not.
        """
        if self._observer is not None:
            return 0, time
        heap, ticks = self._heap, self._ticks
        if heap and heap[0][2].cancelled:
            self._purge_cancelled_top()
        # Each run tick's re-key would take a fresh sequence number, so
        # a pending entry at the same time fires first: stop before it.
        limit = min(
            heap[0][0] if heap else math.inf,
            ticks[0][0] if ticks else math.inf,
        )
        until = self._until
        count = 0
        while time < limit and time <= until:
            self._now = time
            count += 1
            time += period
        self._events_run += count
        self._sequence += count
        return count, time

    def next_event_time(self) -> float | None:
        """The timestamp of the next live event or tick, or None when idle.

        O(1) apart from purging cancelled entries off the top.  The
        replay loop uses it to skip :meth:`run_until` entirely between
        trace records that fall inside the same quiet stretch.
        """
        heap, ticks = self._heap, self._ticks
        if heap and heap[0][2].cancelled:
            self._purge_cancelled_top()
        if ticks and (not heap or ticks[0] < heap[0]):
            return ticks[0][0]
        if not heap:
            return None
        return heap[0][0]

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
        self._until = end_time
        heap, ticks = self._heap, self._ticks
        while True:
            if heap and heap[0][2].cancelled:
                self._purge_cancelled_top()
            # Sequence numbers are unique across both heaps, so the
            # tuple compare never reaches the third element.
            if ticks and (not heap or ticks[0] < heap[0]):
                time = ticks[0][0]
                if time > end_time:
                    break
                callback = heapq.heappop(ticks)[2]
            else:
                if not heap or heap[0][0] > end_time:
                    break
                event = heapq.heappop(heap)[2]
                event.done = True
                self._live -= 1
                time = event.time
                callback = event.callback
            self._now = time
            self._events_run += 1
            callback()
            if self._observer is not None:
                self._observer.on_engine_event(time)
        self._now = end_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine(now={self._now:.3f}, pending={self.pending})"
