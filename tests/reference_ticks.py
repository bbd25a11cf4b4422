"""The tick machinery before ticks left the event heap, kept as the
reference for ``repro.sim.engine`` and ``repro.sim.timers``.

Here every periodic tick is a heap event (its own ``_ScheduledEvent``
and ``EventHandle``), and :class:`SharedTicker` calls every active
subscriber on every tick.  The production engine keys ticks beside the
heap and calls only armed subscribers; a cluster built on these classes
(``tests/test_replay_columns.py``) must fire the same events in the same
order and end with every counter equal.
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
    """The engine before periodic ticks left its heap: every event,
    tick or not, is a heap entry with its own event object and handle."""

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


class TickSubscription:
    """One subscriber's registration on a :class:`SharedTicker`.

    ``arm`` and ``disarm`` are accepted and ignored: every active
    subscriber is called on every tick, which is the behaviour the
    armed fan-out must reproduce."""

    __slots__ = ("_callback", "active")

    def __init__(self, callback: Callable[[], None]) -> None:
        self._callback = callback
        self.active = True

    def arm(self) -> None:
        pass

    def disarm(self) -> None:
        pass

    def cancel(self) -> None:
        """Stop receiving ticks.  Idempotent."""
        self.active = False


class SharedTicker:
    """One engine event per period, fanned out to many subscribers.

    Subscribers fire in subscription order on every tick.  The first
    tick lands ``period`` seconds after the first subscription (a
    daemon sleeps before its first scan); if every subscriber cancels,
    the pending tick is dropped, and a later subscription re-arms the
    ticker from the current time.

    Tick callbacks must not schedule events at exactly the next tick's
    timestamp -- with per-subscriber timers such an event would have
    interleaved between sibling timers, while here it lands before the
    whole batch.  No engine-driven daemon in the simulator does this
    (ticks land on multiples of their period; ad-hoc events carry
    random float timestamps).
    """

    def __init__(self, engine: Engine, period: float) -> None:
        if period <= 0:
            raise SchedulingError(f"ticker period must be positive, got {period}")
        self._engine = engine
        self.period = period
        self._subscriptions: list[TickSubscription] = []
        self._handle: EventHandle | None = None
        self.fire_count = 0

    def subscribe(
        self, callback: Callable[[], None], armed: bool = True
    ) -> TickSubscription:
        """Add a per-tick callback; returns a cancellable subscription
        (``armed`` is ignored: every subscriber fires every tick)."""
        subscription = TickSubscription(callback)
        self._subscriptions.append(subscription)
        if self._handle is None:
            self._handle = self._engine.schedule_after(self.period, self._fire)
        return subscription

    def _fire(self) -> None:
        self.fire_count += 1
        for subscription in list(self._subscriptions):
            if subscription.active:
                subscription._callback()
        self._subscriptions = [sub for sub in self._subscriptions if sub.active]
        if self._subscriptions:
            self._handle = self._engine.schedule_after(self.period, self._fire)
        else:
            self._handle = None
