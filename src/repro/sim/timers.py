"""Recurring ticks kept beside the event engine's heap.

Sprite's writeback daemon wakes every 5 seconds; the counter collector
snapshots at a regular period.  One self-rescheduling timer per daemon
would push one heap event per daemon per interval, which at cluster
scale means the heap churns tens of thousands of events per simulated
minute just to wake 40 identical scans.

:class:`SharedTicker` coalesces them: one tick per period, keyed beside
the engine's heap (:meth:`Engine.schedule_tick`), fanned out in
subscription order.  Because a per-daemon timer reschedules itself
immediately after its callback, the per-tick FIFO order of N sibling
timers is exactly their creation order -- which is the ticker's
subscription order, so coalescing is byte-identical to per-daemon
timers (``tests/test_engine.py`` keeps such a timer as the reference).

A subscription is *armed* or *disarmed*.  A tick calls only the armed
ones, so a subscriber whose callback would find nothing to do (a
writeback daemon over a clean cache, a heartbeat with every server up)
disarms itself and is re-armed by whatever gives it work again.  The
tick itself still happens and still counts, so ``fire_count`` and the
engine's ``events_run`` read the same as with every subscriber called;
while no subscriber is armed, the engine runs the ticks due before
anything else in one loop (:meth:`Engine.run_idle_ticks`).
``tests/reference_ticks.py`` keeps the heap-scheduled, call-everyone
ticker as the reference for that claim.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.common.errors import SchedulingError
from repro.sim.engine import Engine


class TickSubscription:
    """One subscriber's registration on a :class:`SharedTicker`."""

    __slots__ = ("_ticker", "_callback", "_order", "active", "armed")

    def __init__(
        self, ticker: "SharedTicker", callback: Callable[[], None], order: int
    ) -> None:
        self._ticker = ticker
        self._callback = callback
        #: Position in subscription order (the per-tick call order).
        self._order = order
        self.active = True
        self.armed = False

    def arm(self) -> None:
        """Receive ticks again (from the current tick on, when called by
        an earlier subscriber during a tick).  Idempotent; a no-op once
        cancelled."""
        if not self.armed and self.active:
            self.armed = True
            self._ticker._on_armed(self)

    def disarm(self) -> None:
        """Skip ticks until the next :meth:`arm`.  Idempotent."""
        if self.armed:
            self.armed = False
            del self._ticker._armed[self._order]

    def cancel(self) -> None:
        """Stop receiving ticks for good.  Idempotent."""
        if self.active:
            self.disarm()
            self.active = False
            self._ticker._active -= 1


class SharedTicker:
    """One tick per period, fanned out to the armed subscribers.

    Armed subscribers fire in subscription order on every tick.  The
    first tick lands ``period`` seconds after the first subscription (a
    daemon sleeps before its first scan).  The ticker keeps ticking
    while any subscription is active, armed or not; if every subscriber
    cancels, the pending tick fires into nobody and is not re-keyed,
    and a later subscription re-arms the ticker from the current time.

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
        #: Armed subscriptions by subscription order.
        self._armed: dict[int, TickSubscription] = {}
        self._active = 0
        self._next_order = 0
        #: True while a fire is keyed on the engine or running.
        self._keyed = False
        #: During a tick: the orders still to call (a heap), the order
        #: being called, and the first order subscribed after the tick
        #: began (such a subscription waits for the next tick).
        self._due: list[int] | None = None
        self._cursor = -1
        self._limit = 0
        self.fire_count = 0

    def subscribe(
        self, callback: Callable[[], None], armed: bool = True
    ) -> TickSubscription:
        """Add a per-tick callback; returns a cancellable subscription,
        armed unless ``armed`` is False."""
        subscription = TickSubscription(self, callback, self._next_order)
        self._next_order += 1
        self._active += 1
        if armed:
            subscription.arm()
        if not self._keyed:
            self._keyed = True
            engine = self._engine
            engine.schedule_tick(engine.now + self.period, self._fire)
        return subscription

    def _on_armed(self, subscription: TickSubscription) -> None:
        order = subscription._order
        self._armed[order] = subscription
        due = self._due
        if due is not None and self._cursor < order < self._limit:
            # Armed mid-tick by an earlier subscriber: it still fires in
            # this tick, as a call-everyone fan-out would have called it.
            heappush(due, order)

    def _fire(self) -> None:
        self.fire_count += 1
        armed = self._armed
        if armed:
            self._due = due = sorted(armed)
            self._limit = self._next_order
            while due:
                order = heappop(due)
                if order <= self._cursor:
                    continue  # pushed twice: disarmed and re-armed before its turn
                subscription = armed.get(order)
                if subscription is not None:
                    self._cursor = order
                    subscription._callback()
            self._due = None
            self._cursor = -1
        if self._active:
            engine = self._engine
            time = engine._now + self.period
            if not armed:
                # Idle: the ticks due before anything else in this run
                # would call nobody; the engine runs them in one loop.
                ran, time = engine.run_idle_ticks(time, self.period)
                self.fire_count += ran
            engine.schedule_tick(time, self._fire)
        else:
            self._keyed = False
