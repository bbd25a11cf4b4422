"""Recurring ticks built on the event engine.

Sprite's writeback daemon wakes every 5 seconds; the counter collector
snapshots at a regular period.  One self-rescheduling timer per daemon
would push one heap event per daemon per interval, which at cluster
scale means the heap churns tens of thousands of events per simulated
minute just to wake 40 identical scans.

:class:`SharedTicker` coalesces them: one engine event per period,
fanned out to every subscriber in subscription order.  Because a
per-daemon timer reschedules itself immediately after its callback,
the per-tick FIFO order of N sibling timers is exactly their creation
order -- which is the ticker's subscription order, so coalescing is
byte-identical to per-daemon timers (``tests/test_engine.py`` keeps
such a timer as the reference).
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import SchedulingError
from repro.sim.engine import Engine, EventHandle


class TickSubscription:
    """One subscriber's registration on a :class:`SharedTicker`."""

    __slots__ = ("_callback", "active")

    def __init__(self, callback: Callable[[], None]) -> None:
        self._callback = callback
        self.active = True

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

    def subscribe(self, callback: Callable[[], None]) -> TickSubscription:
        """Add a per-tick callback; returns a cancellable subscription."""
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
