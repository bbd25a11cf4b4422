"""A small discrete-event simulation engine.

The Sprite cluster simulator (:mod:`repro.fs`) needs a simulated clock,
one-shot events (a block becoming 30 seconds dirty), and recurring timers
(the 5-second writeback scan, the periodic counter snapshots).  The engine
here is deliberately minimal: a heap of timestamped callbacks and a
monotonic clock.
"""

from repro.sim.engine import Engine, EventHandle
from repro.sim.timers import SharedTicker, TickSubscription

__all__ = [
    "Engine",
    "EventHandle",
    "SharedTicker",
    "TickSubscription",
]
