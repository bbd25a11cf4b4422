"""Unit tests for the discrete-event engine and timers."""

import time

import pytest

import reference_ticks
from repro.common.errors import SchedulingError
from repro.fs.config import ClusterConfig
from repro.sim import Engine, SharedTicker
from repro.sim.engine import EventHandle, _COMPACT_MIN_STALE
from rigs import build_rig

#: Past every event these tests schedule.
END = 1e6


class RecurringTimer:
    """One self-rescheduling timer per daemon: what :class:`SharedTicker`
    coalesces, kept here as the reference it must match byte for byte.

    The first firing happens ``period`` seconds after :meth:`start`
    (matching a daemon that sleeps before its first scan) unless
    ``fire_immediately`` is set.
    """

    def __init__(self, engine, period, callback, fire_immediately=False):
        if period <= 0:
            raise SchedulingError(f"timer period must be positive, got {period}")
        self._engine = engine
        self.period = period
        self._callback = callback
        self._fire_immediately = fire_immediately
        self._handle: EventHandle | None = None
        self.running = False
        self.fire_count = 0

    def start(self) -> None:
        """Begin firing.  Starting an already-running timer is an error."""
        if self.running:
            raise SchedulingError("timer is already running")
        self.running = True
        delay = 0.0 if self._fire_immediately else self.period
        self._handle = self._engine.schedule_after(delay, self._fire)

    def stop(self) -> None:
        """Stop firing.  Idempotent."""
        self.running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self.running:
            return
        self.fire_count += 1
        self._callback()
        if self.running:
            self._handle = self._engine.schedule_after(self.period, self._fire)


class TestEngine:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_clock_custom_start(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule_at(3.0, lambda: fired.append(3))
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(2.0, lambda: fired.append(2))
        engine.run_until(10.0)
        assert fired == [1, 2, 3]

    def test_ties_fire_fifo(self):
        engine = Engine()
        fired = []
        for index in range(5):
            engine.schedule_at(1.0, lambda i=index: fired.append(i))
        engine.run_until(END)
        assert fired == [0, 1, 2, 3, 4]

    def test_run_until_advances_clock(self):
        engine = Engine()
        engine.run_until(42.0)
        assert engine.now == 42.0

    def test_run_until_stops_at_boundary(self):
        engine = Engine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append("on-boundary"))
        engine.schedule_at(5.001, lambda: fired.append("after"))
        engine.run_until(5.0)
        assert fired == ["on-boundary"]
        assert engine.pending == 1

    def test_schedule_in_past_raises(self):
        engine = Engine()
        engine.run_until(10.0)
        with pytest.raises(SchedulingError):
            engine.schedule_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SchedulingError):
            Engine().schedule_after(-1.0, lambda: None)

    def test_run_until_backwards_raises(self):
        engine = Engine()
        engine.run_until(10.0)
        with pytest.raises(SchedulingError):
            engine.run_until(5.0)

    def test_cancel_prevents_firing(self):
        engine = Engine()
        fired = []
        handle = engine.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run_until(END)
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending == 0

    def test_callback_sees_current_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(7.5, lambda: seen.append(engine.now))
        engine.run_until(END)
        assert seen == [7.5]

    def test_callback_can_schedule_more(self):
        engine = Engine()
        fired = []

        def first():
            fired.append("first")
            engine.schedule_after(1.0, lambda: fired.append("second"))

        engine.schedule_at(1.0, first)
        engine.run_until(5.0)
        assert fired == ["first", "second"]

    def test_events_run_counter(self):
        engine = Engine()
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.run_until(END)
        assert engine.events_run == 2


class TestRecurringTimer:
    def test_fires_every_period(self):
        engine = Engine()
        fired = []
        timer = RecurringTimer(engine, 5.0, lambda: fired.append(engine.now))
        timer.start()
        engine.run_until(16.0)
        assert fired == [5.0, 10.0, 15.0]
        assert timer.fire_count == 3

    def test_fire_immediately_option(self):
        engine = Engine()
        fired = []
        timer = RecurringTimer(
            engine, 5.0, lambda: fired.append(engine.now), fire_immediately=True
        )
        timer.start()
        engine.run_until(6.0)
        assert fired == [0.0, 5.0]

    def test_stop_halts_firing(self):
        engine = Engine()
        fired = []
        timer = RecurringTimer(engine, 1.0, lambda: fired.append(engine.now))
        timer.start()
        engine.run_until(2.5)
        timer.stop()
        engine.run_until(10.0)
        assert fired == [1.0, 2.0]
        assert not timer.running

    def test_double_start_raises(self):
        engine = Engine()
        timer = RecurringTimer(engine, 1.0, lambda: None)
        timer.start()
        with pytest.raises(SchedulingError):
            timer.start()

    def test_stop_is_idempotent(self):
        engine = Engine()
        timer = RecurringTimer(engine, 1.0, lambda: None)
        timer.start()
        timer.stop()
        timer.stop()

    def test_restart_after_stop(self):
        engine = Engine()
        fired = []
        timer = RecurringTimer(engine, 1.0, lambda: fired.append(engine.now))
        timer.start()
        engine.run_until(1.5)
        timer.stop()
        timer.start()
        engine.run_until(3.0)
        assert fired == [1.0, 2.5]

    def test_bad_period_raises(self):
        with pytest.raises(SchedulingError):
            RecurringTimer(Engine(), 0.0, lambda: None)

    def test_callback_stopping_timer_mid_fire(self):
        engine = Engine()
        fired = []
        timer = RecurringTimer(engine, 1.0, lambda: None)

        def fire_and_stop():
            fired.append(engine.now)
            timer.stop()

        timer._callback = fire_and_stop
        timer.start()
        engine.run_until(5.0)
        assert fired == [1.0]


class TestCancellationScaling:
    """The schedule-then-cancel workload the cluster generates by the
    tens of thousands (every open schedules a writeback; most closes
    cancel it) must stay linear: pending is a counter, cancel is a
    flag flip, and cancelled events are purged lazily."""

    def test_10k_schedule_and_cancel_fast_and_correct(self):
        engine = Engine()
        handles = [
            engine.schedule_at(float(i), lambda: None) for i in range(10_000)
        ]
        counts = []
        start = time.perf_counter()
        for handle in handles:
            counts.append(engine.pending)
            handle.cancel()
        elapsed = time.perf_counter() - start
        assert counts == list(range(10_000, 0, -1))
        assert engine.pending == 0
        # The old implementation scanned the heap per pending call
        # (~50M comparisons here); the counter version is instant.
        assert elapsed < 1.0
        engine.run_until(END)
        assert engine.events_run == 0

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        handle = engine.schedule_at(1.0, lambda: None)
        engine.run_until(2.0)
        assert engine.pending == 0
        handle.cancel()  # already fired: must not corrupt the count
        assert engine.pending == 0
        engine.schedule_at(3.0, lambda: None)
        handle.cancel()
        assert engine.pending == 1

    def test_heap_compacts_under_mass_cancellation(self):
        engine = Engine()
        handles = [
            engine.schedule_at(float(i), lambda: None) for i in range(10_000)
        ]
        for handle in handles[:-1]:
            handle.cancel()
        assert engine.pending == 1
        assert len(engine._heap) < 10_000  # stale entries were dropped
        engine.run_until(END)
        assert engine.events_run == 1

    def test_next_event_time_skips_cancelled_events(self):
        engine = Engine()
        doomed = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(10.0, lambda: None)
        doomed.cancel()
        assert engine.next_event_time() == 10.0
        assert engine.pending == 1

    def test_run_until_with_cancelled_head_stops_at_end_time(self):
        engine = Engine()
        fired = []
        doomed = engine.schedule_at(1.0, lambda: fired.append("doomed"))
        engine.schedule_at(10.0, lambda: fired.append("late"))
        doomed.cancel()
        engine.run_until(5.0)  # must not fire the 10.0 event early
        assert fired == []
        assert engine.pending == 1
        engine.run_until(10.0)
        assert fired == ["late"]


class TestHeapCompaction:
    """Boundary behaviour of the stale-entry compaction pass.

    Compaction triggers when stale > _COMPACT_MIN_STALE AND
    stale > live; these tests pin both edges of that predicate and the
    invariants that must hold afterwards.
    """

    def test_no_compaction_at_exactly_min_stale(self):
        # stale == _COMPACT_MIN_STALE is NOT "more than": the heap must
        # still hold every entry.
        engine = Engine()
        handles = [
            engine.schedule_at(float(i), lambda: None)
            for i in range(_COMPACT_MIN_STALE + 1)
        ]
        for handle in handles[:_COMPACT_MIN_STALE]:
            handle.cancel()
        assert engine._stale == _COMPACT_MIN_STALE
        assert len(engine._heap) == _COMPACT_MIN_STALE + 1

    def test_compaction_one_past_the_threshold(self):
        # The (min+1)-th cancel satisfies both conditions (stale > min,
        # stale > live) and must shrink the heap to the survivors.
        engine = Engine()
        handles = [
            engine.schedule_at(float(i), lambda: None)
            for i in range(_COMPACT_MIN_STALE + 2)
        ]
        for handle in handles[: _COMPACT_MIN_STALE + 1]:
            handle.cancel()
        assert engine._stale == 0  # reset by the compaction pass
        assert len(engine._heap) == 1
        assert engine.pending == 1

    def test_stale_majority_required(self):
        # Many cancels but a live majority: no compaction yet.
        engine = Engine()
        total = 4 * _COMPACT_MIN_STALE
        handles = [
            engine.schedule_at(float(i), lambda: None) for i in range(total)
        ]
        for handle in handles[: _COMPACT_MIN_STALE + 10]:
            handle.cancel()
        assert engine._stale == _COMPACT_MIN_STALE + 10
        assert len(engine._heap) == total

    def test_next_event_time_and_pending_after_compaction(self):
        engine = Engine()
        handles = [
            engine.schedule_at(float(i + 1), lambda: None)
            for i in range(_COMPACT_MIN_STALE + 2)
        ]
        survivor_time = handles[-1].time
        for handle in handles[:-1]:
            handle.cancel()
        assert len(engine._heap) == 1  # compacted
        assert engine.pending == 1
        # The next wake is the surviving event, not the dropped ones.
        assert engine.next_event_time() == survivor_time
        engine.run_until(END)
        assert engine.events_run == 1
        assert engine.pending == 0

    def test_cancel_after_fire_stays_idempotent_across_compaction(self):
        # A handle whose event already fired, then a compaction, then
        # more cancels of that same handle: the live count must not go
        # negative or drift.
        engine = Engine()
        fired_handle = engine.schedule_at(0.5, lambda: None)
        engine.run_until(1.0)
        handles = [
            engine.schedule_at(float(i + 2), lambda: None)
            for i in range(_COMPACT_MIN_STALE + 2)
        ]
        for handle in handles[:-1]:
            handle.cancel()
        assert engine.pending == 1
        fired_handle.cancel()  # no-op: already fired
        fired_handle.cancel()
        handles[0].cancel()  # no-op: already cancelled + compacted away
        assert engine.pending == 1
        engine.run_until(END)
        assert engine.events_run == 2

    def test_compaction_preserves_fifo_order(self):
        engine = Engine()
        fired = []
        doomed = [
            engine.schedule_at(1.0, lambda: fired.append("doomed"))
            for _ in range(_COMPACT_MIN_STALE + 1)
        ]
        survivors = [
            engine.schedule_at(1.0, lambda i=i: fired.append(i))
            for i in range(3)
        ]
        for handle in doomed:
            handle.cancel()
        assert len(engine._heap) == len(survivors)
        engine.run_until(END)
        assert fired == [0, 1, 2]


class TestSharedTicker:
    def test_fans_out_in_subscription_order(self):
        engine = Engine()
        ticker = SharedTicker(engine, 5.0)
        fired = []
        ticker.subscribe(lambda: fired.append(("a", engine.now)))
        ticker.subscribe(lambda: fired.append(("b", engine.now)))
        engine.run_until(11.0)
        assert fired == [
            ("a", 5.0), ("b", 5.0), ("a", 10.0), ("b", 10.0),
        ]
        assert ticker.fire_count == 2

    def test_one_heap_event_per_period(self):
        engine = Engine()
        ticker = SharedTicker(engine, 5.0)
        for _ in range(40):
            ticker.subscribe(lambda: None)
        assert engine.pending == 1  # not 40
        engine.run_until(21.0)
        assert engine.events_run == 4  # ticks at 5, 10, 15, 20

    def test_matches_per_subscriber_recurring_timers(self):
        # The coalescing byte-identity argument in miniature: N sibling
        # RecurringTimers started in order produce the same callback
        # sequence as N subscriptions on one ticker.
        def run_with_timers():
            engine = Engine()
            fired = []
            for name in ("a", "b", "c"):
                timer = RecurringTimer(
                    engine, 5.0, lambda n=name: fired.append((n, engine.now))
                )
                timer.start()
            engine.run_until(16.0)
            return fired

        def run_with_ticker():
            engine = Engine()
            fired = []
            ticker = SharedTicker(engine, 5.0)
            for name in ("a", "b", "c"):
                ticker.subscribe(lambda n=name: fired.append((n, engine.now)))
            engine.run_until(16.0)
            return fired

        assert run_with_timers() == run_with_ticker()

    def test_cancelled_subscription_stops_receiving(self):
        engine = Engine()
        ticker = SharedTicker(engine, 1.0)
        fired = []
        keep = ticker.subscribe(lambda: fired.append("keep"))
        drop = ticker.subscribe(lambda: fired.append("drop"))
        engine.run_until(1.5)
        drop.cancel()
        drop.cancel()  # idempotent
        engine.run_until(3.5)
        assert fired == ["keep", "drop", "keep", "keep"]
        assert keep.active and not drop.active

    def test_rearms_after_full_drain(self):
        engine = Engine()
        ticker = SharedTicker(engine, 2.0)
        first = ticker.subscribe(lambda: None)
        first.cancel()
        engine.run_until(3.0)  # the armed tick fires into nobody
        assert engine.pending == 0  # ...and did not reschedule
        fired = []
        ticker.subscribe(lambda: fired.append(engine.now))
        engine.run_until(10.0)
        # Re-armed from subscription time (3.0), not from the old phase.
        assert fired == [5.0, 7.0, 9.0]

    def test_bad_period_raises(self):
        with pytest.raises(SchedulingError):
            SharedTicker(Engine(), 0.0)


class TestKeyedTicks:
    """Ticks keyed beside the heap and the armed fan-out, each checked
    against the heap-only reference in ``tests/reference_ticks.py``."""

    @staticmethod
    def _tie_script(engine_cls, ticker_cls):
        engine = engine_cls()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append("event before"))
        ticker = ticker_cls(engine, 5.0)
        ticker.subscribe(lambda: fired.append(("tick", engine.now)))
        engine.schedule_at(5.0, lambda: fired.append("event after"))
        # Scheduled before the tick at 5 re-keys the one at 10.
        engine.schedule_at(10.0, lambda: fired.append("event at 10"))
        assert engine.next_event_time() == 5.0
        assert engine.pending == 4
        engine.run_until(12.0)
        return fired, engine.events_run, engine.next_event_time()

    def test_tick_ties_with_heap_events_in_sequence_order(self):
        fired, events_run, next_time = self._tie_script(Engine, SharedTicker)
        assert fired == [
            "event before", ("tick", 5.0), "event after",
            "event at 10", ("tick", 10.0),
        ]
        assert (events_run, next_time) == (5, 15.0)
        assert (fired, events_run, next_time) == self._tie_script(
            reference_ticks.Engine, reference_ticks.SharedTicker
        )

    @staticmethod
    def _idle_script(engine_cls, ticker_cls):
        """An idle ticker between events at and between its tick times,
        one of them arming its subscriber, over several run windows.

        The subscriber has work only while armed, as a production
        subscriber does: the reference ticker calls it anyway."""
        engine = engine_cls()
        fired = []
        ticker = ticker_cls(engine, 5.0)
        work = {"armed": False}

        def tick():
            if work["armed"]:
                fired.append(("tick", engine.now))

        def set_armed(armed):
            work["armed"] = armed
            if armed:
                sub.arm()
            else:
                sub.disarm()

        sub = ticker.subscribe(tick, armed=False)

        def at(time, label, then=None):
            def callback():
                fired.append((label, engine.now))
                if then is not None:
                    then()
            engine.schedule_at(time, callback)

        at(20.0, "event at 20")  # keyed before the tick at 20
        at(33.0, "arms", lambda: set_armed(True))
        at(33.0, "schedules 45", lambda: at(45.0, "event at 45"))
        at(52.5, "disarms", lambda: set_armed(False))
        for end in (12.0, 20.0, 41.0, 61.0, 100.0):
            engine.run_until(end)
            fired.append(("end", end, engine.events_run, engine._sequence))
        return fired, ticker.fire_count

    def test_idle_ticks_run_in_one_loop_match_the_reference(self):
        fired, fire_count = self._idle_script(Engine, SharedTicker)
        assert fire_count == 20
        assert fired[:4] == [
            ("end", 12.0, 2, 7), ("event at 20", 20.0),
            ("end", 20.0, 5, 9), ("arms", 33.0),
        ]
        assert [f for f in fired if f[0] == "tick"] == [
            ("tick", 35.0), ("tick", 40.0), ("tick", 45.0), ("tick", 50.0),
        ]
        assert (fired, fire_count) == self._idle_script(
            reference_ticks.Engine, reference_ticks.SharedTicker
        )

    def test_subscriber_armed_mid_tick_fires_in_that_tick(self):
        engine = Engine()
        ticker = SharedTicker(engine, 1.0)
        fired = []
        subs = {}

        def first():
            fired.append(("first", engine.now))
            subs["late"].arm()
            subs["early"].arm()  # already passed: waits for the next tick

        subs["early"] = ticker.subscribe(
            lambda: fired.append(("early", engine.now)), armed=False
        )
        ticker.subscribe(first)
        subs["late"] = ticker.subscribe(
            lambda: fired.append(("late", engine.now)), armed=False
        )
        engine.run_until(1.0)
        assert fired == [("first", 1.0), ("late", 1.0)]
        engine.run_until(2.0)
        assert fired[2:] == [("early", 2.0), ("first", 2.0), ("late", 2.0)]

    def test_rearm_before_its_turn_fires_once(self):
        engine = Engine()
        ticker = SharedTicker(engine, 1.0)
        fired = []
        subs = {}

        def first():
            subs["late"].disarm()
            subs["late"].arm()

        ticker.subscribe(first)
        subs["late"] = ticker.subscribe(lambda: fired.append(engine.now))
        engine.run_until(2.0)
        assert fired == [1.0, 2.0]

    def test_cancelling_the_last_subscriber_while_disarmed_drops_the_tick(self):
        def script(engine_cls, ticker_cls):
            engine = engine_cls()
            ticker = ticker_cls(engine, 2.0)
            fired = []
            idle = ticker.subscribe(lambda: fired.append(engine.now))
            idle.disarm()
            engine.run_until(2.5)  # the tick at 2 counts, calls nobody
            idle.cancel()
            pending = engine.pending  # the tick at 4 is still keyed
            engine.run_until(7.0)  # ...fires into nobody, is not re-keyed
            state = (ticker.fire_count, engine.events_run, engine.pending)
            ticker.subscribe(lambda: fired.append(engine.now))
            engine.run_until(12.0)
            return fired, pending, state

        fired, pending, state = script(Engine, SharedTicker)
        assert pending == 1
        assert state == (2, 2, 0)
        # Re-armed from the subscription time (7.0), not the old phase.
        assert fired == [9.0, 11.0]
        reference = script(reference_ticks.Engine, reference_ticks.SharedTicker)
        # The reference calls the disarmed subscriber at 2.0 anyway.
        assert reference == ([2.0, 9.0, 11.0], pending, state)

    def test_client_crash_then_write_rearms_the_daemon(self):
        config = ClusterConfig(client_count=1)
        engine, _, (client,) = build_rig(config)
        daemon = client._daemon

        class DirtyMeansArmed:
            """After every event: a dirty cache has an armed daemon."""

            def on_engine_event(self, time):
                assert daemon.armed or not client.cache.dirty_count, time

        engine.attach_observer(DirtyMeansArmed())
        assert not daemon.armed  # a clean cache costs no scans
        client.open_file(0.0, 1, will_write=True)
        client.write(1.0, 1, 0, 4096)
        assert daemon.armed
        client.crash(2.0)  # BlockCache.clear: the dirty block is lost
        engine.run_until(5.0)
        assert not daemon.armed  # the scan at 5 found the cache clean
        client.reboot(6.0)
        client.open_file(6.0, 1, will_write=True)
        client.write(7.0, 1, 0, 4096)
        assert daemon.armed
        engine.run_until(35.0)
        assert client.counters.blocks_cleaned_delay == 0  # 28 s old at 35
        engine.run_until(40.0)  # the scan at 40 finds it 33 s old
        assert client.counters.blocks_cleaned_delay == 1
        assert client.counters.lost_dirty_blocks == 1
        engine.run_until(45.0)
        assert not daemon.armed

