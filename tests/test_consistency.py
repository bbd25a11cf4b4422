"""Tests for the consistency study (Tables 10-12)."""

import pytest

from repro.consistency import (
    compute_actions,
    extract_shared_activity,
    simulate_polling,
    simulate_schemes,
)
from repro.consistency.events import OpenInterval, SharedFileActivity, SharedRequest
from repro.consistency.schemes import _TokenScheme, _WindowedScheme
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    SharedReadRecord,
    WriteRunRecord,
)

import reference_consistency
from reference_trace import materialize


def open_close(open_id, file_id, client, t0, t1, write=False, user=None):
    mode = AccessMode.WRITE if write else AccessMode.READ
    user = user if user is not None else client
    return [
        OpenRecord(time=t0, server_id=0, open_id=open_id, file_id=file_id,
                   user_id=user, client_id=client, mode=mode),
        CloseRecord(time=t1, server_id=0, open_id=open_id, file_id=file_id,
                    user_id=user, client_id=client),
    ]


class TestActions:
    def test_no_sharing_no_actions(self):
        records = sorted(
            open_close(1, 1, client=0, t0=0.0, t1=1.0)
            + open_close(2, 1, client=0, t0=2.0, t1=3.0),
            key=lambda r: r.time,
        )
        result = compute_actions(ColumnarTrace.from_records(records))
        assert result.opens == 2
        assert result.write_sharing_opens == 0
        assert result.recall_opens == 0

    def test_concurrent_write_sharing_detected(self):
        records = sorted(
            open_close(1, 1, client=0, t0=0.0, t1=10.0, write=True)
            + open_close(2, 1, client=1, t0=5.0, t1=8.0),
            key=lambda r: r.time,
        )
        result = compute_actions(ColumnarTrace.from_records(records))
        assert result.write_sharing_opens == 1

    def test_same_client_not_sharing(self):
        records = sorted(
            open_close(1, 1, client=0, t0=0.0, t1=10.0, write=True)
            + open_close(2, 1, client=0, t0=5.0, t1=8.0),
            key=lambda r: r.time,
        )
        assert compute_actions(ColumnarTrace.from_records(records)).write_sharing_opens == 0

    def test_two_readers_not_sharing(self):
        records = sorted(
            open_close(1, 1, client=0, t0=0.0, t1=10.0)
            + open_close(2, 1, client=1, t0=5.0, t1=8.0),
            key=lambda r: r.time,
        )
        assert compute_actions(ColumnarTrace.from_records(records)).write_sharing_opens == 0

    def test_closed_writer_no_longer_shares(self):
        records = sorted(
            open_close(1, 1, client=0, t0=0.0, t1=1.0, write=True)
            + open_close(2, 1, client=1, t0=5.0, t1=8.0)
            + open_close(3, 1, client=0, t0=6.0, t1=7.0),
            key=lambda r: r.time,
        )
        result = compute_actions(ColumnarTrace.from_records(records))
        assert result.opens == 3
        assert result.write_sharing_opens == 0

    def test_recall_on_quick_cross_client_open(self):
        writer = open_close(1, 1, client=0, t0=0.0, t1=1.0, write=True)
        writer.insert(1, WriteRunRecord(
            time=0.5, server_id=0, open_id=1, file_id=1, user_id=0,
            client_id=0, offset=0, length=100,
        ))
        reader = open_close(2, 1, client=1, t0=5.0, t1=6.0)
        records = sorted(writer + reader, key=lambda r: r.time)
        assert compute_actions(ColumnarTrace.from_records(records)).recall_opens == 1

    def test_no_recall_after_flush_horizon(self):
        writer = open_close(1, 1, client=0, t0=0.0, t1=1.0, write=True)
        writer.insert(1, WriteRunRecord(
            time=0.5, server_id=0, open_id=1, file_id=1, user_id=0,
            client_id=0, offset=0, length=100,
        ))
        reader = open_close(2, 1, client=1, t0=100.0, t1=101.0)
        records = sorted(writer + reader, key=lambda r: r.time)
        assert compute_actions(ColumnarTrace.from_records(records)).recall_opens == 0

    def test_no_recall_for_own_data(self):
        writer = open_close(1, 1, client=0, t0=0.0, t1=1.0, write=True)
        writer.insert(1, WriteRunRecord(
            time=0.5, server_id=0, open_id=1, file_id=1, user_id=0,
            client_id=0, offset=0, length=100,
        ))
        again = open_close(2, 1, client=0, t0=2.0, t1=3.0)
        records = sorted(writer + again, key=lambda r: r.time)
        assert compute_actions(ColumnarTrace.from_records(records)).recall_opens == 0

    def test_trace_level_frequencies(self, small_trace):
        result = compute_actions(small_trace.columnar)
        assert 0.0 < result.write_sharing_fraction < 0.05
        assert 0.0 < result.recall_fraction < 0.10


class TestPolling:
    def write(self, t, client, file_id=1):
        return WriteRunRecord(time=t, server_id=0, open_id=0, file_id=file_id,
                              user_id=client, client_id=client, offset=0,
                              length=10)

    def read(self, t, client, file_id=1):
        return ReadRunRecord(time=t, server_id=0, open_id=0, file_id=file_id,
                             user_id=client, client_id=client, offset=0,
                             length=10)

    def test_stale_read_within_interval(self):
        records = [
            self.read(0.0, client=1),   # client 1 validates at t=0
            self.write(5.0, client=2),  # foreign write
            self.read(10.0, client=1),  # within 60s window: stale!
        ]
        result = simulate_polling(ColumnarTrace.from_records(records), refresh_interval=60.0, duration=3600)
        assert result.errors == 1
        assert result.users_affected == {1}

    def test_expired_cache_revalidates(self):
        records = [
            self.read(0.0, client=1),
            self.write(5.0, client=2),
            self.read(100.0, client=1),  # interval expired: fresh check
        ]
        result = simulate_polling(ColumnarTrace.from_records(records), refresh_interval=60.0, duration=3600)
        assert result.errors == 0

    def test_short_interval_catches_more(self):
        records = [
            self.read(0.0, client=1),
            self.write(5.0, client=2),
            self.read(10.0, client=1),
        ]
        stale_60 = simulate_polling(ColumnarTrace.from_records(records), 60.0, 3600).errors
        stale_3 = simulate_polling(ColumnarTrace.from_records(records), 3.0, 3600).errors
        assert stale_60 == 1
        assert stale_3 == 0

    def test_own_write_never_stale(self):
        records = [
            self.read(0.0, client=1),
            self.write(5.0, client=1),
            self.read(10.0, client=1),
        ]
        assert simulate_polling(ColumnarTrace.from_records(records), 60.0, 3600).errors == 0

    def test_write_validates_the_writers_cache(self):
        records = [
            self.write(0.0, client=1),  # client 1's cache is current at t=0
            self.write(5.0, client=2),  # foreign write
            self.read(10.0, client=1),  # within 60s of its own write: stale
        ]
        result = simulate_polling(ColumnarTrace.from_records(records), 60.0, 3600)
        assert result.errors == 1

    def test_cold_cache_no_error(self):
        records = [
            self.write(5.0, client=2),
            self.read(10.0, client=1),  # first read: validates fresh
        ]
        assert simulate_polling(ColumnarTrace.from_records(records), 60.0, 3600).errors == 0

    def test_errors_per_hour(self):
        records = [
            self.read(0.0, client=1),
            self.write(5.0, client=2),
            self.read(10.0, client=1),
        ]
        result = simulate_polling(ColumnarTrace.from_records(records), 60.0, duration=7200.0)
        assert result.errors_per_hour == pytest.approx(0.5)

    def test_trace_level_60s_worse_than_3s(self, shared_heavy_trace):
        r60 = simulate_polling(shared_heavy_trace.columnar, 60.0,
                               shared_heavy_trace.duration)
        r3 = simulate_polling(shared_heavy_trace.columnar, 3.0,
                              shared_heavy_trace.duration)
        assert r60.errors > r3.errors
        assert len(r60.users_affected) >= len(r3.users_affected)


class TestSharedActivityExtraction:
    def test_extracts_shared_files_only(self, small_trace):
        activities = extract_shared_activity(small_trace.columnar)
        shared_ids = {
            r.file_id for r in materialize(small_trace.columnar)
            if r.kind in ("shared_read", "shared_write")
        }
        assert {a.file_id for a in activities} == shared_ids

    def test_requests_time_ordered(self, small_trace):
        for activity in extract_shared_activity(small_trace.columnar):
            times = [r.time for r in activity.requests]
            assert times == sorted(times)

    def test_equal_times_keep_shared_requests_first(self):
        """At one timestamp a shared request sorts before a solo run of
        the same file even when the run comes first in the stream; solo
        runs keep the order their episodes closed in."""
        records = sorted(
            open_close(1, 7, client=0, t0=0.0, t1=6.0)
            + open_close(2, 7, client=2, t0=1.0, t1=5.5)
            + [
                ReadRunRecord(time=5.0, server_id=0, open_id=1, file_id=7,
                              user_id=0, client_id=0, offset=0, length=10),
                ReadRunRecord(time=5.0, server_id=0, open_id=2, file_id=7,
                              user_id=2, client_id=2, offset=0, length=20),
                SharedReadRecord(time=5.0, server_id=0, file_id=7, user_id=1,
                                 client_id=1, offset=0, length=30),
            ],
            key=lambda r: r.time,
        )
        (activity,) = extract_shared_activity(ColumnarTrace.from_records(records))
        assert [(r.client_id, r.length) for r in activity.requests] == [
            (1, 30), (2, 20), (0, 10),
        ]
        assert activity.requests == (
            reference_consistency.extract_shared_activity(records)[0].requests
        )

    def test_sharing_windows_basic(self):
        activity = SharedFileActivity(file_id=1)
        activity.intervals = [
            OpenInterval(client_id=0, user_id=0, start=0.0, end=10.0,
                         writer=True),
            OpenInterval(client_id=1, user_id=1, start=2.0, end=6.0,
                         writer=False),
        ]
        strict = activity.sharing_windows(until_all_close=True)
        relaxed = activity.sharing_windows(until_all_close=False)
        assert strict == [(2.0, 10.0)]
        assert relaxed == [(2.0, 6.0)]

    def test_no_window_without_writer(self):
        activity = SharedFileActivity(file_id=1)
        activity.intervals = [
            OpenInterval(client_id=0, user_id=0, start=0.0, end=10.0,
                         writer=False),
            OpenInterval(client_id=1, user_id=1, start=2.0, end=6.0,
                         writer=False),
        ]
        assert activity.sharing_windows(until_all_close=True) == []


class TestSchemes:
    def make_activity(self, requests, intervals=None):
        activity = SharedFileActivity(file_id=1)
        activity.requests = requests
        activity.intervals = intervals or [
            OpenInterval(client_id=0, user_id=0, start=0.0, end=1e9,
                         writer=True),
            OpenInterval(client_id=1, user_id=1, start=0.0, end=1e9,
                         writer=False),
        ]
        return activity

    def test_sprite_is_exact_passthrough(self):
        requests = [
            SharedRequest(time=1.0, client_id=0, user_id=0, offset=0,
                          length=100, is_write=True),
            SharedRequest(time=2.0, client_id=1, user_id=1, offset=0,
                          length=100, is_write=False),
        ]
        overhead = _WindowedScheme("Sprite", True).run(self.make_activity(requests))
        assert overhead.byte_ratio == 1.0
        assert overhead.rpc_ratio == 1.0

    def test_token_coalesces_repeated_writes(self):
        # 10 writes to the same block within 30 s, no readers.
        requests = [
            SharedRequest(time=float(i), client_id=0, user_id=0, offset=0,
                          length=4096, is_write=True)
            for i in range(10)
        ]
        overhead = _TokenScheme().run(self.make_activity(requests))
        # One eventual 4K flush for 40K written.
        assert overhead.byte_ratio == pytest.approx(0.1)
        assert overhead.rpc_ratio < 1.0

    def test_token_thrashes_on_fine_alternation(self):
        requests = []
        for index in range(20):
            requests.append(
                SharedRequest(time=index * 2.0, client_id=0, user_id=0,
                              offset=0, length=100, is_write=True)
            )
            requests.append(
                SharedRequest(time=index * 2.0 + 1.0, client_id=1, user_id=1,
                              offset=0, length=100, is_write=False)
            )
        sprite = _WindowedScheme("Sprite", True).run(self.make_activity(requests))
        token = _TokenScheme().run(self.make_activity(requests))
        assert token.byte_ratio > sprite.byte_ratio

    def test_token_read_hits_are_free(self):
        requests = [
            SharedRequest(time=1.0, client_id=1, user_id=1, offset=0,
                          length=4096, is_write=False),
            SharedRequest(time=2.0, client_id=1, user_id=1, offset=0,
                          length=4096, is_write=False),
        ]
        token = _TokenScheme().run(self.make_activity(requests))
        # One fetch RPC + one token RPC for the first read; second free.
        assert token.bytes_transferred == 4096

    def test_simulate_schemes_pools_files(self, shared_heavy_trace):
        comparison = simulate_schemes(
            extract_shared_activity(shared_heavy_trace.columnar)
        )
        assert comparison.sprite.requests > 0
        assert comparison.sprite.byte_ratio == pytest.approx(1.0, abs=0.1)
        assert comparison.token.requests == comparison.sprite.requests

    def test_schemes_comparable_overheads(self, shared_heavy_trace):
        """The paper's conclusion: no scheme is dramatically worse."""
        comparison = simulate_schemes(
            extract_shared_activity(shared_heavy_trace.columnar)
        )
        assert comparison.token.byte_ratio < 3.0
        assert comparison.modified.byte_ratio < 2.0
