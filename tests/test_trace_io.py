"""Tests for trace writer/reader, merge, filters, and validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError, TraceOrderError
from repro.trace import (
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    TraceReader,
    TraceWriter,
    drop_self_traffic,
    drop_users,
    read_trace,
    time_window,
    validate_stream,
    write_trace,
)
from repro.trace.columnar import ColumnarTrace
from repro.trace.filters import BACKUP_USER_ID, TRACER_USER_ID, compose, keep_kinds
from repro.trace.records import DeleteRecord


def make_episode(open_id=1, file_id=7, t0=0.0, user_id=1):
    return [
        OpenRecord(time=t0, server_id=0, open_id=open_id, file_id=file_id,
                   user_id=user_id),
        ReadRunRecord(time=t0 + 0.5, server_id=0, open_id=open_id,
                      file_id=file_id, user_id=user_id, offset=0, length=100),
        CloseRecord(time=t0 + 1.0, server_id=0, open_id=open_id,
                    file_id=file_id, user_id=user_id, bytes_read=100),
    ]


class TestWriterReader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = make_episode()
        assert write_trace(path, records) == 3
        assert list(read_trace(path)) == records

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        records = make_episode()
        write_trace(path, records)
        assert list(read_trace(path)) == records

    def test_writer_requires_open(self, tmp_path):
        writer = TraceWriter(tmp_path / "x.jsonl")
        with pytest.raises(TraceError):
            writer.write(make_episode()[0])

    def test_writer_double_open_raises(self, tmp_path):
        writer = TraceWriter(tmp_path / "x.jsonl")
        with writer:
            with pytest.raises(TraceError):
                writer.open()

    def test_reader_requires_open(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_trace(path, make_episode())
        reader = TraceReader(path)
        with pytest.raises(TraceError):
            list(reader)

    def test_reader_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceError, match="invalid JSON"):
            list(read_trace(path))

    def test_reader_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        write_trace(path, make_episode())
        path.write_text(path.read_text() + "\n\n")
        assert len(list(read_trace(path))) == 3

    def test_records_written_counter(self, tmp_path):
        with TraceWriter(tmp_path / "x.jsonl") as writer:
            writer.write_all(make_episode())
            assert writer.records_written == 3


class TestRecordStream:
    """``read_trace`` returns a stream whose progress is observable --
    the count streaming replays report while a trace drains."""

    def test_records_read_is_live(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, make_episode())
        stream = read_trace(path)
        assert stream.records_read == 0
        next(stream)
        assert stream.records_read == 1
        next(stream)
        assert stream.records_read == 2
        assert len(list(stream)) == 1
        assert stream.records_read == 3

    def test_exhaustion_closes_and_count_persists(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, make_episode())
        stream = read_trace(path)
        assert list(stream) == make_episode()
        assert stream.records_read == 3
        stream.close()  # idempotent after auto-close at exhaustion

    def test_context_manager_closes_early(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, make_episode())
        with read_trace(path) as stream:
            next(stream)
            assert stream.records_read == 1
        assert stream.records_read == 1  # count survives the close

    def test_path_property(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, make_episode())
        with read_trace(path) as stream:
            assert stream.path == str(path)


def merge_columnar(streams):
    """Merge per-server record streams the way the replay merges groups:
    columnar views ranked by stream index."""
    return ColumnarTrace.merge(
        [ColumnarTrace.from_records(stream) for stream in streams]
    ).materialize()


class TestMerge:
    def test_merges_in_time_order(self):
        a = make_episode(open_id=1, t0=0.0)
        b = make_episode(open_id=2, t0=0.25)
        merged = merge_columnar([a, b])
        times = [r.time for r in merged]
        assert times == sorted(times)
        assert len(merged) == 6

    def test_stable_on_ties(self):
        a = [OpenRecord(time=1.0, server_id=0, open_id=1, file_id=1)]
        b = [OpenRecord(time=1.0, server_id=1, open_id=2, file_id=2)]
        merged = merge_columnar([a, b])
        assert merged[0].server_id == 0  # first stream wins ties

    def test_detects_unsorted_stream(self):
        bad = [
            OpenRecord(time=2.0, server_id=0, open_id=1, file_id=1),
            OpenRecord(time=1.0, server_id=0, open_id=2, file_id=1),
        ]
        with pytest.raises(TraceOrderError):
            merge_columnar([bad])

    def test_empty_streams(self):
        assert merge_columnar([[], []]) == []

    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1e6), max_size=30).map(sorted),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_property(self, streams):
        record_streams = [
            [
                OpenRecord(time=t, server_id=i, open_id=i * 1000 + j, file_id=1)
                for j, t in enumerate(times)
            ]
            for i, times in enumerate(streams)
        ]
        merged = merge_columnar(record_streams)
        assert len(merged) == sum(len(s) for s in streams)
        # (time, stream, position): the order the heap merge it
        # replaced produced.
        keys = [(r.time, r.server_id, r.open_id) for r in merged]
        assert keys == sorted(keys)
        assert merged == sorted(
            (r for stream in record_streams for r in stream),
            key=lambda r: (r.time, r.server_id, r.open_id),
        )


class TestFilters:
    def test_drop_self_traffic(self):
        records = make_episode(user_id=TRACER_USER_ID) + make_episode(
            open_id=2, user_id=5
        )
        kept = list(drop_self_traffic(records))
        assert all(r.user_id == 5 for r in kept)

    def test_drop_backup_traffic(self):
        records = make_episode(user_id=BACKUP_USER_ID)
        assert list(drop_self_traffic(records)) == []

    def test_drop_users(self):
        records = make_episode(user_id=1) + make_episode(open_id=2, user_id=2)
        kept = list(drop_users(records, [1]))
        assert all(r.user_id == 2 for r in kept)

    def test_time_window(self):
        records = make_episode(t0=0.0) + make_episode(open_id=2, t0=100.0)
        kept = list(time_window(records, 0.0, 50.0))
        assert len(kept) == 3

    def test_time_window_empty_raises(self):
        with pytest.raises(ValueError):
            list(time_window([], 5.0, 5.0))

    def test_keep_kinds(self):
        records = make_episode()
        kept = list(keep_kinds(records, ["open"]))
        assert len(kept) == 1
        assert kept[0].kind == "open"

    def test_compose(self):
        records = make_episode(user_id=TRACER_USER_ID) + make_episode(
            open_id=2, user_id=5
        )
        pipeline = compose(drop_self_traffic, lambda rs: keep_kinds(rs, ["open"]))
        kept = list(pipeline(records))
        assert len(kept) == 1


class TestValidate:
    def test_valid_stream(self):
        report = validate_stream(make_episode())
        assert report.balanced
        assert report.opens == 1
        assert report.closes == 1

    def test_unsorted_raises(self):
        records = [
            OpenRecord(time=5.0, server_id=0, open_id=1, file_id=1),
            OpenRecord(time=1.0, server_id=0, open_id=2, file_id=1),
        ]
        with pytest.raises(TraceOrderError):
            validate_stream(records)

    def test_double_open_raises(self):
        records = [
            OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1),
            OpenRecord(time=1.0, server_id=0, open_id=1, file_id=1),
        ]
        with pytest.raises(TraceError, match="opened twice"):
            validate_stream(records)

    def test_close_of_unknown_open_raises(self):
        records = [CloseRecord(time=1.0, server_id=0, open_id=9, file_id=1)]
        with pytest.raises(TraceError, match="unknown open_id"):
            validate_stream(records)

    def test_close_with_wrong_file_raises(self):
        records = [
            OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1),
            CloseRecord(time=1.0, server_id=0, open_id=1, file_id=2),
        ]
        with pytest.raises(TraceError, match="names file"):
            validate_stream(records)

    def test_run_outside_episode_raises(self):
        records = [
            ReadRunRecord(time=0.0, server_id=0, open_id=1, file_id=1,
                          offset=0, length=10),
        ]
        with pytest.raises(TraceError, match="unopened"):
            validate_stream(records)

    def test_negative_length_raises(self):
        records = [
            OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1),
            ReadRunRecord(time=0.5, server_id=0, open_id=1, file_id=1,
                          offset=0, length=-5),
        ]
        with pytest.raises(TraceError, match="negative"):
            validate_stream(records)

    def test_unclosed_episodes_reported(self):
        records = [OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1)]
        report = validate_stream(records, allow_open_at_end=True)
        assert report.unclosed_open_ids == [1]
        assert not report.balanced

    def test_unclosed_episodes_strict(self):
        records = [OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1)]
        with pytest.raises(TraceError, match="never closed"):
            validate_stream(records, allow_open_at_end=False)

    def test_non_episode_records_pass_through(self):
        records = [
            DeleteRecord(time=0.0, server_id=0, file_id=1, user_id=1,
                         client_id=0, size=10),
        ]
        report = validate_stream(records)
        assert report.records == 1
