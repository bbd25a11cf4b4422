"""Tests for trace files, merge, filters, the trace tools and validation."""

import gzip
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError, TraceOrderError
from repro.trace import (
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    drop_self_traffic,
    read_trace,
    split_by_duration,
    summarize,
    validate_stream,
    write_trace,
)
from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace
from repro.trace.filters import BACKUP_USER_ID, TRACER_USER_ID
from repro.trace.records import DeleteRecord, RepositionRecord, WriteRunRecord
from repro.trace.validate import ValidationReport

import reference_trace
from reference_trace import materialize
from test_replay_columns import record_streams, windowed_streams


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
        assert write_trace(path, columns(records)) == 3
        assert materialize(read_trace(path)) == records

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        records = make_episode()
        write_trace(path, columns(records))
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 3
        assert materialize(read_trace(path)) == records

    def test_reader_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceError, match=r"bad\.jsonl:1: invalid JSON"):
            read_trace(path)

    @pytest.mark.parametrize("line,rule", [
        ('{"kind": "open", "time": 0.0, "server_id": 0, "mode": "rw"}',
         "unknown access mode 'rw'"),
        ("[1, 2]", "must be a JSON object, got list"),
        ('{"kind": ["open"], "time": 0.0, "server_id": 0}',
         "unknown trace record kind"),
        # Each field's JSON type must match its annotation: the columns
        # are typed, so a mistyped value would otherwise be truncated or
        # fail without a location when the builder seals.
        ('{"kind": "open", "time": 9.0, "server_id": 0, "file_id": 1.5}',
         "field 'file_id' of 'open' record must be int, got float 1.5"),
        ('{"kind": "open", "time": 9.0, "server_id": 0, "file_id": true}',
         "field 'file_id' of 'open' record must be int, got bool True"),
        ('{"kind": "open", "time": 9.0, "server_id": 0, "file_id": "x"}',
         "field 'file_id' of 'open' record must be int, got str 'x'"),
        ('{"kind": "open", "time": true, "server_id": 0}',
         "field 'time' of 'open' record must be float, got bool True"),
        ('{"kind": "open", "time": "9", "server_id": 0}',
         "field 'time' of 'open' record must be float, got str '9'"),
        ('{"kind": "open", "time": 9.0, "server_id": 0, "migrated": 1}',
         "field 'migrated' of 'open' record must be bool, got int 1"),
        ('{"kind": "open", "time": 9.0, "server_id": 0, "mode": 1}',
         "field 'mode' of 'open' record must be AccessMode, got int 1"),
    ])
    def test_reader_names_the_line_of_a_malformed_record(
        self, tmp_path, line, rule
    ):
        path = tmp_path / "bad.jsonl"
        write_trace(path, columns(make_episode()))
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(TraceError, match=rf"bad\.jsonl:4: .*{re.escape(rule)}"):
            read_trace(path)

    def test_reader_takes_an_integer_time(self, tmp_path):
        """A ``float`` field takes a JSON integer: it reads back as the
        same float."""
        path = tmp_path / "int_time.jsonl"
        path.write_text('{"kind": "open", "time": 3, "server_id": 0}\n')
        trace = read_trace(path)
        assert trace.times.tolist() == [3.0]
        assert materialize(trace)[0] == OpenRecord(time=3.0, server_id=0)

    def test_reader_names_the_line_of_an_out_of_order_record(self, tmp_path):
        path = tmp_path / "late.jsonl"
        write_trace(path, columns(make_episode(t0=5.0)))
        lines = path.read_text().splitlines(keepends=True)
        write_trace(path, columns(make_episode(open_id=2, t0=1.0)))
        path.write_text("".join(lines) + "\n" + path.read_text())
        with pytest.raises(
            TraceOrderError, match=r"late\.jsonl:5: .*1\.0 after 6\.0"
        ):
            read_trace(path)

    def test_reader_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        write_trace(path, columns(make_episode()))
        path.write_text(path.read_text() + "\n\n")
        assert len(read_trace(path)) == 3

    def test_records_written_counter(self, tmp_path):
        path = tmp_path / "x.jsonl"
        assert write_trace(path, columns(make_episode())) == 3
        assert write_trace(path, columns([])) == 0
        assert path.read_text() == ""

    def test_reader_raises_on_a_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "missing.jsonl")

    def test_generated_trace_matches_the_record_writer(self, small_trace, tmp_path):
        """A day spans many write chunks; the lines are the record
        writer's, byte for byte, and read back to the same records."""
        records = materialize(small_trace.columnar)
        assert len(records) > 2 * ColumnarTrace.COLUMN_CHUNK
        ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
        assert write_trace(ours, small_trace.columnar) == len(records)
        assert reference_trace.write_trace(theirs, records) == len(records)
        assert ours.read_bytes() == theirs.read_bytes()
        assert materialize(read_trace(ours)) == records


def merge_columnar(streams):
    """Merge per-server record streams the way the replay merges groups:
    columnar views ranked by stream index."""
    return materialize(ColumnarTrace.merge(
        [ColumnarTrace.from_records(stream) for stream in streams]
    ))


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
            open_id=2, t0=2.0, user_id=5
        )
        kept = materialize(drop_self_traffic(columns(records)))
        assert [r.user_id for r in kept] == [5, 5, 5]

    def test_drop_backup_traffic(self):
        records = make_episode(user_id=BACKUP_USER_ID)
        assert len(drop_self_traffic(columns(records))) == 0


# --------------------------------------------------------------------------
# trace files, the filter and the tools against their record references
# --------------------------------------------------------------------------

#: User ids drawn into the differential property: both self-traffic
#: sentinels and real users.
USERS = (BACKUP_USER_ID, TRACER_USER_ID, 0, 1, 2, 3)


@st.composite
def file_traces(draw):
    """A ``record_streams`` stream, or a ``windowed_streams`` one whose
    kind tables hold rows outside the window, as columns, with every
    record's user drawn from :data:`USERS`."""
    if draw(st.booleans()):
        trace, _ = draw(windowed_streams())
    else:
        trace = columns(draw(record_streams())[0])
    for code, table in enumerate(trace.tables):
        if table is not None:
            names = [item.name for item in fields(RECORD_CLASSES[code])]
            table.columns[names.index("user_id")] = np.asarray(draw(st.lists(
                st.sampled_from(USERS), min_size=table.count, max_size=table.count,
            )), dtype="i8")
    return trace


def _lines(path: Path) -> bytes:
    if path.suffix == ".gz":
        return gzip.decompress(path.read_bytes())
    return path.read_bytes()


def assert_tools_match(trace, records, piece):
    assert summarize(trace) == reference_trace.summarize(records)
    pieces = list(split_by_duration(trace, piece))
    expected = list(reference_trace.split_by_duration(records, piece))
    assert [index for index, _ in pieces] == [index for index, _ in expected]
    for (_, ours), (_, theirs) in zip(pieces, expected):
        assert materialize(ours) == theirs
        assert summarize(ours) == reference_trace.summarize(theirs)


@settings(max_examples=200, deadline=None)
@given(file_traces(), st.sampled_from((0.5, 5.0, 40.0, 300.0)))
def test_property_files_and_tools_match_the_record_references(trace, piece):
    """Writing, reading, the self-traffic filter, ``summarize`` and
    ``split_by_duration`` over columns give what their record-list
    references give over the materialized records, on plain and gzip
    files, with rows outside the window never written."""
    records = materialize(trace)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("t.jsonl", "t.jsonl.gz"):
            ours, theirs = Path(tmp, "ours-" + name), Path(tmp, "theirs-" + name)
            assert write_trace(ours, trace) == len(records)
            reference_trace.write_trace(theirs, records)
            assert _lines(ours) == _lines(theirs)
            assert materialize(read_trace(ours)) == records
    kept = drop_self_traffic(trace)
    kept_records = list(reference_trace.drop_self_traffic(records))
    assert materialize(kept) == kept_records
    assert_tools_match(trace, records, piece)
    assert_tools_match(kept, kept_records, piece)


def columns(records):
    return ColumnarTrace.from_records(records)


def swapped(trace, i):
    """``trace`` with stream positions ``i`` and ``i + 1`` exchanged,
    built in the columns (``from_records`` refuses a backwards stream)."""
    order = np.arange(len(trace))
    order[[i, i + 1]] = order[[i + 1, i]]
    return ColumnarTrace(
        trace.tables, trace.kind_idx[order], trace.row_idx[order],
        trace.times[order],
    )


class TestValidate:
    def test_valid_stream(self):
        report = validate_stream(columns(make_episode()))
        assert report.balanced
        assert report.opens == 1
        assert report.closes == 1

    def test_unsorted_raises(self):
        records = [
            OpenRecord(time=1.0, server_id=0, open_id=1, file_id=1),
            OpenRecord(time=5.0, server_id=0, open_id=2, file_id=1),
        ]
        with pytest.raises(TraceOrderError, match="record 1 .* earlier"):
            validate_stream(swapped(columns(records), 0))

    def test_double_open_raises(self):
        records = [
            OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1),
            OpenRecord(time=1.0, server_id=0, open_id=1, file_id=1),
        ]
        with pytest.raises(TraceError, match="record 1: .*opened twice"):
            validate_stream(columns(records))

    def test_close_of_unknown_open_raises(self):
        records = [CloseRecord(time=1.0, server_id=0, open_id=9, file_id=1)]
        with pytest.raises(TraceError, match="record 0: .*unknown open_id"):
            validate_stream(columns(records))

    def test_close_with_wrong_file_raises(self):
        records = [
            OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1),
            CloseRecord(time=1.0, server_id=0, open_id=1, file_id=2),
        ]
        with pytest.raises(TraceError, match="record 1: .*names file"):
            validate_stream(columns(records))

    def test_run_outside_episode_raises(self):
        records = [
            ReadRunRecord(time=0.0, server_id=0, open_id=1, file_id=1,
                          offset=0, length=10),
        ]
        with pytest.raises(TraceError, match="unopened"):
            validate_stream(columns(records))

    def test_negative_length_raises(self):
        records = [
            OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1),
            ReadRunRecord(time=0.5, server_id=0, open_id=1, file_id=1,
                          offset=0, length=-5),
        ]
        with pytest.raises(TraceError, match="negative"):
            validate_stream(columns(records))

    def test_unclosed_episodes_reported(self):
        records = [OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1)]
        report = validate_stream(columns(records), allow_open_at_end=True)
        assert report.unclosed_open_ids == [1]
        assert not report.balanced

    def test_unclosed_episodes_strict(self):
        records = [OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1)]
        with pytest.raises(TraceError, match="never closed"):
            validate_stream(columns(records), allow_open_at_end=False)

    def test_non_episode_records_pass_through(self):
        records = [
            DeleteRecord(time=0.0, server_id=0, file_id=1, user_id=1,
                         client_id=0, size=10),
        ]
        report = validate_stream(columns(records))
        assert report.records == 1

    def test_time_order_is_checked_before_the_grammar(self):
        """A record that breaks both rules fails on time order."""
        trace = swapped(columns(make_episode()), 1)
        with pytest.raises(TraceOrderError, match="record 2 "):
            validate_stream(trace)

    def test_empty_trace(self):
        assert validate_stream(columns([])) == ValidationReport()

    def test_reopen_after_close_is_legal(self):
        records = make_episode() + make_episode(file_id=8, t0=2.0)
        report = validate_stream(columns(records), allow_open_at_end=False)
        assert (report.opens, report.closes) == (2, 2)


# --------------------------------------------------------------------------
# the column validator against the record loop it replaced
# --------------------------------------------------------------------------

#: Each rule's wording, shared by both validators.
RULES = (
    "earlier than", "opened twice", "unknown open_id", "unopened",
    "names file", "negative", "never closed",
)
MUTATIONS = (
    "none", "swap", "drop_open", "duplicate_open", "unknown_close",
    "double_close", "reopen", "run_file", "close_file", "negative_offset",
    "negative_length",
)


def _rule(message):
    (rule,) = [rule for rule in RULES if rule in message]
    return rule


def column_outcome(trace, allow_open_at_end):
    """The report, or ``(class, rule, failing position)``; a rule
    checked at end of stream has no position."""
    try:
        return validate_stream(trace, allow_open_at_end)
    except TraceError as exc:
        match = re.match(r"record (\d+)", str(exc))
        position = int(match.group(1)) if match else None
        return type(exc), _rule(str(exc)), position


def reference_outcome(records, allow_open_at_end):
    seen = 0

    def counted():
        nonlocal seen
        for record in records:
            seen += 1
            yield record

    try:
        return reference_trace.validate_stream(counted(), allow_open_at_end)
    except TraceError as exc:
        rule = _rule(str(exc))
        position = None if rule == "never closed" else seen - 1
        return type(exc), rule, position


@st.composite
def mutated_streams(draw):
    """A valid ``record_streams`` stream, or one broken by a single
    mutation, as a columnar trace."""
    records = list(draw(record_streams())[0])
    mutation = draw(st.sampled_from(MUTATIONS))

    def pick(*classes):
        found = [i for i, r in enumerate(records) if type(r) in classes]
        return draw(st.sampled_from(found)) if found else None

    if mutation == "swap" and len(records) > 1:
        i = draw(st.integers(0, len(records) - 2))
        return swapped(columns(records), i)
    if mutation == "drop_open" and (i := pick(OpenRecord)) is not None:
        del records[i]
    elif mutation == "duplicate_open" and (i := pick(OpenRecord)) is not None:
        records.insert(i + 1, records[i])
    elif mutation in ("double_close", "reopen") and (
        i := pick(CloseRecord)
    ) is not None:
        # A second close is illegal; opening the closed id again is not.
        (opened,) = [
            r for r in records[:i]
            if type(r) is OpenRecord and r.open_id == records[i].open_id
        ]
        again = records[i] if mutation == "double_close" else opened
        records.insert(i + 1, replace(again, time=records[i].time))
    elif mutation == "unknown_close":
        i = draw(st.integers(0, len(records) - 1))
        records.insert(i + 1, CloseRecord(
            records[i].time, 0, open_id=10_000, file_id=records[i].file_id,
        ))
    elif mutation in ("run_file", "close_file"):
        classes = (
            (CloseRecord,) if mutation == "close_file"
            else (ReadRunRecord, WriteRunRecord, RepositionRecord)
        )
        if (i := pick(*classes)) is not None:
            records[i] = replace(records[i], file_id=records[i].file_id + 100)
    elif mutation.startswith("negative") and (
        i := pick(ReadRunRecord, WriteRunRecord)
    ) is not None:
        name = mutation.partition("_")[2]
        records[i] = replace(records[i], **{name: -draw(st.integers(1, 9))})
    return columns(records)


@settings(max_examples=400, deadline=None)
@given(mutated_streams(), st.booleans())
def test_property_columns_match_the_record_loop(trace, allow_open_at_end):
    expected = reference_outcome(materialize(trace), allow_open_at_end)
    assert column_outcome(trace, allow_open_at_end) == expected


def test_generated_trace_matches_the_record_loop(small_trace):
    for allow_open_at_end in (True, False):
        assert column_outcome(small_trace.columnar, allow_open_at_end) == (
            reference_outcome(materialize(small_trace.columnar), allow_open_at_end)
        )
