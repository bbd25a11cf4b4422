"""Unit tests for the trace record vocabulary and serialization."""

import json
from dataclasses import fields

import pytest

from repro.common.errors import TraceError
from repro.trace.columnar import ColumnarTrace
from repro.trace.files import write_trace
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    CreateRecord,
    DeleteRecord,
    DirectoryReadRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    SharedReadRecord,
    SharedWriteRecord,
    TraceRecord,
    TruncateRecord,
    WriteRunRecord,
)

ALL_RECORDS = [
    OpenRecord(
        time=1.0, server_id=0, open_id=1, file_id=2, user_id=3,
        process_id=4, client_id=5, mode=AccessMode.READ_WRITE,
        size_at_open=100, migrated=True,
    ),
    CloseRecord(
        time=2.0, server_id=1, open_id=1, file_id=2, user_id=3,
        client_id=5, size_at_close=200, bytes_read=50, bytes_written=150,
    ),
    ReadRunRecord(
        time=1.5, server_id=0, open_id=1, file_id=2, user_id=3,
        client_id=5, offset=0, length=50,
    ),
    WriteRunRecord(
        time=1.7, server_id=0, open_id=1, file_id=2, user_id=3,
        client_id=5, offset=50, length=150, migrated=True,
    ),
    RepositionRecord(
        time=1.6, server_id=0, open_id=1, file_id=2, user_id=3,
        client_id=5, offset_before=50, offset_after=0,
    ),
    CreateRecord(time=0.5, server_id=2, file_id=2, user_id=3, client_id=5),
    DeleteRecord(
        time=9.0, server_id=2, file_id=2, user_id=3, client_id=5,
        size=200, oldest_byte_time=1.0, newest_byte_time=2.0,
    ),
    TruncateRecord(
        time=8.0, server_id=2, file_id=2, user_id=3, client_id=5, size=10,
    ),
    SharedReadRecord(
        time=3.0, server_id=0, file_id=2, user_id=3, client_id=5,
        offset=0, length=64,
    ),
    SharedWriteRecord(
        time=3.1, server_id=0, file_id=2, user_id=3, client_id=5,
        offset=64, length=32, migrated=True,
    ),
    DirectoryReadRecord(
        time=4.0, server_id=0, file_id=-1, user_id=3, client_id=5, length=512,
    ),
]


def written_line(record, tmp_path) -> dict:
    """The one line ``write_trace`` writes for ``record``, parsed."""
    path = tmp_path / "one.jsonl"
    write_trace(path, ColumnarTrace.from_records([record]))
    (line,) = path.read_text().splitlines()
    return json.loads(line)


class TestSerialization:
    @pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: r.kind)
    def test_roundtrip(self, record, tmp_path):
        rebuilt = TraceRecord.from_dict(written_line(record, tmp_path))
        assert rebuilt == record

    @pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: r.kind)
    def test_dict_has_kind(self, record, tmp_path):
        data = written_line(record, tmp_path)
        assert list(data) == ["kind", *(f.name for f in fields(record))]
        assert data["kind"] == record.kind

    def test_mode_serializes_as_string(self, tmp_path):
        data = written_line(ALL_RECORDS[0], tmp_path)
        assert data["mode"] == "read_write"

    def test_missing_kind_raises(self):
        with pytest.raises(TraceError):
            TraceRecord.from_dict({"time": 1.0})

    def test_unknown_kind_raises(self):
        with pytest.raises(TraceError):
            TraceRecord.from_dict({"kind": "bogus", "time": 1.0})

    def test_bad_fields_raise(self):
        with pytest.raises(TraceError):
            TraceRecord.from_dict({"kind": "open", "nonsense": 1})

    def test_registry_covers_all_kinds(self):
        kinds = {record.kind for record in ALL_RECORDS}
        assert kinds <= set(TraceRecord._registry)

    def test_duplicate_kind_registration_raises(self):
        with pytest.raises(TraceError):
            # Attempting to define another record with an existing kind.
            from dataclasses import dataclass
            from typing import ClassVar

            @dataclass(frozen=True)
            class Impostor(TraceRecord):  # noqa: F841
                kind: ClassVar[str] = "open"


class TestRecordProperties:
    def test_records_are_frozen(self):
        with pytest.raises(Exception):
            ALL_RECORDS[0].time = 99.0  # type: ignore[misc]

    def test_access_mode_values(self):
        assert {m.value for m in AccessMode} == {"read", "write", "read_write"}
