"""Tests for the columnar trace layer (repro.trace.columnar).

The load-bearing property is byte-identity with the classic record-list
path: materializing the columnar form must reproduce exactly the
records (values *and* types) the old emit-sort-filter pipeline built,
and streaming consumption must never hold a whole trace in memory.
"""

import gc
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest

from repro.trace.columnar import (
    RECORD_CLASSES,
    ColumnarTrace,
    ColumnarTraceBuilder,
)
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    DirectoryReadRecord,
    OpenRecord,
    ReadRunRecord,
)
from repro.workload import generate_trace
from repro.workload.profiles import STANDARD_PROFILES


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(
        STANDARD_PROFILES[0], seed=1991, scale=0.05, client_count=4
    )


class TestRoundTrip:
    def test_generated_trace_carries_equivalent_columnar(self, small_trace):
        assert small_trace.columnar is not None
        rebuilt = small_trace.columnar.materialize()
        assert rebuilt == small_trace.records

    def test_materialized_types_are_exact(self, small_trace):
        for record in small_trace.columnar.materialize()[:2000]:
            assert type(record.time) is float
            assert type(record.file_id) is int
            if isinstance(record, OpenRecord):
                assert isinstance(record.mode, AccessMode)
                assert type(record.migrated) is bool

    def test_from_records_round_trip(self, small_trace):
        records = small_trace.records[:500]
        columnar = ColumnarTrace.from_records(records)
        assert columnar.materialize() == records

    def test_payload_round_trip(self, small_trace):
        payload = small_trace.columnar.to_payload()
        back = ColumnarTrace.from_payload(payload)
        assert back.materialize() == small_trace.records

    def test_iter_chunks_matches_materialize(self, small_trace):
        streamed = []
        for chunk in small_trace.columnar.iter_chunks(chunk_size=777):
            assert len(chunk) <= 777
            streamed.extend(chunk)
        assert streamed == small_trace.records

    def test_iter_records_matches_materialize(self, small_trace):
        assert list(small_trace.columnar.iter_records(1024)) == (
            small_trace.records
        )

    def test_bad_chunk_size_rejected(self, small_trace):
        with pytest.raises(ValueError):
            next(small_trace.columnar.iter_chunks(0))


class TestBuilderSeal:
    def test_seal_sorts_stably_and_filters_window(self):
        builder = ColumnarTraceBuilder()
        builder.append(
            OpenRecord,
            (5.0, 0, 1, 7, 1, 0, 0, AccessMode.READ, 0, False),
        )
        builder.append(
            CloseRecord, (99.0, 0, 1, 7, 1, 0, 0, 0, 0, False)
        )
        # Same timestamp as the open: emission order must win the tie.
        builder.append(
            ReadRunRecord, (5.0, 0, 1, 7, 1, 0, 0, 100, False)
        )
        sealed = builder.seal(duration=50.0)
        records = sealed.materialize()
        assert [type(r) for r in records] == [OpenRecord, ReadRunRecord]
        assert records[0].time == records[1].time == 5.0

    def test_emission_order_records_preserves_append_order(self):
        builder = ColumnarTraceBuilder()
        builder.append(
            CloseRecord, (9.0, 0, 1, 7, 1, 0, 0, 0, 0, False)
        )
        builder.append(
            OpenRecord,
            (1.0, 0, 2, 8, 1, 0, 0, AccessMode.WRITE, 0, False),
        )
        kinds = [type(r) for r in builder.emission_order_records()]
        assert kinds == [CloseRecord, OpenRecord]


class TestRemap:
    def test_remap_strides_ids_and_shifts_clients(self, small_trace):
        groups, group, base = 4, 1, 40
        remapped = small_trace.columnar.remap_group(group, groups, base)
        originals = small_trace.records
        for before, after in zip(originals, remapped.materialize()):
            assert after.time == before.time
            assert after.client_id == before.client_id + base
            if before.file_id >= 0:
                assert after.file_id == before.file_id * groups + group
                assert after.file_id % groups == group
            else:
                assert after.file_id == before.file_id
            if hasattr(before, "open_id"):
                assert after.open_id == before.open_id * groups + group

    def test_remap_rejects_bad_group(self, small_trace):
        with pytest.raises(ValueError):
            small_trace.columnar.remap_group(4, 4, 0)

    def test_max_file_id(self, small_trace):
        expected = max(r.file_id for r in small_trace.records)
        assert small_trace.columnar.max_file_id() == expected

    def test_max_file_id_empty(self):
        assert ColumnarTraceBuilder().seal().max_file_id() == -1


class TestMerge:
    def test_merge_subset_restriction(self):
        """Merging any subset equals the full merge restricted to it --
        the property partitioned replay's dispatch order rests on."""
        parts = []
        for rank in range(3):
            builder = ColumnarTraceBuilder()
            for i in range(50):
                builder.append(
                    DirectoryReadRecord,
                    (float(i % 7), 0, -1, rank + 1, rank, 256),
                )
            parts.append(builder.seal())
        full = ColumnarTrace.merge(parts).materialize()
        for subset in ([0], [1], [2], [0, 2], [1, 2], [0, 1]):
            merged = ColumnarTrace.merge(
                [parts[i] for i in subset], ranks=subset
            ).materialize()
            restricted = [
                r for r in full if r.user_id - 1 in subset
            ]
            assert merged == restricted

    def test_merge_empty_and_single(self, small_trace):
        assert len(ColumnarTrace.merge([])) == 0
        assert ColumnarTrace.merge([small_trace.columnar]) is (
            small_trace.columnar
        )

    def test_merge_rank_mismatch(self, small_trace):
        with pytest.raises(ValueError):
            ColumnarTrace.merge([small_trace.columnar], ranks=[0, 1])


def _set_gc(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@contextmanager
def _gc_state(enabled):
    """Run the block with the cyclic GC on or off, then restore it."""
    was_enabled = gc.isenabled()
    _set_gc(enabled)
    try:
        yield
    finally:
        _set_gc(was_enabled)


class TestGcPause:
    """``materialize`` builds records with the cyclic GC paused and
    hands the caller back the GC state it found."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_caller_state(self, small_trace, monkeypatch, enabled):
        seen = []
        original = ColumnarTrace._materialize_slice

        def spy(self, lo, hi):
            seen.append(gc.isenabled())
            return original(self, lo, hi)

        monkeypatch.setattr(ColumnarTrace, "_materialize_slice", spy)
        with _gc_state(enabled):
            assert small_trace.columnar.materialize() == small_trace.records
            assert gc.isenabled() is enabled
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_caller_state_when_a_filler_raises(
        self, small_trace, enabled
    ):
        columnar = ColumnarTrace.from_records(small_trace.records[:500])
        table = columnar.tables[RECORD_CLASSES.index(OpenRecord)]
        assert table is not None
        mode = [f.name for f in fields(OpenRecord)].index("mode")
        # No AccessMode has code 255: the open-record filler raises.
        table.columns[mode] = np.full(table.count, 255, dtype="u1")
        with _gc_state(enabled):
            with pytest.raises(IndexError):
                columnar.materialize()
            assert gc.isenabled() is enabled


class TestStreamingMemory:
    def test_iter_records_peak_is_bounded(self, small_trace):
        """Streaming a trace must allocate far less than materializing
        it: the chunked iterator's peak is one chunk, not a day."""
        columnar = small_trace.columnar
        count = len(columnar)
        assert count > 5_000  # the comparison below needs a real trace

        tracemalloc.start()
        full = columnar.materialize()
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del full

        chunk = 1024
        tracemalloc.start()
        seen = 0
        for record in columnar.iter_records(chunk):
            seen += 1
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert seen == count
        # One ~1k-record chunk vs tens of thousands of records: even
        # with iterator overhead the streaming peak must stay well
        # under half of the materialized allocation.
        assert stream_peak < full_peak / 2

    def test_record_count_without_materialization(self):
        trace = generate_trace(
            STANDARD_PROFILES[0],
            seed=3,
            scale=0.02,
            client_count=4,
            materialize=False,
        )
        assert trace.records == []
        assert trace.columnar is not None
        assert trace.record_count == len(trace.columnar) > 0
        assert sum(1 for _ in trace.iter_records()) == trace.record_count


def test_record_classes_cover_every_registered_kind():
    """The columnar kind table must stay in sync with the record
    registry (appending new kinds is fine; dropping or reordering
    breaks stored payloads)."""
    from repro.trace.records import TraceRecord

    assert set(RECORD_CLASSES) == set(TraceRecord._registry.values())
