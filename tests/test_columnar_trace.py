"""Tests for the columnar trace layer (repro.trace.columnar).

The load-bearing property is byte-identity with the classic record-list
path: the columns must encode exactly the records (values *and* types)
the old emit-sort-filter pipeline built (``reference_trace.materialize``
rebuilds them), ``src/`` must never build a record outside the
trace-file reader, and the replay's column stream must never hold a
whole trace in memory.
"""

import gc
import marshal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.common.errors import TraceOrderError
from repro.pipeline.codec import decode_artifact, encode_artifact, gc_paused
from repro.fs.cluster import run_cluster_on_trace
from repro.fs.config import ClusterConfig
from repro.pipeline.scaleout import (
    ScaleOutPlan,
    build_group_traces,
    run_partitioned_replay,
)
from repro.pipeline.tasks import TraceTask
from repro.trace.columnar import (
    COLUMN_FIELDS,
    MODE_CODES,
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

from checkers import emitted_records, refuse_records
from reference_trace import materialize


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(
        STANDARD_PROFILES[0], seed=1991, scale=0.05, client_count=4
    )


class TestRoundTrip:
    def test_generated_trace_carries_equivalent_columnar(self, small_trace):
        rebuilt = materialize(small_trace.columnar)
        assert len(rebuilt) == small_trace.record_count > 0
        assert [r.time for r in rebuilt] == small_trace.columnar.times.tolist()
        assert materialize(ColumnarTrace.from_records(rebuilt)) == rebuilt

    def test_materialized_types_are_exact(self, small_trace):
        for record in materialize(small_trace.columnar)[:2000]:
            assert type(record.time) is float
            assert type(record.file_id) is int
            if isinstance(record, OpenRecord):
                assert isinstance(record.mode, AccessMode)
                assert type(record.migrated) is bool

    def test_from_records_round_trip(self, small_trace):
        records = materialize(small_trace.columnar)[:500]
        columnar = ColumnarTrace.from_records(records)
        assert materialize(columnar) == records

    def test_payload_round_trip(self, small_trace):
        payload = small_trace.columnar.to_payload()
        back = ColumnarTrace.from_payload(payload)
        assert back == small_trace.columnar
        assert materialize(back) == materialize(small_trace.columnar)


def _expected_columns(record) -> tuple:
    """One record's row as ``iter_columns`` yields it: kind code, time,
    then each gathered field, 0 where the kind lacks it."""
    values = []
    for name, dtype in COLUMN_FIELDS:
        value = getattr(record, name, None)
        if value is None:
            value = False if dtype == "b1" else 0
        elif name == "mode":
            value = MODE_CODES[value]
        values.append(value)
    return (RECORD_CLASSES.index(type(record)), record.time, *values)


class TestIterColumns:
    @pytest.mark.parametrize("chunk_size", [1, 777, None])
    def test_matches_materialize_field_by_field(self, small_trace, chunk_size):
        columnar = small_trace.columnar
        if chunk_size == 1:
            # Chunk size 1 over the whole day is slow; a prefix of a
            # few thousand records covers every kind.
            columnar = ColumnarTrace.from_records(
                materialize(small_trace.columnar)[:3000]
            )
        records = materialize(columnar)
        size = chunk_size or len(columnar)
        rows = []
        for chunk in columnar.iter_columns(size):
            assert len(chunk) == 2 + len(COLUMN_FIELDS)
            assert len({len(column) for column in chunk}) == 1
            assert len(chunk[0]) <= size
            rows.extend(zip(*chunk))
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert row == _expected_columns(record)
            assert [type(value) for value in row] == [
                type(value) for value in _expected_columns(record)
            ]
        assert {row[0] for row in rows} >= {
            RECORD_CLASSES.index(cls) for cls in (
                OpenRecord, CloseRecord, ReadRunRecord, DirectoryReadRecord,
            )
        }

    def test_absent_fields_read_zero(self):
        record = DirectoryReadRecord(3.0, 0, file_id=-4, client_id=2, length=512)
        (row,) = zip(*next(ColumnarTrace.from_records([record]).iter_columns()))
        assert row == (
            RECORD_CLASSES.index(DirectoryReadRecord), 3.0,
            2, -4, 0, 0, 512, False, 0,
        )

    def test_empty_trace_yields_nothing(self):
        assert list(ColumnarTraceBuilder().seal().iter_columns()) == []

    def test_bad_chunk_size_rejected(self, small_trace):
        with pytest.raises(ValueError):
            next(small_trace.columnar.iter_columns(0))


class TestFromRecords:
    def test_from_records_rejects_a_backwards_stream(self, small_trace):
        records = list(reversed(materialize(small_trace.columnar)[:200]))
        with pytest.raises(TraceOrderError):
            ColumnarTrace.from_records(records)


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
        records = materialize(sealed)
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
        kinds = [type(r) for r in emitted_records(builder)]
        assert kinds == [CloseRecord, OpenRecord]


class TestRemap:
    def test_remap_strides_ids_and_shifts_clients(self, small_trace):
        groups, group, base = 4, 1, 40
        remapped = small_trace.columnar.remap_group(group, groups, base)
        originals = materialize(small_trace.columnar)
        for before, after in zip(originals, materialize(remapped)):
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
        expected = max(r.file_id for r in materialize(small_trace.columnar))
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
        full = materialize(ColumnarTrace.merge(parts))
        for subset in ([0], [1], [2], [0, 2], [1, 2], [0, 1]):
            merged = materialize(ColumnarTrace.merge(
                [parts[i] for i in subset], ranks=subset
            ))
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
    """``gc_paused`` (the codec's decode guard) runs its block with the
    cyclic GC off and hands the caller back the GC state it found."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_caller_state(self, enabled):
        with _gc_state(enabled):
            with gc_paused():
                assert not gc.isenabled()
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_caller_state_when_a_filler_raises(self, enabled):
        with _gc_state(enabled):
            with pytest.raises(IndexError):
                with gc_paused():
                    [].pop()  # a filler running past its columns
            assert gc.isenabled() is enabled


class TestStreamingMemory:
    def test_iter_columns_peak_is_bounded(self, small_trace):
        """Streaming a trace's columns must allocate far less than
        materializing it: the replay's peak is one column chunk, not a
        day of records."""
        columnar = small_trace.columnar
        count = len(columnar)
        assert count > 5_000  # the comparison below needs a real trace

        tracemalloc.start()
        full = materialize(columnar)
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del full

        tracemalloc.start()
        seen = 0
        for chunk in columnar.iter_columns(1024):
            seen += len(chunk[0])
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert seen == count
        # One ~1k-position chunk vs tens of thousands of records: even
        # with iterator overhead the streaming peak must stay well
        # under half of the materialized allocation.
        assert stream_peak < full_peak / 2

    def test_record_count_without_materialization(self, monkeypatch):
        """A generated, a decoded and a remapped trace count their
        records off the columns; none of them builds a record."""
        refuse_records(monkeypatch)
        generated = generate_trace(
            STANDARD_PROFILES[0], seed=3, scale=0.02, client_count=4
        )
        decoded = decode_artifact(encode_artifact(generated))
        remapped = TraceTask(
            STANDARD_PROFILES[0], seed=3, scale=0.02, client_count=4,
            group=1, groups=4, client_base=8,
        ).run()
        assert decoded == generated
        for trace in (generated, decoded, remapped):
            assert trace.record_count == len(trace.columnar) > 0
        _, file_ids = remapped.columnar.select(RECORD_CLASSES, "file_id")
        assert int(file_ids.max()) == remapped.columnar.max_file_id()
        assert remapped.columnar.max_file_id() > generated.columnar.max_file_id()


def test_one_group_trace_task_keeps_the_generated_ids():
    """The study's traces are group 0 of one: the trace task's remap
    leaves every column as generated, byte for byte."""
    generated = generate_trace(
        STANDARD_PROFILES[1], seed=7, scale=0.05, client_count=4
    )
    task = TraceTask(STANDARD_PROFILES[1], seed=7, scale=0.05, client_count=4)
    assert marshal.dumps(task.run().columnar.to_payload()) == marshal.dumps(
        generated.columnar.to_payload()
    )


def test_record_classes_cover_every_registered_kind():
    """The columnar kind table must stay in sync with the record
    registry (appending new kinds is fine; dropping or reordering
    breaks stored payloads)."""
    from repro.trace.records import TraceRecord

    assert set(RECORD_CLASSES) == set(TraceRecord._registry.values())


def test_generation_and_replay_build_no_record(monkeypatch):
    """Records exist only at the trace-file boundary: generating a
    trace, building a scale-out population, replaying it in shards and
    replaying one trace never build a record."""
    refuse_records(monkeypatch)
    trace = generate_trace(
        STANDARD_PROFILES[0], seed=3, scale=0.02, client_count=4
    )
    assert trace.validation.records == trace.record_count > 0
    plan = ScaleOutPlan(
        profile=STANDARD_PROFILES[0], seed=3, scale=0.1, groups=2
    )
    traces = build_group_traces(plan)
    merged = run_partitioned_replay(plan, traces, shards=2)
    assert merged.records_replayed == sum(t.record_count for t in traces) > 0
    single = run_cluster_on_trace(
        trace.columnar, trace.duration, ClusterConfig(client_count=4), seed=3
    )
    assert single.records_replayed == trace.record_count
    with pytest.raises(AssertionError, match="OpenRecord built"):
        OpenRecord(0.0, 0)


def test_tables_and_rpc_loss_build_no_record(monkeypatch, tmp_path):
    """Every table and figure (Tables 1a and 2a at four servers), the
    figure export and Table S read the traces' columns, never a record
    list."""
    from repro.experiments import EXPERIMENT_IDS, ExperimentContext, run_experiment
    from repro.experiments.report import export_figure_data

    refuse_records(monkeypatch)
    ctx = ExperimentContext(scale=0.02, seed=3, num_servers=4, cache=False)
    table1 = run_experiment("table1", ctx)
    assert "Table 1a" in table1.rendered
    assert table1.metrics["total_opens"] > 0
    assert "Table 2a" in run_experiment("table2", ctx).rendered
    analyses = [
        eid for eid in EXPERIMENT_IDS
        if eid.startswith(("table", "figure")) and eid not in ("table1", "table2")
    ]
    assert len(analyses) == 14
    for experiment_id in (*analyses, "rpc_loss"):
        assert run_experiment(experiment_id, ctx).rendered, experiment_id
    assert len(export_figure_data(tmp_path, ctx)) == 4


def test_select_reads_only_the_stream_rows():
    """A sealed window drops records from the order, not from the kind
    tables; ``select`` reads a kind through the order."""
    builder = ColumnarTraceBuilder()
    for time, open_id in ((-1.0, 1), (0.5, 2), (2.0, 3), (3.0, 4)):
        builder.append(
            OpenRecord, (time, 0, open_id, 9, 0, 0, 0, AccessMode.READ, 0, False)
        )
    builder.append(CloseRecord, (1.0, 0, 2, 9, 0, 0, 0, 0, 0, False))
    trace = builder.seal(duration=2.5)
    assert trace.tables[RECORD_CLASSES.index(OpenRecord)].count == 4
    positions, open_ids, times = trace.select(OpenRecord, "open_id", "time")
    assert positions.tolist() == [0, 2]
    assert open_ids.tolist() == [2, 3]
    assert times.tolist() == [0.5, 2.0]
    positions, lengths = trace.select(ReadRunRecord, "length")
    assert len(positions) == len(lengths) == 0
    assert lengths.dtype == np.int64


def test_select_merges_kinds_in_stream_order():
    """Several kinds are read as one stream; a field a kind lacks reads
    0, and a field no selected kind has raises."""
    builder = ColumnarTraceBuilder()
    builder.append(OpenRecord, (0.0, 0, 1, 9, 0, 0, 2, AccessMode.WRITE, 0, True))
    builder.append(ReadRunRecord, (1.0, 0, 1, 9, 0, 2, 0, 512, False))
    builder.append(CloseRecord, (1.0, 0, 1, 9, 0, 2, 0, 512, 0, False))
    builder.append(ReadRunRecord, (0.5, 0, 1, 9, 0, 2, 0, 64, True))
    trace = builder.seal()
    positions, lengths, modes, migrated = trace.select(
        (ReadRunRecord, OpenRecord), "length", "mode", "migrated"
    )
    assert positions.tolist() == [0, 1, 2]
    assert lengths.tolist() == [0, 64, 512]
    assert modes.tolist() == [MODE_CODES[AccessMode.WRITE], 0, 0]
    assert migrated.tolist() == [True, True, False]
    assert (lengths.dtype, modes.dtype) == (np.int64, np.uint8)
    with pytest.raises(KeyError):
        trace.select((ReadRunRecord, OpenRecord), "size_at_close")
