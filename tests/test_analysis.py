"""Tests for the Section 4 analyses (episodes, Tables 1-3, Figures 1-4)."""

import numpy as np
import pytest

from repro.analysis import (
    assemble_accesses,
    compute_access_patterns,
    compute_activity,
    compute_file_sizes,
    compute_lifetimes,
    compute_open_times,
    compute_run_lengths,
    compute_table1,
)
from repro.analysis.access_patterns import (
    CELLS,
    AccessType,
    Sequentiality,
    classify_accesses,
    render_table3,
)
from repro.analysis.table1 import render_table1
from repro.common.stats import RunningStat
from repro.common.units import KB, TEN_MINUTES
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    DeleteRecord,
    OpenRecord,
    ReadRunRecord,
    WriteRunRecord,
)

import reference_analysis


def episode(
    open_id=1,
    file_id=1,
    size=1000,
    runs=((False, 0, 1000),),
    t0=0.0,
    duration=1.0,
    user_id=1,
    migrated=False,
):
    """Build a legal episode: (is_write, offset, length) per run."""
    records = [
        OpenRecord(time=t0, server_id=0, open_id=open_id, file_id=file_id,
                   user_id=user_id, mode=AccessMode.READ_WRITE,
                   size_at_open=size, migrated=migrated),
    ]
    step = duration / (len(runs) + 1)
    bytes_read = bytes_written = 0
    for index, (is_write, offset, length) in enumerate(runs):
        cls = WriteRunRecord if is_write else ReadRunRecord
        records.append(
            cls(time=t0 + step * (index + 1), server_id=0, open_id=open_id,
                file_id=file_id, user_id=user_id, offset=offset,
                length=length, migrated=migrated)
        )
        if is_write:
            bytes_written += length
        else:
            bytes_read += length
    records.append(
        CloseRecord(time=t0 + duration, server_id=0, open_id=open_id,
                    file_id=file_id, user_id=user_id,
                    size_at_close=max(size, *(o + l for _, o, l in runs)) if runs else size,
                    bytes_read=bytes_read, bytes_written=bytes_written,
                    migrated=migrated)
    )
    return records


def accesses(records):
    """The access table of a time-sorted record list."""
    return assemble_accesses(ColumnarTrace.from_records(records))


def runs_of(table, index=0):
    """Access ``index``'s logical runs as (is_write, offset, length)."""
    lo, hi = table.run_start[index], table.run_start[index + 1]
    return list(zip(
        table.run_is_write[lo:hi].tolist(),
        table.run_offset[lo:hi].tolist(),
        table.run_length[lo:hi].tolist(),
    ))


def classify(records):
    """The one access's (type, sequentiality) cell; None if zero-byte."""
    (cell,) = classify_accesses(accesses(records)).tolist()
    return CELLS[cell] if cell >= 0 else None


class TestEpisodeAssembly:
    def test_basic_access(self):
        table = accesses(episode())
        assert len(table) == 1
        assert table.bytes_read.tolist() == [1000]
        assert table.bytes_written.tolist() == [0]
        assert table.duration.tolist() == [1.0]
        assert table.size_at_open.tolist() == [1000]
        assert table.size_at_close.tolist() == [1000]

    def test_contiguous_runs_merge(self):
        table = accesses(episode(runs=((False, 0, 500), (False, 500, 500))))
        assert runs_of(table) == [(False, 0, 1000)]

    def test_noncontiguous_runs_stay_separate(self):
        table = accesses(episode(runs=((False, 0, 100), (False, 500, 100))))
        assert runs_of(table) == [(False, 0, 100), (False, 500, 100)]

    def test_kind_change_breaks_run(self):
        table = accesses(episode(runs=((False, 0, 100), (True, 100, 100))))
        assert runs_of(table) == [(False, 0, 100), (True, 100, 100)]

    def test_unclosed_episode_dropped(self):
        table = accesses(episode()[:-1])
        assert len(table) == 0
        assert table.run_start.tolist() == [0]
        assert len(table.run_length) == 0

    def test_close_without_open_ignored(self):
        assert len(accesses(episode()[1:])) == 0

    def test_runs_after_close_ignored(self):
        records = episode(runs=((False, 0, 100),))
        late = ReadRunRecord(time=5.0, server_id=0, open_id=1, file_id=1,
                             offset=100, length=100)
        table = accesses(records + [late])
        assert runs_of(table) == [(False, 0, 100)]
        assert len(table.run_length) == 1

    def test_interleaved_episodes(self):
        a = episode(open_id=1, t0=0.0, duration=10.0, size=10)
        b = episode(open_id=2, t0=1.0, duration=2.0, size=20,
                    runs=((True, 0, 20),))
        records = sorted(a + b, key=lambda r: r.time)
        table = accesses(records)
        # One row per access in the order of the closes: b closes first.
        assert table.duration.tolist() == [2.0, 10.0]
        assert table.size_at_open.tolist() == [20, 10]
        assert runs_of(table, 0) == [(True, 0, 20)]
        assert runs_of(table, 1) == [(False, 0, 1000)]

    def test_reused_open_id_starts_a_new_episode(self):
        first = episode(open_id=1, t0=0.0, runs=((False, 0, 10),))
        second = episode(open_id=1, t0=5.0, runs=((True, 0, 30),))
        table = accesses(first + second)
        assert runs_of(table, 0) == [(False, 0, 10)]
        assert runs_of(table, 1) == [(True, 0, 30)]

    def test_table_pickles(self):
        import pickle

        table = accesses(episode(runs=((False, 0, 100), (True, 0, 50))))
        copy = pickle.loads(pickle.dumps(table))
        for name in vars(table):
            assert np.array_equal(getattr(copy, name), getattr(table, name))


class TestClassification:
    def test_whole_file_read(self):
        assert classify(episode(size=1000)) == (
            AccessType.READ_ONLY, Sequentiality.WHOLE_FILE
        )

    def test_prefix_read_is_other_sequential(self):
        assert classify(episode(size=1000, runs=((False, 0, 400),))) == (
            AccessType.READ_ONLY, Sequentiality.OTHER_SEQUENTIAL
        )

    def test_multiple_runs_is_random(self):
        cell = classify(episode(runs=((False, 0, 100), (False, 500, 100))))
        assert cell[1] is Sequentiality.RANDOM

    def test_whole_file_write(self):
        assert classify(episode(size=0, runs=((True, 0, 800),))) == (
            AccessType.WRITE_ONLY, Sequentiality.WHOLE_FILE
        )

    def test_append_is_other_sequential(self):
        assert classify(episode(size=1000, runs=((True, 1000, 200),))) == (
            AccessType.WRITE_ONLY, Sequentiality.OTHER_SEQUENTIAL
        )

    def test_read_write_access(self):
        cell = classify(episode(runs=((False, 0, 100), (True, 0, 100))))
        assert cell == (AccessType.READ_WRITE, Sequentiality.RANDOM)

    def test_zero_byte_access_skipped(self):
        assert classify(episode(runs=())) is None

    def test_pattern_result_counts(self):
        records = sorted(
            episode(open_id=1) + episode(open_id=2, t0=5.0)
            + episode(open_id=3, t0=10.0, size=0, runs=((True, 0, 500),))
            + episode(open_id=4, t0=15.0, runs=()),
            key=lambda r: r.time,
        )
        result = compute_access_patterns([accesses(records)])
        assert result.total_accesses == 3
        assert result.skipped_zero_byte == 1
        assert result.type_share(AccessType.READ_ONLY) == pytest.approx(2 / 3)
        assert result.type_share(AccessType.WRITE_ONLY, by_bytes=True) == (
            pytest.approx(500 / 2500)
        )

    def test_tables_pool(self):
        table = accesses(episode())
        pooled = compute_access_patterns([table, table])
        assert pooled.total_accesses == 2
        assert pooled.total_bytes == 2000

    def test_render_table3(self):
        result = compute_access_patterns([accesses(episode())])
        text = render_table3(result, [result])
        assert "Table 3" in text
        assert "Read-only" in text


class TestTable1:
    def test_counts(self, small_trace):
        stats = compute_table1("t", small_trace.columnar, small_trace.duration)
        assert stats.open_events == len(
            small_trace.columnar.select(OpenRecord)[0]
        )
        assert stats.close_events <= stats.open_events
        assert stats.mbytes_read > 0
        assert stats.different_users > 0
        assert stats.users_of_migration >= 1
        assert stats.users_of_migration < stats.different_users

    def test_render(self, small_trace):
        stats = compute_table1("t", small_trace.columnar, small_trace.duration)
        text = render_table1([stats])
        assert "Open events" in text


class TestActivity:
    def test_single_user_interval(self):
        records = sorted(episode(duration=5.0), key=lambda r: r.time)
        result = compute_activity(
            [(ColumnarTrace.from_records(records), TEN_MINUTES * 2)]
        )
        scale = result.ten_minute_all
        assert scale.maximum_active_users == 1
        # One active interval out of two -> average 0.5.
        assert scale.average_active_users == pytest.approx(0.5)
        # 1000 bytes over 600 s.
        assert scale.average_throughput_kbs == pytest.approx(
            1000 / 600 / 1024
        )

    def test_migrated_split(self):
        normal = episode(open_id=1, user_id=1)
        migrated = episode(open_id=2, user_id=2, t0=5.0, migrated=True)
        records = sorted(normal + migrated, key=lambda r: r.time)
        result = compute_activity([(ColumnarTrace.from_records(records), TEN_MINUTES)])
        assert result.ten_minute_all.maximum_active_users == 2
        assert result.ten_minute_migrated.maximum_active_users == 1

    def test_peak_total(self):
        a = episode(open_id=1, user_id=1)
        b = episode(open_id=2, user_id=2)
        records = sorted(a + b, key=lambda r: r.time)
        result = compute_activity([(ColumnarTrace.from_records(records), TEN_MINUTES)])
        assert result.ten_minute_all.peak_total_throughput_kbs == pytest.approx(
            2000 / 600 / 1024
        )

    def test_render(self, small_trace):
        result = compute_activity([(small_trace.columnar, small_trace.duration)])
        assert "Table 2" in result.render()

    def test_users_fold_in_set_order(self):
        """An interval's users feed the throughput statistics in the
        order the record path's set iterates them (8, 1, 2 here), not in
        sorted order: the two orders round differently."""
        records = sorted(
            episode(open_id=1, user_id=1, runs=((False, 0, 1000),))
            + episode(open_id=2, user_id=8, t0=2.0, runs=((False, 0, 1000),))
            + episode(open_id=3, user_id=2, t0=4.0, runs=((False, 0, 999),)),
            key=lambda r: r.time,
        )
        result = compute_activity([(ColumnarTrace.from_records(records), TEN_MINUTES)])
        assert result == reference_analysis.compute_activity([(records, TEN_MINUTES)])
        assert list({1, 8, 2}) == [8, 1, 2]
        in_sorted_order = RunningStat()
        for nbytes in (1000, 999, 1000):  # users 1, 2, 8
            in_sorted_order.add(nbytes / TEN_MINUTES / KB)
        assert result.ten_minute_all.throughput_stddev_kbs != in_sorted_order.stddev


class TestFigures:
    def test_run_lengths(self):
        records = sorted(
            episode(open_id=1, runs=((False, 0, 100),))
            + episode(open_id=2, t0=5.0, runs=((False, 0, 1_000_000),),
                      size=1_000_000),
            key=lambda r: r.time,
        )
        result = compute_run_lengths([accesses(records)])
        assert result.by_runs.count == 2
        assert result.by_runs.fraction_at_or_below(100) == pytest.approx(0.5)
        # By bytes the megabyte run dominates.
        assert result.by_bytes.fraction_at_or_below(100) < 0.001

    def test_file_sizes_weighted_by_transfer(self):
        records = sorted(
            episode(open_id=1, size=100, runs=((False, 0, 100),))
            + episode(open_id=2, t0=5.0, size=10_000,
                      runs=((False, 0, 10_000),)),
            key=lambda r: r.time,
        )
        result = compute_file_sizes([accesses(records)])
        assert result.by_accesses.fraction_at_or_below(100) == pytest.approx(0.5)
        assert result.by_bytes.fraction_at_or_below(100) == pytest.approx(
            100 / 10_100
        )

    def test_open_times(self):
        records = sorted(
            episode(open_id=1, duration=0.1)
            + episode(open_id=2, t0=5.0, duration=10.0),
            key=lambda r: r.time,
        )
        result = compute_open_times([accesses(records)])
        assert result.by_opens.fraction_at_or_below(0.25) == pytest.approx(0.5)

    def test_lifetimes_per_file_estimator(self):
        delete = DeleteRecord(time=100.0, server_id=0, file_id=1, user_id=1,
                              client_id=0, size=1000, oldest_byte_time=40.0,
                              newest_byte_time=80.0)
        result = compute_lifetimes([ColumnarTrace.from_records([delete])])
        # per-file lifetime = average of oldest (60) and newest (20) ages.
        assert result.by_files.median() == pytest.approx(40.0)

    def test_lifetimes_per_byte_span(self):
        delete = DeleteRecord(time=100.0, server_id=0, file_id=1, user_id=1,
                              client_id=0, size=800, oldest_byte_time=0.0,
                              newest_byte_time=100.0)
        result = compute_lifetimes([ColumnarTrace.from_records([delete])])
        assert sum(w for _, w in result.by_bytes._samples) == pytest.approx(800)
        # Byte ages span 0..100; about half the mass is under 50.
        assert result.by_bytes.fraction_at_or_below(50.0) == pytest.approx(
            0.5, abs=0.1
        )

    def test_lifetime_unknown_files_counted(self):
        delete = DeleteRecord(time=100.0, server_id=0, file_id=1, user_id=1,
                              client_id=0, size=0, oldest_byte_time=-1.0)
        result = compute_lifetimes([ColumnarTrace.from_records([delete])])
        assert result.unknown_lifetime_deletes == 1
        assert result.by_files.count == 0

    def test_lifetimes_read_deletes_and_truncates_in_stream_order(self):
        from repro.trace.records import TruncateRecord

        truncate = TruncateRecord(time=50.0, server_id=0, file_id=2,
                                  size=100, oldest_byte_time=10.0,
                                  newest_byte_time=30.0)
        delete = DeleteRecord(time=100.0, server_id=0, file_id=1,
                              size=1000, oldest_byte_time=40.0,
                              newest_byte_time=80.0)
        result = compute_lifetimes([ColumnarTrace.from_records([truncate, delete])])
        assert [value for value, _ in result.by_files._samples] == [30.0, 40.0]

    def test_figure_renderers(self, small_trace):
        tables = [assemble_accesses(small_trace.columnar)]
        assert "Figure 1" in compute_run_lengths(tables).render()
        assert "Figure 2" in compute_file_sizes(tables).render()
        assert "Figure 3" in compute_open_times(tables).render()
        assert "Figure 4" in compute_lifetimes([small_trace.columnar]).render()
