"""Tests for the Section 4 analyses (episodes, Tables 1-3, Figures 1-4)."""

import pytest

from repro.analysis import (
    assemble_accesses,
    classify_access,
    compute_access_patterns,
    compute_activity,
    compute_file_sizes,
    compute_lifetimes,
    compute_open_times,
    compute_run_lengths,
    compute_table1,
)
from repro.analysis.access_patterns import (
    AccessType,
    Sequentiality,
    merge_pattern_results,
    render_table3,
)
from repro.analysis.table1 import render_table1
from repro.common.units import TEN_MINUTES
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    DeleteRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    WriteRunRecord,
)


def episode(
    open_id=1,
    file_id=1,
    size=1000,
    runs=((False, 0, 1000),),
    t0=0.0,
    duration=1.0,
    user_id=1,
    migrated=False,
    repositions=0,
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
    for index in range(repositions):
        records.append(
            RepositionRecord(time=t0 + duration * 0.9, server_id=0,
                             open_id=open_id, file_id=file_id,
                             user_id=user_id, offset_before=0, offset_after=0)
        )
    records.append(
        CloseRecord(time=t0 + duration, server_id=0, open_id=open_id,
                    file_id=file_id, user_id=user_id,
                    size_at_close=max(size, *(o + l for _, o, l in runs)) if runs else size,
                    bytes_read=bytes_read, bytes_written=bytes_written,
                    migrated=migrated)
    )
    return records


class TestEpisodeAssembly:
    def test_basic_access(self):
        accesses = list(assemble_accesses(episode()))
        assert len(accesses) == 1
        access = accesses[0]
        assert access.bytes_read == 1000
        assert access.bytes_written == 0
        assert access.duration == 1.0

    def test_contiguous_runs_merge(self):
        records = episode(runs=((False, 0, 500), (False, 500, 500)))
        access = next(assemble_accesses(records))
        assert len(access.runs) == 1
        assert access.runs[0].length == 1000

    def test_noncontiguous_runs_stay_separate(self):
        records = episode(runs=((False, 0, 100), (False, 500, 100)))
        access = next(assemble_accesses(records))
        assert len(access.runs) == 2

    def test_kind_change_breaks_run(self):
        records = episode(runs=((False, 0, 100), (True, 100, 100)))
        access = next(assemble_accesses(records))
        assert len(access.runs) == 2

    def test_unclosed_episode_dropped(self):
        records = episode()[:-1]
        assert list(assemble_accesses(records)) == []

    def test_close_without_open_ignored(self):
        records = episode()[1:]
        assert list(assemble_accesses(records)) == []

    def test_reposition_counted(self):
        records = sorted(episode(repositions=2), key=lambda r: r.time)
        access = next(assemble_accesses(records))
        assert access.reposition_count == 2

    def test_interleaved_episodes(self):
        a = episode(open_id=1, t0=0.0, duration=10.0)
        b = episode(open_id=2, t0=1.0, duration=2.0)
        records = sorted(a + b, key=lambda r: r.time)
        accesses = list(assemble_accesses(records))
        assert len(accesses) == 2
        assert {a.open_record.open_id for a in accesses} == {1, 2}


class TestClassification:
    def test_whole_file_read(self):
        access = next(assemble_accesses(episode(size=1000)))
        assert classify_access(access) == (
            AccessType.READ_ONLY, Sequentiality.WHOLE_FILE
        )

    def test_prefix_read_is_other_sequential(self):
        access = next(assemble_accesses(episode(size=1000,
                                                runs=((False, 0, 400),))))
        assert classify_access(access) == (
            AccessType.READ_ONLY, Sequentiality.OTHER_SEQUENTIAL
        )

    def test_multiple_runs_is_random(self):
        access = next(assemble_accesses(
            episode(runs=((False, 0, 100), (False, 500, 100)))
        ))
        assert classify_access(access)[1] is Sequentiality.RANDOM

    def test_whole_file_write(self):
        access = next(assemble_accesses(
            episode(size=0, runs=((True, 0, 800),))
        ))
        assert classify_access(access) == (
            AccessType.WRITE_ONLY, Sequentiality.WHOLE_FILE
        )

    def test_append_is_other_sequential(self):
        access = next(assemble_accesses(
            episode(size=1000, runs=((True, 1000, 200),))
        ))
        assert classify_access(access) == (
            AccessType.WRITE_ONLY, Sequentiality.OTHER_SEQUENTIAL
        )

    def test_read_write_access(self):
        access = next(assemble_accesses(
            episode(runs=((False, 0, 100), (True, 0, 100)))
        ))
        assert classify_access(access)[0] is AccessType.READ_WRITE

    def test_zero_byte_access_skipped(self):
        access = next(assemble_accesses(episode(runs=())))
        assert classify_access(access) is None

    def test_pattern_result_counts(self):
        records = sorted(
            episode(open_id=1) + episode(open_id=2, t0=5.0)
            + episode(open_id=3, t0=10.0, size=0, runs=((True, 0, 500),)),
            key=lambda r: r.time,
        )
        result = compute_access_patterns(assemble_accesses(records))
        assert result.total_accesses == 3
        assert result.type_share(AccessType.READ_ONLY) == pytest.approx(2 / 3)
        assert result.type_share(AccessType.WRITE_ONLY, by_bytes=True) == (
            pytest.approx(500 / 2500)
        )

    def test_merge_pattern_results(self):
        r1 = compute_access_patterns(assemble_accesses(episode()))
        r2 = compute_access_patterns(assemble_accesses(episode()))
        merged = merge_pattern_results([r1, r2])
        assert merged.total_accesses == 2

    def test_render_table3(self):
        result = compute_access_patterns(assemble_accesses(episode()))
        text = render_table3(result, [result])
        assert "Table 3" in text
        assert "Read-only" in text


class TestTable1:
    def test_counts(self, small_trace):
        stats = compute_table1("t", small_trace.records, small_trace.duration)
        assert stats.open_events == sum(
            1 for r in small_trace.records if r.kind == "open"
        )
        assert stats.close_events <= stats.open_events
        assert stats.mbytes_read > 0
        assert stats.different_users > 0
        assert stats.users_of_migration >= 1
        assert stats.users_of_migration < stats.different_users

    def test_render(self, small_trace):
        stats = compute_table1("t", small_trace.records, small_trace.duration)
        text = render_table1([stats])
        assert "Open events" in text


class TestActivity:
    def test_single_user_interval(self):
        records = sorted(episode(duration=5.0), key=lambda r: r.time)
        result = compute_activity([(records, TEN_MINUTES * 2)])
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
        result = compute_activity([(records, TEN_MINUTES)])
        assert result.ten_minute_all.maximum_active_users == 2
        assert result.ten_minute_migrated.maximum_active_users == 1

    def test_peak_total(self):
        a = episode(open_id=1, user_id=1)
        b = episode(open_id=2, user_id=2)
        records = sorted(a + b, key=lambda r: r.time)
        result = compute_activity([(records, TEN_MINUTES)])
        assert result.ten_minute_all.peak_total_throughput_kbs == pytest.approx(
            2000 / 600 / 1024
        )

    def test_render(self, small_trace):
        result = compute_activity([(small_trace.records, small_trace.duration)])
        assert "Table 2" in result.render()


class TestFigures:
    def test_run_lengths(self):
        records = sorted(
            episode(open_id=1, runs=((False, 0, 100),))
            + episode(open_id=2, t0=5.0, runs=((False, 0, 1_000_000),),
                      size=1_000_000),
            key=lambda r: r.time,
        )
        result = compute_run_lengths(assemble_accesses(records))
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
        result = compute_file_sizes(assemble_accesses(records))
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
        result = compute_open_times(assemble_accesses(records))
        assert result.by_opens.fraction_at_or_below(0.25) == pytest.approx(0.5)

    def test_lifetimes_per_file_estimator(self):
        delete = DeleteRecord(time=100.0, server_id=0, file_id=1, user_id=1,
                              client_id=0, size=1000, oldest_byte_time=40.0,
                              newest_byte_time=80.0)
        result = compute_lifetimes([delete])
        # per-file lifetime = average of oldest (60) and newest (20) ages.
        assert result.by_files.median() == pytest.approx(40.0)

    def test_lifetimes_per_byte_span(self):
        delete = DeleteRecord(time=100.0, server_id=0, file_id=1, user_id=1,
                              client_id=0, size=800, oldest_byte_time=0.0,
                              newest_byte_time=100.0)
        result = compute_lifetimes([delete])
        assert sum(w for _, w in result.by_bytes._samples) == pytest.approx(800)
        # Byte ages span 0..100; about half the mass is under 50.
        assert result.by_bytes.fraction_at_or_below(50.0) == pytest.approx(
            0.5, abs=0.1
        )

    def test_lifetime_unknown_files_counted(self):
        delete = DeleteRecord(time=100.0, server_id=0, file_id=1, user_id=1,
                              client_id=0, size=0, oldest_byte_time=-1.0)
        result = compute_lifetimes([delete])
        assert result.unknown_lifetime_deletes == 1
        assert result.by_files.count == 0

    def test_figure_renderers(self, small_trace):
        accesses = list(assemble_accesses(small_trace.records))
        assert "Figure 1" in compute_run_lengths(accesses).render()
        assert "Figure 2" in compute_file_sizes(accesses).render()
        assert "Figure 3" in compute_open_times(accesses).render()
        assert "Figure 4" in compute_lifetimes(small_trace.records).render()
