"""Tests for trace tools (summarize, split) and the BSD comparison and
latency analysis modules."""

import pytest

from repro.analysis.bsd_comparison import (
    BSD_1985,
    build_comparisons,
    render_then_vs_now,
    throughput_vs_compute_gap,
)
from repro.common.errors import TraceError
from repro.fs.latency import analyze_paging_latency
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import OpenRecord, ReadRunRecord, WriteRunRecord
from repro.trace.tools import split_by_duration, summarize

import reference_trace
from reference_trace import materialize
from test_trace_io import swapped


def columns(records):
    return ColumnarTrace.from_records(records)


class TestSummarize:
    def test_empty_stream(self):
        summary = summarize(columns([]))
        assert summary.records == 0
        assert summary.span_seconds == 0.0

    def test_counts_and_bytes(self):
        records = [
            OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1, user_id=3,
                       client_id=2),
            ReadRunRecord(time=1.0, server_id=0, open_id=1, file_id=1,
                          user_id=3, client_id=2, offset=0, length=100),
            WriteRunRecord(time=2.0, server_id=0, open_id=1, file_id=1,
                           user_id=3, client_id=2, offset=0, length=50),
        ]
        summary = summarize(columns(records))
        assert summary.records == 3
        assert summary.bytes_read == 100
        assert summary.bytes_written == 50
        assert summary.users == {3}
        assert summary.clients == {2}
        assert summary.span_seconds == 2.0

    def test_negative_user_ids_excluded(self):
        records = [
            OpenRecord(time=0.0, server_id=0, open_id=1, file_id=1,
                       user_id=-1),
        ]
        assert summarize(columns(records)).users == set()

    def test_render(self, small_trace):
        text = summarize(small_trace.columnar).render()
        assert "records" in text and "Mbytes read" in text

    def test_matches_trace(self, small_trace):
        summary = summarize(small_trace.columnar)
        assert summary.records == small_trace.record_count
        assert summary.by_kind["open"] == summary.by_kind["close"] + len(
            small_trace.validation.unclosed_open_ids
        )
        assert summary == reference_trace.summarize(
            materialize(small_trace.columnar)
        )


class TestSplit:
    def test_split_into_halves(self):
        records = [
            OpenRecord(time=float(t), server_id=0, open_id=t, file_id=1)
            for t in range(10)
        ]
        pieces = list(split_by_duration(columns(records), 5.0))
        assert [index for index, _ in pieces] == [0, 1]
        assert len(pieces[0][1]) == 5

    def test_rebase_times(self):
        records = [OpenRecord(time=7.0, server_id=0, open_id=1, file_id=1)]
        (_, piece), = split_by_duration(columns(records), 5.0)
        assert piece.times.tolist() == [2.0]
        assert [r.time for r in materialize(piece)] == [2.0]

    def test_unsorted_raises(self):
        records = [
            OpenRecord(time=1.0, server_id=0, open_id=1, file_id=1),
            OpenRecord(time=9.0, server_id=0, open_id=2, file_id=1),
        ]
        with pytest.raises(TraceError):
            list(split_by_duration(swapped(columns(records), 0), 5.0))

    def test_bad_duration_raises(self):
        with pytest.raises(TraceError):
            list(split_by_duration(columns([]), 0.0))

    def test_split_conserves_records(self, small_trace):
        pieces = list(split_by_duration(small_trace.columnar, 6 * 3600.0))
        assert sum(len(p) for _, p in pieces) == small_trace.record_count


class TestBsdComparison:
    def test_baseline_paging_share(self):
        assert BSD_1985.paging_share == pytest.approx(3 / 7)

    def test_build_comparisons_rows(self):
        rows = build_comparisons(
            throughput_10min_kbs=8.0,
            throughput_10s_kbs=47.0,
            opens_below_quarter_second=0.75,
            whole_file_read_fraction=0.78,
            sequential_bytes_fraction=0.92,
            read_miss_ratio=0.41,
        )
        assert len(rows) == 7
        throughput_row = rows[0]
        assert throughput_row.factor == pytest.approx(20.0)

    def test_large_file_row_optional(self):
        rows = build_comparisons(8.0, 47.0, 0.75, 0.78, 0.92, 0.41,
                                 median_large_file_bytes=1e7)
        assert len(rows) == 8
        assert rows[-1].factor == pytest.approx(10.0)

    def test_compute_gap(self):
        # Paper: compute grew 350x, throughput 20x -> gap ~17.5.
        gap = throughput_vs_compute_gap(8.0)
        assert 10.0 < gap < 25.0

    def test_zero_throughput_gap(self):
        assert throughput_vs_compute_gap(0.0) == float("inf")

    def test_render(self):
        rows = build_comparisons(8.0, 47.0, 0.75, 0.78, 0.92, 0.41)
        text = render_then_vs_now(rows)
        assert "1985" in text and "Measured" in text


class TestLatencyAnalysis:
    def test_from_cluster_result(self, cluster_result):
        analysis = analyze_paging_latency([cluster_result])
        assert analysis.paging_bytes_per_second > 0
        assert 0.0 < analysis.ethernet_utilization < 1.0
        assert analysis.remote_faster_than_disk  # 6.5 ms < 25 ms
        assert 0.0 < analysis.backing_share_of_server_traffic < 1.0

    def test_render(self, cluster_result):
        text = analyze_paging_latency([cluster_result]).render()
        assert "Ethernet" in text
        assert "Verdict" in text

    def test_empty_results(self):
        analysis = analyze_paging_latency([])
        assert analysis.paging_bytes_per_second == 0.0
        assert analysis.pages_per_client_per_second == 0.0
