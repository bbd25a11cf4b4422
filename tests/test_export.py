"""Tests for the CSV figure export."""

import pytest

from repro.analysis.export import write_cdf_csv
from repro.common.cdf import Cdf
from repro.common.errors import AnalysisError

from checkers import read_cdf_csv


def make_cdf(values):
    cdf = Cdf()
    cdf.extend(values)
    return cdf


class TestCdfCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "figure.csv"
        curves = {"by runs": make_cdf([1, 2, 3]), "by bytes": make_cdf([10])}
        rows = write_cdf_csv(path, curves)
        assert rows == 4
        back = read_cdf_csv(path)
        assert set(back) == {"by runs", "by bytes"}
        assert back["by runs"][-1] == (3.0, 1.0)

    def test_fractions_monotone(self, tmp_path):
        path = tmp_path / "figure.csv"
        write_cdf_csv(path, {"c": make_cdf(range(100))})
        points = read_cdf_csv(path)["c"]
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)

    def test_downsampling(self, tmp_path):
        path = tmp_path / "figure.csv"
        rows = write_cdf_csv(path, {"c": make_cdf(range(10_000))},
                             max_points=50)
        assert rows <= 50

    def test_empty_family_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            write_cdf_csv(tmp_path / "x.csv", {})

    def test_all_empty_curves_raise(self, tmp_path):
        with pytest.raises(AnalysisError):
            write_cdf_csv(tmp_path / "x.csv", {"empty": Cdf()})

    def test_empty_curve_skipped(self, tmp_path):
        path = tmp_path / "figure.csv"
        write_cdf_csv(path, {"full": make_cdf([1]), "empty": Cdf()})
        assert set(read_cdf_csv(path)) == {"full"}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(AnalysisError):
            read_cdf_csv(path)

    def test_export_real_figure(self, tmp_path, small_trace):
        from repro.analysis import assemble_accesses, compute_run_lengths

        result = compute_run_lengths([assemble_accesses(small_trace.columnar)])
        path = tmp_path / "figure1.csv"
        rows = write_cdf_csv(
            path, {"by runs": result.by_runs, "by bytes": result.by_bytes}
        )
        assert rows > 100
