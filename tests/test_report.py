"""Tests for the full-report generator and the report CLI path."""

import pytest

from repro.experiments.cli import main
from repro.experiments.report import build_report, write_report


class TestReport:
    def test_build_report_contains_all_sections(self, experiment_context):
        text = build_report(experiment_context)
        for marker in (
            "SECTION 4", "SECTION 5", "CACHE CONSISTENCY", "THEN VS NOW",
            "BEYOND THE PAPER", "Table R",
            "Table 1", "Table 12", "Figure 4",
            "Paging latency and network analysis",
        ):
            assert marker in text

    def test_write_report(self, tmp_path, experiment_context):
        path = tmp_path / "report.txt"
        text = write_report(path, experiment_context)
        assert path.read_text(encoding="utf-8") == text

    @pytest.mark.slow
    def test_cli_report_option(self, tmp_path, capsys):
        path = tmp_path / "r.txt"
        exit_code = main(
            ["all", "--scale", "0.03", "--seed", "3", "--report", str(path)]
        )
        assert exit_code == 0
        assert path.exists()
        assert "wrote report" in capsys.readouterr().out


class TestFigureExport:
    def test_export_figure_data(self, tmp_path, experiment_context):
        from repro.experiments.report import export_figure_data

        from checkers import read_cdf_csv

        written = export_figure_data(tmp_path, experiment_context)
        assert len(written) == 4
        for path in written:
            curves = read_cdf_csv(path)
            assert curves
            for points in curves.values():
                fractions = [fraction for _, fraction in points]
                assert fractions == sorted(fractions)

    def test_cli_figures_dir(self, tmp_path, capsys):
        exit_code = main(
            ["figure1", "--scale", "0.03", "--seed", "3",
             "--figures-dir", str(tmp_path / "figs")]
        )
        assert exit_code == 0
        assert (tmp_path / "figs" / "figure1.csv").exists()
        assert (tmp_path / "figs" / "figure4.csv").exists()
