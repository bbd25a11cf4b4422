"""Tests for the CDF figure rendering of the render module."""

import pytest

from repro.common.cdf import Cdf
from repro.common.render import render_cdf_figure


class TestCdfFigureRendering:
    def test_figure_contains_probe_rows(self):
        cdf = Cdf()
        cdf.extend([1, 10, 100, 1000])
        text = render_cdf_figure(
            "Test figure", {"curve": cdf}, xlabel="x",
            probe_values=[1, 10, 100, 1000],
        )
        assert "Test figure" in text
        assert "100.0%" in text
        assert "curve" in text

    def test_empty_curves_rejected(self):
        with pytest.raises(ValueError):
            render_cdf_figure("t", {}, "x", [1.0])

    def test_multiple_curves(self):
        a, b = Cdf(), Cdf()
        a.extend([1, 2])
        b.extend([100, 200])
        text = render_cdf_figure(
            "t", {"a": a, "b": b}, xlabel="v", probe_values=[2, 200]
        )
        assert text.count("|") >= 4  # two sparkline rows
