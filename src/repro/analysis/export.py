"""CSV export of figure data.

The paper's figures are CDF families; anyone replotting them (gnuplot,
matplotlib, a spreadsheet) wants the underlying (value, fraction)
points.  ``write_cdf_csv`` dumps any named family of CDFs in long form:
``curve,value,fraction``.
"""

from __future__ import annotations

import csv
import os

from repro.common.cdf import Cdf
from repro.common.errors import AnalysisError


def write_cdf_csv(
    path: str | os.PathLike[str],
    curves: dict[str, Cdf],
    max_points: int = 500,
) -> int:
    """Write a family of CDFs to ``path`` in long form.

    Returns the number of data rows written.  Empty curves are skipped
    (a CDF with no samples has no curve to plot); an entirely empty
    family is an error, since it almost certainly means the caller fed
    the wrong records in.
    """
    if not curves:
        raise AnalysisError("no curves to export")
    rows = 0
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["curve", "value", "fraction"])
        for name, cdf in curves.items():
            if cdf.count == 0:
                continue
            for point in cdf.points(max_points=max_points):
                writer.writerow([name, repr(point.value), repr(point.fraction)])
                rows += 1
    if rows == 0:
        raise AnalysisError("every curve in the family was empty")
    return rows
