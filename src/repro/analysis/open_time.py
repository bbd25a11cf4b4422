"""Figure 3: file open times.

The distribution of how long files stay open.  The paper found ~75% of
opens last under a quarter second (the BSD study's figure was half a
second; machines got ~10x faster but network opens cost 4-5x more than
local ones, so open times only halved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.analysis.episodes import AccessTable
from repro.common.cdf import Cdf
from repro.common.render import render_cdf_figure, seconds_label

PROBE_VALUES: tuple[float, ...] = (
    0.01,
    0.1,
    0.25,
    0.5,
    1.0,
    10.0,
    100.0,
    1000.0,
)


@dataclass
class OpenTimeResult:
    """Figure 3's CDF."""

    by_opens: Cdf = field(default_factory=Cdf)

    @property
    def fraction_below_quarter_second(self) -> float:
        return self.by_opens.fraction_at_or_below(0.25)

    @property
    def median_open_seconds(self) -> float:
        return self.by_opens.median()

    def render(self, name: str = "pooled") -> str:
        return render_cdf_figure(
            f"Figure 3. File open times ({name})",
            {"by opens": self.by_opens},
            xlabel="open duration",
            probe_values=list(PROBE_VALUES),
            value_formatter=seconds_label,
        )


def compute_open_times(tables: Iterable[AccessTable]) -> OpenTimeResult:
    """Build the open-time CDF from the tables' accesses, pooled."""
    result = OpenTimeResult()
    for table in tables:
        duration = table.duration
        result.by_opens.extend(np.where(duration > 0.0, duration, 0.0).tolist())
    return result
