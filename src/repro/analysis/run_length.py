"""Figure 1: sequential run lengths.

Two cumulative distributions over logical runs: one weighted by the
number of runs, one by the bytes the runs carry.  The paper's headline
reading: ~80% of runs move under 10 Kbytes, yet at least 10% of all
bytes move in runs longer than a megabyte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.episodes import AccessTable
from repro.common.cdf import Cdf
from repro.common.render import byte_label, render_cdf_figure
from repro.common.units import KB, MB


#: The x positions at which the figure's companion table is probed.
PROBE_VALUES: tuple[float, ...] = (
    100,
    1 * KB,
    10 * KB,
    100 * KB,
    1 * MB,
    10 * MB,
    32 * MB,
)


@dataclass
class RunLengthResult:
    """Figure 1's two CDFs."""

    by_runs: Cdf = field(default_factory=Cdf)
    by_bytes: Cdf = field(default_factory=Cdf)

    @property
    def fraction_of_runs_below_10kb(self) -> float:
        return self.by_runs.fraction_at_or_below(10 * KB)

    @property
    def fraction_of_bytes_in_runs_over_1mb(self) -> float:
        return 1.0 - self.by_bytes.fraction_at_or_below(1 * MB)

    def render(self, name: str = "pooled") -> str:
        return render_cdf_figure(
            f"Figure 1. Sequential run length ({name})",
            {"by runs": self.by_runs, "by bytes": self.by_bytes},
            xlabel="run length",
            probe_values=list(PROBE_VALUES),
            value_formatter=byte_label,
        )


def compute_run_lengths(tables: Iterable[AccessTable]) -> RunLengthResult:
    """Build the run-length CDFs from the tables' logical runs, pooled."""
    result = RunLengthResult()
    for table in tables:
        for length in table.run_length[table.run_length > 0].tolist():
            result.by_runs.add(length)
            result.by_bytes.add(length, weight=length)
    return result
