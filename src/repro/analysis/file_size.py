"""Figure 2: dynamic file sizes.

The distribution of file sizes *as accessed*: each completed access
contributes the file's size at close, weighted once per access for the
top curve and by the bytes the access transferred for the bottom curve.
The paper's reading: most accesses touch short files (e.g. 42% of
trace-1 accesses were to files under a kilobyte), while most bytes come
from big ones (40% of trace-1 bytes from files of a megabyte or more).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.episodes import AccessTable
from repro.common.cdf import Cdf
from repro.common.render import byte_label, render_cdf_figure
from repro.common.units import KB, MB

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
class FileSizeResult:
    """Figure 2's two CDFs."""

    by_accesses: Cdf = field(default_factory=Cdf)
    by_bytes: Cdf = field(default_factory=Cdf)

    @property
    def fraction_of_accesses_below_10kb(self) -> float:
        return self.by_accesses.fraction_at_or_below(10 * KB)

    @property
    def fraction_of_bytes_from_files_over_1mb(self) -> float:
        return 1.0 - self.by_bytes.fraction_at_or_below(1 * MB)

    def render(self, name: str = "pooled") -> str:
        return render_cdf_figure(
            f"Figure 2. File size ({name})",
            {"by accesses": self.by_accesses, "by bytes": self.by_bytes},
            xlabel="file size",
            probe_values=list(PROBE_VALUES),
            value_formatter=byte_label,
        )


def compute_file_sizes(tables: Iterable[AccessTable]) -> FileSizeResult:
    """Build the file-size CDFs from the tables' accesses, pooled."""
    result = FileSizeResult()
    for table in tables:
        transferred = table.bytes_read + table.bytes_written
        moved = transferred != 0
        sizes, weights = table.size_at_close[moved], transferred[moved]
        for size, weight in zip(sizes.tolist(), weights.tolist()):
            result.by_accesses.add(size)
            result.by_bytes.add(size, weight=weight)
    return result
