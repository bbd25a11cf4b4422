"""Section 4 of the paper: the BSD study revisited.

Each module reproduces one table or figure from the trace data:

* :mod:`repro.analysis.table1` -- overall trace statistics.
* :mod:`repro.analysis.activity` -- Table 2, user activity and
  throughput over 10-minute and 10-second intervals.
* :mod:`repro.analysis.access_patterns` -- Table 3, access-type by
  sequentiality classification.
* :mod:`repro.analysis.run_length` -- Figure 1, sequential run lengths.
* :mod:`repro.analysis.file_size` -- Figure 2, dynamic file sizes.
* :mod:`repro.analysis.open_time` -- Figure 3, file open times.
* :mod:`repro.analysis.lifetime` -- Figure 4, file lifetimes.

Tables 1 and 3 and Figures 1-4 read a trace's columns (or the access
table :func:`~repro.analysis.episodes.assemble_accesses` builds from
them); Table 2 reads its records.
"""

from repro.analysis.episodes import AccessTable, assemble_accesses
from repro.analysis.table1 import TraceStatistics, compute_table1
from repro.analysis.activity import ActivityResult, compute_activity
from repro.analysis.access_patterns import (
    AccessPatternResult,
    compute_access_patterns,
)
from repro.analysis.run_length import RunLengthResult, compute_run_lengths
from repro.analysis.file_size import FileSizeResult, compute_file_sizes
from repro.analysis.open_time import OpenTimeResult, compute_open_times
from repro.analysis.lifetime import LifetimeResult, compute_lifetimes
from repro.analysis.bsd_comparison import (
    BSD_1985,
    build_comparisons,
    render_then_vs_now,
    throughput_vs_compute_gap,
)
from repro.analysis.export import write_cdf_csv

__all__ = [
    "AccessTable",
    "assemble_accesses",
    "TraceStatistics",
    "compute_table1",
    "ActivityResult",
    "compute_activity",
    "AccessPatternResult",
    "compute_access_patterns",
    "RunLengthResult",
    "compute_run_lengths",
    "FileSizeResult",
    "compute_file_sizes",
    "OpenTimeResult",
    "compute_open_times",
    "LifetimeResult",
    "compute_lifetimes",
    "BSD_1985",
    "build_comparisons",
    "render_then_vs_now",
    "throughput_vs_compute_gap",
    "write_cdf_csv",
]
