"""Figure 4: file lifetimes.

Lifetimes are measured when files are deleted (truncation to zero counts
as deletion) and estimated from the ages of the file's oldest and newest
bytes, exactly as in Section 4.3:

* per-file (top graph): the lifetime is the average of the oldest and
  newest byte ages;
* per-byte (bottom graph): the file is assumed to have been written
  sequentially, so byte age varies linearly from the newest-byte age to
  the oldest-byte age across the file; each deleted file contributes its
  size in byte-weight spread uniformly over that age span.

The paper's headline numbers: 65-80% of deleted files lived under
30 seconds (Sprite's write-back delay), but those files are small --
only 4-27% of deleted *bytes* were under 30 seconds old.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.common.cdf import Cdf
from repro.common.render import render_cdf_figure, seconds_label
from repro.common.units import DAY
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import DeleteRecord, TruncateRecord

PROBE_VALUES: tuple[float, ...] = (
    1.0,
    10.0,
    30.0,
    100.0,
    360.0,
    1000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
)

#: How many evenly spaced samples approximate the linear byte-age span
#: of one deleted file in the per-byte CDF.
_BYTE_SPAN_SAMPLES = 8


@dataclass
class LifetimeResult:
    """Figure 4's two CDFs."""

    by_files: Cdf = field(default_factory=Cdf)
    by_bytes: Cdf = field(default_factory=Cdf)
    #: Deleted files never written during the trace: their byte ages are
    #: unknown, so they cannot contribute a lifetime estimate.
    unknown_lifetime_deletes: int = 0

    def add(self, time: float, size: int, oldest: float, newest: float) -> None:
        """Add one deletion (or truncation to zero) at ``time`` of
        ``size`` bytes written between ``oldest`` and ``newest``."""
        if oldest < 0 or size <= 0:
            self.unknown_lifetime_deletes += 1
            return
        oldest_age = time - oldest
        newest_age = time - newest
        if oldest_age < 0 or newest_age < 0:
            self.unknown_lifetime_deletes += 1
            return
        self.by_files.add((oldest_age + newest_age) / 2.0)
        # Byte ages run linearly from newest (end of file) to oldest
        # (start of file) under the sequential-write assumption.
        if oldest_age == newest_age:
            self.by_bytes.add(oldest_age, weight=size)
        else:
            step_weight = size / _BYTE_SPAN_SAMPLES
            for step in range(_BYTE_SPAN_SAMPLES):
                fraction = (step + 0.5) / _BYTE_SPAN_SAMPLES
                age = newest_age + fraction * (oldest_age - newest_age)
                self.by_bytes.add(age, weight=step_weight)

    @property
    def fraction_of_files_under_30s(self) -> float:
        return self.by_files.fraction_at_or_below(30.0)

    @property
    def fraction_of_bytes_under_30s(self) -> float:
        return self.by_bytes.fraction_at_or_below(30.0)

    def render(self, name: str = "pooled") -> str:
        return render_cdf_figure(
            f"Figure 4. File lifetimes ({name})",
            {"by files": self.by_files, "by bytes": self.by_bytes},
            xlabel="lifetime",
            probe_values=[p for p in PROBE_VALUES if p <= 2 * DAY],
            value_formatter=seconds_label,
        )


_FIELDS = ("time", "size", "oldest_byte_time", "newest_byte_time")


def compute_lifetimes(traces: Iterable[ColumnarTrace]) -> LifetimeResult:
    """Build the lifetime CDFs from the traces' deletions and
    truncations, pooled, in stream order."""
    result = LifetimeResult()
    for trace in traces:
        deletes = trace.select(DeleteRecord, *_FIELDS)
        truncates = trace.select(TruncateRecord, *_FIELDS)
        merged = [np.concatenate(pair) for pair in zip(deletes, truncates)]
        order = np.argsort(merged[0], kind="stable")
        for row in zip(*(column[order].tolist() for column in merged[1:])):
            result.add(*row)
    return result
