"""Table 4: client cache sizes.

Average size, and size *change* (max minus min) over 15-minute and
60-minute windows -- restricted, as in the paper, to windows in which
the machine was actually in use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caching.aggregate import MachineDay
from repro.common.render import format_with_spread, render_table
from repro.common.stats import RunningStat
from repro.common.units import KB


@dataclass
class CacheSizeResult:
    """Table 4's measurements."""

    size: RunningStat = field(default_factory=RunningStat)
    change_15min: RunningStat = field(default_factory=RunningStat)
    change_60min: RunningStat = field(default_factory=RunningStat)
    change_15min_max: float = 0.0
    change_60min_max: float = 0.0

    def render(self) -> str:
        rows = [
            [
                "Cache size (Kbytes)",
                format_with_spread(self.size.mean / KB, self.size.stddev / KB, 0),
            ],
            [
                "Cache size change over 15-min intervals (Kbytes)",
                format_with_spread(
                    self.change_15min.mean / KB, self.change_15min.stddev / KB, 0
                ),
            ],
            [
                "  maximum 15-min change (Kbytes)",
                f"{self.change_15min_max / KB:.0f}",
            ],
            [
                "Cache size change over 60-min intervals (Kbytes)",
                format_with_spread(
                    self.change_60min.mean / KB, self.change_60min.stddev / KB, 0
                ),
            ],
            [
                "  maximum 60-min change (Kbytes)",
                f"{self.change_60min_max / KB:.0f}",
            ],
        ]
        return render_table(
            "Table 4. Client cache sizes",
            ["Measurement", "Average (std dev)"],
            rows,
            note=(
                "Paper: average 1705 KB std 1964 over all machines; the "
                "active-machine average cache was about 7 Mbytes of 24; "
                "15-min changes averaged 493 KB (max ~22 MB)."
            ),
        )


def _window_changes(
    day: MachineDay, width: float
) -> list[float]:
    """Max-minus-min cache size per active window of the given width."""
    windows: dict[int, list[int]] = {}
    activity: dict[int, bool] = {}
    previous_opens = 0
    for snap in day.snapshots:
        index = int(snap.time // width)
        windows.setdefault(index, []).append(snap.counters.cache_size_bytes)
        opened = snap.counters.file_open_ops > previous_opens
        previous_opens = snap.counters.file_open_ops
        activity[index] = activity.get(index, False) or opened
    changes = []
    for index, sizes in windows.items():
        if len(sizes) < 2 or not activity.get(index, False):
            continue
        changes.append(float(max(sizes) - min(sizes)))
    return changes


def compute_cache_sizes(days: list[MachineDay]) -> CacheSizeResult:
    """Compute Table 4 over a set of machine-days."""
    result = CacheSizeResult()
    for day in days:
        previous_opens = 0
        for snap in day.snapshots:
            # Only sample sizes while the machine is in use, like the
            # paper's screening of idle intervals and reboots.
            if snap.counters.file_open_ops > previous_opens:
                result.size.add(float(snap.counters.cache_size_bytes))
            previous_opens = snap.counters.file_open_ops
        for change in _window_changes(day, 15 * 60.0):
            result.change_15min.add(change)
            result.change_15min_max = max(result.change_15min_max, change)
        for change in _window_changes(day, 60 * 60.0):
            result.change_60min.add(change)
            result.change_60min_max = max(result.change_60min_max, change)
    return result
