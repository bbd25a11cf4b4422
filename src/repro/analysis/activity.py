"""Table 2: user activity and file throughput.

Each trace is divided into 10-minute and 10-second intervals.  A user is
active in an interval if any of their trace records falls inside it; the
per-user throughput of an interval is the bytes they transferred during
it divided by the interval width.  The migration column repeats the
computation considering only records produced by migrated processes.

All traces are pooled, as in the paper (Table 2 reports single numbers
across the eight traces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.common.render import format_with_spread, render_table
from repro.common.stats import RunningStat
from repro.common.units import KB, TEN_MINUTES, TEN_SECONDS
from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace
from repro.trace.records import ReadRunRecord, WriteRunRecord


@dataclass
class IntervalScaleResult:
    """Table 2's measurements for one interval width and one user class."""

    interval_width: float
    #: Mean/max of the per-interval active-user count (empty intervals in
    #: the trace duration count as zero).
    average_active_users: float = 0.0
    active_users_stddev: float = 0.0
    maximum_active_users: int = 0
    #: Mean/sd over user-intervals of per-user throughput (Kbytes/sec).
    average_throughput_kbs: float = 0.0
    throughput_stddev_kbs: float = 0.0
    #: Largest single user-interval throughput (Kbytes/sec).
    peak_user_throughput_kbs: float = 0.0
    #: Largest whole-interval total throughput (Kbytes/sec).
    peak_total_throughput_kbs: float = 0.0


@dataclass
class ActivityResult:
    """The full Table 2: two interval widths x (all users, migration)."""

    ten_minute_all: IntervalScaleResult = field(
        default_factory=lambda: IntervalScaleResult(TEN_MINUTES)
    )
    ten_minute_migrated: IntervalScaleResult = field(
        default_factory=lambda: IntervalScaleResult(TEN_MINUTES)
    )
    ten_second_all: IntervalScaleResult = field(
        default_factory=lambda: IntervalScaleResult(TEN_SECONDS)
    )
    ten_second_migrated: IntervalScaleResult = field(
        default_factory=lambda: IntervalScaleResult(TEN_SECONDS)
    )

    @property
    def migration_burst_factor(self) -> float:
        """How much higher migration throughput is than overall (the
        paper reports ~6-7x at 10-minute granularity)."""
        if self.ten_minute_all.average_throughput_kbs == 0:
            return 0.0
        return (
            self.ten_minute_migrated.average_throughput_kbs
            / self.ten_minute_all.average_throughput_kbs
        )

    def render(self) -> str:
        rows = []
        for width_label, all_r, mig_r in (
            ("10-minute", self.ten_minute_all, self.ten_minute_migrated),
            ("10-second", self.ten_second_all, self.ten_second_migrated),
        ):
            rows.extend(
                [
                    [
                        f"[{width_label}] Average number of active users",
                        format_with_spread(
                            all_r.average_active_users, all_r.active_users_stddev, 2
                        ),
                        format_with_spread(
                            mig_r.average_active_users, mig_r.active_users_stddev, 2
                        ),
                    ],
                    [
                        f"[{width_label}] Maximum number of active users",
                        str(all_r.maximum_active_users),
                        str(mig_r.maximum_active_users),
                    ],
                    [
                        f"[{width_label}] Avg throughput/active user (KB/s)",
                        format_with_spread(
                            all_r.average_throughput_kbs,
                            all_r.throughput_stddev_kbs,
                            1,
                        ),
                        format_with_spread(
                            mig_r.average_throughput_kbs,
                            mig_r.throughput_stddev_kbs,
                            1,
                        ),
                    ],
                    [
                        f"[{width_label}] Peak user throughput (KB/s)",
                        f"{all_r.peak_user_throughput_kbs:.0f}",
                        f"{mig_r.peak_user_throughput_kbs:.0f}",
                    ],
                    [
                        f"[{width_label}] Peak total throughput (KB/s)",
                        f"{all_r.peak_total_throughput_kbs:.0f}",
                        f"{mig_r.peak_total_throughput_kbs:.0f}",
                    ],
                ]
            )
        return render_table(
            "Table 2. User activity",
            ["Measurement", "All Users", "Users with Migrated Processes"],
            rows,
        )


class _ScaleAccumulator:
    """Pools one interval width + user class across traces."""

    def __init__(self, width: float, migrated_only: bool) -> None:
        self.width = width
        self.migrated_only = migrated_only
        self.active_user_counts = RunningStat()
        self.user_throughput = RunningStat()
        self.peak_user = 0.0
        self.peak_total = 0.0
        self.max_active = 0

    def consume(
        self,
        times: np.ndarray,
        users: np.ndarray,
        migrated: np.ndarray,
        nbytes: np.ndarray,
        duration: float,
    ) -> None:
        """Fold in one trace, given per-record time, user, migrated flag
        and transferred bytes (0 outside read and write runs)."""
        keep = users >= 0
        if self.migrated_only:
            keep &= migrated
        # Interval index exactly as ``int(time // width)``.
        index = (times[keep] // self.width).astype(np.int64)
        users = users[keep]
        # One key per (interval, user) pair; ``first`` is where the pair
        # first appears in the stream.
        span = int(users.max()) + 1 if len(users) else 1
        keys, first, inverse = np.unique(
            index * span + users, return_index=True, return_inverse=True
        )
        totals = np.zeros(len(keys), dtype=np.int64)
        np.add.at(totals, inverse, nbytes[keep])
        order = np.argsort(first, kind="stable")
        # Intervals in first-appearance order, each with its users added
        # in first-appearance order: the same dict and set layouts a
        # record-by-record sweep builds, so the sets iterate alike.
        active: dict[int, set[int]] = {}
        user_bytes: dict[int, dict[int, int]] = {}
        for key, total in zip(keys[order].tolist(), totals[order].tolist()):
            interval, user = divmod(key, span)
            users_of = active.get(interval)
            if users_of is None:
                users_of = active[interval] = set()
                user_bytes[interval] = {}
            users_of.add(user)
            user_bytes[interval][user] = total

        total_intervals = max(1, int(duration // self.width))
        occupied = 0
        for interval, users_of in active.items():
            count = len(users_of)
            self.active_user_counts.add(float(count))
            self.max_active = max(self.max_active, count)
            occupied += 1
            interval_bytes = 0
            per_user = user_bytes[interval]
            for user in users_of:
                nbytes = per_user[user]
                kbs = nbytes / self.width / KB
                self.user_throughput.add(kbs)
                self.peak_user = max(self.peak_user, kbs)
                interval_bytes += nbytes
            self.peak_total = max(
                self.peak_total, interval_bytes / self.width / KB
            )
        # Intervals with no active user count as zero users.
        self.active_user_counts.add(0.0, max(0, total_intervals - occupied))

    def result(self) -> IntervalScaleResult:
        return IntervalScaleResult(
            interval_width=self.width,
            average_active_users=self.active_user_counts.mean,
            active_users_stddev=self.active_user_counts.stddev,
            maximum_active_users=self.max_active,
            average_throughput_kbs=self.user_throughput.mean,
            throughput_stddev_kbs=self.user_throughput.stddev,
            peak_user_throughput_kbs=self.peak_user,
            peak_total_throughput_kbs=self.peak_total,
        )


def compute_activity(
    traces: Iterable[tuple[ColumnarTrace, float]],
) -> ActivityResult:
    """Compute Table 2 over a pool of (trace, duration) pairs."""
    accumulators = {
        ("10m", False): _ScaleAccumulator(TEN_MINUTES, migrated_only=False),
        ("10m", True): _ScaleAccumulator(TEN_MINUTES, migrated_only=True),
        ("10s", False): _ScaleAccumulator(TEN_SECONDS, migrated_only=False),
        ("10s", True): _ScaleAccumulator(TEN_SECONDS, migrated_only=True),
    }
    for trace, duration in traces:
        _, users, migrated = trace.select(RECORD_CLASSES, "user_id", "migrated")
        nbytes = np.zeros(len(trace), dtype=np.int64)
        runs, lengths = trace.select((ReadRunRecord, WriteRunRecord), "length")
        nbytes[runs] = lengths
        for accumulator in accumulators.values():
            accumulator.consume(trace.times, users, migrated, nbytes, duration)

    result = ActivityResult()
    result.ten_minute_all = accumulators[("10m", False)].result()
    result.ten_minute_migrated = accumulators[("10m", True)].result()
    result.ten_second_all = accumulators[("10s", False)].result()
    result.ten_second_migrated = accumulators[("10s", True)].result()
    return result
