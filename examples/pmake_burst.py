#!/usr/bin/env python3
"""Process migration and file traffic burstiness.

The paper's Section 4.1 finding: process migration (pmake fanning
compilations and simulations out to idle hosts) multiplies a user's
short-term file throughput several-fold -- one user peaked above
9.6 Mbytes/second in a 10-second window, ten times the raw Ethernet
bandwidth, which is only possible because client caches absorb the
burst.

This example generates a migration-heavy trace, computes Table 2's
interval statistics, and prints the per-interval burst distribution
for migration users versus everyone.

Run:  python examples/pmake_burst.py
"""

from repro.analysis import compute_activity
from repro.common.cdf import Cdf
from repro.common.units import KB, TEN_SECONDS
from repro.trace.records import ReadRunRecord, WriteRunRecord
from repro.workload import STANDARD_PROFILES, generate_trace


def burst_cdf(trace, migrated_only: bool) -> Cdf:
    """Per-user 10-second throughput samples (KB/s), as a CDF."""
    _, times, users, lengths, migrated = trace.select(
        (ReadRunRecord, WriteRunRecord), "time", "user_id", "length", "migrated"
    )
    by_interval: dict[tuple[int, int], int] = {}
    for time, user, length, moved in zip(
        times.tolist(), users.tolist(), lengths.tolist(), migrated.tolist()
    ):
        if migrated_only and not moved:
            continue
        key = (int(time // TEN_SECONDS), user)
        by_interval[key] = by_interval.get(key, 0) + length
    cdf = Cdf()
    for nbytes in by_interval.values():
        cdf.add(nbytes / TEN_SECONDS / KB)
    return cdf


def main() -> None:
    profile = STANDARD_PROFILES[2]  # trace3: pmake-driven simulations
    print(f"Generating {profile.name} (migration-heavy) ...")
    trace = generate_trace(profile, seed=2042, scale=0.15)

    result = compute_activity([(trace.columnar, trace.duration)])
    print()
    print(result.render())
    print()
    print(f"Migration burst factor (10-min): "
          f"{result.migration_burst_factor:.1f}x   (paper: ~6x)")
    print()

    everyone = burst_cdf(trace.columnar, migrated_only=False)
    migrated = burst_cdf(trace.columnar, migrated_only=True)
    print("Per-user 10-second throughput distribution (KB/s):")
    print(f"{'percentile':>12} {'all users':>12} {'migrated':>12}")
    for fraction in (0.5, 0.9, 0.99, 1.0):
        all_kbs = everyone.value_at_fraction(fraction)
        mig_kbs = migrated.value_at_fraction(fraction) if migrated.count else 0.0
        print(f"{100 * fraction:>11.0f}% {all_kbs:>12.1f} {mig_kbs:>12.1f}")
    print()
    print("The tail is where migration lives: a single user's pmake "
          "marshals several workstations at once.")


if __name__ == "__main__":
    main()
