#!/usr/bin/env python3
"""Quickstart: generate a synthetic Sprite trace and analyze it.

This walks the core public API end to end:

1. generate one of the study's eight 24-hour traces (population-scaled
   down so it runs in a couple of seconds);
2. run the Section 4 analyses on it (access patterns, run lengths,
   open times);
3. replay it through the Sprite cluster simulator and read the cache
   counters (Section 5);
4. print everything next to the paper's reported values.

Run:  python examples/quickstart.py
"""

from repro.analysis import (
    assemble_accesses,
    compute_access_patterns,
    compute_open_times,
    compute_run_lengths,
    compute_table1,
)
from repro.analysis.access_patterns import render_table3
from repro.analysis.table1 import render_table1
from repro.caching import compute_effectiveness, machine_days
from repro.fs import ClusterConfig, run_cluster_on_trace
from repro.workload import STANDARD_PROFILES, generate_trace


def main() -> None:
    # 1. One 24-hour trace at 10% of the paper's user population.
    profile = STANDARD_PROFILES[0]  # "trace1", 1/24/91
    print(f"Generating {profile.name} (scale 0.1) ...")
    trace = generate_trace(profile, seed=1991, scale=0.1)
    print(f"  {len(trace.columnar)} records from {len(trace.users)} users, "
          f"validation balanced={trace.validation.balanced}")
    print()

    # 2. Section 4 analyses.
    stats = compute_table1(trace.name, trace.columnar, trace.duration)
    print(render_table1([stats]))
    print()

    # One row per completed open..close episode, built from the columns.
    accesses = [assemble_accesses(trace.columnar)]
    print(f"  {len(accesses[0])} completed accesses")
    patterns = compute_access_patterns(accesses)
    print(render_table3(patterns, [patterns]))
    print()

    runs = compute_run_lengths(accesses)
    print(f"Sequential runs under 10 KB: "
          f"{100 * runs.fraction_of_runs_below_10kb:.1f}%  (paper: ~80%)")
    print(f"Bytes moved in runs over 1 MB: "
          f"{100 * runs.fraction_of_bytes_in_runs_over_1mb:.1f}%  (paper: >=10%)")

    opens = compute_open_times(accesses)
    print(f"Opens under a quarter second: "
          f"{100 * opens.fraction_below_quarter_second:.1f}%  (paper: ~75%)")
    print()

    # 3. Replay through the cluster simulator.
    print("Replaying through the Sprite cluster simulator ...")
    config = ClusterConfig(client_count=4)
    result = run_cluster_on_trace(trace.columnar, trace.duration, config, seed=7)
    effectiveness = compute_effectiveness(machine_days([result]))
    print(f"  read miss ratio : {100 * effectiveness.read_miss.mean:.1f}%  "
          f"(paper: 41.4%)")
    print(f"  writeback ratio : {100 * effectiveness.writeback_traffic.mean:.1f}%  "
          f"(paper: 88.4%)")
    print(f"  server recalls  : {result.server_counters.recalls_issued}")


if __name__ == "__main__":
    main()
