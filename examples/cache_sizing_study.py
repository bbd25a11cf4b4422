#!/usr/bin/env python3
"""Cache sizing study: revisiting the BSD study's prediction.

The 1985 BSD study predicted a ~10% miss ratio for 4-Mbyte caches;
Sprite's measured miss ratios were about four times that, which the
authors blamed on the new population of multi-megabyte files.  This
example sweeps the client cache ceiling through the cluster simulator
and prints miss ratio and server traffic versus cache size -- the
curve the BSD study could only extrapolate.

Run:  python examples/cache_sizing_study.py
"""

from repro.caching import compute_cache_sizes, compute_effectiveness, machine_days
from repro.fs import ClusterConfig, run_cluster_on_trace
from repro.workload import STANDARD_PROFILES, generate_trace


def main() -> None:
    print("Generating a normal-workload trace ...")
    trace = generate_trace(STANDARD_PROFILES[0], seed=1991, scale=0.1)
    client_count = 4

    fractions = (0.02, 0.05, 0.10, 0.25, 0.50, 1.00)
    print()
    print(f"{'cache cap':>10} {'avg cache':>10} {'read miss':>10} "
          f"{'server/raw':>11}")
    print("-" * 45)
    for fraction in fractions:
        config = ClusterConfig(
            client_count=client_count, max_cache_fraction=fraction
        )
        result = run_cluster_on_trace(
            trace.columnar, trace.duration, config, seed=5
        )
        days = machine_days([result])
        effectiveness = compute_effectiveness(days)
        sizes = compute_cache_sizes(days)
        total_raw = sum(
            c.raw_total_bytes for c in result.final_counters.values()
        )
        total_server = sum(
            c.server_bytes for c in result.final_counters.values()
        )
        filter_ratio = total_server / total_raw if total_raw else 0.0
        print(
            f"{100 * fraction:>9.0f}% "
            f"{sizes.size.mean / 2**20:>8.1f}MB "
            f"{100 * effectiveness.read_miss.mean:>9.1f}% "
            f"{100 * filter_ratio:>10.1f}%"
        )

    print()
    print("Like the paper found: growing the cache buys hit ratio, but "
          "the multi-megabyte files keep the curve from ever reaching "
          "the BSD study's optimistic 10% prediction, and writes (which "
          "caches barely absorb) put a floor under server traffic.")


if __name__ == "__main__":
    main()
