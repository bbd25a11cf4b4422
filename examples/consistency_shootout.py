#!/usr/bin/env python3
"""Cache-consistency shootout: Sections 5.5 and 5.6 end to end.

Generates the study's traces, then answers the paper's three
consistency questions:

1. How often is consistency machinery invoked at all?  (Table 10)
2. What would a weaker, NFS-style polling scheme cost users in stale
   reads, at 60-second and 3-second refresh intervals?  (Table 11)
3. What do three "real" consistency algorithms cost on the accesses to
   write-shared files -- Sprite's cache-disable scheme, a variant that
   re-enables caching as soon as sharing stops, and a token scheme?
   (Table 12)

Run:  python examples/consistency_shootout.py
"""

from repro.consistency import (
    compute_actions,
    extract_shared_activity,
    simulate_polling,
    simulate_schemes,
)
from repro.consistency.actions import render_table10
from repro.consistency.polling import render_table11
from repro.consistency.schemes import render_table12
from repro.workload import generate_standard_traces


def main() -> None:
    print("Generating the study's eight traces (scale 0.1) ...")
    traces = generate_standard_traces(scale=0.1, seed=1991)
    print(f"  {sum(t.record_count for t in traces)} records total")
    print()

    # Table 10 -- how often does Sprite act?
    actions = [compute_actions(t.columnar) for t in traces]
    print(render_table10(actions))
    print()

    # Table 11 -- what would polling cost?
    results_60 = [simulate_polling(t.columnar, 60.0, t.duration) for t in traces]
    results_3 = [simulate_polling(t.columnar, 3.0, t.duration) for t in traces]
    print(render_table11(results_60, results_3))
    print()

    # Table 12 -- scheme overheads on write-shared activity.
    comparisons = [
        simulate_schemes(extract_shared_activity(t.columnar)) for t in traces
    ]
    print(render_table12(comparisons))
    print()

    total_errors_60 = sum(r.errors for r in results_60)
    total_errors_3 = sum(r.errors for r in results_3)
    print("Takeaways (matching the paper's):")
    print(f"  * Write-sharing is rare, but a 60-s polling scheme still "
          f"produced {total_errors_60} stale reads across the traces; "
          f"3-s polling cut that to {total_errors_3} -- not zero.")
    print("  * The three consistency schemes cost about the same; pick "
          "the simplest one to implement.")


if __name__ == "__main__":
    main()
