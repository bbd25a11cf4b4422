"""Compare two sets of end-to-end run records, e.g. parent and change.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_RUNS_DIR CHANGE_RUNS_DIR

Each directory holds ``run.py`` records (``perfbench/runs/*.json``); only
untraced runs count.  Runs of one workload and seed must carry the same
simulated-behaviour fingerprint on both sides: a speed-up is only
comparable when the simulation did exactly the same work, so differing
fingerprints make the comparison refuse (exit 2) instead of printing
numbers.  Otherwise each workload's end-to-end metrics are printed as
median and quartiles per side, with the change's median against the
base median and the bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced run records by workload."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            by_workload[record["workload"]].append(record)
    return by_workload


def fingerprints(records: list[dict]) -> dict[int, set[str]]:
    """Seed -> the fingerprints its runs carried."""
    seen: dict[int, set[str]] = defaultdict(set)
    for record in records:
        seen[record["seed"]].add(json.dumps(record["fingerprint"], sort_keys=True))
    return seen


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted(set(base) & set(change)):
        before, after = fingerprints(base[workload]), fingerprints(change[workload])
        differing = [
            seed for seed in sorted(set(before) | set(after))
            if len(before.get(seed, set()) | after.get(seed, set())) > 1
        ]
        if differing:
            print(
                f"refusing to compare {workload}: fingerprints differ at seeds "
                f"{differing} -- the simulated work changed, so host time is not "
                "comparable",
                file=sys.stderr,
            )
            return 2
        print(f"{workload}: {len(base[workload])} base runs, {len(change[workload])} change runs")
        for name, metric in bounds.items():
            b = quartiles([r["metrics"][name] for r in base[workload]])
            c = quartiles([r["metrics"][name] for r in change[workload]])
            delta = (c[1] - b[1]) / b[1]
            worse = -delta if metric["better"] == "higher" else delta
            spread = (b[2] - b[0]) / b[1]
            verdict = (
                "unresolved (base spread exceeds bound)" if spread > metric["bound"]
                else "worse beyond bound" if worse > metric["bound"]
                else "within bound"
            )
            print(
                f"  {name:14} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  "
                f"{delta:+.2%} (bound {metric['bound']:.0%}): {verdict}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
