"""Benchmark: the single-worker replay hot path.

Two committed reports come out of this module (regenerate with
``--regen-bench`` after an intentional performance change):

* ``BENCH_replay.json`` -- wall clock of one scale=1 trace0 replay and
  the speedup over the recorded pre-optimization baseline.  The
  committed copy doubles as the CI smoke gate: a run whose wall clock
  regresses more than 25% over the committed figure fails.
* ``BENCH_scale.json`` -- the scale-out curve (clients x wall clock x
  peak RSS) at population scales 0.05 / 0.5 / 2 / 10, measured on
  the partitioned pipeline (columnar generation, streaming consumption,
  owned-only sharded replay + deterministic merge; DESIGN.md §15-16).
  The scale=2 point doubles as CI's scale-smoke gate
  (``test_bench_partitioned_scale2_smoke``) and the scale=10 row asserts
  the sub-2-GB peak-RSS target outright.  Each row also carries the merged per-shard construction time and shared-
  tick event count, the owned-only overheads worth watching at scale.

Both record :func:`conftest.calibration_seconds` as context: on a much
slower machine the gate will trip spuriously -- compare the calibration
figures to tell a machine change from a real regression, then rebase
with ``--regen-bench``.
"""

from __future__ import annotations

import gc
import resource
import time

import pytest

from repro.fs import ClusterConfig, run_cluster_on_trace
from repro.pipeline.scaleout import build_group_traces, run_partitioned_replay

from conftest import calibration_seconds, load_bench_json, write_bench_json
from repro.workload.profiles import scaled_client_count
from scale_curve import SCALES, replay_trace, scale_out_plan, shard_count

#: Pre-optimization baseline: commit f33387b (before the hot-path
#: rewrite), same trace0 replay at scale=1.  Median of four runs
#: interleaved with the optimized tree on the same host, so both sides
#: saw the same load; ``calibration_seconds`` recorded alongside makes
#: the ratio transferable across machines.
BASELINE = {
    "commit": "f33387b",
    "wall_seconds": 25.4,
    "calibration_seconds": 0.0880,
}

#: The gate: fail when wall clock exceeds the committed report's by
#: more than this factor.
MAX_REGRESSION = 1.25

#: The tentpole target: replay at least this many times faster than the
#: pre-optimization baseline.
MIN_SPEEDUP = 5.0


def _replay_once(scale: float) -> dict:
    """Generate trace0 at ``scale`` and time one single-worker replay."""
    clients = scaled_client_count(scale)
    trace = replay_trace(scale)
    config = ClusterConfig(client_count=clients)
    gc.collect()
    start = time.perf_counter()
    result = run_cluster_on_trace(trace.columnar, trace.duration, config)
    wall = time.perf_counter() - start
    assert len(result.final_counters) == clients
    return {
        "scale": scale,
        "clients": clients,
        "records": trace.record_count,
        "wall_seconds": round(wall, 3),
        "records_per_second": round(trace.record_count / wall),
    }


@pytest.fixture(scope="module")
def regen_bench(request) -> bool:
    return request.config.getoption("--regen-bench")


def test_bench_replay_scale1(regen_bench):
    """Time the scale=1 replay; gate against the committed report."""
    # Best of five: co-tenant noise on a small host can inflate a single
    # run by 30%, and noise episodes last long enough to cover adjacent
    # runs -- the minimum of five is the stable "quiet window" figure.
    runs = [_replay_once(1.0) for _ in range(5)]
    best = min(runs, key=lambda r: r["wall_seconds"])
    wall = best["wall_seconds"]
    speedup = BASELINE["wall_seconds"] / wall
    report = {
        **best,
        "calibration_seconds": round(calibration_seconds(), 4),
        "baseline": BASELINE,
        "speedup_vs_baseline": round(speedup, 2),
    }
    print(
        f"\nreplay scale=1: {wall:.2f}s wall, "
        f"{best['records_per_second']:,} records/s, "
        f"{speedup:.1f}x over baseline"
    )

    if regen_bench:
        # A report may only be committed if it meets the tentpole
        # target; reruns then gate against the committed copy, which
        # tolerates run-to-run noise without diluting the target.
        assert speedup >= MIN_SPEEDUP, (
            f"refusing to commit a report at {speedup:.2f}x; the target "
            f"is {MIN_SPEEDUP}x ({wall:.2f}s wall vs the "
            f"{BASELINE['wall_seconds']}s baseline)"
        )
        write_bench_json("BENCH_replay.json", report)
        return
    committed = load_bench_json("BENCH_replay.json")
    assert committed is not None, (
        "benchmarks/BENCH_replay.json is missing; run "
        "pytest benchmarks/test_bench_replay.py --regen-bench to create it"
    )
    assert committed["speedup_vs_baseline"] >= MIN_SPEEDUP
    ratio = wall / committed["wall_seconds"]
    assert ratio <= MAX_REGRESSION, (
        f"replay wall clock regressed {ratio:.2f}x vs the committed report "
        f"({wall:.2f}s now vs {committed['wall_seconds']}s committed; limit "
        f"{MAX_REGRESSION}x).  Check the calibration_seconds figures first "
        "-- a much slower machine trips this too; if the change is "
        "intentional, regenerate with --regen-bench and commit the diff."
    )


#: Hard ceiling from the scale-out acceptance bar: the scale=10
#: partitioned replay must complete under 2 GB peak RSS.
MAX_SCALE10_RSS_MB = 2048


def _partitioned_replay_once(scale: float) -> dict:
    """Columnar generation + partitioned streaming replay at ``scale``."""
    plan = scale_out_plan(scale)
    shards = shard_count(plan)
    gc.collect()
    start = time.perf_counter()
    traces = build_group_traces(plan)
    gen_wall = time.perf_counter() - start
    records = sum(trace.record_count for trace in traces)
    start = time.perf_counter()
    result = run_partitioned_replay(plan, traces, shards=shards)
    replay_wall = time.perf_counter() - start
    assert result.records_replayed == records
    return {
        "scale": scale,
        "groups": plan.groups,
        "shards": shards,
        "clients": plan.client_count,
        "records": records,
        "generate_seconds": round(gen_wall, 3),
        "wall_seconds": round(replay_wall, 3),
        "records_per_second": round(records / replay_wall),
        # Owned-only overheads, summed over shards by the merge: time
        # spent building machines, and shared-ticker timer firings.
        "construction_seconds": round(result.construction_seconds, 3),
        "tick_events": result.tick_events,
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
    }


@pytest.mark.slow
def test_bench_replay_scale_curve(regen_bench):
    """The scale-out curve: clients x wall x peak RSS through scale=10,
    on the partitioned pipeline (columnar + streaming + owned-only
    sharded)."""
    rows = []
    # Increasing order on purpose: ru_maxrss is a process-lifetime peak,
    # so each row's figure is dominated by its own (largest-yet) run.
    for scale in SCALES:
        row = _partitioned_replay_once(scale)
        rows.append(row)
        print(
            f"\nscale={scale}: {row['clients']} clients in "
            f"{row['groups']} groups, {row['records']:,} records, "
            f"gen {row['generate_seconds']:.2f}s + replay "
            f"{row['wall_seconds']:.2f}s (construction "
            f"{row['construction_seconds']:.2f}s, "
            f"{row['tick_events']:,} ticks), "
            f"peak RSS {row['peak_rss_mb']} MB"
        )
    report = {
        "calibration_seconds": round(calibration_seconds(), 4),
        "rss_note": (
            "peak_rss_mb is the process peak after that run; scales are "
            "measured in increasing order so each row reflects its own run"
        ),
        "rows": rows,
    }

    # Work and cost grow with scale, and the tentpole target holds: the
    # scale=10 population (400 clients) stays under the 2 GB peak-RSS
    # bar.
    for smaller, larger in zip(rows, rows[1:]):
        assert smaller["records"] < larger["records"]
        assert smaller["wall_seconds"] < larger["wall_seconds"]
    scale10 = next(r for r in rows if r["scale"] == 10.0)
    assert scale10["clients"] >= 400
    assert scale10["peak_rss_mb"] < MAX_SCALE10_RSS_MB

    if regen_bench:
        write_bench_json("BENCH_scale.json", report)
        return
    committed = load_bench_json("BENCH_scale.json")
    assert committed is not None, (
        "benchmarks/BENCH_scale.json is missing; run "
        "pytest benchmarks/test_bench_replay.py --regen-bench to create it"
    )
    assert [r["scale"] for r in committed["rows"]] == [
        r["scale"] for r in rows
    ]


@pytest.mark.slow
def test_bench_partitioned_scale2_smoke():
    """CI's scale-smoke gate: one scale=2 partitioned replay must stay
    under the wall-clock and peak-RSS thresholds committed in
    BENCH_scale.json.  Marked slow so the bench-smoke job's
    ``-m "not slow"`` skips it; the dedicated scale-smoke leg selects
    it by name (``-k partitioned_scale2``)."""
    committed = load_bench_json("BENCH_scale.json")
    assert committed is not None, (
        "benchmarks/BENCH_scale.json is missing; run "
        "pytest benchmarks/test_bench_replay.py --regen-bench to create it"
    )
    baseline = next(r for r in committed["rows"] if r["scale"] == 2.0)
    row = _partitioned_replay_once(2.0)
    print(
        f"\nscale=2 smoke: gen {row['generate_seconds']:.2f}s + replay "
        f"{row['wall_seconds']:.2f}s (committed {baseline['wall_seconds']}s), "
        f"peak RSS {row['peak_rss_mb']} MB "
        f"(committed {baseline['peak_rss_mb']} MB)"
    )
    assert row["clients"] == baseline["clients"]
    assert row["records"] == baseline["records"]  # seeded -- exact
    ratio = row["wall_seconds"] / baseline["wall_seconds"]
    assert ratio <= 2.0, (
        f"scale=2 partitioned replay regressed {ratio:.2f}x vs the "
        f"committed row ({row['wall_seconds']:.2f}s now vs "
        f"{baseline['wall_seconds']}s committed).  Check the "
        "calibration_seconds figures first -- a much slower machine "
        "trips this too; if intentional, rebase with --regen-bench."
    )
    assert row["peak_rss_mb"] <= baseline["peak_rss_mb"] * 1.5, (
        f"scale=2 partitioned replay peak RSS {row['peak_rss_mb']} MB "
        f"exceeds 1.5x the committed {baseline['peak_rss_mb']} MB"
    )
