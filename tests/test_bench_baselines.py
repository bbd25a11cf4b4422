"""Committed bench baselines still describe what current code runs.

``benchmarks/BENCH_scale.json`` and ``BENCH_replay.json`` are compared
against fresh measurements only by the bench legs, which tier-1 never
runs.  These tests recompute each committed row's fingerprint --
clients, groups and shards from the curve's own plan rule, and the
record count where generation is cheap -- without replaying anything,
so a change that invalidates a baseline fails here in seconds.
Regenerate the baselines with ``pytest benchmarks/test_bench_replay.py
--regen-bench`` on a clean tree (``-k scale_curve`` for the curve
alone).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.pipeline.scaleout import build_group_traces

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: Rows at or below this scale also pin their record count (generation
#: takes about a second there).
CHEAP_SCALE = 0.5


def _load_scale_curve():
    spec = importlib.util.spec_from_file_location(
        "scale_curve", BENCHMARKS / "scale_curve.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scale_curve = _load_scale_curve()
ROWS = json.loads((BENCHMARKS / "BENCH_scale.json").read_text())["rows"]
REPLAY = json.loads((BENCHMARKS / "BENCH_replay.json").read_text())

_STALE = (
    "benchmarks/BENCH_scale.json no longer matches current code; "
    "regenerate it with `pytest benchmarks/test_bench_replay.py -k "
    "scale_curve --regen-bench` on a clean tree"
)


def test_scale_baseline_covers_the_curve():
    assert [row["scale"] for row in ROWS] == list(scale_curve.SCALES), _STALE


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"scale={row['scale']}")
def test_scale_baseline_plan_fingerprint(row):
    plan = scale_curve.scale_out_plan(row["scale"])
    assert (row["clients"], row["groups"], row["shards"]) == (
        plan.client_count,
        plan.groups,
        scale_curve.shard_count(plan),
    ), _STALE
    if row["scale"] <= CHEAP_SCALE:
        records = sum(trace.record_count for trace in build_group_traces(plan))
        assert row["records"] == records, _STALE


def test_replay_baseline_fingerprint():
    """The scale=1 replay row's clients and records (generation takes
    a few seconds at this scale)."""
    scale = REPLAY["scale"]
    trace = scale_curve.replay_trace(scale)
    assert (REPLAY["clients"], REPLAY["records"]) == (
        scale_curve.clients_for(scale),
        len(trace.records),
    ), (
        "benchmarks/BENCH_replay.json no longer matches current code; "
        "regenerate it with `pytest benchmarks/test_bench_replay.py "
        "-m 'not slow' --regen-bench` on a clean tree"
    )
