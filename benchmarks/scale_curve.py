"""The replay benches' population rules, shared by the benches and their
fingerprint test.

``benchmarks/test_bench_replay.py`` measures the scale=1 replay and the
scale-out curve and gates on the committed ``BENCH_replay.json`` and
``BENCH_scale.json``; ``tests/test_bench_baselines.py`` recomputes each
committed row's fingerprint from these same rules, so a change that
invalidates a baseline fails tier-1 in seconds instead of the slow
bench legs.  Plain module (no pytest, no conftest): both suites import
it.
"""

from __future__ import annotations

from repro.pipeline.scaleout import ScaleOutPlan
from repro.workload import STANDARD_PROFILES, SyntheticTrace, generate_trace

#: The population scales the curve measures, in increasing order.
SCALES = (0.05, 0.5, 2.0, 10.0)

#: Shards cap at 4: on the bench host shards beyond the core count only
#: repeat the fixed day-simulation cost.
MAX_SHARDS = 4


def clients_for(scale: float) -> int:
    """Mirror ``ExperimentContext.client_count``."""
    return max(4, round(40 * scale))


def replay_trace(scale: float) -> SyntheticTrace:
    """The single-worker replay bench's input: trace0 at ``scale``."""
    return generate_trace(
        STANDARD_PROFILES[0], seed=1991, scale=scale,
        client_count=clients_for(scale),
    )


def scale_out_plan(scale: float) -> ScaleOutPlan:
    """The scale-out population rule mirrors the registry: the plan
    sizes the population at the *total* scale (``max(4, round(40 *
    scale))``) and splits it across ``round(scale / 0.05)`` groups, so
    ``scale=10`` means 200 groups and 400 clients."""
    return ScaleOutPlan(
        profile=STANDARD_PROFILES[0],
        seed=1991,
        scale=scale,
        groups=max(1, round(scale / 0.05)),
    )


def shard_count(plan: ScaleOutPlan) -> int:
    return min(plan.groups, MAX_SHARDS)
