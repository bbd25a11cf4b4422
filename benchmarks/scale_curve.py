"""The scale-out curve's plan rule, shared by the bench and its fingerprint test.

``benchmarks/test_bench_replay.py`` measures the curve and gates on the
committed ``BENCH_scale.json``; ``tests/test_bench_baselines.py``
recomputes each committed row's plan fingerprint from this same rule,
so a change that invalidates the baseline fails tier-1 in seconds
instead of the slow scale-smoke leg.  Plain module (no pytest, no
conftest): both suites import it.
"""

from __future__ import annotations

from repro.pipeline.scaleout import ScaleOutPlan
from repro.workload import STANDARD_PROFILES

#: The population scales the curve measures, in increasing order.
SCALES = (0.05, 0.5, 2.0, 10.0)

#: Shards cap at 4: on the bench host shards beyond the core count only
#: repeat the fixed day-simulation cost.
MAX_SHARDS = 4


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
