"""The parallel trace/replay pipeline and its artifact cache.

Every entry point (the experiments registry, the CLI, the bench suite,
the examples) needs the same expensive inputs: the eight synthetic day
traces and the cluster replays.  The traces and the per-trace replays
are mutually independent, so this package

* fans the work out across worker processes (:func:`run_stage` over
  picklable task specs with deterministic per-trace seeds, so parallel
  output is identical to serial output), and
* memoizes the results in a content-addressed on-disk cache
  (:class:`ArtifactCache`) keyed by every parameter that influences the
  artifact, so repeat runs skip regeneration entirely.

The Section 4 access lists are not a stage: the experiment context
assembles them in process, once per trace, and never caches them.
"""

from repro.pipeline.cache import (
    SCHEMA_VERSION,
    ArtifactCache,
    CacheStats,
    default_cache_dir,
    resolve_cache,
)
from repro.pipeline.runner import (
    PipelineReport,
    StageTiming,
    build_cluster_results,
    build_traces,
    resolve_workers,
    run_stage,
    trace_tasks,
)
from repro.pipeline.tasks import ReplayTask, TraceTask

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactCache",
    "CacheStats",
    "default_cache_dir",
    "resolve_cache",
    "PipelineReport",
    "StageTiming",
    "build_cluster_results",
    "build_traces",
    "resolve_workers",
    "run_stage",
    "trace_tasks",
    "ReplayTask",
    "TraceTask",
]
