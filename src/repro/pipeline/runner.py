"""Stage execution: cache probe, process-pool fan-out, timing report.

A stage is a list of independent tasks.  :func:`run_stage` first probes
the artifact cache for each task, then runs the misses -- serially for
``workers<=1``, otherwise on a :class:`~concurrent.futures.ProcessPoolExecutor`
-- and finally stores the fresh artifacts back.  Results always come
back in task order, so a parallel stage is indistinguishable from a
serial one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Sequence

from repro.fs.cluster import ClusterResult
from repro.fs.config import ClusterConfig
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.tasks import ReplayTask, TraceTask, run_task
from repro.workload.generator import SyntheticTrace
from repro.workload.profiles import STANDARD_PROFILES, TraceProfile


def resolve_workers(workers: int | None) -> int:
    """Normalize the ``workers=`` knob: None/1 serial, 0 one per core."""
    if workers is None:
        return 1
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


@dataclass
class StageTiming:
    """One stage's entry in the pipeline report.

    ``workers`` is what the caller *asked for* (after
    :func:`resolve_workers`); ``workers_effective`` is what actually
    ran -- 0 for an all-hit stage (nothing executed), 1 when the misses
    ran serially (including the one-miss fallback of a pool request),
    and the pool size otherwise.  The old single field conflated the
    two: a ``workers=8`` stage with one miss reported ``1`` as if the
    caller had asked for serial.
    """

    stage: str
    seconds: float
    workers: int
    tasks: int
    cache_hits: int
    cache_misses: int
    workers_effective: int = 0


@dataclass
class PipelineReport:
    """Per-stage wall time and cache traffic for one context's builds."""

    stages: list[StageTiming] = field(default_factory=list)

    def record(self, timing: StageTiming) -> None:
        self.stages.append(timing)

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    @property
    def cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.stages)

    @property
    def cache_misses(self) -> int:
        return sum(s.cache_misses for s in self.stages)

    def as_dict(self) -> dict[str, Any]:
        return {
            "stages": [asdict(s) for s in self.stages],
            "totals": {
                "seconds": self.total_seconds,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
            },
        }


def run_stage(
    stage: str,
    tasks: Sequence,
    *,
    workers: int | None = 1,
    cache: ArtifactCache | None = None,
    report: PipelineReport | None = None,
) -> list:
    """Run one stage of independent tasks; results in task order."""
    start = perf_counter()
    results: list[Any] = [None] * len(tasks)
    keys: list[str | None] = [None] * len(tasks)
    misses: list[int] = []
    hits = 0
    for index, task in enumerate(tasks):
        if cache is not None:
            keys[index] = cache.key_for(task.key_fields())
            artifact = cache.load(keys[index])
            if artifact is not None:
                results[index] = artifact
                hits += 1
                continue
        misses.append(index)

    requested = resolve_workers(workers)
    pool_size = min(requested, len(misses))
    if misses:
        if pool_size <= 1:
            pool_size = 1
            for index in misses:
                results[index] = tasks[index].run()
        else:
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                futures = {
                    index: pool.submit(run_task, tasks[index])
                    for index in misses
                }
                for index in misses:
                    results[index] = futures[index].result()
        if cache is not None:
            for index in misses:
                cache.store(keys[index], results[index])

    if report is not None:
        report.record(
            StageTiming(
                stage=stage,
                seconds=perf_counter() - start,
                workers=requested,
                tasks=len(tasks),
                cache_hits=hits,
                cache_misses=len(misses),
                workers_effective=pool_size if misses else 0,
            )
        )
    return results


# --------------------------------------------------------------------------
# the two stages
# --------------------------------------------------------------------------


def trace_tasks(
    scale: float,
    seed: int,
    client_count: int,
    profiles: Sequence[TraceProfile] = STANDARD_PROFILES,
) -> list[TraceTask]:
    """The study's trace set as task specs (seed + index per trace,
    matching :func:`repro.workload.generate_standard_traces`)."""
    return [
        TraceTask(
            profile=profile,
            seed=seed + index,
            scale=scale,
            client_count=client_count,
        )
        for index, profile in enumerate(profiles)
    ]


def build_traces(
    scale: float,
    seed: int,
    client_count: int,
    profiles: Sequence[TraceProfile] = STANDARD_PROFILES,
    *,
    workers: int | None = 1,
    cache: ArtifactCache | None = None,
    report: PipelineReport | None = None,
) -> list[SyntheticTrace]:
    """Generate (or load) the eight synthetic day traces."""
    tasks = trace_tasks(scale, seed, client_count, profiles)
    return run_stage("traces", tasks, workers=workers, cache=cache, report=report)


def build_cluster_results(
    traces: Sequence[SyntheticTrace],
    tasks: Sequence[TraceTask],
    indexes: Sequence[int],
    config: ClusterConfig,
    seed: int,
    *,
    workers: int | None = 1,
    cache: ArtifactCache | None = None,
    report: PipelineReport | None = None,
) -> list[ClusterResult]:
    """Replay the selected traces through the cluster, one per worker.

    Replay seeds follow the registry's historical scheme
    (``seed + 101 * offset``) so results match the serial code exactly.
    """
    replay_tasks = [
        ReplayTask(
            trace_fields=tasks[index].key_fields(),
            group_traces=[(0, traces[index].columnar)],
            duration=traces[index].duration,
            config=config,
            seed=seed + 101 * offset,
        )
        for offset, index in enumerate(indexes)
    ]
    return run_stage(
        "replays", replay_tasks, workers=workers, cache=cache, report=report
    )
