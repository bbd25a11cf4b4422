"""Picklable task specs for the pipeline stages.

A task carries everything a worker process needs to produce one
artifact, plus the fields that address that artifact in the cache.
Seeds are baked into the spec (one per trace, one per replay), so the
same task produces the same artifact no matter which process runs it,
in what order, or alongside what else -- parallel output is identical
to serial output by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.fs.cluster import ClusterResult, run_cluster_on_trace
from repro.fs.config import ClusterConfig
from repro.trace.columnar import ColumnarTrace
from repro.workload.generator import SyntheticTrace, generate_trace
from repro.workload.profiles import TraceProfile


@dataclass
class TraceTask:
    """Generate one synthetic day trace."""

    profile: TraceProfile
    seed: int
    scale: float
    client_count: int

    def key_fields(self) -> dict[str, Any]:
        # The full profile goes into the key, so recalibrating a knob
        # invalidates exactly the traces it affects.
        return {
            "kind": "trace",
            "profile": self.profile,
            "seed": self.seed,
            "scale": self.scale,
            "client_count": self.client_count,
        }

    def run(self) -> SyntheticTrace:
        return generate_trace(
            self.profile,
            seed=self.seed,
            scale=self.scale,
            client_count=self.client_count,
        )


@dataclass
class ReplayTask:
    """Replay one trace through a simulated cluster."""

    trace_fields: dict[str, Any]
    columnar: ColumnarTrace
    duration: float
    config: ClusterConfig
    seed: int

    def key_fields(self) -> dict[str, Any]:
        return {
            "kind": "replay",
            "trace": self.trace_fields,
            "duration": self.duration,
            "config": self.config,
            "seed": self.seed,
        }

    def run(self) -> ClusterResult:
        return run_cluster_on_trace(
            self.columnar, self.duration, self.config, seed=self.seed
        )


def run_task(task) -> Any:
    """Top-level entry point for worker processes (must be picklable)."""
    return task.run()
