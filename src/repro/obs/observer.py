"""The observation hub: one object wiring sampler, tracer, histograms.

An :class:`Observation` is attached to a cluster before replay; every
instrumented component (engine, clients, server, RPC transports, fault
injector, oracle) then mirrors its activity into the three sinks:

* the :class:`~repro.obs.sampler.CounterSampler` timeseries,
* the :class:`~repro.obs.tracer.TraceRecorder` event trace,
* the :class:`~repro.obs.histograms.LatencyHistograms`.

**Inert-by-default contract.**  Every hook in the instrumented modules
is guarded by ``if obs is not None`` (or an equivalent attribute check)
and the obs layer itself never draws randomness and never writes any
simulation counter.  With obs off nothing changes; with obs on the
replay's final counters are identical to an unobserved run -- the layer
reads, it never steers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.fs.faults import FaultKind
from repro.obs.histograms import LatencyHistograms
from repro.obs.sampler import CounterSampler, CounterTimeseries
from repro.obs.tracer import SERVER_PID, TraceRecorder, client_pid, server_pid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fs.cluster import Cluster
    from repro.fs.faults import FaultEvent


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs (the CLI's ``--obs*`` flags)."""

    #: Simulated seconds between counter samples (the paper's
    #: "regular intervals"; its sampler ran on the order of minutes).
    sample_interval: float = 60.0
    #: Trace-event buffer cap; past it, events are counted as dropped.
    max_trace_events: int = 1_000_000


class Observation:
    """All observability state for one replay."""

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config or ObsConfig()
        self.tracer = TraceRecorder(self.config.max_trace_events)
        self.latencies = LatencyHistograms()
        self.sampler = CounterSampler(
            self.config.sample_interval, on_sample=self._trace_sample
        )
        self.engine_events_fired = 0
        self.oracle_checks: dict[str, int] = {}
        self.oracle_violations = 0
        self._attached = False
        self._finalized_at: float | None = None
        self._engine = None  # set at attach; clock for unstamped hooks

    @property
    def timeseries(self) -> CounterTimeseries:
        return self.sampler.timeseries

    # --- wiring -----------------------------------------------------------

    def attach(self, cluster: "Cluster") -> None:
        """Hook every instrumented component of ``cluster``."""
        if self._attached:
            raise RuntimeError("observation already attached to a cluster")
        self._attached = True
        self._engine = cluster.engine
        cluster.engine.attach_observer(self)
        servers = list(cluster.servers)
        # Name servers by the *cluster's* server count, not by how many
        # this instance holds: an owned-only shard with one server of a
        # multi-server cluster must still sample "server-<id>", so its
        # series merge against the unpartitioned reference by name.
        if cluster.config.num_servers == 1:
            self.tracer.name_machine(SERVER_PID, "server")
            server_names = ["server"]
        else:
            server_names = []
            for server in servers:
                name = f"server-{server.server_id}"
                self.tracer.name_machine(server_pid(server.server_id), name)
                server_names.append(name)
        for server in servers:
            server.obs = self
        for client in cluster.clients:
            self.tracer.name_machine(
                client_pid(client.client_id), f"client-{client.client_id}"
            )
            client.obs = self
            for transport in client.transports:
                transport.obs = self
        if cluster.oracle is not None:
            cluster.oracle.obs = self
        if cluster.replication is not None:
            cluster.replication.obs = self
        if cluster.integrity is not None:
            cluster.integrity.obs = self
        self.sampler.attach(
            cluster.engine, cluster.clients, servers,
            ticker=cluster.shared_ticker(self.config.sample_interval),
            server_names=server_names,
        )

    def finalize(self, now: float) -> None:
        """Close the run: take the final counter sample."""
        self.sampler.finalize(now)
        self._finalized_at = now

    # --- engine -------------------------------------------------------------

    def on_engine_event(self, time: float) -> None:
        self.engine_events_fired += 1

    def _trace_sample(self, now: float) -> None:
        """Mirror key gauges of each sample into counter trace events."""
        for series in self.timeseries.client_series():
            client_id = int(series.machine.split("-", 1)[1])
            row = series.rows[-1]
            self.tracer.counter(
                now, client_pid(client_id), "cache", {
                    "cache_bytes": row[series.fields.index("cache_size_bytes")],
                    "dirty_blocks": row[
                        series.fields.index("dirty_blocks_resident")
                    ],
                },
            )
        for series in self.timeseries.server_series():
            if series.machine == "server":
                pid = SERVER_PID
            else:
                pid = server_pid(int(series.machine.split("-", 1)[1]))
            self.tracer.counter(
                now, pid, "rpc", {
                    "rpc_count": series.rows[-1][
                        series.fields.index("rpc_count")
                    ],
                },
            )

    # --- RPC ----------------------------------------------------------------

    def on_rpc_call(
        self, now: float, client_id: int, op: str,
        round_trip: float, retransmits: int,
    ) -> None:
        self.latencies.add("rpc_round_trip_seconds", round_trip)
        self.tracer.span(
            now, round_trip, client_pid(client_id), "rpc", f"rpc:{op}",
            args={"retransmits": retransmits} if retransmits else None,
        )

    def on_rpc_retransmit(
        self, now: float, client_id: int, op: str, attempt: int
    ) -> None:
        self.tracer.instant(
            now, client_pid(client_id), "rpc", f"retransmit:{op}",
            args={"attempt": attempt},
        )

    def on_rpc_reply_lost(self, now: float, client_id: int, op: str) -> None:
        self.tracer.instant(
            now, client_pid(client_id), "rpc", f"reply_lost:{op}"
        )

    # --- cache --------------------------------------------------------------

    def on_block_fetch(
        self, now: float, client_id: int, file_id: int, index: int,
        nbytes: int,
    ) -> None:
        self.tracer.instant(
            now, client_pid(client_id), "cache", "block_fetch",
            args={"file": file_id, "block": index, "bytes": nbytes},
        )

    def on_writeback(
        self, now: float, client_id: int, reason: str, age: float,
        nbytes: int,
    ) -> None:
        self.latencies.add("writeback_age_seconds", age)
        self.tracer.instant(
            now, client_pid(client_id), "cache", f"writeback:{reason}",
            args={"age_s": round(age, 6), "bytes": nbytes},
        )

    def on_evict(
        self, now: float, client_id: int, reason: str, age: float
    ) -> None:
        self.tracer.instant(
            now, client_pid(client_id), "cache", f"evict:{reason}",
            args={"age_s": round(age, 6)},
        )

    # --- consistency ----------------------------------------------------------

    def on_recall(
        self, now: float, writer_id: int, file_id: int, opener_id: int
    ) -> None:
        self.tracer.instant(
            now, SERVER_PID, "consistency", "recall",
            args={"writer": writer_id, "file": file_id, "opener": opener_id},
        )

    def on_cacheability_change(self, file_id: int, cacheable: bool) -> None:
        # The server's cacheability switch carries no timestamp; read
        # the engine clock (the hub never runs detached from one).
        now = self._engine.now if self._engine is not None else 0.0
        self.tracer.instant(
            now, SERVER_PID, "consistency",
            "cache_enable" if cacheable else "cache_disable",
            args={"file": file_id},
        )

    # --- faults ---------------------------------------------------------------

    def on_stall(
        self, now: float, client_id: int, seconds: float, why: str
    ) -> None:
        self.latencies.add("recovery_stall_seconds", seconds)
        self.tracer.span(
            now, seconds, client_pid(client_id), "fault", f"stall:{why}"
        )

    def _fault_pid(self, event: "FaultEvent") -> int:
        # Keyed on the kind, not the sign of the target: a server crash
        # in a sharded cluster legitimately targets a server id >= 0,
        # which must not be mistaken for a client.
        if event.kind is FaultKind.SERVER_CRASH:
            return server_pid(0 if event.target < 0 else event.target)
        return client_pid(event.target)

    def on_fault_armed(self, event: "FaultEvent") -> None:
        self.tracer.instant(
            event.time, self._fault_pid(event), "fault",
            f"armed:{event.kind.value}",
            args={"duration_s": event.duration},
        )

    def on_fault_fired(self, now: float, event: "FaultEvent") -> None:
        self.tracer.span(
            now, event.duration, self._fault_pid(event), "fault",
            f"outage:{event.kind.value}",
        )

    def on_fault_recovered(self, now: float, kind: str, target: int) -> None:
        if kind == "server_crash":
            # The cluster encodes the recovered shard as -1 - server_id
            # (so a classic single-server cluster still reports -1).
            pid = server_pid(-1 - target if target < 0 else target)
        else:
            pid = client_pid(target)
        self.tracer.instant(now, pid, "fault", f"recovered:{kind}")

    # --- replication -------------------------------------------------------------

    def on_failure_detected(
        self, now: float, server_id: int, missed_beats: int
    ) -> None:
        self.tracer.instant(
            now, server_pid(server_id), "replication", "declared-dead",
            args={"missed_beats": missed_beats},
        )

    def on_rereplication(
        self, now: float, dead_id: int, target_id: int,
        file_id: int, blocks: int,
    ) -> None:
        self.tracer.instant(
            now, server_pid(target_id), "replication", "rereplicated",
            args={"from_dead": dead_id, "file": file_id, "blocks": blocks},
        )

    # --- integrity --------------------------------------------------------------

    def on_disk_fault(self, now: float, server_id: int, kind: str) -> None:
        self.tracer.instant(
            now, server_pid(server_id), "integrity", f"disk-fault:{kind}"
        )

    def on_checksum_failure(
        self, now: float, server_id: int, file_id: int, index: int, where: str
    ) -> None:
        self.tracer.instant(
            now, server_pid(server_id), "integrity", "checksum-failure",
            args={"file": file_id, "block": index, "where": where},
        )

    def on_integrity_repair(
        self, now: float, server_id: int, file_id: int,
        index: int, source_id: int,
    ) -> None:
        self.tracer.instant(
            now, server_pid(server_id), "integrity", "repaired",
            args={"file": file_id, "block": index, "from": source_id},
        )

    def on_block_declared_lost(
        self, now: float, server_id: int, file_id: int, index: int
    ) -> None:
        self.tracer.instant(
            now, server_pid(server_id), "integrity", "declared-lost",
            args={"file": file_id, "block": index},
        )

    def on_scrub(
        self, now: float, server_id: int, checked: int, detected: int
    ) -> None:
        self.tracer.instant(
            now, server_pid(server_id), "integrity", "scrub",
            args={"checked": checked, "detected": detected},
        )

    # --- oracle -----------------------------------------------------------------

    def on_oracle_check(
        self, now: float, kind: str, client_id: int, what: str
    ) -> None:
        self.oracle_checks[kind] = self.oracle_checks.get(kind, 0) + 1
        self.tracer.instant(
            now, client_pid(client_id), "oracle", f"check:{kind}",
            args={"what": what},
        )

    def on_oracle_violation(
        self, now: float, invariant: str, details: str
    ) -> None:
        self.oracle_violations += 1
        self.tracer.instant(
            now, SERVER_PID, "oracle", f"violation:{invariant}",
            args={"details": details},
        )

    # --- outputs ------------------------------------------------------------

    def bench_payload(self) -> dict[str, Any]:
        """The ``BENCH_obs.json`` artifact body."""
        server_list = self.timeseries.server_series()
        server = server_list[0] if server_list else None
        return {
            "schema": "repro-obs-bench-v1",
            "sample_interval": self.config.sample_interval,
            "samples_per_machine": len(server.times) if server else 0,
            "machines": sorted(self.timeseries.machines),
            "finalized_at": self._finalized_at,
            "engine_events_fired": self.engine_events_fired,
            "trace_events_recorded": len(self.tracer),
            "trace_events_dropped": self.tracer.dropped,
            "oracle_checks": dict(sorted(self.oracle_checks.items())),
            "oracle_violations": self.oracle_violations,
            "latency_histograms": self.latencies.as_dict(),
        }

    def write_bench(self, path: str | os.PathLike[str]) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            json.dump(self.bench_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def write_trace(self, path: str | os.PathLike[str]) -> None:
        self.tracer.write(path)

    def render_summary(self) -> str:
        """A text block for the experiment report / CLI output."""
        machines = len(self.timeseries.machines)
        server_list = self.timeseries.server_series()
        samples = len(server_list[0].times) if server_list else 0
        lines = [
            "Observability (repro.obs)",
            f"  counter timeseries : {machines} machines x {samples} samples "
            f"(every {self.config.sample_interval:g}s simulated)",
            f"  trace events       : {len(self.tracer)} recorded, "
            f"{self.tracer.dropped} dropped (cap "
            f"{self.tracer.max_events})",
            f"  engine events fired: {self.engine_events_fired}",
        ]
        if self.oracle_checks:
            checks = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.oracle_checks.items())
            )
            lines.append(
                f"  oracle             : {checks}; "
                f"violations={self.oracle_violations}"
            )
        lines.append(self.latencies.render())
        return "\n".join(lines)
