"""Deterministic chaos suite: randomized fault schedules, checked
against global invariants.

Each seed drives a full trace replay under a generated schedule of
server crashes, client crashes, and partitions, then the suite asserts
properties that must hold no matter where the faults landed:

* **conservation** -- every block ever dirtied is written back, or
  discarded by a delete, or destroyed by a counted fault, or still
  resident dirty at the end; nothing leaks;
* **no unvalidated survivors** -- after a server recovery, every
  reachable client re-validated every file it kept cached;
* **worker independence** -- replays fan out across processes without
  changing a single counter;
* **inertness** -- with fault knobs at their zero defaults the replay
  is identical to one with an explicitly empty schedule, and no fault
  counter moves;
* **write-through safety** -- with no delayed writes there is never
  dirty data to lose.
"""

from __future__ import annotations

import pytest

from repro.fs import (
    Cluster,
    ClusterConfig,
    FaultConfig,
    FaultSchedule,
    run_cluster_on_trace,
)
from repro.pipeline.runner import run_stage
from repro.pipeline.tasks import ReplayTask

from checkers import dirty_blocks_accounted

CHAOS_SEEDS = (11, 23, 37, 41, 53)

CHAOS_FAULTS = FaultConfig(
    server_crash_rate=1.0,
    server_downtime=90.0,
    client_crash_rate=1.0,
    client_downtime=120.0,
    partition_rate=2.0,
    partition_duration=45.0,
)

CHAOS_CONFIG = ClusterConfig(client_count=4, faults=CHAOS_FAULTS)


class AuditingCluster(Cluster):
    """Cluster that checks the revalidation invariant at each recovery.

    ``on_server_recovered`` sends exactly one revalidate RPC per file
    the client holds cached, so across a recovery the RPC delta must
    equal the pre-recovery resident-file count for every reachable
    client.  Violations are recorded, not raised, so one replay can
    collect all of them.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.audit_failures: list[str] = []
        self.recoveries_audited = 0

    def recover_server(self, server_id: int) -> None:
        now = self.engine.now
        before = {
            client.client_id: (
                len(client.cache.resident_files()),
                client.counters.revalidate_rpcs,
            )
            for client in self.clients
            if client.reachable(now)
        }
        super().recover_server(server_id)
        self.recoveries_audited += 1
        for client in self.clients:
            if client.client_id not in before:
                continue
            resident, rpcs_before = before[client.client_id]
            delta = client.counters.revalidate_rpcs - rpcs_before
            if delta != resident:
                self.audit_failures.append(
                    f"t={now:.1f} client {client.client_id}: "
                    f"{resident} cached files but {delta} revalidations"
                )


@pytest.fixture(scope="module", params=CHAOS_SEEDS)
def chaos_run(request, small_trace):
    """One audited chaos replay per seed (shared by the invariant tests)."""
    cluster = AuditingCluster(CHAOS_CONFIG, seed=request.param)
    result = cluster.replay(small_trace.columnar, small_trace.duration)
    return cluster, result


def test_chaos_runs_actually_inject_faults(chaos_run):
    _, result = chaos_run
    total_crashes = result.server_counters.crashes + sum(
        c.crashes for c in result.final_counters.values()
    )
    assert total_crashes > 0


def test_dirty_block_conservation(chaos_run):
    _, result = chaos_run
    for client_id, counters in result.final_counters.items():
        accounted = dirty_blocks_accounted(counters)
        assert accounted == counters.blocks_dirtied, (
            f"client {client_id}: dirtied {counters.blocks_dirtied}, "
            f"accounted {accounted} "
            f"(cleaned {counters.blocks_cleaned_total}, "
            f"discarded {counters.dirty_blocks_discarded}, "
            f"lost {counters.lost_dirty_blocks}, "
            f"resident {counters.dirty_blocks_resident})"
        )


def test_no_cache_block_survives_recovery_unvalidated(chaos_run):
    cluster, _ = chaos_run
    assert cluster.recoveries_audited == cluster.servers[0].counters.crashes
    assert cluster.audit_failures == []


def test_replay_is_deterministic_per_seed(request, chaos_run, small_trace):
    """Re-running the same seed reproduces the faulted replay exactly."""
    _, result = chaos_run
    seed = request.node.callspec.params["chaos_run"]
    again = Cluster(CHAOS_CONFIG, seed=seed).replay(
        small_trace.columnar, small_trace.duration
    )
    assert again.final_counters == result.final_counters
    assert again.server_counters == result.server_counters
    assert again.snapshots == result.snapshots


def test_worker_count_does_not_change_results(small_trace):
    """workers=1 and workers=4 must produce identical fault replays."""
    tasks = [
        ReplayTask(
            trace_fields={"kind": "chaos", "seed": seed},
            group_traces=[(0, small_trace.columnar)],
            duration=small_trace.duration,
            config=CHAOS_CONFIG,
            seed=seed,
        )
        for seed in CHAOS_SEEDS[:2]
    ]
    serial = run_stage("chaos-serial", tasks, workers=1, cache=None)
    parallel = run_stage("chaos-parallel", tasks, workers=4, cache=None)
    for one, many in zip(serial, parallel):
        assert one.final_counters == many.final_counters
        assert one.server_counters == many.server_counters
        assert one.snapshots == many.snapshots


def test_fault_free_run_is_identical_to_empty_schedule(small_trace):
    """The fault machinery must be inert when nothing is scheduled."""
    config = ClusterConfig(client_count=4)
    plain = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration, config, seed=9
    )
    empty = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration, config, seed=9,
        fault_schedule=FaultSchedule([]),
    )
    assert plain.final_counters == empty.final_counters
    assert plain.server_counters == empty.server_counters
    assert plain.snapshots == empty.snapshots

    for counters in plain.final_counters.values():
        assert counters.crashes == 0
        assert counters.partitions == 0
        assert counters.lost_dirty_blocks == 0
        assert counters.rpc_retries == 0
        assert counters.stall_seconds == 0.0
        assert counters.reopen_rpcs == 0
        assert counters.revalidate_rpcs == 0
    assert plain.server_counters.crashes == 0
    assert plain.server_counters.recalls_failed == 0


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_write_through_loses_nothing(seed, small_trace):
    """With no delayed writes there is no dirty window to lose."""
    config = ClusterConfig(
        client_count=4, write_through=True, writeback_delay=0.0,
        faults=CHAOS_FAULTS,
    )
    result = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration, config, seed=seed
    )
    for counters in result.final_counters.values():
        assert counters.lost_dirty_bytes == 0
        assert counters.lost_dirty_blocks == 0
        assert counters.dirty_blocks_resident == 0
