#!/usr/bin/env python3
"""Crash recovery study: what the 30-second delayed write actually risks.

Section 5.2 of the paper notes that Sprite's delayed-write policy
"means that data may be lost in a server or workstation crash", but the
measured cluster never crashed on camera.  This example injects the
crashes: it replays one day-long trace under a deterministic fault
schedule (server crashes, client reboots, network partitions) while
sweeping the writeback age, then prints Table R -- dirty bytes lost and
recovery-protocol cost per column -- plus a scripted single-crash
walkthrough of the reopen protocol.

Run:  python examples/crash_recovery_study.py
"""

from repro.common.units import KB
from repro.experiments import ExperimentContext, run_experiment
from repro.fs import (
    ClientCounters,
    Cluster,
    ClusterConfig,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    SERVER_TARGET,
)
from repro.workload import STANDARD_PROFILES, generate_trace


def sweep() -> None:
    """The registry's Table R experiment: one fault timeline, five
    writeback ages from write-through to twice Sprite's 30 seconds."""
    ctx = ExperimentContext(scale=0.05, seed=1991)
    print("Sweeping writeback age under a fixed fault schedule ...")
    result = run_experiment("faults", ctx)
    print()
    print(result.rendered)
    print()
    print(f"Paper expectation: {result.paper_expectation}")


def scripted_crash() -> None:
    """One scripted server crash, step by step.

    The explicit :class:`FaultSchedule` drops the server for two
    minutes in the middle of the busiest hour; the counters afterwards
    show the reopen protocol's work.
    """
    print("Replaying one scripted two-minute server outage ...")
    trace = generate_trace(STANDARD_PROFILES[0], seed=1991, scale=0.05)
    # Crash at the median record's timestamp: the middle of the actual
    # activity, not of the (mostly idle) 24-hour clock.
    crash_at = float(trace.columnar.times[len(trace.columnar) // 2])
    schedule = FaultSchedule(
        [FaultEvent(crash_at, FaultKind.SERVER_CRASH, SERVER_TARGET, 120.0)]
    )
    config = ClusterConfig(client_count=4)
    cluster = Cluster(config, seed=1991, fault_schedule=schedule)
    result = cluster.replay(trace.columnar, trace.duration)

    # Pool every client's counters, as Table R does per column.
    clients = ClientCounters.aggregate(result.final_counters.values())
    server = result.server_counters
    print()
    print(f"  crash at t={crash_at:.0f}s, server down 120 s")
    print(f"  reopen RPCs (clients re-registering opens): {server.reopen_rpcs}")
    print(f"  revalidate RPCs (version-checking caches):  {server.revalidate_rpcs}")
    print(f"  cache blocks invalidated as stale:          "
          f"{clients.blocks_invalidated_on_recovery}")
    print(f"  dirty blocks replayed at recovery:          "
          f"{clients.blocks_cleaned_recovery}")
    print(f"  RPC retries while the server was down:      {clients.rpc_retries}")
    print(f"  process-seconds stalled:                    {clients.stall_seconds:.1f}")
    print(f"  dirty Kbytes lost (server crash loses no"
          f" client data):                              "
          f"{clients.lost_dirty_bytes / KB:.1f}")


def main() -> None:
    sweep()
    print()
    scripted_crash()


if __name__ == "__main__":
    main()
