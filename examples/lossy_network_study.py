#!/usr/bin/env python3
"""Lossy network study: what message loss does to cache consistency.

The paper's consistency guarantees (Section 5.5, Table 11) are
measured over an Ethernet that never lost a message on camera.  This
example drops the messages: it sweeps a per-message loss rate over the
Sprite, modified-Sprite, and token consistency schemes (a lost
invalidation leaves a stale copy readable until the retransmission
lands), then replays a full cluster trace through the at-most-once RPC
transport with the protocol-invariant oracle watching -- Table S, plus
a scripted single replay at 10% loss stepped through the transport's
accounting.

Run:  python examples/lossy_network_study.py
"""

from repro.experiments import ExperimentContext, run_experiment
from repro.fs import (
    ClusterConfig,
    FaultConfig,
    ProtocolOracle,
    run_cluster_on_trace,
)
from repro.workload import STANDARD_PROFILES, generate_trace


def sweep() -> None:
    """The registry's Table S experiment: scheme stale reads and
    transport overhead at 0/1/5/10% message loss."""
    ctx = ExperimentContext(scale=0.05, seed=1991)
    print("Sweeping message-loss rates over schemes and transport ...")
    result = run_experiment("rpc_loss", ctx)
    print()
    print(result.rendered)
    print()
    print(f"Paper expectation: {result.paper_expectation}")


def scripted_lossy_replay() -> None:
    """One replay at 10% loss (plus duplicates, reordering, delays),
    with the oracle attached and the transport's books opened."""
    print("Replaying one trace through a 10%-loss channel ...")
    trace = generate_trace(STANDARD_PROFILES[0], seed=1991, scale=0.05)
    config = ClusterConfig(
        client_count=4,
        faults=FaultConfig(
            message_loss_rate=0.10,
            message_duplicate_rate=0.05,
            message_reorder_rate=0.05,
            message_delay_rate=0.10,
        ),
    )
    oracle = ProtocolOracle(seed=1991, raise_on_violation=False)
    result = run_cluster_on_trace(
        trace.columnar, trace.duration, config, seed=1991, oracle=oracle
    )

    sent = sum(c.rpc_messages_sent for c in result.final_counters.values())
    resent = sum(c.rpc_retransmissions for c in result.final_counters.values())
    lost = sum(c.rpc_replies_lost for c in result.final_counters.values())
    stalled = sum(c.stall_seconds for c in result.final_counters.values())
    server = result.server_counters
    print()
    print(f"  messages sent (requests + replies + resends): {sent}")
    print(f"  retransmissions after a lost request/reply:   {resent}")
    print(f"  replies lost in flight:                       {lost}")
    print(f"  duplicates suppressed by the server:          "
          f"{server.duplicate_rpcs_suppressed}")
    print(f"  cached replies replayed to duplicates:        "
          f"{server.rpc_replies_replayed}")
    print(f"  stale (evicted-seq) arrivals dropped:         "
          f"{server.stale_rpcs_dropped}")
    print(f"  process-seconds stalled waiting on resends:   {stalled:.1f}")
    print(f"  oracle: {len(oracle.violations)} violations in "
          f"{oracle.checks_run} checked executions")
    oracle.assert_clean()
    print()
    print("Loss cost time, never correctness: every protocol-visible")
    print("counter matches the zero-loss replay (tests/test_rpc_chaos.py")
    print("asserts this field by field).")


def main() -> None:
    sweep()
    print()
    scripted_lossy_replay()


if __name__ == "__main__":
    main()
