"""Chaos suite for the at-most-once RPC transport: full replays over a
lossy channel, checked by the protocol-invariant oracle.

The core claim of the transport is that message-level faults degrade
*performance*, never *correctness*: a replay at any loss rate must make
the same protocol-visible progress as the zero-loss replay, spending
only retransmissions, duplicate suppressions, and stall time.  The
suite checks that claim three ways:

* **oracle-clean** -- at 0%, 1%, and 10% loss (plus duplicates,
  reordering, and delays), across several seeds, the oracle records no
  violation and the dirty-block ledger balances;
* **protocol equivalence** -- the lossy replay's counters equal the
  zero-loss replay's outside the message-accounting set (messages,
  resends, lost replies, channel delay, stall);
* **zero-loss byte-identity** -- with every message rate at zero the
  transport books nothing and the replay equals a plain one, channel
  RNG and all.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fs import (
    ClusterConfig,
    FaultConfig,
    ProtocolOracle,
    run_cluster_on_trace,
)

from checkers import all_snapshots, dirty_blocks_accounted

CHAOS_SEEDS = (11, 23, 37, 41, 53)

LOSS_RATES = (0.0, 0.01, 0.10)

#: Client counters allowed to differ between a lossy replay and its
#: zero-loss twin: the cost of reliable delivery, never its outcome.
MESSAGE_ACCOUNTING = {
    "rpc_messages_sent",
    "rpc_retransmissions",
    "rpc_replies_lost",
    "rpc_delay_seconds",
    "stall_seconds",
}

#: Same idea, server side.
SERVER_MESSAGE_ACCOUNTING = {
    "duplicate_rpcs_suppressed",
    "rpc_replies_replayed",
    "stale_rpcs_dropped",
    "dedup_evictions",
}


def lossy_faults(rate: float) -> FaultConfig:
    """Loss plus proportional duplicate/reorder/delay rates."""
    return FaultConfig(
        message_loss_rate=rate,
        message_duplicate_rate=rate / 2,
        message_reorder_rate=rate / 2,
        message_delay_rate=rate,
    )


def run(small_trace, rate: float, seed: int, oracle=None):
    config = ClusterConfig(client_count=4, faults=lossy_faults(rate))
    return run_cluster_on_trace(
        small_trace.columnar, small_trace.duration, config, seed=seed,
        oracle=oracle,
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("rate", LOSS_RATES)
def test_oracle_clean_at_every_loss_rate(small_trace, rate, seed):
    oracle = ProtocolOracle(seed=seed, raise_on_violation=False)
    result = run(small_trace, rate, seed, oracle)
    assert oracle.violations == []
    assert oracle.checks_run > 0
    oracle.assert_clean()
    # The ledger the oracle's final check balances, restated directly.
    for counters in result.final_counters.values():
        assert dirty_blocks_accounted(counters) == counters.blocks_dirtied


@pytest.mark.slow
@pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
def test_lossy_replay_is_protocol_equivalent(small_trace, seed):
    """At 10% loss every protocol-visible counter matches zero-loss;
    only the message-accounting counters may move."""
    base = run(small_trace, 0.0, seed)
    lossy = run(small_trace, 0.10, seed)
    for client_id, bare in base.final_counters.items():
        noisy = lossy.final_counters[client_id]
        for name in type(bare).FIELDS:
            if name in MESSAGE_ACCOUNTING:
                continue
            assert getattr(bare, name) == getattr(noisy, name), (
                f"client {client_id} counter {name} diverged under loss"
            )
    for name in type(base.server_counters).FIELDS:
        if name in SERVER_MESSAGE_ACCOUNTING:
            continue
        assert getattr(base.server_counters, name) == getattr(
            lossy.server_counters, name
        ), f"server counter {name} diverged under loss"
    # And the loss was real: the channel did retransmit and suppress.
    assert any(
        c.rpc_retransmissions > 0 for c in lossy.final_counters.values()
    )
    assert lossy.server_counters.duplicate_rpcs_suppressed > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
def test_lossy_replay_is_deterministic(small_trace, seed):
    first = run(small_trace, 0.10, seed)
    second = run(small_trace, 0.10, seed)
    assert first.final_counters == second.final_counters
    assert first.server_counters == second.server_counters


def test_zero_rates_are_byte_identical_to_plain_replay(small_trace):
    """The inert transport: zero message rates book nothing, consume no
    randomness, and leave every snapshot identical to a plain replay."""
    config = ClusterConfig(client_count=4)
    plain = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration, config, seed=9
    )
    with_transport = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration,
        replace(config, faults=FaultConfig()), seed=9,
    )
    assert plain.final_counters == with_transport.final_counters
    assert plain.server_counters == with_transport.server_counters
    assert [
        (s.time, s.client_id, s.counters) for s in all_snapshots(plain)
    ] == [
        (s.time, s.client_id, s.counters)
        for s in all_snapshots(with_transport)
    ]
    for counters in with_transport.final_counters.values():
        assert counters.rpc_messages_sent == 0
        assert counters.rpc_delay_seconds == 0.0


@pytest.mark.slow
def test_duplicate_heavy_channel_is_idempotent(small_trace):
    """A channel that duplicates half of everything must not change one
    protocol-visible counter: suppression absorbs every copy."""
    config = ClusterConfig(
        client_count=4, faults=FaultConfig(message_duplicate_rate=0.5)
    )
    base = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration,
        ClusterConfig(client_count=4), seed=13,
    )
    doubled = run_cluster_on_trace(
        small_trace.columnar, small_trace.duration, config, seed=13,
    )
    assert doubled.server_counters.duplicate_rpcs_suppressed > 0
    for name in type(base.server_counters).FIELDS:
        if name in SERVER_MESSAGE_ACCOUNTING:
            continue
        assert getattr(base.server_counters, name) == getattr(
            doubled.server_counters, name
        )
    for client_id, bare in base.final_counters.items():
        noisy = doubled.final_counters[client_id]
        for name in type(bare).FIELDS:
            if name in MESSAGE_ACCOUNTING:
                continue
            assert getattr(bare, name) == getattr(noisy, name)
