"""Unit tests for the protocol-invariant oracle (repro.fs.oracle)."""

from __future__ import annotations

import pytest

from repro.fs.config import ClusterConfig
from repro.fs.faults import FaultConfig
from repro.fs.oracle import InvariantViolation, ProtocolOracle, Violation
from repro.fs.server import OpenReply
from rigs import build_rig


def make_rig(client_count=1, seed=7, oracle=None, **fault_kwargs):
    """Engine + server + clients wired through the RPC transport."""
    config = ClusterConfig(
        client_count=client_count, faults=FaultConfig(**fault_kwargs)
    )
    return (config, *build_rig(config, seed=seed, oracle=oracle))


class TestAtMostOnce:
    def test_second_execution_of_same_seq_raises(self):
        oracle = ProtocolOracle(seed=7)
        oracle.on_execute(0.0, 0, 3, "name_operation", (), None)
        with pytest.raises(InvariantViolation) as excinfo:
            oracle.on_execute(1.0, 0, 3, "name_operation", (), None)
        violation = excinfo.value.violation
        assert violation.invariant == "at-most-once"
        assert violation.seed == 7  # replayable from the exception alone

    def test_fast_path_seq_is_untracked(self):
        oracle = ProtocolOracle()
        oracle.on_execute(0.0, 0, -1, "name_operation", (), None)
        oracle.on_execute(1.0, 0, -1, "name_operation", (), None)
        assert not oracle.violations

    def test_different_clients_may_share_seq(self):
        oracle = ProtocolOracle()
        oracle.on_execute(0.0, 0, 3, "name_operation", (), None)
        oracle.on_execute(0.0, 1, 3, "name_operation", (), None)
        assert not oracle.violations


class TestMonotonicVersions:
    def test_version_moving_backwards_raises(self):
        oracle = ProtocolOracle()
        reply = OpenReply(version=5, cacheable=True, recalled=False)
        oracle.on_execute(0.0, 0, 0, "open_file", (1, 0, True), reply)
        stale = OpenReply(version=4, cacheable=True, recalled=False)
        with pytest.raises(InvariantViolation, match="monotonic-versions"):
            oracle.on_execute(1.0, 0, 1, "open_file", (1, 0, True), stale)

    def test_revalidate_reply_is_checked_too(self):
        oracle = ProtocolOracle()
        oracle.on_execute(0.0, 0, 0, "revalidate_file", (1,), 9)
        with pytest.raises(InvariantViolation, match="monotonic-versions"):
            oracle.on_execute(1.0, 0, 1, "revalidate_file", (1,), 8)

    def test_delete_resets_the_stamp(self):
        oracle = ProtocolOracle()
        oracle.on_execute(0.0, 0, 0, "revalidate_file", (1,), 9)
        oracle.on_execute(1.0, 0, 1, "delete_file", (1,), None)
        # A recreated file may legitimately restart at version 1.
        oracle.on_execute(2.0, 0, 2, "revalidate_file", (1,), 1)
        assert not oracle.violations


class TestCallbackInvariants:
    def test_clean_recall_passes(self):
        _, _, _, (client,) = make_rig()
        oracle = ProtocolOracle()
        client.open_file(0.0, 1, will_write=True)
        client.write(0.0, 1, 0, 4096)
        client.recall_dirty_data(1.0, 1)
        oracle.on_callback(1.0, client, "recall", 1)
        assert not oracle.violations

    def test_dirty_leftovers_after_recall_raise(self):
        _, _, _, (client,) = make_rig()
        oracle = ProtocolOracle()
        client.open_file(0.0, 1, will_write=True)
        client.write(0.0, 1, 0, 4096)
        with pytest.raises(InvariantViolation, match="no-stale-after"):
            oracle.on_callback(1.0, client, "recall", 1)

    def test_blocks_left_after_cache_disable_raise(self):
        _, _, _, (client,) = make_rig()
        oracle = ProtocolOracle()
        client.open_file(0.0, 1, will_write=False)
        client.read(0.0, 1, 0, 4096)
        with pytest.raises(InvariantViolation, match="no-stale-after"):
            oracle.on_callback(1.0, client, "cache_disable", 1)


class TestDirtyConservation:
    def test_clean_ledger_passes(self):
        _, _, _, (client,) = make_rig()
        oracle = ProtocolOracle()
        client.open_file(0.0, 1, will_write=True)
        client.write(0.0, 1, 0, 4096)
        oracle.final_check(1.0, [client])
        assert not oracle.violations

    def test_leaked_block_raises(self):
        _, _, _, (client,) = make_rig()
        oracle = ProtocolOracle()
        client.open_file(0.0, 1, will_write=True)
        client.write(0.0, 1, 0, 4096)
        client.counters.blocks_dirtied += 1  # a block with no fate
        with pytest.raises(InvariantViolation, match="dirty-byte-conservation"):
            oracle.final_check(1.0, [client])


class TestCollectionMode:
    def test_collects_instead_of_raising(self):
        oracle = ProtocolOracle(seed=11, raise_on_violation=False)
        oracle.on_execute(0.0, 0, 3, "name_operation", (), None)
        oracle.on_execute(1.0, 0, 3, "name_operation", (), None)
        oracle.on_execute(2.0, 0, 3, "name_operation", (), None)
        assert len(oracle.violations) == 2
        with pytest.raises(InvariantViolation):
            oracle.assert_clean()

    def test_violation_renders_with_seed(self):
        violation = Violation(
            invariant="at-most-once", time=1.5, seed=42, details="boom"
        )
        assert "at-most-once" in str(violation)
        assert "seed=42" in str(violation)


class TestOracleIsPassive:
    def test_attaching_oracle_changes_no_counters(self):
        """The oracle observes; it must never perturb the replay."""
        plain = make_rig(client_count=2)
        watched = make_rig(client_count=2, oracle=ProtocolOracle())

        def drive(clients):
            a, b = clients
            a.open_file(0.0, 1, will_write=True)
            a.write(0.0, 1, 0, 8192)
            b.open_file(1.0, 1, will_write=False)
            b.read(1.0, 1, 0, 8192)
            a.close_file(2.0, 1, wrote=True)
            b.close_file(2.0, 1, wrote=False)

        drive(plain[3])
        drive(watched[3])
        for bare, checked in zip(plain[3], watched[3]):
            assert bare.counters == checked.counters
        assert plain[2].counters == watched[2].counters

    def test_unused_channel_rng_changes_no_counters(self):
        plain = make_rig(client_count=2)
        seeded = make_rig(client_count=2, seed=5)

        def drive(clients):
            a, b = clients
            a.open_file(0.0, 1, will_write=True)
            a.write(0.0, 1, 0, 8192)
            a.close_file(1.0, 1, wrote=True)

        drive(plain[3])
        drive(seeded[3])
        for bare, with_rng in zip(plain[3], seeded[3]):
            assert bare.counters == with_rng.counters


class TestReplicaDivergence:
    """The divergence check must catch real propagation loss -- seeded
    through the ReplicationManager's drop-propagation test hook -- and
    stay silent on a healthy replicated replay."""

    def _replicated_replay(self, small_trace, skip_server=None):
        from repro.fs.cluster import Cluster

        config = ClusterConfig(
            client_count=4, num_servers=4, replication_factor=2
        )
        oracle = ProtocolOracle(seed=77, raise_on_violation=False)
        cluster = Cluster(config, seed=77, oracle=oracle)
        if skip_server is not None:
            cluster.replication.skip_propagation_to = {skip_server}
        cluster.replay(small_trace.columnar, small_trace.duration)
        return oracle

    def test_healthy_replay_is_divergence_free(self, small_trace):
        oracle = self._replicated_replay(small_trace)
        assert oracle.checks_run > 0
        assert oracle.violations == []

    def test_dropped_propagation_is_caught_with_seed(self, small_trace):
        """Silently dropping every push to one replica must surface as
        replica-divergence violations carrying the replay seed."""
        oracle = self._replicated_replay(small_trace, skip_server=1)
        diverged = [
            v for v in oracle.violations
            if v.invariant == "replica-divergence"
        ]
        assert diverged, "lost propagation went undetected"
        assert all(v.seed == 77 for v in diverged)
        assert all("server 1" in v.details for v in diverged)
        # Nothing else broke: the damage the hook does is exactly the
        # damage the divergence invariant names.
        assert len(diverged) == len(oracle.violations)

    def test_divergence_raises_in_raise_mode(self):
        """Unit-level: two live replicas disagreeing on a version stamp
        trips the final check immediately."""

        class _StubServer:
            def __init__(self, server_id, versions):
                self.server_id = server_id
                self.up = True
                self._files = dict.fromkeys(versions)
                self._versions = versions

            def peek_version(self, file_id):
                return self._versions.get(file_id, 0)

        class _StubMap:
            def replicas(self, file_id):
                return (0, 1)

        oracle = ProtocolOracle(seed=13)
        oracle.replica_groups = [(_StubMap(), range(2))]
        servers = [_StubServer(0, {7: 3}), _StubServer(1, {7: 2})]
        with pytest.raises(InvariantViolation, match="replica-divergence"):
            oracle._check_replica_divergence(
                5.0, servers, *oracle.replica_groups[0]
            )
