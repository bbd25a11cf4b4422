"""Unit tests for the at-most-once RPC transport (repro.fs.rpc).

The chaos suite (:mod:`tests.test_rpc_chaos`) runs full replays over
lossy channels; these tests pin down the individual mechanisms --
channel draw order, duplicate suppression, the reply cache's mark,
retransmission accounting -- one component at a time.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import RngStream
from repro.fs.cluster import Cluster
from repro.fs.config import ClusterConfig
from repro.fs.faults import FaultConfig, FaultEvent, FaultKind, FaultSchedule
from repro.fs.rpc import (
    MAX_ATTEMPTS,
    BackoffPolicy,
    Channel,
    DedupCache,
    DedupStatus,
    Delivery,
    Message,
    RpcTransport,
)
from repro.fs.oracle import ProtocolOracle
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    OpenRecord,
    WriteRunRecord,
)

import reference_rpc
from rigs import build_rig


def make_rig(client_count=1, seed=7, oracle=None, **fault_kwargs):
    """Engine + server + clients wired through the RPC transport."""
    config = ClusterConfig(
        client_count=client_count, faults=FaultConfig(**fault_kwargs)
    )
    return (config, *build_rig(config, seed=seed, oracle=oracle))


def msg(seq, client_id=0, op="name_operation", args=()):
    return Message(seq=seq, client_id=client_id, op=op, args=args)


def deliver(endpoint, message):
    """Hand ``message`` to ``endpoint`` as the transport does."""
    return endpoint.deliver(
        0.0, message.client_id, message.seq, message.op, message.args
    )


class TestChannel:
    def test_inert_channel_needs_no_rng(self):
        channel = Channel(FaultConfig(), rng=None)
        assert not channel.lossy
        outcome, copies, delay = channel.transmit(msg(0))
        assert outcome is Delivery.DELIVERED
        assert copies == 0 and delay == 0.0

    def test_lossy_channel_requires_rng(self):
        with pytest.raises(SimulationError, match="needs an RNG"):
            Channel(FaultConfig(message_loss_rate=0.5), rng=None)

    def test_deterministic_across_constructions(self):
        faults = FaultConfig(
            message_loss_rate=0.3,
            message_duplicate_rate=0.2,
            message_reorder_rate=0.1,
            message_delay_rate=0.2,
        )
        runs = []
        for _ in range(2):
            channel = Channel(faults, RngStream.root(42).fork("chan"))
            runs.append([channel.transmit(msg(i)) for i in range(200)])
        assert runs[0] == runs[1]

    def test_total_loss_drops_everything(self):
        channel = Channel(
            FaultConfig(message_loss_rate=1.0), RngStream.root(1).fork("c")
        )
        for i in range(50):
            outcome, _, _ = channel.transmit(msg(i))
            assert outcome is Delivery.DROPPED

    def test_straggler_surfaces_on_drain_once(self):
        channel = Channel(
            FaultConfig(message_reorder_rate=1.0), RngStream.root(1).fork("c")
        )
        held = msg(7)
        outcome, _, _ = channel.transmit(held)
        assert outcome is Delivery.STRAGGLED
        assert channel.drain() == [held]
        assert channel.drain() == []

    def test_duplicate_rate_delivers_extra_copy(self):
        channel = Channel(
            FaultConfig(message_duplicate_rate=1.0), RngStream.root(1).fork("c")
        )
        outcome, copies, _ = channel.transmit(msg(0))
        assert outcome is Delivery.DELIVERED
        assert copies == 1

    def test_delay_books_positive_latency(self):
        channel = Channel(
            FaultConfig(message_delay_rate=1.0, message_delay_mean=0.5),
            RngStream.root(1).fork("c"),
        )
        _, _, delay = channel.transmit(msg(0))
        assert delay > 0.0

    def test_delays_are_booked_as_client_stall(self):
        _, _, _, (client,) = make_rig(
            message_delay_rate=1.0, message_delay_mean=0.5
        )
        client.transports[0].call(0.0, "name_operation")
        counters = client.counters
        # The request and the reply each drew a delay.
        assert counters.rpc_messages_sent == 2
        assert counters.rpc_delay_seconds > 0.0
        assert counters.stall_seconds == counters.rpc_delay_seconds

    def test_reply_leg_draws_loss_and_delay_only(self):
        # Duplicate/reorder rates at 1.0 must not affect replies.
        channel = Channel(
            FaultConfig(message_duplicate_rate=1.0, message_reorder_rate=1.0),
            RngStream.root(1).fork("c"),
        )
        delivered, delay = channel.transmit_reply()
        assert delivered and delay == 0.0


class TestBackoffPolicy:
    def test_attempts_for_wait_known_values(self):
        # Default backoff: 0.1, 0.2, 0.4, ... capped at 5.0.  One
        # attempt lands immediately; each delay buys one more.
        policy = BackoffPolicy.from_config(FaultConfig())
        assert policy.attempts_for_wait(0.05) == 1
        assert policy.attempts_for_wait(0.5) == 3
        for shorter, longer in ((0.05, 0.5), (0.5, 7.0), (7.0, 60.0)):
            assert policy.attempts_for_wait(shorter) <= policy.attempts_for_wait(
                longer
            )

    def test_next_delay_doubles_to_cap(self):
        policy = BackoffPolicy(initial=1.0, factor=2.0, cap=3.0)
        assert policy.next_delay(None) == 1.0
        assert policy.next_delay(1.0) == 2.0
        assert policy.next_delay(2.0) == 3.0
        assert policy.next_delay(3.0) == 3.0


class TestDedupCache:
    def test_new_then_duplicate(self):
        cache = DedupCache()
        assert cache.classify(0, 0) == (DedupStatus.NEW, None)
        cache.record(0, 0, "reply-0")
        assert cache.classify(0, 0) == (DedupStatus.DUPLICATE, "reply-0")

    def test_clients_are_independent(self):
        cache = DedupCache()
        cache.record(0, 5, "a")
        assert cache.classify(1, 5) == (DedupStatus.NEW, None)

    def test_evicted_seq_is_stale_not_replayed(self):
        """An arrival below the high-water mark whose reply the cache no
        longer keeps must be dropped silently -- replaying the kept
        reply would answer the wrong request."""
        cache = DedupCache()
        for seq in range(5):
            assert cache.classify(0, seq)[0] is DedupStatus.NEW
            cache.record(0, seq, f"reply-{seq}")
        # Each record raised the mark past the one before: only seq 4's
        # reply is kept.
        for seq in range(4):
            assert cache.classify(0, seq) == (DedupStatus.STALE, None)
        assert cache.classify(0, 4) == (DedupStatus.DUPLICATE, "reply-4")

    def test_gaps_in_seqs_do_not_shift_the_window(self):
        """Only recorded sequence numbers are kept: a skipped number at
        or below the mark is stale, one above it is new."""
        cache = DedupCache()
        for seq in (0, 5, 9):
            cache.record(0, seq, f"reply-{seq}")
        assert cache.classify(0, 9) == (DedupStatus.DUPLICATE, "reply-9")
        for stale in (0, 4, 5, 7):
            assert cache.classify(0, stale) == (DedupStatus.STALE, None)
        assert cache.classify(0, 10) == (DedupStatus.NEW, None)

    def test_reply_recorded_below_the_mark_is_replayed(self):
        """Seq 4 (an open) finishes after seq 5, nested inside it (a
        writeback from the open's cache-disable callback): both replies
        are kept, and each duplicate gets its own."""
        cache = DedupCache()
        cache.record(0, 3, "reply-3")
        assert cache.classify(0, 4) == (DedupStatus.NEW, None)
        assert cache.classify(0, 5) == (DedupStatus.NEW, None)
        cache.record(0, 5, "reply-5")
        cache.record(0, 4, "reply-4")
        assert cache.high[0] == 5
        assert cache.classify(0, 4) == (DedupStatus.DUPLICATE, "reply-4")
        assert cache.classify(0, 5) == (DedupStatus.DUPLICATE, "reply-5")

    def test_rising_mark_forgets_the_replies_below_it(self):
        cache = DedupCache()
        cache.record(0, 5, "reply-5")
        cache.record(0, 4, "reply-4")
        cache.record(0, 6, "reply-6")
        assert cache.classify(0, 4) == (DedupStatus.STALE, None)
        assert cache.classify(0, 5) == (DedupStatus.STALE, None)
        assert cache.classify(0, 6) == (DedupStatus.DUPLICATE, "reply-6")

    def test_unkept_seq_at_or_below_the_mark_is_stale(self):
        """Below the mark only the replies recorded there are kept;
        every other number at or below it has executed (or is a call
        still running around a nested one) and is dropped."""
        cache = DedupCache()
        cache.record(0, 8, "reply-8")
        cache.record(0, 5, "reply-5")
        for stale in (0, 4, 6, 7):
            assert cache.classify(0, stale) == (DedupStatus.STALE, None)
        assert cache.classify(0, 5) == (DedupStatus.DUPLICATE, "reply-5")
        assert cache.classify(0, 8) == (DedupStatus.DUPLICATE, "reply-8")


class TestServerEndpoint:
    def test_attach_is_shared_per_server(self):
        _, _, server, clients = make_rig(client_count=2)
        assert clients[0].transports[0].endpoint is clients[1].transports[0].endpoint
        assert server.rpc_endpoint is clients[0].transports[0].endpoint

    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_attach_accepts_the_same_oracle_again(self, with_oracle):
        oracle = ProtocolOracle() if with_oracle else None
        _, _, server, clients = make_rig(client_count=2, oracle=oracle)
        assert server.rpc_endpoint.oracle is oracle
        assert (clients[0].transports[0].endpoint
                is clients[1].transports[0].endpoint)

    @pytest.mark.parametrize("first, second", [
        (True, True),  # two distinct oracles
        (True, False),  # an oracle, then none
        (False, True),  # none, then an oracle
    ])
    def test_attach_refuses_a_different_oracle(self, first, second):
        """The endpoint's oracle is fixed at creation: a later transport
        that brings another one would split or skip the oracle's view."""
        oracle = ProtocolOracle() if first else None
        config, _, server, (client,) = make_rig(oracle=oracle)
        with pytest.raises(ConfigError, match="different protocol oracle"):
            RpcTransport(
                client, server, config.faults, RngStream.root(1),
                ProtocolOracle() if second else None,
            )
        assert server.rpc_endpoint.oracle is oracle

    def test_duplicate_is_suppressed_and_replayed(self):
        _, _, server, (client,) = make_rig()
        endpoint = server.rpc_endpoint
        request = msg(0, op="revalidate_file", args=(1,))
        answered, reply = deliver(endpoint, request)
        assert answered
        rpcs_after_first = server.counters.rpc_count
        answered_again, replayed = deliver(endpoint, request)
        assert answered_again and replayed == reply
        # The duplicate did NOT re-execute: no new server RPC.
        assert server.counters.rpc_count == rpcs_after_first
        assert server.counters.duplicate_rpcs_suppressed == 1
        assert server.counters.rpc_replies_replayed == 1

    def test_stale_arrival_is_dropped_without_execution(self):
        _, _, server, (client,) = make_rig()
        endpoint = server.rpc_endpoint
        for seq in range(3):
            deliver(endpoint, msg(seq, op="name_operation"))
        rpcs = server.counters.rpc_count
        # Seq 0 executed, and the mark has since risen past it.
        answered, reply = deliver(endpoint, msg(0, op="name_operation"))
        assert not answered and reply is None
        assert server.counters.rpc_count == rpcs  # nothing re-executed
        assert server.counters.stale_rpcs_dropped == 1
        assert server.counters.dedup_evictions == 0


class TestRpcTransport:
    def test_inert_transport_books_nothing(self):
        _, _, server, (client,) = make_rig()
        client.open_file(0.0, 1, will_write=False)
        client.read(1.0, 1, 0, 4096)
        counters = client.counters
        assert counters.rpc_messages_sent == 0
        assert counters.rpc_retransmissions == 0
        assert counters.rpc_replies_lost == 0
        assert counters.rpc_delay_seconds == 0.0
        assert counters.stall_seconds == 0.0

    def test_lossy_transport_retransmits_and_stalls(self):
        _, _, server, (client,) = make_rig(
            seed=3, message_loss_rate=0.5
        )
        for i in range(20):
            client.open_file(float(i), i, will_write=False)
        counters = client.counters
        assert counters.rpc_messages_sent > 40  # requests + replies + resends
        assert counters.rpc_retransmissions > 0
        assert counters.stall_seconds > 0.0
        # Every open still executed exactly once.
        assert server.counters.open_rpcs == 20

    def test_total_loss_still_terminates_and_executes(self):
        _, _, server, (client,) = make_rig(
            seed=3, message_loss_rate=1.0
        )
        client.open_file(0.0, 1, will_write=False)
        assert server.counters.open_rpcs == 1
        assert client.counters.rpc_retransmissions == MAX_ATTEMPTS - 1

    def test_lost_reply_is_not_a_second_execution(self):
        # Loss hits requests and replies alike; duplicate suppression
        # must keep executions at exactly one per call regardless.
        _, _, server, (client,) = make_rig(
            seed=11,
            message_loss_rate=0.4,
            message_duplicate_rate=0.3,
            message_reorder_rate=0.2,
        )
        for i in range(50):
            client.transports[0].call(float(i), "name_operation")
        # Stragglers may still be queued; what executed must match the
        # calls exactly (naming RPCs only in this test).
        assert server.counters.naming_rpcs == 50
        assert client.counters.rpc_replies_lost > 0

    def test_stragglers_surface_and_are_suppressed_on_the_next_call(self):
        """Every transmission straggles, so each call runs to the
        delivery floor and leaves its last copy held back.  The next
        call's first pass must still drain it: the drain is skipped only
        while nothing is held back."""
        _, _, server, (client,) = make_rig(seed=3, message_reorder_rate=1.0)
        transport = client.transports[0]
        counters = server.counters
        transport.call(0.0, "name_operation")
        # Passes 1 to 63 drain the previous pass's copy: the first
        # executes, the rest and the floor delivery are suppressed.
        assert counters.naming_rpcs == 1
        assert counters.duplicate_rpcs_suppressed == MAX_ATTEMPTS - 1
        transport.call(1.0, "name_operation")
        # One more: the first call's held-back copy, on the second's
        # first pass.
        assert counters.naming_rpcs == 2
        assert counters.duplicate_rpcs_suppressed == 2 * (MAX_ATTEMPTS - 1) + 1
        assert counters.stale_rpcs_dropped == 0

    def test_outage_resend_loop_matches_policy(self):
        _, _, _, (client,) = make_rig()
        assert client.transports[0].outage_resend_loop(0.5) == 3


class TestSequenceSpaceAcrossCrashes:
    """A reboot keeps the client's transport, so its sequence numbers run
    on across crashes: the first RPC after a client crash and reboot, or
    after a server crash and recovery, is new to the server's dedup cache
    and executes.  A restarted sequence space would be stale by
    construction: its numbers lie below the high-water mark, where the
    cache keeps no reply, so the call would be dropped instead."""

    @staticmethod
    def lossy_cluster():
        cluster = Cluster(
            ClusterConfig(
                client_count=1, faults=FaultConfig(message_loss_rate=0.3)
            ),
            seed=5,
        )
        client, server = cluster.clients[0], cluster.servers[0]
        for i in range(5):
            client.transports[0].call(float(i), "name_operation")
        return cluster, client, server

    @staticmethod
    def assert_next_call_executes(client, server):
        naming_rpcs = server.counters.naming_rpcs
        client.transports[0].call(10.0, "name_operation")
        assert server.counters.naming_rpcs == naming_rpcs + 1
        assert server.counters.stale_rpcs_dropped == 0

    def test_rpc_after_client_reboot_executes(self):
        cluster, client, server = self.lossy_cluster()
        cluster.crash_client(client)
        cluster.reboot_client(client)
        self.assert_next_call_executes(client, server)

    def test_rpc_after_server_recovery_executes(self):
        cluster, client, server = self.lossy_cluster()
        cluster.crash_server(down_until=0.0, server_id=0)
        cluster.recover_server(0)
        assert server.up
        self.assert_next_call_executes(client, server)


# --------------------------------------------------------------------------
# a call nested inside a call
# --------------------------------------------------------------------------


def reopen_after_heal(start, writer, reader, file_id, open_id):
    """Records and a partition from ``start`` on, in which ``writer``
    makes a call inside one of its own calls.

    ``writer`` writes ``file_id`` and closes it, and is partitioned at
    ``start + 2.5`` for 8 s, its block still dirty.  During the
    partition ``reader`` opens the file for read, so the server's recall
    of the dirty block fails.  0.1 s after the heal ``writer`` opens the
    file for write: its own open makes the file write-shared and
    disables caching, and the cache-disable callback writes the dirty
    block back inside the open RPC.  Returns (records, partition).
    """
    def at(dt):
        return start + dt

    def ids(offset, client):
        return dict(open_id=open_id + offset, file_id=file_id,
                    user_id=client, client_id=client)

    records = [
        OpenRecord(at(0.0), 0, mode=AccessMode.WRITE, **ids(0, writer)),
        WriteRunRecord(at(0.5), 0, offset=0, length=4096,
                       **ids(0, writer)),
        CloseRecord(at(1.0), 0, **ids(0, writer)),
        OpenRecord(at(5.0), 0, mode=AccessMode.READ, **ids(1, reader)),
        OpenRecord(at(10.6), 0, mode=AccessMode.WRITE, **ids(2, writer)),
        CloseRecord(at(12.0), 0, **ids(2, writer)),
        CloseRecord(at(13.0), 0, **ids(1, reader)),
    ]
    return records, FaultEvent(at(2.5), FaultKind.PARTITION, writer, 8.0)


@contextlib.contextmanager
def records_below_the_mark():
    """Inside this block, list each (client, seq) whose reply the
    production reply cache records below the client's high-water mark."""
    below: list[tuple[int, int]] = []
    record = DedupCache.record

    def spy(cache, client_id, seq, reply):
        if seq < cache.high.get(client_id, -1):
            below.append((client_id, seq))
        return record(cache, client_id, seq, reply)

    with mock.patch.object(DedupCache, "record", spy):
        yield below


#: Booked only by the reference's bounded reply cache.
REFERENCE_ONLY = frozenset({"dedup_evictions"})


def server_values(result, exempt=frozenset()) -> list:
    """Every server counter row, field by field, but the ``exempt``
    fields."""
    return [
        [(name, repr(getattr(row, name)))
         for name in row.FIELDS if name not in exempt]
        for row in (result.server_counters, *result.per_server_counters)
    ]


class TestNestedCalls:
    """The reply of a call that finishes after a call nested inside it
    is recorded below the high-water mark, and a lost reply or a late
    copy of that call must still be answered with it.  A cache that kept
    only the mark's reply would drop the retransmitted open as stale,
    and the client would get no reply at all."""

    LOSSY = FaultConfig(
        message_loss_rate=0.2,
        message_duplicate_rate=0.1,
        message_reorder_rate=0.1,
        message_delay_rate=0.2,
    )

    @classmethod
    def replay(cls, seed):
        records, partition = reopen_after_heal(
            0.0, writer=0, reader=1, file_id=7, open_id=1
        )
        oracle = ProtocolOracle(seed=seed, raise_on_violation=False)
        cluster = Cluster(
            ClusterConfig(client_count=2, faults=cls.LOSSY), seed=seed,
            oracle=oracle, fault_schedule=FaultSchedule([partition]),
        )
        result = cluster.replay(ColumnarTrace.from_records(records), 60.0)
        assert [str(v) for v in oracle.violations] == []
        return result

    @pytest.mark.parametrize("seed", range(1, 15))
    def test_reply_below_the_mark_is_replayed_as_the_ring_does(self, seed):
        with records_below_the_mark() as below:
            result = self.replay(seed)
        assert result.server_counters.recalls_failed == 1
        assert [client for client, _ in below] == [0]
        with reference_rpc.installed():
            reference = self.replay(seed)
        assert {c: v.digest() for c, v in result.final_counters.items()} == {
            c: v.digest() for c, v in reference.final_counters.items()
        }
        assert server_values(result, REFERENCE_ONLY) == (
            server_values(reference, REFERENCE_ONLY)
        )
