"""The RPC call path before it split into an inert path and a lossy
loop, kept as the reference for ``repro.fs.rpc``.

Here every call, on an inert channel too, builds a :class:`Message`,
drains the channel and crosses :meth:`Channel.transmit` and
:meth:`Channel.transmit_reply`; the server endpoint classifies each
arrival before executing it; and :class:`DedupCache` keeps each
client's last 32 replies in an ``OrderedDict``, popping the oldest
beyond that bound and booking each pop in ``dedup_evictions``.
:func:`installed` swaps these into ``repro.fs.rpc`` so a cluster built
inside it runs the reference path (``tests/test_rpc_reference.py``),
which must leave every counter but ``dedup_evictions``, the oracle's
checks and the channel RNG exactly where production does.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any
from unittest import mock

from repro.common.errors import SimulationError
from repro.fs import rpc
from repro.fs.rpc import MAX_ATTEMPTS, DedupStatus, Delivery

#: Replies kept per client.
DEFAULT_DEDUP_RETENTION = 32


@dataclass(slots=True)
class Message:
    """One packet on the wire."""

    seq: int
    client_id: int
    op: str
    args: tuple
    #: > 0 on resends of the same (client, seq).
    attempt: int = 0


class DedupCache:
    """Bounded per-client reply retention: an ``OrderedDict`` per
    client, oldest first, popped beyond ``retention``."""

    __slots__ = ("retention", "_replies", "_high", "suppressed",
                 "replayed", "stale_dropped", "evictions")

    def __init__(self, retention: int = DEFAULT_DEDUP_RETENTION) -> None:
        if retention < 1:
            raise SimulationError(f"dedup retention must be >= 1, got {retention}")
        self.retention = retention
        #: client -> seq -> recorded reply, oldest first.
        self._replies: dict[int, OrderedDict[int, Any]] = {}
        #: client -> highest executed sequence number.
        self._high: dict[int, int] = {}
        self.suppressed = 0
        self.replayed = 0
        self.stale_dropped = 0
        self.evictions = 0

    def classify(self, client_id: int, seq: int) -> tuple[DedupStatus, Any]:
        """Classify an arrival; returns (status, retained reply or None)."""
        high = self._high.get(client_id)
        if high is None or seq > high:
            return DedupStatus.NEW, None
        retained = self._replies.get(client_id)
        if retained is not None and seq in retained:
            self.suppressed += 1
            self.replayed += 1
            return DedupStatus.DUPLICATE, retained[seq]
        self.suppressed += 1
        self.stale_dropped += 1
        return DedupStatus.STALE, None

    def record(self, client_id: int, seq: int, reply: Any) -> None:
        """Remember an executed request's reply, evicting beyond the
        retention bound."""
        high = self._high
        if seq > high.get(client_id, -1):
            high[client_id] = seq
        retained = self._replies.get(client_id)
        if retained is None:
            retained = self._replies[client_id] = OrderedDict()
        retained[seq] = reply
        while len(retained) > self.retention:
            retained.popitem(last=False)
            self.evictions += 1


class ServerEndpoint(rpc.ServerEndpoint):
    """The endpoint with the reference cache and the message-taking
    ``receive`` that classifies every arrival before executing it."""

    def __init__(self, server, oracle) -> None:
        super().__init__(server, oracle)
        self.dedup = DedupCache()

    def receive(self, now: float, message: Message) -> tuple[bool, Any]:
        """One message arrives; returns (answered, reply)."""
        status, retained = self.dedup.classify(message.client_id, message.seq)
        counters = self.server.counters
        if status is DedupStatus.DUPLICATE:
            counters.duplicate_rpcs_suppressed += 1
            counters.rpc_replies_replayed += 1
            return True, retained
        if status is DedupStatus.STALE:
            counters.duplicate_rpcs_suppressed += 1
            counters.stale_rpcs_dropped += 1
            return False, None
        reply = self._ops[message.op](now, *message.args)
        evictions_before = self.dedup.evictions
        self.dedup.record(message.client_id, message.seq, reply)
        counters.dedup_evictions += self.dedup.evictions - evictions_before
        if self.oracle is not None:
            self.oracle.on_execute(
                now, message.client_id, message.seq, message.op,
                message.args, reply,
                server_id=self.server.server_id,
            )
        return True, reply


def call(self, now: float, op: str, args: tuple) -> Any:
    """``RpcTransport._call``: one loop for every channel."""
    counters = self.client.counters
    channel = self.channel
    message = Message(
        seq=self._seq, client_id=self.client.client_id, op=op, args=args
    )
    self._seq += 1
    delay: float | None = None
    attempt = 0
    while True:
        for late in channel.drain():
            self.endpoint.receive(now, late)
        message.attempt = attempt
        if attempt > 0:
            counters.rpc_retransmissions += 1
            if self.obs is not None:
                self.obs.on_rpc_retransmit(
                    now, self.client.client_id, op, attempt
                )
        outcome, copies, net_delay = channel.transmit(message)
        if channel.lossy:
            counters.rpc_messages_sent += 1
        if outcome is Delivery.DELIVERED:
            if net_delay > 0.0:
                counters.rpc_delay_seconds += net_delay
                counters.stall_seconds += net_delay
            answered, reply = self.endpoint.receive(now, message)
            for _ in range(copies):
                self.endpoint.receive(now, message)
            if answered:
                delivered, reply_delay = channel.transmit_reply()
                if channel.lossy:
                    counters.rpc_messages_sent += 1
                if delivered:
                    if reply_delay > 0.0:
                        counters.rpc_delay_seconds += reply_delay
                        counters.stall_seconds += reply_delay
                    return reply
                counters.rpc_replies_lost += 1
                if self.obs is not None:
                    self.obs.on_rpc_reply_lost(
                        now, self.client.client_id, op
                    )
        if attempt + 1 >= MAX_ATTEMPTS:
            answered, reply = self.endpoint.receive(now, message)
            return reply if answered else None
        delay = self.backoff.next_delay(delay)
        counters.stall_seconds += delay
        attempt += 1


@contextlib.contextmanager
def installed():
    """Build clusters on the reference path inside this block: new
    endpoints are reference endpoints, and every transport's call runs
    the reference loop."""
    with mock.patch.object(rpc, "ServerEndpoint", ServerEndpoint), \
            mock.patch.object(rpc.RpcTransport, "_call", call):
        yield
