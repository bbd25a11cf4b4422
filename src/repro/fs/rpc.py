"""At-most-once RPC over a lossy message channel.

Every client<->server interaction -- opens, closes and other naming
operations, block fetches, writebacks, recovery RPCs, and the server's
recall/cache-disable callbacks -- is a :class:`Message` carried through
a seeded :class:`Channel` that can drop, duplicate, hold back
(reorder), and delay packets at the rates in
:class:`~repro.fs.faults.FaultConfig`.  On top of the channel sits a
classic at-most-once RPC layer:

* **sequence numbers** -- each client stamps requests from a private
  counter; retransmissions reuse the original stamp;
* **duplicate suppression** -- the server keeps a bounded per-client
  reply cache (:class:`DedupCache`).  A duplicate of an executed
  request replays the recorded reply without re-executing; a request
  older than the retention window is *dropped* -- never re-executed and
  never answered from someone else's reply (replaying after eviction is
  the classic at-most-once bug);
* **retransmission** -- a client that misses a reply resends with the
  same exponential backoff policy the outage path uses
  (:class:`BackoffPolicy`), booking the backoff as stall time.

Timing follows the simulator's open-loop convention: a message-level
fault never advances the global clock.  Retransmission backoff and
channel delays are booked into the stall counters, and the operation
executes logically at the moment it was issued -- so with every channel
rate at zero the transport is pure dispatch: no randomness is consumed,
no counter moves, and replays are byte-identical to the pre-transport
engine.

Reordering in a synchronous RPC world appears as *stragglers*: a held-
back packet is not delivered now but surfaces later, just before the
channel carries its next message -- by which point newer sequence
numbers have executed, so the straggler exercises the duplicate-
suppression path for real (an out-of-order delivery must be suppressed,
not re-executed).

Per-channel RNG streams are forked from the cluster seed by name, so a
replay draws the same channel randomness no matter how many worker
processes run alongside it.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import SimulationError
from repro.common.rng import RngStream
from repro.fs.faults import FaultConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.fs.client import ClientKernel
    from repro.fs.oracle import ProtocolOracle
    from repro.fs.server import Server

#: Resends before the transport stops simulating losses and delivers
#: anyway.  The channel is "eventually reliable" (like TCP over a lossy
#: link): the cap bounds the simulated retransmissions, not delivery,
#: so degenerate configs (loss rate 1.0) still terminate.
MAX_ATTEMPTS = 64

#: Replies retained per client by the duplicate-suppression cache.
#: With synchronous clients only stragglers ever look further back than
#: one sequence number, so a small window is plenty.
DEFAULT_DEDUP_RETENTION = 32


class BackoffPolicy:
    """The exponential-backoff retransmission policy.

    One object serves both transport paths: message-loss retransmits
    (real resends through the channel) and outage stalls (where the
    resend loop runs against a server known to be down until a given
    time, so every attempt before that time fails deterministically).
    """

    __slots__ = ("initial", "factor", "cap")

    def __init__(self, initial: float, factor: float, cap: float) -> None:
        self.initial = initial
        self.factor = factor
        self.cap = cap

    @classmethod
    def from_config(cls, config: FaultConfig) -> "BackoffPolicy":
        return cls(
            config.rpc_initial_backoff,
            config.rpc_backoff_factor,
            config.rpc_max_backoff,
        )

    def next_delay(self, delay: float | None) -> float:
        """The delay after ``delay`` (``None`` -> the first delay)."""
        if delay is None:
            return self.initial
        return min(delay * self.factor, self.cap)

    def attempts_for_wait(self, wait: float) -> int:
        """Resends the loop makes while the server stays unreachable for
        ``wait`` seconds (at least one).  The attempt that succeeds --
        fired the moment the server's recovery notification arrives,
        cutting the pending backoff short -- is not counted."""
        delay = self.initial
        elapsed = 0.0
        attempts = 0
        while elapsed < wait:
            attempts += 1
            elapsed += delay
            delay = min(delay * self.factor, self.cap)
        return max(1, attempts)


@dataclass(slots=True)
class Message:
    """One packet on the wire."""

    seq: int
    client_id: int
    op: str
    args: tuple
    #: > 0 on resends of the same (client, seq).
    attempt: int = 0


class Delivery(enum.Enum):
    """What the channel did with one transmission."""

    DELIVERED = "delivered"
    DROPPED = "dropped"
    #: Held back: surfaces later, out of order (see ``Channel.drain``).
    STRAGGLED = "straggled"


class Channel:
    """One client's lossy link to the server.

    A channel with every rate at zero (``rng`` may then be ``None``)
    never draws randomness and delivers everything immediately -- the
    inert default.  Rates are drawn in a fixed order (loss, reorder,
    duplicate, delay) so the draw count per transmission is
    deterministic.
    """

    __slots__ = (
        "faults", "rng", "lossy", "_stragglers",
        "messages_sent", "messages_dropped", "messages_duplicated",
        "messages_straggled", "delay_seconds",
    )

    def __init__(self, faults: FaultConfig, rng: RngStream | None) -> None:
        if faults.any_network_faults and rng is None:
            raise SimulationError("a lossy channel needs an RNG stream")
        self.faults = faults
        self.rng = rng
        self.lossy = faults.any_network_faults
        #: Held-back messages awaiting out-of-order delivery.
        self._stragglers: list[Message] = []
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_straggled = 0
        self.delay_seconds = 0.0

    def transmit(self, message: Message) -> tuple[Delivery, int, float]:
        """Send one message; returns (outcome, copies delivered, delay).

        ``copies`` counts extra duplicate deliveries (0 or 1) on top of
        the principal delivery; it is zero unless the outcome is
        DELIVERED.
        """
        self.messages_sent += 1
        if not self.lossy:
            return Delivery.DELIVERED, 0, 0.0
        faults = self.faults
        rng = self.rng
        if faults.message_loss_rate and rng.random() < faults.message_loss_rate:
            self.messages_dropped += 1
            return Delivery.DROPPED, 0, 0.0
        if faults.message_reorder_rate and rng.random() < faults.message_reorder_rate:
            self.messages_straggled += 1
            self._stragglers.append(message)
            return Delivery.STRAGGLED, 0, 0.0
        copies = 0
        if faults.message_duplicate_rate and rng.random() < faults.message_duplicate_rate:
            self.messages_duplicated += 1
            copies = 1
        delay = 0.0
        if faults.message_delay_rate and rng.random() < faults.message_delay_rate:
            delay = rng.exponential(faults.message_delay_mean)
            self.delay_seconds += delay
        return Delivery.DELIVERED, copies, delay

    def transmit_reply(self) -> tuple[bool, float]:
        """Carry a reply back; returns (delivered, delay).

        Replies draw loss and delay only: a duplicated reply is ignored
        by the client and a held-back reply is indistinguishable from a
        delayed one, so neither needs separate modelling.
        """
        self.messages_sent += 1
        if not self.lossy:
            return True, 0.0
        faults = self.faults
        rng = self.rng
        if faults.message_loss_rate and rng.random() < faults.message_loss_rate:
            self.messages_dropped += 1
            return False, 0.0
        delay = 0.0
        if faults.message_delay_rate and rng.random() < faults.message_delay_rate:
            delay = rng.exponential(faults.message_delay_mean)
            self.delay_seconds += delay
        return True, delay

    def drain(self) -> list[Message]:
        """Surface held-back messages.  Called before the channel
        carries its next message, so stragglers arrive after newer
        traffic -- a genuine out-of-order delivery."""
        if not self._stragglers:
            return []
        late = self._stragglers
        self._stragglers = []
        return late


class DedupStatus(enum.Enum):
    """How the duplicate-suppression cache classifies an arrival."""

    NEW = "new"              # execute it
    DUPLICATE = "duplicate"  # replay the recorded reply
    STALE = "stale"          # already executed but evicted: drop silently


class DedupCache:
    """Bounded per-client reply retention for at-most-once execution.

    For each client the cache remembers the highest executed sequence
    number and the replies of the most recent ``retention`` requests.
    Arrivals classify as:

    * ``NEW`` -- a sequence number above the high-water mark: execute;
    * ``DUPLICATE`` -- executed and still retained: replay the reply;
    * ``STALE`` -- at or below the high-water mark but evicted: the
      request already executed, its reply is gone, so the only safe
      answer is silence.  Replaying some *other* retained reply here
      would hand the client an answer to the wrong request -- the
      eviction bug this class exists to rule out.
    """

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

    def forget_client(self, client_id: int) -> None:
        """A server crash loses the (volatile) reply cache for everyone;
        a client reboot restarts its sequence space."""
        self._replies.pop(client_id, None)
        self._high.pop(client_id, None)


class ServerEndpoint:
    """The server side of the transport: dispatch + duplicate
    suppression + oracle notification.

    One endpoint serves all clients (the dedup cache is server state).
    It attaches itself to the :class:`~repro.fs.server.Server` so
    independently constructed :class:`RpcTransport`\\ s share it.
    """

    def __init__(
        self,
        server: "Server",
        oracle: "ProtocolOracle | None" = None,
        retention: int = DEFAULT_DEDUP_RETENTION,
    ) -> None:
        self.server = server
        self.oracle = oracle
        self.dedup = DedupCache(retention)
        self._ops: dict[str, Callable] = {
            "open_file": server.open_file,
            "close_file": server.close_file,
            "fetch_block": server.fetch_block,
            "write_block": server.write_block,
            "passthrough_read": server.passthrough_read,
            "passthrough_write": server.passthrough_write,
            "paging_transfer": server.paging_transfer,
            "name_operation": server.name_operation,
            # note_written_back takes no timestamp; adapt the dispatch shape.
            "note_written_back": (
                lambda now, file_id, client_id:
                server.note_written_back(file_id, client_id)
            ),
            "reopen_file": server.reopen_file,
            "revalidate_file": server.revalidate_file,
            "delete_file": self._delete_file,
            # Replication plane (repro.fs.replication): keep the other
            # live replicas' registrations and version stamps convergent
            # with the op the serving replica just executed.
            "replica_open": server.replica_open,
            "replica_close": server.replica_close,
        }

    @classmethod
    def attach(
        cls, server: "Server", oracle: "ProtocolOracle | None" = None
    ) -> "ServerEndpoint":
        """Get the server's endpoint, creating it on first use."""
        endpoint = getattr(server, "rpc_endpoint", None)
        if endpoint is None:
            endpoint = cls(server, oracle)
            server.rpc_endpoint = endpoint
        elif oracle is not None:
            endpoint.oracle = oracle
        return endpoint

    def _delete_file(self, now: float, file_id: int) -> None:
        """A delete/truncate naming RPC: one message, both effects."""
        self.server.name_operation(now)
        self.server.invalidate_file(file_id)

    def execute(self, now: float, client_id: int, op: str, args: tuple) -> Any:
        """Run one operation (no dedup -- the inert fast path)."""
        reply = self._ops[op](now, *args)
        if self.oracle is not None:
            self.oracle.on_execute(
                now, client_id, -1, op, args, reply,
                server_id=self.server.server_id,
            )
        return reply

    def receive(self, now: float, message: Message) -> tuple[bool, Any]:
        """One message arrives; returns (answered, reply).

        ``answered`` is False only for STALE arrivals, which are dropped
        without a reply (and without re-execution).

        The suppression state deliberately survives server crashes: the
        reopen protocol rebuilds per-client RPC state alongside the
        open-file registrations, so a straggler from before a crash is
        still recognised as old -- without this, a reboot would re-open
        the at-most-once hole the cache exists to close.
        """
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


class RpcTransport:
    """The client side: sequence numbers, retransmission, stall
    accounting, and the outage gate.

    With an inert channel and no oracle, :meth:`call` is a dict lookup
    and a method call -- the transport must cost nothing when it is
    configured to do nothing.
    """

    def __init__(
        self,
        client: "ClientKernel",
        server: "Server",
        faults: FaultConfig,
        rng: RngStream | None = None,
        oracle: "ProtocolOracle | None" = None,
    ) -> None:
        self.client = client
        self.server = server
        self.faults = faults
        self.channel = Channel(faults, rng)
        self.endpoint = ServerEndpoint.attach(server, oracle)
        self.backoff = BackoffPolicy.from_config(faults)
        self._seq = 0
        #: Fast path: no message faults and no oracle to notify.
        self._direct = not self.channel.lossy and oracle is None
        #: Prebound op table for the fast path: a direct call skips the
        #: execute() frame entirely (the oracle re-check in call() keeps
        #: an endpoint that gains an oracle later on the slow path).
        self._endpoint_ops = self.endpoint._ops
        #: Optional observability hook (repro.obs); None keeps call()
        #: on its unobserved paths, byte-identical to an obs-free build.
        self.obs = None

    @property
    def oracle(self) -> "ProtocolOracle | None":
        return self.endpoint.oracle

    def call(self, now: float, op: str, *args: Any) -> Any:
        """Issue one RPC and return its reply (at-most-once executed)."""
        if self.obs is not None:
            return self._call_observed(now, op, args)
        if self._direct:
            if self.endpoint.oracle is None:
                return self._endpoint_ops[op](now, *args)
            return self.endpoint.execute(now, self.client.client_id, op, args)
        return self._call_messaged(now, op, args)

    def _call_observed(self, now: float, op: str, args: tuple) -> Any:
        """The observed path: measure the round-trip as the stall this
        call books (channel delays + backoff; zero on the direct path,
        where the reply is logically instantaneous) and mirror it into
        the latency histogram and the event trace."""
        counters = self.client.counters
        stall_before = counters.stall_seconds
        retrans_before = counters.rpc_retransmissions
        if self._direct:
            reply = self.endpoint.execute(now, self.client.client_id, op, args)
        else:
            reply = self._call_messaged(now, op, args)
        self.obs.on_rpc_call(
            now, self.client.client_id, op,
            counters.stall_seconds - stall_before,
            counters.rpc_retransmissions - retrans_before,
        )
        return reply

    def _call_messaged(self, now: float, op: str, args: tuple) -> Any:
        counters = self.client.counters
        channel = self.channel
        message = Message(
            seq=self._seq, client_id=self.client.client_id, op=op, args=args
        )
        self._seq += 1
        delay: float | None = None
        attempt = 0
        while True:
            # Out-of-order traffic surfaces first: stragglers arrive
            # behind newer messages and must be suppressed, not rerun.
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
                    # The duplicate arrives right behind the original
                    # and is suppressed by the reply cache.
                    self.endpoint.receive(now, message)
                if answered:
                    # The reply crosses the same lossy link.
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
                # No reply (lost, straggled, or a stale drop): fall
                # through to the retransmission path below.
            if attempt + 1 >= MAX_ATTEMPTS:
                # Eventually-reliable floor: stop simulating losses.
                answered, reply = self.endpoint.receive(now, message)
                return reply if answered else None
            delay = self.backoff.next_delay(delay)
            counters.stall_seconds += delay
            attempt += 1

    # --- the outage gate -------------------------------------------------------

    def outage_resend_loop(self, wait: float) -> int:
        """Run the retransmission loop against a server known to be
        unreachable for ``wait`` more seconds.

        Every resend before the outage ends fails -- deterministically,
        no randomness -- and the attempt fired when the recovery
        notification arrives succeeds, cutting the pending backoff
        short.  Returns the number of failed resends; the caller books
        them (and the ``wait`` itself) into the fault counters.
        """
        return self.backoff.attempts_for_wait(wait)

    # --- server -> client callbacks --------------------------------------------

    def deliver_callback(self, now: float, apply: Callable[[], None],
                         kind: str, file_id: int) -> None:
        """Carry a server-initiated callback (recall, cache disable)
        over this client's channel.

        Callbacks are retried on loss until delivered (the server blocks
        the triggering open on them, so they use stall semantics);
        duplicates and stragglers are not modelled for callbacks -- the
        server sends them at most once per triggering event, and an
        at-least-once retry with an idempotent body is safe.
        """
        channel = self.channel
        counters = self.client.counters
        attempt = 0
        delay: float | None = None
        while channel.lossy:
            counters.rpc_messages_sent += 1
            if channel.rng.random() >= self.faults.message_loss_rate:
                break
            channel.messages_dropped += 1
            if attempt + 1 >= MAX_ATTEMPTS:
                break
            delay = self.backoff.next_delay(delay)
            counters.stall_seconds += delay
            counters.rpc_retransmissions += 1
            attempt += 1
        apply()
        if self.endpoint.oracle is not None:
            self.endpoint.oracle.on_callback(now, self.client, kind, file_id)
