"""Differential tests for the RPC call paths (``repro.fs.rpc``).

``tests/reference_rpc.py`` keeps the call path as it was before it
split into an inert path and a lossy loop: a :class:`Message` per call
on every channel, a channel drain on every pass, an endpoint that
classifies every arrival before executing it, and an ``OrderedDict`` of
each client's last 32 replies.  Two properties hold production to it:

* driven with the arrivals a transport produces -- calls with calls
  nested inside them, lost, copied and held-back messages, lost
  replies and resends -- the production :class:`~repro.fs.rpc.DedupCache`
  (the high-water mark's reply and the replies recorded below it) and
  the 32-reply reference cache classify every arrival alike and replay
  the same replies;
* a replay with the protocol oracle attached, over an inert, a lossy
  and a reorder- and duplicate-heavy channel, leaves every client
  counter, every server counter but ``dedup_evictions`` (which only the
  reference's bounded cache books), the oracle's checks and violations,
  every transport's next sequence number and every channel's RNG state
  equal.  Its streams end with a partition-heal re-open, so some replays
  record a reply below the mark.
"""

from __future__ import annotations

import pytest

from repro.fs.cluster import Cluster
from repro.fs.config import ClusterConfig
from repro.fs.faults import FaultConfig, FaultSchedule
from repro.fs.oracle import ProtocolOracle
from repro.fs.rpc import DedupCache, DedupStatus
from repro.trace.columnar import ColumnarTrace
from repro.trace.records import OpenRecord

import reference_rpc
from test_replay_columns import (
    CLIENTS,
    FILES,
    LOSSY,
    _client_digests,
    record_streams,
    seeds,
)
from test_rpc_transport import (
    REFERENCE_ONLY,
    records_below_the_mark,
    reopen_after_heal,
    server_values,
)

hypothesis = pytest.importorskip("hypothesis")
given = hypothesis.given
st = hypothesis.strategies


# --------------------------------------------------------------------------
# the reply cache, on transport traffic
# --------------------------------------------------------------------------

#: Passes a modelled call makes before its floor delivery.
PASSES = 4

#: What becomes of one pass's message, and whether an answered
#: message's reply gets back.
FATES = st.tuples(
    st.sampled_from(("lost", "held", "delivered", "copied")), st.booleans()
)

#: A call: the calls nested inside its execution, each a call in turn,
#: two levels deep at most.
calls = st.lists(
    st.lists(st.just(()), max_size=2).map(tuple), max_size=2
).map(tuple)


def _drive(data, script) -> bool:
    """Run ``script`` -- (client, call) pairs -- through a model of the
    lossy loop against both caches, comparing every arrival; returns
    whether a reply was recorded below the mark.

    Each pass of a call first delivers what its client's channel holds
    back, then the message is drawn lost, held back, delivered, or
    delivered with a copy; a delivered, answered message's reply is
    drawn lost or back.  An arrival classified NEW runs the calls nested
    in it before its reply is recorded.
    """
    production = DedupCache()
    reference = reference_rpc.DedupCache()
    held: dict[int, list] = {0: [], 1: []}
    next_seq = {0: 0, 1: 0}
    below = False

    def arrive(client_id, seq, nested) -> bool:
        nonlocal below
        status, reply = production.classify(client_id, seq)
        assert (status, reply) == reference.classify(client_id, seq)
        if status is DedupStatus.NEW:
            for inner in nested:
                call(client_id, inner)
            below |= seq < production.high.get(client_id, -1)
            reply = f"reply-{client_id}-{seq}"
            production.record(client_id, seq, reply)
            reference.record(client_id, seq, reply)
        return status is not DedupStatus.STALE

    def call(client_id, nested) -> None:
        seq = next_seq[client_id]
        next_seq[client_id] = seq + 1
        for _ in range(PASSES):
            late, held[client_id] = held[client_id], []
            for message in late:
                arrive(client_id, *message)
            fate, reply_back = data.draw(FATES)
            if fate == "held":
                held[client_id].append((seq, nested))
            elif fate != "lost":
                answered = arrive(client_id, seq, nested)
                if fate == "copied":
                    arrive(client_id, seq, nested)
                if answered and reply_back:
                    return
        arrive(client_id, seq, nested)  # the floor delivery

    for client_id, nested in script:
        call(client_id, nested)
    for client_id, late in held.items():
        for message in late:
            arrive(client_id, *message)
    return below


@hypothesis.settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), calls), min_size=1,
                max_size=6), st.data())
def test_property_cache_matches_the_ring_on_transport_traffic(script, data):
    below = _drive(data, script)
    hypothesis.event(
        "a reply was recorded below the mark" if below
        else "no reply recorded below the mark"
    )


# --------------------------------------------------------------------------
# a replay on the reference path
# --------------------------------------------------------------------------

CHANNELS = {
    "inert": FaultConfig(),
    "lossy": LOSSY,
    "reorder+duplicate": FaultConfig(
        message_loss_rate=0.1,
        message_reorder_rate=0.6,
        message_duplicate_rate=0.6,
        message_delay_rate=0.5,
    ),
}

#: The file the re-open tail writes: the drawn stream never touches it.
NESTED_FILE = 7
assert NESTED_FILE not in FILES


@st.composite
def streams_with_a_reopen_after_heal(draw):
    """A :func:`record_streams` draw followed by
    :func:`reopen_after_heal` between two drawn clients.  The tail
    starts right after the stream, where the drawn crashes may still
    be running, or once they are all over."""
    records, duration, schedule = draw(record_streams())
    writer, reader = draw(st.permutations(range(CLIENTS)))[:2]
    open_id = 1 + max(
        (r.open_id for r in records if isinstance(r, OpenRecord)), default=0
    )
    start = records[-1].time + draw(st.sampled_from((0.5, 61.0)))
    tail, partition = reopen_after_heal(
        start, writer, reader, NESTED_FILE, open_id
    )
    return (
        [*records, *tail],
        max(duration, tail[-1].time + 31.0),
        FaultSchedule([*schedule.events, partition]),
    )


def _replay(faults, records, duration, schedule, seed) -> dict:
    oracle = ProtocolOracle(seed=seed, raise_on_violation=False)
    cluster = Cluster(
        ClusterConfig(client_count=CLIENTS, faults=faults), seed=seed,
        oracle=oracle, fault_schedule=schedule,
    )
    result = cluster.replay(ColumnarTrace.from_records(records), duration)
    transports = [t for c in cluster.clients for t in c.transports]
    return {
        "clients": _client_digests(result),
        "servers": server_values(result, REFERENCE_ONLY),
        "checks_run": oracle.checks_run,
        "violations": [str(v) for v in oracle.violations],
        "seqs": [t._seq for t in transports],
        "rng": [
            None if t.channel.rng is None else t.channel.rng._random.getstate()
            for t in transports
        ],
        "suppressed": result.server_counters.duplicate_rpcs_suppressed,
    }


def test_property_messaged_path_matches_the_reference():
    """The two call paths and the mark-and-below reply cache change
    nothing a replay can see but ``dedup_evictions``, and some examples
    record a reply below the mark."""
    nested: list[bool] = []

    @hypothesis.settings(max_examples=40, deadline=None)
    @given(streams_with_a_reopen_after_heal(), seeds)
    def check(stream, seed):
        records, duration, schedule = stream
        below = []
        for name, faults in CHANNELS.items():
            with records_below_the_mark() as recorded:
                production = _replay(faults, records, duration, schedule, seed)
            below += recorded
            with reference_rpc.installed():
                reference = _replay(faults, records, duration, schedule, seed)
            assert production == reference, name
            if name == "reorder+duplicate":
                hypothesis.event(
                    "a straggler or copy was suppressed"
                    if production["suppressed"] else "nothing suppressed"
                )
        hypothesis.event(
            "a reply was recorded below the mark" if below
            else "no reply recorded below the mark"
        )
        nested.append(bool(below))

    check()
    share = sum(nested) / len(nested)
    assert share > 0, "no example recorded a reply below the mark"
