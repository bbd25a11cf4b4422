"""Differential tests for the messaged RPC path (``repro.fs.rpc``).

``tests/reference_rpc.py`` keeps the path as it was before the inert
branch and the reply ring: a :class:`Message` per call, a channel drain
on every pass, an endpoint that classifies every arrival before
executing it, and an ``OrderedDict`` of replies per client.  Two
properties hold production to it:

* driven with the same interleaved arrivals and records, the ring-backed
  :class:`~repro.fs.rpc.DedupCache` and the reference cache classify
  every arrival alike, replay the same replies and evict as often;
* a replay with the protocol oracle attached, over an inert, a lossy
  and a reorder- and duplicate-heavy channel, leaves every client and
  server counter, the oracle's checks and violations, every transport's
  next sequence number and every channel's RNG state equal.
"""

from __future__ import annotations

import pytest

from repro.fs.cluster import Cluster
from repro.fs.config import ClusterConfig
from repro.fs.faults import FaultConfig
from repro.fs.oracle import ProtocolOracle
from repro.fs.rpc import DedupCache, DedupStatus
from repro.trace.columnar import ColumnarTrace

import reference_rpc
from test_replay_columns import (
    CLIENTS,
    LOSSY,
    _client_digests,
    record_streams,
    seeds,
)

hypothesis = pytest.importorskip("hypothesis")
given = hypothesis.given
st = hypothesis.strategies


# --------------------------------------------------------------------------
# the reply cache
# --------------------------------------------------------------------------


@st.composite
def dedup_scripts(draw):
    """A retention and a script of steps over three clients: an arrival
    of a drawn sequence number (gaps, repeats and old numbers included),
    or the record of an arrival classified NEW and not yet recorded,
    possibly late and out of seq order."""
    retention = draw(st.integers(1, 4))
    steps = []
    for _ in range(draw(st.integers(1, 80))):
        if draw(st.integers(0, 2)):
            steps.append(("arrive", draw(st.integers(0, 2)),
                          draw(st.integers(0, 30))))
        else:
            steps.append(("record", draw(st.integers(0, 10**6))))
    return retention, steps


@hypothesis.settings(max_examples=300, deadline=None)
@given(dedup_scripts())
def test_property_ring_matches_the_ordered_dict_cache(script):
    retention, steps = script
    ring = DedupCache(retention)
    reference = reference_rpc.DedupCache(retention)
    pending: list[tuple[int, int]] = []  # NEW arrivals not yet recorded
    evictions = 0
    for step in steps:
        if step[0] == "arrive":
            _, client_id, seq = step
            status, reply = ring.classify(client_id, seq)
            assert (status, reply) == reference.classify(client_id, seq)
            if status is DedupStatus.NEW and (client_id, seq) not in pending:
                pending.append((client_id, seq))
        elif pending:
            client_id, seq = pending.pop(step[1] % len(pending))
            reply = f"reply-{client_id}-{seq}"
            evictions += ring.record(client_id, seq, reply)
            reference.record(client_id, seq, reply)
            assert evictions == reference.evictions
    # Every seq ever recorded classifies the same at the end.
    for client_id in range(3):
        for seq in range(31):
            assert ring.classify(client_id, seq) == (
                reference.classify(client_id, seq)
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
        "servers": [row.digest() for row in result.per_server_counters],
        "aggregate": result.server_counters.digest(),
        "checks_run": oracle.checks_run,
        "violations": [str(v) for v in oracle.violations],
        "seqs": [t._seq for t in transports],
        "rng": [
            None if t.channel.rng is None else t.channel.rng._random.getstate()
            for t in transports
        ],
        "suppressed": result.server_counters.duplicate_rpcs_suppressed,
    }


@hypothesis.settings(max_examples=40, deadline=None)
@given(record_streams(), seeds)
def test_property_messaged_path_matches_the_reference(stream, seed):
    """The inert branch, the straggler-only drain, the primitive-taking
    endpoint and the reply ring change nothing a replay can see."""
    records, duration, schedule = stream
    for name, faults in CHANNELS.items():
        production = _replay(faults, records, duration, schedule, seed)
        with reference_rpc.installed():
            reference = _replay(faults, records, duration, schedule, seed)
        assert production == reference, name
        if name == "reorder+duplicate":
            hypothesis.event(
                "a straggler or copy was suppressed"
                if production["suppressed"] else "nothing suppressed"
            )
