"""Stall-time accounting: the overlap audit pinned down.

``stall_seconds`` is the total process-seconds a client spent waiting
for the server; ``rpc_delay_seconds`` is the subset of that caused by
the lossy channel delaying packets in flight.  They overlap by
construction -- every second of channel delay is booked in *both* --
so no consumer may ever add the two.  These tests pin the containment
on synthetic lossy runs: the difference of the two is the backoff and
outage share of the stall.
"""

from __future__ import annotations

from repro.fs.config import ClusterConfig
from repro.fs.faults import FaultConfig
from rigs import build_rig


def make_client(seed=7, **fault_kwargs):
    """One client wired to a server through a lossy channel."""
    config = ClusterConfig(client_count=1, faults=FaultConfig(**fault_kwargs))
    _, _, (client,) = build_rig(config, seed=seed)
    return client


def drive(client, ops=40):
    """A burst of opens/reads/writes/closes, all crossing the channel."""
    now = 0.0
    for i in range(ops):
        now += 1.0
        file_id = 100 + i
        client.open_file(now, file_id, True)
        client.write(now, file_id, 0, 8192)
        client.read(now, file_id, 0, 4096)
        client.close_file(now, file_id, True, fsync=True)
    return now


class TestStallOverlap:
    def test_delay_only_channel_stall_equals_rpc_delay(self):
        """With channel delay as the only fault, every stalled second is
        a delayed-packet second: the two counters coincide exactly, so
        summing them would report exactly double the true cost."""
        client = make_client(
            message_delay_rate=1.0, message_delay_mean=0.05
        )
        drive(client)
        counters = client.counters
        assert counters.rpc_delay_seconds > 0.0
        assert counters.stall_seconds == counters.rpc_delay_seconds

    def test_lossy_channel_books_backoff_beyond_delay(self):
        """Packet loss adds retransmission backoff, which lands in
        stall_seconds only; the split is exact and non-overlapping."""
        client = make_client(
            message_loss_rate=0.3,
            message_delay_rate=0.5,
            message_delay_mean=0.05,
        )
        drive(client)
        counters = client.counters
        assert counters.rpc_retransmissions > 0
        assert counters.rpc_delay_seconds > 0.0
        # The backoff share is what the stall holds beyond the delay.
        assert counters.stall_seconds > counters.rpc_delay_seconds

    def test_inert_channel_books_nothing(self):
        client = make_client()
        drive(client)
        counters = client.counters
        assert counters.stall_seconds == 0.0
        assert counters.rpc_delay_seconds == 0.0
