"""The four robustness study tables: R, S, A and C.

Each study replays one cluster trace once per swept setting.  A
:class:`StudyCell` pools one replay the way the paper's Tables 4-9 pool
the kernel counters -- :meth:`ClientCounters.aggregate` over every
client -- next to the server row and, for the studies that run one, the
protocol oracle.  Every table reads its cells through a list of
``(label, getter, precision)`` rows and :func:`render_study`.

* **Table R** -- data loss and recovery cost versus writeback age.  The
  paper's delayed-write policy trades reliability for traffic: "a delay
  means that data may be lost in a server or workstation crash"
  (Section 5.2).  The sweep injects the crashes and asks how many dirty
  bytes die with a machine, and what the Sprite reopen protocol pays to
  rebuild server state, from write-through (age 0) to well past
  Sprite's 30 seconds.
* **Table S** -- consistency under a lossy network: per scheme, reads
  served from a copy a lost invalidation failed to drop, and for the
  full cluster, what at-most-once delivery costs in resends and stall
  (:mod:`repro.consistency.lossy`).
* **Table A** -- availability and data loss versus replication factor.
* **Table C** -- silent corruption versus scrub interval and
  replication factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.render import format_number, render_table
from repro.common.units import KB
from repro.consistency.lossy import SCHEME_KEYS
from repro.consistency.schemes import SchemeComparison
from repro.fs import ClientCounters, ProtocolOracle, ServerCounters
from repro.fs.cluster import ClusterResult


@dataclass
class StudyCell:
    """One replay of a study sweep, pooled."""

    label: str
    #: Every client's counters summed field by field.
    clients: ClientCounters
    server: ServerCounters
    oracle: ProtocolOracle | None = None


def pool(
    label: str, result: ClusterResult, oracle: ProtocolOracle | None = None
) -> StudyCell:
    """Pool one replay into a table cell."""
    return StudyCell(
        label,
        ClientCounters.aggregate(result.final_counters.values()),
        result.server_counters,
        oracle,
    )


Row = tuple[str, Callable[[StudyCell], float], int]


def render_study(
    title: str, cells: Sequence[StudyCell], rows: Sequence[Row], note: str
) -> str:
    """One column per cell, one line per row."""
    return render_table(
        title,
        ["Measurement"] + [cell.label for cell in cells],
        [
            [label] + [format_number(getter(cell), precision) for cell in cells]
            for label, getter, precision in rows
        ],
        note=note,
    )


def violations(cell: StudyCell) -> int:
    return len(cell.oracle.violations)


def corruption_exposed(cell: StudyCell) -> int:
    """Acknowledged blocks still holding wrong bytes at end of replay
    with no loss booked (the oracle's silent-corruption violations)."""
    return sum(
        1 for v in cell.oracle.violations if v.invariant == "silent-corruption"
    )


def disk_faults_injected(cell: StudyCell) -> int:
    server = cell.server
    return server.disk_bit_rot_events + server.disk_torn_writes + server.disk_lost_writes


_RECOVERY_ROWS: tuple[Row, ...] = (
    ("Dirty Kbytes lost to crashes", lambda c: c.clients.lost_dirty_bytes / KB, 1),
    ("Dirty blocks lost", lambda c: c.clients.lost_dirty_blocks, 0),
    ("Blocks replayed at recovery", lambda c: c.clients.blocks_cleaned_recovery, 0),
    ("Reopen RPCs", lambda c: c.clients.reopen_rpcs, 0),
    ("Revalidate RPCs", lambda c: c.clients.revalidate_rpcs, 0),
    ("Blocks invalidated (stale after reboot)",
     lambda c: c.clients.blocks_invalidated_on_recovery, 0),
    ("RPC retries (backoff)", lambda c: c.clients.rpc_retries, 0),
    ("Process-seconds stalled", lambda c: c.clients.stall_seconds, 1),
    ("Stale reads while partitioned", lambda c: c.clients.stale_reads_served, 0),
    ("Writeback traffic (Kbytes)",
     lambda c: c.clients.bytes_written_to_server / KB, 0),
)


def render_recovery(cells: Sequence[StudyCell]) -> str:
    """Table R: one column per writeback age, same fault timeline."""
    first = cells[0]
    return render_study(
        "Table R. Data loss and recovery cost vs. writeback age",
        cells,
        _RECOVERY_ROWS,
        f"Same trace and fault timeline in every column "
        f"({first.server.crashes} server crashes, "
        f"{first.clients.crashes} client crashes, "
        f"{first.clients.partitions} partitions; "
        f"{format_number(first.server.downtime_seconds, 0)} s server "
        f"downtime); only the writeback age varies.  The paper's "
        f"Section 5.2 caveat quantified: delayed writes risk up "
        f"to one writeback-age of work per crash, write-through "
        f"(age 0) loses nothing but pays the full write traffic.",
    )


_REPLICATION_ROWS: tuple[Row, ...] = (
    ("Process-seconds stalled", lambda c: c.clients.stall_seconds, 1),
    ("RPC retries (backoff)", lambda c: c.clients.rpc_retries, 0),
    ("Dirty Kbytes lost to crashes", lambda c: c.clients.lost_dirty_bytes / KB, 1),
    ("Failover reads", lambda c: c.clients.failover_reads, 0),
    ("Ops routed around a down replica", lambda c: c.clients.failover_ops, 0),
    ("Replica writeback fan-out (blocks)",
     lambda c: c.clients.replica_writeback_blocks, 0),
    ("Replica version pushes", lambda c: c.server.replica_version_pushes, 0),
    ("Failure detections", lambda c: c.server.failure_detections, 0),
    ("Files re-replicated", lambda c: c.server.rereplicated_files, 0),
    ("Blocks copied by re-replication",
     lambda c: c.server.rereplication_blocks, 0),
    ("Oracle checks", lambda c: c.oracle.checks_run, 0),
    ("Oracle violations", violations, 0),
)


def render_replication(cells: Sequence[StudyCell]) -> str:
    """Table A: one column per replication factor, same fault timeline."""
    first = cells[0]
    return render_study(
        "Table A. Availability and data loss vs. replication factor",
        cells,
        _REPLICATION_ROWS,
        f"Same trace and fault timeline in every column "
        f"({first.server.crashes} server crashes, "
        f"{format_number(first.server.downtime_seconds, 0)} s server "
        f"downtime); only the replication factor varies.  With one "
        f"copy a crash blacks out the file's shard; extra replicas "
        f"turn those stalls into failover reads, and the heartbeat "
        f"detector re-replicates the dead server's files so the "
        f"cluster returns to full redundancy before the reboot.",
    )


_INTEGRITY_ROWS: tuple[Row, ...] = (
    ("Disk faults injected", disk_faults_injected, 0),
    ("  bit-rot events", lambda c: c.server.disk_bit_rot_events, 0),
    ("  torn writes", lambda c: c.server.disk_torn_writes, 0),
    ("  lost writes", lambda c: c.server.disk_lost_writes, 0),
    ("Read-path checksum failures", lambda c: c.server.checksum_failures, 0),
    ("Scrub blocks checked", lambda c: c.server.scrub_blocks_checked, 0),
    ("Scrub corruptions found", lambda c: c.server.scrub_corruptions_found, 0),
    ("Blocks repaired from replicas", lambda c: c.server.blocks_repaired, 0),
    ("Blocks declared lost", lambda c: c.server.blocks_declared_lost, 0),
    ("Reads hitting unrepairable data", lambda c: c.clients.checksum_failures, 0),
    ("Silent corruption exposed", corruption_exposed, 0),
    ("Oracle checks", lambda c: c.oracle.checks_run, 0),
    ("Oracle violations", violations, 0),
)


def render_integrity(cells: Sequence[StudyCell]) -> str:
    """Table C: one column per (replication factor, scrub interval)."""
    return render_study(
        "Table C. Silent corruption vs. scrub interval and replication "
        "factor",
        cells,
        _INTEGRITY_ROWS,
        "Same trace and seeded disk-fault timeline in every column; "
        "only the replication factor and scrub interval vary.  "
        "Detected corruption is repaired from the freshest verified "
        "live replica, or booked as a declared loss when no valid "
        "copy remains (always at r=1).  'Silent corruption exposed' "
        "counts acknowledged blocks still holding wrong bytes at end "
        "of replay with no loss booked -- the oracle flags each as a "
        "violation, so with replicas and scrubbing both on, the "
        "exposed and violation rows must read 0.",
    )


def render_loss(
    comparisons: Sequence[SchemeComparison], cells: Sequence[StudyCell]
) -> str:
    """Table S: one row per message-loss rate (the cell's label), the
    scheme leg first, then the transport leg's replay."""
    scheme_rows = []
    for cell, comparison in zip(cells, comparisons):
        row = [cell.label]
        for key in SCHEME_KEYS:
            overhead = getattr(comparison, key)
            row.append(
                f"{overhead.stale_reads} "
                f"({overhead.stale_read_fraction * 100:.2f}%)"
            )
        row.append(str(comparison.token.retransmissions))
        scheme_rows.append(row)
    schemes_table = render_table(
        "Table S. Stale reads under message loss, per consistency scheme",
        [
            "Loss rate",
            "Sprite stale reads",
            "Mod Sprite stale reads",
            "Token stale reads",
            "Token resends",
        ],
        scheme_rows,
        note=(
            "Reads served from a copy a lost invalidation failed to "
            "drop (count and fraction of all reads to write-shared "
            "files).  The cluster transport below pays resends and "
            "stall instead: with at-most-once RPC the oracle column "
            "must stay at zero."
        ),
    )
    transport_table = render_table(
        "Table S (cont.) At-most-once transport overhead, full replay",
        [
            "Loss rate",
            "Messages",
            "Resends",
            "Replies lost",
            "Dups suppressed",
            "Stall (s)",
            "Violations/checks",
        ],
        [
            [
                cell.label,
                str(cell.clients.rpc_messages_sent),
                str(cell.clients.rpc_retransmissions),
                str(cell.clients.rpc_replies_lost),
                str(cell.server.duplicate_rpcs_suppressed),
                # stall_seconds already contains rpc_delay_seconds;
                # never add the two (see rpc_delay_seconds in
                # repro.fs.counters).
                format_number(cell.clients.stall_seconds, 1),
                f"{violations(cell)}/{cell.oracle.checks_run}",
            ]
            for cell in cells
        ],
    )
    return f"{schemes_table}\n\n{transport_table}"
