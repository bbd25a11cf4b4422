"""Table R: data loss and recovery cost versus writeback age.

The paper's delayed-write policy trades reliability for traffic: "a
delay means that data may be lost in a server or workstation crash"
(Section 5.2), bounded by the 30-second writeback age.  The paper
measures only the healthy cluster; this study injects the crashes and
asks what the policy actually costs -- how many dirty bytes die with a
machine, and what the Sprite reopen protocol pays to rebuild server
state -- as the writeback age is swept from write-through (age 0) to
well past Sprite's 30 seconds.

Each cell summarizes one full cluster replay (same trace, same fault
schedule, different writeback age), pooling the per-client fault
counters with the server's recovery counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.render import format_number, render_table
from repro.common.units import KB
from repro.fs.cluster import ClusterResult


@dataclass
class RecoveryCell:
    """Fault and recovery totals for one replay of the sweep."""

    label: str
    writeback_delay: float
    write_through: bool

    server_crashes: int = 0
    client_crashes: int = 0
    partitions: int = 0
    downtime_seconds: float = 0.0

    #: Dirty data destroyed by a client crash or a version conflict.
    lost_dirty_blocks: int = 0
    lost_dirty_bytes: int = 0
    #: Dirty blocks whose writeback came due during an outage and was
    #: replayed at recovery.
    replayed_blocks: int = 0

    #: Recovery protocol cost.
    reopen_rpcs: int = 0
    revalidate_rpcs: int = 0
    invalidated_blocks: int = 0

    #: Degraded-mode cost while the server was unreachable.
    rpc_retries: int = 0
    rpc_failed_ops: int = 0
    stall_seconds: float = 0.0
    ops_dropped: int = 0

    #: Stale cache hits served while partitioned from the server.
    stale_reads: int = 0
    stale_read_bytes: int = 0

    bytes_written_to_server: int = 0

    @classmethod
    def from_result(cls, label: str, result: ClusterResult) -> "RecoveryCell":
        config = result.config
        cell = cls(
            label=label,
            writeback_delay=config.writeback_delay,
            write_through=config.write_through,
            server_crashes=result.server_counters.crashes,
            downtime_seconds=result.server_counters.downtime_seconds,
        )
        for counters in result.final_counters.values():
            cell.client_crashes += counters.crashes
            cell.partitions += counters.partitions
            cell.lost_dirty_blocks += counters.lost_dirty_blocks
            cell.lost_dirty_bytes += counters.lost_dirty_bytes
            cell.replayed_blocks += counters.blocks_cleaned_recovery
            cell.reopen_rpcs += counters.reopen_rpcs
            cell.revalidate_rpcs += counters.revalidate_rpcs
            cell.invalidated_blocks += counters.blocks_invalidated_on_recovery
            cell.rpc_retries += counters.rpc_retries
            cell.rpc_failed_ops += counters.rpc_failed_ops
            cell.stall_seconds += counters.stall_seconds
            cell.ops_dropped += counters.ops_dropped_while_down
            cell.stale_reads += counters.stale_reads_served
            cell.stale_read_bytes += counters.stale_read_bytes
            cell.bytes_written_to_server += counters.bytes_written_to_server
        return cell

    @property
    def lost_kbytes(self) -> float:
        return self.lost_dirty_bytes / KB

    @property
    def writeback_kbytes(self) -> float:
        return self.bytes_written_to_server / KB


@dataclass
class RecoveryStudyResult:
    """The full sweep: one cell per writeback age, same fault timeline."""

    cells: list[RecoveryCell] = field(default_factory=list)

    def render(self) -> str:
        headers = ["Measurement"] + [cell.label for cell in self.cells]

        def row(label: str, getter, precision: int = 1) -> list[str]:
            return [label] + [
                format_number(getter(cell), precision) for cell in self.cells
            ]

        rows = [
            row("Dirty Kbytes lost to crashes",
                lambda c: c.lost_kbytes, 1),
            row("Dirty blocks lost", lambda c: float(c.lost_dirty_blocks), 0),
            row("Blocks replayed at recovery",
                lambda c: float(c.replayed_blocks), 0),
            row("Reopen RPCs", lambda c: float(c.reopen_rpcs), 0),
            row("Revalidate RPCs", lambda c: float(c.revalidate_rpcs), 0),
            row("Blocks invalidated (stale after reboot)",
                lambda c: float(c.invalidated_blocks), 0),
            row("RPC retries (backoff)", lambda c: float(c.rpc_retries), 0),
            row("Process-seconds stalled", lambda c: c.stall_seconds, 1),
            row("Stale reads while partitioned",
                lambda c: float(c.stale_reads), 0),
            row("Writeback traffic (Kbytes)",
                lambda c: c.writeback_kbytes, 0),
        ]
        first = self.cells[0] if self.cells else None
        note = None
        if first is not None:
            note = (
                f"Same trace and fault timeline in every column "
                f"({first.server_crashes} server crashes, "
                f"{first.client_crashes} client crashes, "
                f"{first.partitions} partitions; "
                f"{format_number(first.downtime_seconds, 0)} s server "
                f"downtime); only the writeback age varies.  The paper's "
                f"Section 5.2 caveat quantified: delayed writes risk up "
                f"to one writeback-age of work per crash, write-through "
                f"(age 0) loses nothing but pays the full write traffic."
            )
        return render_table(
            "Table R. Data loss and recovery cost vs. writeback age",
            headers,
            rows,
            note=note,
        )


def compute_recovery_study(
    labelled_results: list[tuple[str, ClusterResult]],
) -> RecoveryStudyResult:
    """Pool each replay of the writeback-age sweep into one table cell."""
    return RecoveryStudyResult(
        cells=[
            RecoveryCell.from_result(label, result)
            for label, result in labelled_results
        ]
    )
