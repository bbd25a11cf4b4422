"""Table 3: file access patterns.

Accesses are classified two ways:

* by what actually happened -- read-only, write-only, or read/write
  ("an access is considered read/write only if the file was both read
  and written during the access");
* by sequentiality -- whole-file ("the entire file was transferred
  sequentially from start to finish"), other sequential ("a single
  sequential run ... between open and close"), or random.

Both classifications are reported weighted by accesses and by bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.analysis.episodes import AccessTable
from repro.common.render import format_with_range, render_table
from repro.common.stats import MinMax


class AccessType(enum.Enum):
    READ_ONLY = "Read-only"
    WRITE_ONLY = "Write-only"
    READ_WRITE = "Read/write"


class Sequentiality(enum.Enum):
    WHOLE_FILE = "Whole-file"
    OTHER_SEQUENTIAL = "Other sequential"
    RANDOM = "Random"


#: Every (type, sequentiality) cell, in table order.
CELLS: tuple[tuple[AccessType, Sequentiality], ...] = tuple(
    (t, s) for t in AccessType for s in Sequentiality
)


def classify_accesses(table: AccessTable) -> np.ndarray:
    """Each access's index into :data:`CELLS`; -1 for a zero-byte
    access (an open and close with no transfer carries no pattern
    information).

    A read/write access has at least one run per direction, so it is
    always random.  Otherwise one run is sequential, more are random,
    and one run covering the file from start to finish is whole-file:
    for reads the relevant size is the size when reading began, for
    writes the file's size at close.
    """
    read = table.bytes_read > 0
    written = table.bytes_written > 0
    access_type = np.where(read, np.where(written, 2, 0), 1)
    first = table.run_start[:-1]
    offset = np.append(table.run_offset, 0)[first]
    length = np.append(table.run_length, 0)[first]
    file_size = np.where(read, table.size_at_open, table.size_at_close)
    whole = (offset == 0) & (length >= file_size) & (file_size > 0)
    single = np.diff(table.run_start) == 1
    sequentiality = np.where(single, np.where(whole, 0, 1), 2)
    cell = access_type * len(Sequentiality) + sequentiality
    return np.where(read | written, cell, -1)


@dataclass
class PatternCell:
    """Counts for one (type, sequentiality) cell."""

    accesses: int = 0
    bytes: int = 0


@dataclass
class AccessPatternResult:
    """Table 3 for one trace or a pool of traces."""

    cells: dict[tuple[AccessType, Sequentiality], PatternCell] = field(
        default_factory=lambda: {key: PatternCell() for key in CELLS}
    )
    skipped_zero_byte: int = 0

    # --- aggregate views ----------------------------------------------------

    def type_totals(self) -> dict[AccessType, PatternCell]:
        totals = {t: PatternCell() for t in AccessType}
        for (access_type, _), cell in self.cells.items():
            totals[access_type].accesses += cell.accesses
            totals[access_type].bytes += cell.bytes
        return totals

    @property
    def total_accesses(self) -> int:
        return sum(cell.accesses for cell in self.cells.values())

    @property
    def total_bytes(self) -> int:
        return sum(cell.bytes for cell in self.cells.values())

    def type_share(self, access_type: AccessType, by_bytes: bool = False) -> float:
        """Fraction of all accesses (or bytes) of the given type."""
        totals = self.type_totals()
        denominator = self.total_bytes if by_bytes else self.total_accesses
        if denominator == 0:
            return 0.0
        cell = totals[access_type]
        return (cell.bytes if by_bytes else cell.accesses) / denominator

    def sequentiality_share(
        self,
        access_type: AccessType,
        sequentiality: Sequentiality,
        by_bytes: bool = False,
    ) -> float:
        """Within one access type, the share of a sequentiality class."""
        totals = self.type_totals()
        denominator = (
            totals[access_type].bytes if by_bytes else totals[access_type].accesses
        )
        if denominator == 0:
            return 0.0
        cell = self.cells[(access_type, sequentiality)]
        return (cell.bytes if by_bytes else cell.accesses) / denominator

    @property
    def sequential_bytes_fraction(self) -> float:
        """Fraction of all bytes moved in non-random accesses (the paper:
        "more than 90% of all data was transferred sequentially")."""
        if self.total_bytes == 0:
            return 0.0
        sequential = sum(
            cell.bytes
            for (_, seq), cell in self.cells.items()
            if seq is not Sequentiality.RANDOM
        )
        return sequential / self.total_bytes


def compute_access_patterns(tables: Iterable[AccessTable]) -> AccessPatternResult:
    """Classify every access of the tables, pooled."""
    result = AccessPatternResult()
    for table in tables:
        cells = classify_accesses(table)
        transferred = table.bytes_read + table.bytes_written
        result.skipped_zero_byte += int(np.count_nonzero(cells < 0))
        for index, key in enumerate(CELLS):
            chosen = cells == index
            cell = result.cells[key]
            cell.accesses += int(np.count_nonzero(chosen))
            cell.bytes += int(transferred[chosen].sum())
    return result


def render_table3(
    pooled: AccessPatternResult, per_trace: list[AccessPatternResult]
) -> str:
    """Render Table 3 with min-max bands across traces, like the paper."""

    def band(getter) -> MinMax:
        values = MinMax()
        for result in per_trace:
            values.add(getter(result))
        return values

    rows = []
    for access_type in AccessType:
        type_access = 100 * pooled.type_share(access_type)
        type_bytes = 100 * pooled.type_share(access_type, by_bytes=True)
        band_a = band(lambda r, t=access_type: 100 * r.type_share(t))
        band_b = band(lambda r, t=access_type: 100 * r.type_share(t, True))
        rows.append(
            [
                access_type.value,
                format_with_range(type_access, *band_a.as_tuple(), 0),
                format_with_range(type_bytes, *band_b.as_tuple(), 0),
                "",
                "",
            ]
        )
        for seq in Sequentiality:
            share_a = 100 * pooled.sequentiality_share(access_type, seq)
            share_b = 100 * pooled.sequentiality_share(access_type, seq, True)
            sband_a = band(
                lambda r, t=access_type, s=seq: 100 * r.sequentiality_share(t, s)
            )
            sband_b = band(
                lambda r, t=access_type, s=seq: 100
                * r.sequentiality_share(t, s, True)
            )
            rows.append(
                [
                    f"  {seq.value}",
                    "",
                    "",
                    format_with_range(share_a, *sband_a.as_tuple(), 0),
                    format_with_range(share_b, *sband_b.as_tuple(), 0),
                ]
            )
    return render_table(
        "Table 3. File access patterns",
        ["File usage", "Accesses (%)", "Bytes (%)", "Seq. Accesses (%)", "Seq. Bytes (%)"],
        rows,
        note=(
            f"Sequentially transferred bytes overall: "
            f"{100 * pooled.sequential_bytes_fraction:.1f}% "
            "(paper: more than 90%)."
        ),
    )
