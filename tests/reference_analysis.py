"""The record-walking Section 4 analyses, kept as the reference for
``repro.analysis``.

These are the record-path implementations of Tables 1 and 1a, Tables 2
and 2a, Table 3 and Figures 1-4: an assembler that walks record objects
and builds an ``Access`` with its ``LogicalRun`` list per open..close
episode, a per-access classifier, per-access ``add`` methods on the
result classes (here as subclasses of the production results, so both
paths render through the same code), and Table 2's accumulator, which
walks every record once per interval width and user class.  The
production analyses compute the same results with array operations
over a :class:`~repro.trace.columnar.ColumnarTrace`; on any stream both
must agree exactly (``tests/test_replay_columns.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.analysis import access_patterns, file_size, lifetime, open_time, run_length
from repro.analysis.access_patterns import AccessType, Sequentiality
from repro.analysis.activity import ActivityResult, IntervalScaleResult
from repro.analysis.lifetime import _BYTE_SPAN_SAMPLES
from repro.analysis.table1 import TraceStatistics
from repro.common.stats import RunningStat
from repro.common.units import HOUR, KB, TEN_MINUTES, TEN_SECONDS
from repro.fs.sharding import Placement
from repro.trace.records import (
    CloseRecord,
    DeleteRecord,
    DirectoryReadRecord,
    OpenRecord,
    ReadRunRecord,
    RepositionRecord,
    SharedReadRecord,
    SharedWriteRecord,
    TraceRecord,
    TruncateRecord,
    WriteRunRecord,
)

from reference_trace import materialize


# --- episodes ----------------------------------------------------------------


@dataclass(slots=True)
class LogicalRun:
    """One sequential run: contiguous transfer of a single kind."""

    is_write: bool
    offset: int
    length: int
    end_time: float

    @property
    def end_offset(self) -> int:
        return self.offset + self.length


@dataclass(slots=True)
class Access:
    """One complete open..close episode with its logical runs."""

    open_record: OpenRecord
    close_record: CloseRecord
    runs: list[LogicalRun] = field(default_factory=list)
    reposition_count: int = 0

    @property
    def bytes_read(self) -> int:
        return sum(run.length for run in self.runs if not run.is_write)

    @property
    def bytes_written(self) -> int:
        return sum(run.length for run in self.runs if run.is_write)

    @property
    def bytes_transferred(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def duration(self) -> float:
        return self.close_record.time - self.open_record.time

    @property
    def migrated(self) -> bool:
        return self.open_record.migrated

    @property
    def user_id(self) -> int:
        return self.open_record.user_id

    @property
    def file_id(self) -> int:
        return self.open_record.file_id

    @property
    def size_at_close(self) -> int:
        return self.close_record.size_at_close


def assemble_accesses(records: Iterable[TraceRecord]) -> Iterator[Access]:
    """Yield completed accesses from a time-ordered record stream.

    Episodes left open at end of stream (a 24-hour window can split an
    episode) are dropped, exactly as an open/close pairing analysis of
    the original traces would drop them.
    """
    in_progress: dict[int, _PartialAccess] = {}

    for record in records:
        if isinstance(record, OpenRecord):
            in_progress[record.open_id] = _PartialAccess(open_record=record)
        elif isinstance(record, CloseRecord):
            partial = in_progress.pop(record.open_id, None)
            if partial is None:
                continue  # close for an open before the window started
            yield partial.finish(record)
        elif isinstance(record, (ReadRunRecord, WriteRunRecord)):
            partial = in_progress.get(record.open_id)
            if partial is not None:
                partial.add_run(record)
        elif isinstance(record, RepositionRecord):
            partial = in_progress.get(record.open_id)
            if partial is not None:
                partial.reposition_count += 1


@dataclass(slots=True)
class _PartialAccess:
    open_record: OpenRecord
    runs: list[LogicalRun] = field(default_factory=list)
    reposition_count: int = 0

    def add_run(self, record: ReadRunRecord | WriteRunRecord) -> None:
        is_write = isinstance(record, WriteRunRecord)
        if self.runs:
            last = self.runs[-1]
            if last.is_write == is_write and last.end_offset == record.offset:
                # Contiguous continuation of the same logical run.
                last.length += record.length
                last.end_time = record.time
                return
        self.runs.append(
            LogicalRun(
                is_write=is_write,
                offset=record.offset,
                length=record.length,
                end_time=record.time,
            )
        )

    def finish(self, close_record: CloseRecord) -> Access:
        return Access(
            open_record=self.open_record,
            close_record=close_record,
            runs=self.runs,
            reposition_count=self.reposition_count,
        )


# --- Table 3 -----------------------------------------------------------------


def classify_access(access: Access) -> tuple[AccessType, Sequentiality] | None:
    """Classify one access; ``None`` for zero-byte accesses (an open and
    close with no transfer carries no pattern information)."""
    bytes_read = access.bytes_read
    bytes_written = access.bytes_written
    if bytes_read == 0 and bytes_written == 0:
        return None
    if bytes_read > 0 and bytes_written > 0:
        access_type = AccessType.READ_WRITE
    elif bytes_read > 0:
        access_type = AccessType.READ_ONLY
    else:
        access_type = AccessType.WRITE_ONLY

    runs = access.runs
    if access_type is AccessType.READ_WRITE:
        # A mixed access with a single run per direction back-to-back in
        # place is still effectively random update behaviour; treat the
        # single-run case as sequential, everything else random.
        sequentiality = (
            Sequentiality.OTHER_SEQUENTIAL if len(runs) == 1 else Sequentiality.RANDOM
        )
    elif len(runs) == 1:
        run = runs[0]
        # Whole-file: one run covering the file start to finish.  For
        # reads the relevant size is the size when reading began; for
        # writes it is the file's size at close.
        file_size = (
            access.open_record.size_at_open
            if access_type is AccessType.READ_ONLY
            else access.size_at_close
        )
        if run.offset == 0 and run.length >= file_size > 0:
            sequentiality = Sequentiality.WHOLE_FILE
        elif run.offset == 0 and access_type is AccessType.WRITE_ONLY and run.length == access.size_at_close:
            sequentiality = Sequentiality.WHOLE_FILE
        else:
            sequentiality = Sequentiality.OTHER_SEQUENTIAL
    else:
        sequentiality = Sequentiality.RANDOM
    return access_type, sequentiality


class AccessPatternResult(access_patterns.AccessPatternResult):
    def add(self, access: Access) -> None:
        classified = classify_access(access)
        if classified is None:
            self.skipped_zero_byte += 1
            return
        cell = self.cells[classified]
        cell.accesses += 1
        cell.bytes += access.bytes_transferred


def compute_access_patterns(accesses: Iterable[Access]) -> AccessPatternResult:
    """Classify every access."""
    result = AccessPatternResult()
    for access in accesses:
        result.add(access)
    return result


# --- Figures 1-3 -------------------------------------------------------------


class RunLengthResult(run_length.RunLengthResult):
    def add(self, access: Access) -> None:
        for run in access.runs:
            if run.length <= 0:
                continue
            self.by_runs.add(run.length)
            self.by_bytes.add(run.length, weight=run.length)


def compute_run_lengths(accesses: Iterable[Access]) -> RunLengthResult:
    """Build the run-length CDFs from an access stream."""
    result = RunLengthResult()
    for access in accesses:
        result.add(access)
    return result


class FileSizeResult(file_size.FileSizeResult):
    def add(self, access: Access) -> None:
        transferred = access.bytes_transferred
        if transferred == 0:
            return
        size = access.size_at_close
        self.by_accesses.add(size)
        self.by_bytes.add(size, weight=transferred)


def compute_file_sizes(accesses: Iterable[Access]) -> FileSizeResult:
    """Build the file-size CDFs from an access stream."""
    result = FileSizeResult()
    for access in accesses:
        result.add(access)
    return result


class OpenTimeResult(open_time.OpenTimeResult):
    def add(self, access: Access) -> None:
        self.by_opens.add(max(0.0, access.duration))


def compute_open_times(accesses: Iterable[Access]) -> OpenTimeResult:
    """Build the open-time CDF from an access stream."""
    result = OpenTimeResult()
    for access in accesses:
        result.add(access)
    return result


# --- Figure 4 ----------------------------------------------------------------


class LifetimeResult(lifetime.LifetimeResult):
    def add(self, record: DeleteRecord | TruncateRecord) -> None:
        if record.oldest_byte_time < 0 or record.size <= 0:
            self.unknown_lifetime_deletes += 1
            return
        oldest_age = record.time - record.oldest_byte_time
        newest_age = record.time - record.newest_byte_time
        if oldest_age < 0 or newest_age < 0:
            self.unknown_lifetime_deletes += 1
            return
        self.by_files.add((oldest_age + newest_age) / 2.0)
        # Byte ages run linearly from newest (end of file) to oldest
        # (start of file) under the sequential-write assumption.
        if oldest_age == newest_age:
            self.by_bytes.add(oldest_age, weight=record.size)
        else:
            step_weight = record.size / _BYTE_SPAN_SAMPLES
            for step in range(_BYTE_SPAN_SAMPLES):
                fraction = (step + 0.5) / _BYTE_SPAN_SAMPLES
                age = newest_age + fraction * (oldest_age - newest_age)
                self.by_bytes.add(age, weight=step_weight)


def compute_lifetimes(records: Iterable[TraceRecord]) -> LifetimeResult:
    """Build the lifetime CDFs from a raw record stream."""
    result = LifetimeResult()
    for record in records:
        if isinstance(record, (DeleteRecord, TruncateRecord)):
            result.add(record)
    return result


# --- Tables 1, 1a and 2a ----------------------------------------------------


def compute_table1(
    name: str, records: Iterable[TraceRecord], duration: float
) -> TraceStatistics:
    """Scan one trace and produce its Table 1 row."""
    stats = TraceStatistics(name=name, duration_hours=duration / HOUR)
    for record in records:
        user = getattr(record, "user_id", None)
        if user is not None and user >= 0:
            stats.users.add(user)
            if getattr(record, "migrated", False):
                stats.migration_users.add(user)
        if isinstance(record, OpenRecord):
            stats.open_events += 1
        elif isinstance(record, CloseRecord):
            stats.close_events += 1
        elif isinstance(record, ReadRunRecord):
            stats.bytes_read += record.length
        elif isinstance(record, WriteRunRecord):
            stats.bytes_written += record.length
        elif isinstance(record, RepositionRecord):
            stats.reposition_events += 1
        elif isinstance(record, DeleteRecord):
            stats.delete_events += 1
        elif isinstance(record, TruncateRecord):
            stats.truncate_events += 1
        elif isinstance(record, SharedReadRecord):
            stats.shared_read_events += 1
        elif isinstance(record, SharedWriteRecord):
            stats.shared_write_events += 1
        elif isinstance(record, DirectoryReadRecord):
            stats.directory_bytes_read += record.length
    return stats


def per_server_table1(
    traces: Sequence, placement: Placement
) -> list[TraceStatistics]:
    """One pooled Table 1 row-set per server, across all traces."""
    total_duration = sum(trace.duration for trace in traces)
    per_server_records: list[list[TraceRecord]] = [
        [] for _ in range(placement.num_servers)
    ]
    for trace in traces:
        for server_id, records in enumerate(
            shard_records(materialize(trace.columnar), placement)
        ):
            per_server_records[server_id].extend(records)
    return [
        compute_table1(f"server {server_id}", records, total_duration)
        for server_id, records in enumerate(per_server_records)
    ]


def shard_records(
    records: Iterable[TraceRecord], placement: Placement
) -> list[list[TraceRecord]]:
    """Split one trace's records by the server their file lives on.

    Order within each shard is trace order, so every downstream
    computation stays deterministic.
    """
    shards: list[list[TraceRecord]] = [
        [] for _ in range(placement.num_servers)
    ]
    shard_of = placement.shard_of
    for record in records:
        file_id = getattr(record, "file_id", -1)
        shards[shard_of(file_id)].append(record)
    return shards


def per_server_activity(
    traces: Sequence, placement: Placement
) -> list[ActivityResult]:
    """The Table 2 computation run once per server's record stream."""
    per_server: list[ActivityResult] = []
    shards_by_trace = [
        shard_records(materialize(t.columnar), placement) for t in traces
    ]
    for server_id in range(placement.num_servers):
        per_server.append(
            compute_activity(
                (shards[server_id], trace.duration)
                for trace, shards in zip(traces, shards_by_trace)
            )
        )
    return per_server


# --- Table 2 ------------------------------------------------------------------


class _ScaleAccumulator:
    """Pools one interval width + user class across traces."""

    def __init__(self, width: float, migrated_only: bool) -> None:
        self.width = width
        self.migrated_only = migrated_only
        self.active_user_counts = RunningStat()
        self.user_throughput = RunningStat()
        self.peak_user = 0.0
        self.peak_total = 0.0
        self.max_active = 0

    def consume(self, records: Sequence[TraceRecord], duration: float) -> None:
        # user activity flags and byte counts, keyed by interval index.
        active: dict[int, set[int]] = {}
        user_bytes: dict[int, dict[int, int]] = {}
        for record in records:
            if self.migrated_only and not getattr(record, "migrated", False):
                continue
            user = getattr(record, "user_id", None)
            if user is None or user < 0:
                continue
            index = int(record.time // self.width)
            active.setdefault(index, set()).add(user)
            if isinstance(record, (ReadRunRecord, WriteRunRecord)):
                bucket = user_bytes.setdefault(index, {})
                bucket[user] = bucket.get(user, 0) + record.length

        total_intervals = max(1, int(duration // self.width))
        occupied = 0
        for index, users in active.items():
            count = len(users)
            self.active_user_counts.add(float(count))
            self.max_active = max(self.max_active, count)
            occupied += 1
            interval_bytes = 0
            per_user = user_bytes.get(index, {})
            for user in users:
                nbytes = per_user.get(user, 0)
                kbs = nbytes / self.width / KB
                self.user_throughput.add(kbs)
                self.peak_user = max(self.peak_user, kbs)
                interval_bytes += nbytes
            self.peak_total = max(
                self.peak_total, interval_bytes / self.width / KB
            )
        # Intervals with no active user count as zero users.
        for _ in range(max(0, total_intervals - occupied)):
            self.active_user_counts.add(0.0)

    def result(self) -> IntervalScaleResult:
        return IntervalScaleResult(
            interval_width=self.width,
            average_active_users=self.active_user_counts.mean,
            active_users_stddev=self.active_user_counts.stddev,
            maximum_active_users=self.max_active,
            average_throughput_kbs=self.user_throughput.mean,
            throughput_stddev_kbs=self.user_throughput.stddev,
            peak_user_throughput_kbs=self.peak_user,
            peak_total_throughput_kbs=self.peak_total,
        )


def compute_activity(
    traces: Iterable[tuple[Sequence[TraceRecord], float]],
) -> ActivityResult:
    """Compute Table 2 over a pool of (records, duration) traces."""
    accumulators = {
        ("10m", False): _ScaleAccumulator(TEN_MINUTES, migrated_only=False),
        ("10m", True): _ScaleAccumulator(TEN_MINUTES, migrated_only=True),
        ("10s", False): _ScaleAccumulator(TEN_SECONDS, migrated_only=False),
        ("10s", True): _ScaleAccumulator(TEN_SECONDS, migrated_only=True),
    }
    for records, duration in traces:
        records = list(records)
        for accumulator in accumulators.values():
            accumulator.consume(records, duration)

    result = ActivityResult()
    result.ten_minute_all = accumulators[("10m", False)].result()
    result.ten_minute_migrated = accumulators[("10m", True)].result()
    result.ten_second_all = accumulators[("10s", False)].result()
    result.ten_second_migrated = accumulators[("10s", True)].result()
    return result
