"""Extraction of shared-file request streams from a trace.

The paper logged "every read or write request ... for the files
undergoing concurrent write-sharing" (easy, because uncacheable
requests all pass through the server) and fed those logs to the
Section 5.6 simulators.  This module rebuilds that input: for every
file that ever experienced write-sharing it collects a time-ordered
request stream of (time, client, user, offset, length, is_write),
combining the fine-grained shared-request records with the coalesced
runs of non-overlapping (solo) accesses to the same files, while
dropping runs that duplicate shared requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.trace.records import (
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    SharedReadRecord,
    SharedWriteRecord,
    TraceRecord,
    WriteRunRecord,
    AccessMode,
)


@dataclass(frozen=True)
class SharedRequest:
    """One application request to a write-shared file."""

    time: float
    client_id: int
    user_id: int
    offset: int
    length: int
    is_write: bool
    migrated: bool = False


@dataclass
class OpenInterval:
    """One client's open..close window on a shared file."""

    client_id: int
    user_id: int
    start: float
    end: float
    writer: bool


@dataclass
class SharedFileActivity:
    """Everything the Section 5.6 simulators need for one file."""

    file_id: int
    requests: list[SharedRequest] = field(default_factory=list)
    intervals: list[OpenInterval] = field(default_factory=list)

    def sharing_windows(self, until_all_close: bool) -> list[tuple[float, float]]:
        """Time windows during which the file is uncacheable.

        A window opens when the file is open on more than one client
        with at least one writer.  With ``until_all_close`` (Sprite's
        base scheme) it closes when *every* client has closed the file;
        otherwise (the modified scheme) it closes as soon as the
        concurrent write-sharing condition stops holding.
        """
        points: list[tuple[float, int, OpenInterval]] = []
        for interval in self.intervals:
            points.append((interval.start, 1, interval))
            points.append((interval.end, -1, interval))
        points.sort(key=lambda p: (p[0], -p[1]))

        open_now: list[OpenInterval] = []
        windows: list[tuple[float, float]] = []
        window_start: float | None = None
        for time, kind, interval in points:
            if kind == 1:
                open_now.append(interval)
            else:
                open_now.remove(interval)
            clients = {i.client_id for i in open_now}
            writers = [i for i in open_now if i.writer]
            sharing = bool(writers) and len(clients) > 1
            if window_start is None and sharing:
                window_start = time
            elif window_start is not None:
                if until_all_close:
                    if not open_now:
                        windows.append((window_start, time))
                        window_start = None
                elif not sharing:
                    windows.append((window_start, time))
                    window_start = None
        if window_start is not None:
            windows.append((window_start, float("inf")))
        return windows


def extract_shared_activity(
    records: Iterable[TraceRecord],
) -> list[SharedFileActivity]:
    """Build per-file activity for every file with shared requests."""
    shared_files: set[int] = set()
    requests_by_file: dict[int, list[SharedRequest]] = {}
    intervals_by_file: dict[int, list[OpenInterval]] = {}
    open_episodes: dict[int, tuple[OpenRecord, list[TraceRecord]]] = {}
    records = list(records)

    for record in records:
        if isinstance(record, (SharedReadRecord, SharedWriteRecord)):
            shared_files.add(record.file_id)

    # Collect open intervals and runs for those files.
    run_episodes: dict[int, list[TraceRecord]] = {}
    episode_opens: dict[int, OpenRecord] = {}
    for record in records:
        if isinstance(record, OpenRecord) and record.file_id in shared_files:
            episode_opens[record.open_id] = record
            run_episodes[record.open_id] = []
        elif isinstance(record, (ReadRunRecord, WriteRunRecord)):
            if record.open_id in run_episodes:
                run_episodes[record.open_id].append(record)
        elif isinstance(record, CloseRecord) and record.open_id in episode_opens:
            open_record = episode_opens.pop(record.open_id)
            file_id = open_record.file_id
            runs = run_episodes.pop(record.open_id, [])
            intervals_by_file.setdefault(file_id, []).append(
                OpenInterval(
                    client_id=open_record.client_id,
                    user_id=open_record.user_id,
                    start=open_record.time,
                    end=record.time,
                    writer=open_record.mode is not AccessMode.READ,
                )
            )
            # Keep the runs; duplicates of shared requests are dropped
            # later based on the sharing windows.
            open_episodes[record.open_id] = (open_record, runs)
        elif isinstance(record, (SharedReadRecord, SharedWriteRecord)):
            requests_by_file.setdefault(record.file_id, []).append(
                SharedRequest(
                    time=record.time,
                    client_id=record.client_id,
                    user_id=record.user_id,
                    offset=record.offset,
                    length=record.length,
                    is_write=isinstance(record, SharedWriteRecord),
                    migrated=record.migrated,
                )
            )

    activities: list[SharedFileActivity] = []
    for file_id in sorted(shared_files):
        activity = SharedFileActivity(
            file_id=file_id,
            requests=requests_by_file.get(file_id, []),
            intervals=intervals_by_file.get(file_id, []),
        )
        windows = activity.sharing_windows(until_all_close=True)

        def in_window(time: float) -> bool:
            return any(start <= time <= end for start, end in windows)

        # Solo runs on shared files become coarse requests -- unless
        # they fall inside a sharing window, where the fine-grained
        # shared records already cover them.
        for open_record, runs in open_episodes.values():
            if open_record.file_id != file_id:
                continue
            for run in runs:
                if in_window(run.time):
                    continue
                activity.requests.append(
                    SharedRequest(
                        time=run.time,
                        client_id=run.client_id,
                        user_id=run.user_id,
                        offset=run.offset,
                        length=run.length,
                        is_write=isinstance(run, WriteRunRecord),
                        migrated=run.migrated,
                    )
                )
        activity.requests.sort(key=lambda r: r.time)
        activities.append(activity)
    return activities
