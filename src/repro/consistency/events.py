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

import numpy as np

from repro.trace.columnar import MODE_CODES, RECORD_CLASSES, ColumnarTrace
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    SharedReadRecord,
    SharedWriteRecord,
    WriteRunRecord,
)

_SHARED = (SharedReadRecord, SharedWriteRecord)
#: The kinds that join an episode by its open id.
_FOLLOWERS = (CloseRecord, ReadRunRecord, WriteRunRecord)
_EXTRACTED = (OpenRecord, *_FOLLOWERS, *_SHARED)
_OPEN = RECORD_CLASSES.index(OpenRecord)
_CLOSE = RECORD_CLASSES.index(CloseRecord)
_SHARED_CODES = frozenset(RECORD_CLASSES.index(cls) for cls in _SHARED)
_WRITE_CODES = frozenset(
    RECORD_CLASSES.index(cls) for cls in (WriteRunRecord, SharedWriteRecord)
)
_READ = MODE_CODES[AccessMode.READ]


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


def extract_shared_activity(trace: ColumnarTrace) -> list[SharedFileActivity]:
    """Build per-file activity for every file with shared requests."""
    shared_at, shared_file_ids = trace.select(_SHARED, "file_id")
    shared_files = np.unique(shared_file_ids)
    # Keep the shared requests, the opens of their files, and the runs
    # and closes that carry one of those opens' ids.
    open_at, open_files, open_ids = trace.select(OpenRecord, "file_id", "open_id")
    shared_opens = np.isin(open_files, shared_files)
    follow_at, follow_ids = trace.select(_FOLLOWERS, "open_id")
    keep = np.zeros(len(trace), dtype=bool)
    keep[shared_at] = True
    keep[open_at[shared_opens]] = True
    keep[follow_at[np.isin(follow_ids, open_ids[shared_opens])]] = True
    sub = trace.subset(keep)
    positions, *columns = sub.select(
        _EXTRACTED, "time", "file_id", "open_id", "client_id", "user_id",
        "offset", "length", "mode", "migrated",
    )

    requests_by_file: dict[int, list[SharedRequest]] = {}
    intervals_by_file: dict[int, list[OpenInterval]] = {}
    #: open_id -> (time, file, client, user, writer) of an open episode.
    episode_opens: dict[int, tuple[float, int, int, int, bool]] = {}
    run_episodes: dict[int, list[SharedRequest]] = {}
    #: open_id -> (file, runs) of a closed episode, in close order.
    closed_episodes: dict[int, tuple[int, list[SharedRequest]]] = {}
    rows = zip(sub.kind_idx[positions].tolist(), *(column.tolist() for column in columns))
    for kind, time, file_id, open_id, client_id, user_id, offset, length, mode, migrated in rows:
        if kind == _OPEN:
            episode_opens[open_id] = (time, file_id, client_id, user_id, mode != _READ)
            run_episodes[open_id] = []
        elif kind == _CLOSE:
            opened = episode_opens.pop(open_id, None)
            if opened is None:
                continue
            start, file_id, client_id, user_id, writer = opened
            runs = run_episodes.pop(open_id, [])
            intervals_by_file.setdefault(file_id, []).append(
                OpenInterval(client_id, user_id, start, time, writer)
            )
            # Keep the runs; duplicates of shared requests are dropped
            # later based on the sharing windows.
            closed_episodes[open_id] = (file_id, runs)
        else:
            request = SharedRequest(
                time, client_id, user_id, offset, length, kind in _WRITE_CODES, migrated
            )
            if kind in _SHARED_CODES:
                requests_by_file.setdefault(file_id, []).append(request)
            elif open_id in run_episodes:
                run_episodes[open_id].append(request)

    solo_by_file: dict[int, list[SharedRequest]] = {}
    for file_id, runs in closed_episodes.values():
        solo_by_file.setdefault(file_id, []).extend(runs)

    activities: list[SharedFileActivity] = []
    for file_id in shared_files.tolist():
        activity = SharedFileActivity(
            file_id=file_id,
            requests=requests_by_file.get(file_id, []),
            intervals=intervals_by_file.get(file_id, []),
        )
        windows = activity.sharing_windows(until_all_close=True)
        # Solo runs on shared files become coarse requests -- unless
        # they fall inside a sharing window, where the fine-grained
        # shared records already cover them.
        for run in solo_by_file.get(file_id, ()):
            if not any(start <= run.time <= end for start, end in windows):
                activity.requests.append(run)
        activity.requests.sort(key=lambda r: r.time)
        activities.append(activity)
    return activities
