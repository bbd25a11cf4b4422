"""The record-walking Section 5.5-5.6 extractors, kept as the reference
for ``repro.consistency``.

These are the record-path implementations of Table 10
(``compute_actions``), Table 11 (``simulate_polling``) and the shared
request streams behind Table 12 and Table S
(``extract_shared_activity``): each walks a whole-trace list of record
objects and tells kinds apart with ``isinstance``.  They return the
production result classes.  The production extractors read the same
stream's columns; on any stream both must agree exactly
(``tests/test_replay_columns.py``).
"""

from __future__ import annotations

from typing import Iterable

from repro.common.units import DELAYED_WRITE_SECONDS, WRITEBACK_SCAN_INTERVAL
from repro.consistency.actions import ConsistencyActionResult
from repro.consistency.events import OpenInterval, SharedFileActivity, SharedRequest
from repro.consistency.polling import PollingResult
from repro.trace.records import (
    AccessMode,
    CloseRecord,
    OpenRecord,
    ReadRunRecord,
    SharedReadRecord,
    SharedWriteRecord,
    TraceRecord,
    WriteRunRecord,
)


def compute_actions(
    records: Iterable[TraceRecord],
    flush_horizon: float = DELAYED_WRITE_SECONDS + WRITEBACK_SCAN_INTERVAL,
) -> ConsistencyActionResult:
    """Sweep one trace and count consistency actions."""
    result = ConsistencyActionResult()
    # per-file open state: client -> open count, and writer clients
    readers: dict[int, dict[int, int]] = {}
    writers: dict[int, dict[int, int]] = {}
    open_mode: dict[int, tuple[int, int, bool]] = {}  # open_id -> (file, client, writer)
    last_write: dict[int, tuple[int, float]] = {}  # file -> (client, time)

    for record in records:
        if isinstance(record, OpenRecord):
            result.opens += 1
            file_id = record.file_id
            is_writer = record.mode is not AccessMode.READ

            # Server recall check: data dirty on another client?
            written = last_write.get(file_id)
            if (
                written is not None
                and written[0] != record.client_id
                and record.time - written[1] <= flush_horizon
            ):
                result.recall_opens += 1
                last_write.pop(file_id, None)  # recalled: now clean

            table = writers if is_writer else readers
            by_client = table.setdefault(file_id, {})
            by_client[record.client_id] = by_client.get(record.client_id, 0) + 1
            open_mode[record.open_id] = (file_id, record.client_id, is_writer)

            clients = set(readers.get(file_id, {})) | set(writers.get(file_id, {}))
            if writers.get(file_id) and len(clients) > 1:
                result.write_sharing_opens += 1
        elif isinstance(record, CloseRecord):
            state = open_mode.pop(record.open_id, None)
            if state is None:
                continue
            file_id, client_id, is_writer = state
            table = writers if is_writer else readers
            by_client = table.get(file_id, {})
            count = by_client.get(client_id, 0)
            if count <= 1:
                by_client.pop(client_id, None)
                if not by_client:
                    table.pop(file_id, None)
            else:
                by_client[client_id] = count - 1
        elif isinstance(record, WriteRunRecord):
            last_write[record.file_id] = (record.client_id, record.time)
    return result


def simulate_polling(
    records: Iterable[TraceRecord],
    refresh_interval: float,
    duration: float,
) -> PollingResult:
    """Replay one trace under the polling scheme."""
    result = PollingResult(refresh_interval=refresh_interval, duration=duration)
    #: (file, client) -> time the client last validated with the server.
    validated: dict[tuple[int, int], float] = {}
    #: file -> (time of last write, writing client).
    last_write: dict[int, tuple[float, int]] = {}

    for record in records:
        user = getattr(record, "user_id", None)
        if user is not None and user >= 0:
            result.users_seen.add(user)
        if isinstance(record, OpenRecord):
            result.opens += 1
            if record.migrated:
                result.migrated_opens += 1
        elif isinstance(record, (WriteRunRecord, SharedWriteRecord)):
            # Written through (almost) immediately; the writer's own
            # cache is current as of now.
            last_write[record.file_id] = (record.time, record.client_id)
            validated[(record.file_id, record.client_id)] = record.time
        elif isinstance(record, (ReadRunRecord, SharedReadRecord)):
            result.reads += 1
            key = (record.file_id, record.client_id)
            check_time = validated.get(key)
            written = last_write.get(record.file_id)
            if check_time is None or record.time >= check_time + refresh_interval:
                # Cache expired (or cold): the client re-checks with the
                # server and sees current data.
                validated[key] = record.time
                continue
            if (
                written is not None
                and written[1] != record.client_id
                and written[0] > check_time
            ):
                # Another client wrote since we validated, and our cache
                # has not expired: stale data.
                result.errors += 1
                if record.migrated:
                    result.migrated_errors += 1
                if record.user_id >= 0:
                    result.users_affected.add(record.user_id)
    return result


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
