"""The self-traffic filter applied before analysis.

The paper's merge step "removed all records related to writing the trace
files themselves and all records related to the nightly tape backup".
:func:`drop_self_traffic` models that step.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.trace.records import TraceRecord

#: Sentinel user ids the generator assigns to system activity that the
#: analysis must never see (mirrors the tracer + backup exclusions).
TRACER_USER_ID = -1
BACKUP_USER_ID = -2

SELF_TRAFFIC_USER_IDS = frozenset({TRACER_USER_ID, BACKUP_USER_ID})


def _record_user(record: TraceRecord) -> int | None:
    return getattr(record, "user_id", None)


def drop_self_traffic(
    records: Iterable[TraceRecord],
) -> Iterator[TraceRecord]:
    """Remove tracer self-traffic and nightly-backup records."""
    for record in records:
        if _record_user(record) in SELF_TRAFFIC_USER_IDS:
            continue
        yield record
