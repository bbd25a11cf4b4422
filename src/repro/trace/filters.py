"""The self-traffic filter applied before analysis.

The paper's merge step "removed all records related to writing the trace
files themselves and all records related to the nightly tape backup".
:func:`drop_self_traffic` models that step.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.trace.columnar import RECORD_CLASSES, ColumnarTrace

#: Sentinel user ids the generator assigns to system activity that the
#: analysis must never see (mirrors the tracer + backup exclusions).
TRACER_USER_ID = -1
BACKUP_USER_ID = -2

SELF_TRAFFIC_USER_IDS = frozenset({TRACER_USER_ID, BACKUP_USER_ID})

_USER_KINDS = tuple(
    cls for cls in RECORD_CLASSES
    if "user_id" in {item.name for item in fields(cls)}
)


def drop_self_traffic(trace: ColumnarTrace) -> ColumnarTrace:
    """Remove tracer self-traffic and nightly-backup records."""
    keep = np.ones(len(trace), dtype=bool)
    positions, users = trace.select(_USER_KINDS, "user_id")
    keep[positions] = ~np.isin(users, sorted(SELF_TRAFFIC_USER_IDS))
    return trace.subset(keep)
