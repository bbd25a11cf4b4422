"""Sections 5.5 and 5.6: the cache-consistency study.

Three analyses, all trace-driven:

* :mod:`repro.consistency.actions` -- Table 10, how often Sprite's
  consistency machinery is invoked (concurrent write-sharing and
  server recalls, as fractions of file opens);
* :mod:`repro.consistency.polling` -- Table 11, how many stale-data
  errors a weaker, NFS-style polling scheme would produce at 3-second
  and 60-second refresh intervals;
* :mod:`repro.consistency.schemes` -- Table 12, the byte and RPC
  overheads of three consistency algorithms (Sprite's cache-disable
  scheme, a modified scheme that re-enables caching when sharing ends,
  and a token-based scheme) replayed over the accesses to write-shared
  files;
* :mod:`repro.consistency.lossy` -- the message-loss model behind
  Table S: the three schemes under a lossy network, where a lost
  invalidation serves a stale read.
"""

from repro.consistency.events import SharedFileActivity, extract_shared_activity
from repro.consistency.actions import ConsistencyActionResult, compute_actions
from repro.consistency.polling import PollingResult, simulate_polling
from repro.consistency.schemes import (
    SchemeOverhead,
    SchemeComparison,
    simulate_schemes,
)
from repro.consistency.lossy import MessageLossModel, loss_models_for

__all__ = [
    "SharedFileActivity",
    "extract_shared_activity",
    "ConsistencyActionResult",
    "compute_actions",
    "PollingResult",
    "simulate_polling",
    "SchemeOverhead",
    "SchemeComparison",
    "simulate_schemes",
    "MessageLossModel",
    "loss_models_for",
]
