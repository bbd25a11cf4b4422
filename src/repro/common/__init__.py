"""Shared foundations for the Sprite measurement reproduction.

This package holds the pieces every other subsystem leans on:

* :mod:`repro.common.units` -- physical constants of the measured system
  (block size, delayed-write interval, memory sizes, ...).
* :mod:`repro.common.ids` -- small typed identifiers for users, files,
  clients, and processes.
* :mod:`repro.common.errors` -- the library's exception hierarchy.
* :mod:`repro.common.rng` -- deterministic, forkable random streams.
* :mod:`repro.common.stats` -- running statistics and histograms.
* :mod:`repro.common.cdf` -- weighted empirical CDFs (the paper's figures).
* :mod:`repro.common.render` -- plain-text rendering of tables and
  CDF figures.
"""

from repro.common.errors import (
    ReproError,
    ConfigError,
    TraceError,
    SimulationError,
)
from repro.common.ids import ClientId, FileId, ProcessId, UserId
from repro.common.rng import RngStream

__all__ = [
    "ReproError",
    "ConfigError",
    "TraceError",
    "SimulationError",
    "ClientId",
    "FileId",
    "ProcessId",
    "UserId",
    "RngStream",
]
