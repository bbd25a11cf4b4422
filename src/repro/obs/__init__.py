"""Observability for the reproduction: counter timeseries, event
tracing, and latency histograms.

The layer is opt-in and inert by default -- see
:mod:`repro.obs.observer` for the contract.
"""

from repro.obs.histograms import LatencyHistograms
from repro.obs.observer import Observation, ObsConfig
from repro.obs.sampler import CounterSampler, CounterTimeseries, MachineSeries
from repro.obs.tracer import TraceRecorder

__all__ = [
    "CounterSampler",
    "CounterTimeseries",
    "LatencyHistograms",
    "MachineSeries",
    "ObsConfig",
    "Observation",
    "TraceRecorder",
]
