"""Periodic counter sampling into per-machine timeseries.

Section 3 of the paper: "a user-level process read the counters at
regular intervals."  :class:`CounterSampler` is that process for the
reproduction: an engine timer snapshots every client's
:class:`~repro.fs.counters.ClientCounters` (and the server's) every N
simulated seconds into a :class:`CounterTimeseries` -- the two-week
diurnal curves of the paper, per machine, for any counter.

The layer is built around one acceptance property, which the obs tests
check: **integrating any counter's deltas over the full run reproduces
the end-of-run aggregate exactly** (the sampler reads the same objects
the Table 4-9 pipeline reads, so sum-of-deltas = last - first = final
counter, with no float drift for the integer counters).

Timeseries dump/load goes through :mod:`repro.pipeline.codec` (tag
``O``): per-machine row tables serialized with :mod:`marshal`, the same
compact columnar trick the artifact cache uses for replays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.common.errors import SimulationError
from repro.fs.counters import ClientCounters, ServerCounters
from repro.sim.timers import SharedTicker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fs.client import ClientKernel
    from repro.fs.server import Server
    from repro.sim.engine import Engine

CLIENT_FIELDS: tuple[str, ...] = ClientCounters.FIELDS
SERVER_FIELDS: tuple[str, ...] = ServerCounters.FIELDS


@dataclass
class MachineSeries:
    """Sampled counter rows for one machine.

    ``rows[i]`` is a tuple aligned with ``fields``, read at
    ``times[i]``.  Counters are cumulative (an interval's increment is
    the difference of two samples); gauges (``cache_size_bytes``,
    ``vm_resident_bytes``, ``dirty_blocks_resident``) are meaningful
    directly via :meth:`column`.
    """

    machine: str
    fields: tuple[str, ...]
    times: list[float]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.times)

    def _col(self, name: str) -> int:
        try:
            return self.fields.index(name)
        except ValueError:
            raise KeyError(f"{self.machine} has no counter {name!r}") from None

    def column(self, name: str) -> list[float]:
        """The sampled values of one counter, cumulative."""
        col = self._col(name)
        return [row[col] for row in self.rows]


class CounterTimeseries:
    """All machines' sampled series for one replay."""

    def __init__(self, sample_interval: float) -> None:
        self.sample_interval = sample_interval
        self.machines: dict[str, MachineSeries] = {}

    def series(self, machine: str) -> MachineSeries:
        try:
            return self.machines[machine]
        except KeyError:
            raise KeyError(
                f"no series for {machine!r}; have {sorted(self.machines)}"
            ) from None

    def client_series(self) -> list[MachineSeries]:
        return [
            series for name, series in sorted(self.machines.items())
            if name.startswith("client-")
        ]

    def server_series(self) -> list[MachineSeries]:
        """Per-shard server series, in shard order.

        A single-server replay has one series named ``"server"``; a
        sharded replay has ``"server-0"`` .. ``"server-N-1"`` (and no
        plain ``"server"``).
        """
        if "server" in self.machines:
            return [self.machines["server"]]
        return [
            series for name, series in sorted(self.machines.items())
            if name.startswith("server-")
        ]

    # --- columnar persistence (codec tag O) -------------------------------

    def to_payload(self) -> tuple:
        """A marshal-safe tuple for :mod:`repro.pipeline.codec`."""
        return (
            self.sample_interval,
            [
                (s.machine, s.fields, tuple(s.times), tuple(s.rows))
                for s in self.machines.values()
            ],
        )

    @classmethod
    def from_payload(cls, payload: tuple) -> "CounterTimeseries":
        sample_interval, tables = payload
        out = cls(sample_interval)
        for machine, field_names, times, rows in tables:
            out.machines[machine] = MachineSeries(
                machine=machine,
                fields=tuple(field_names),
                times=list(times),
                rows=list(rows),
            )
        return out

    def dump(self, path: str | os.PathLike[str]) -> None:
        """Write the compact columnar form to ``path``."""
        from repro.pipeline.codec import encode_artifact

        with open(os.fspath(path), "wb") as handle:
            handle.write(encode_artifact(self))

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "CounterTimeseries":
        from repro.pipeline.codec import decode_artifact

        with open(os.fspath(path), "rb") as handle:
            loaded = decode_artifact(handle.read())
        if not isinstance(loaded, cls):
            raise SimulationError(f"{path} is not a counter timeseries")
        return loaded


class CounterSampler:
    """The simulated "user-level process" reading the counters.

    :meth:`attach` takes a zero-time baseline sample and subscribes to
    the cluster's shared tick; :meth:`finalize` takes the closing sample
    (skipped if the tick already sampled at exactly that instant).
    ``on_sample`` is called after each sample with the current time --
    the observation hub uses it to mirror key gauges into the event
    trace as counter events.
    """

    def __init__(
        self,
        sample_interval: float,
        on_sample: Callable[[float], None] | None = None,
    ) -> None:
        if sample_interval <= 0:
            raise SimulationError(
                f"sample interval must be positive: {sample_interval}"
            )
        self.timeseries = CounterTimeseries(sample_interval)
        self.on_sample = on_sample
        self._engine: "Engine | None" = None
        self._clients: Sequence["ClientKernel"] = ()
        self._servers: list["Server"] = []
        #: Parallel to ``_servers``: each shard's machine name.  A lone
        #: server keeps the historical ``"server"``; shards are
        #: ``"server-<id>"``.
        self._server_names: list[str] = []
        #: The shared-tick subscription (exposes ``stop()``).
        self._timer = None

    def attach(
        self,
        engine: "Engine",
        clients: Sequence["ClientKernel"],
        servers: Sequence["Server"],
        ticker: SharedTicker,
        server_names: Sequence[str],
    ) -> None:
        """Start sampling on ``ticker``, a cluster's coalesced tick (one
        tick per interval cluster-wide; the sampler stays armed).

        ``server_names`` are the per-server machine names, parallel to
        ``servers``; the caller derives them from the *cluster's* server
        count, since an owned-only shard may hold one server of a larger
        cluster.
        """
        if self._engine is not None:
            raise SimulationError("sampler already attached")
        if len(server_names) != len(servers):
            raise SimulationError(
                f"got {len(server_names)} server names for "
                f"{len(servers)} servers"
            )
        self._engine = engine
        self._clients = list(clients)
        self._servers = list(servers)
        self._server_names = list(server_names)
        for client in self._clients:
            self.timeseries.machines[f"client-{client.client_id}"] = (
                MachineSeries(
                    machine=f"client-{client.client_id}",
                    fields=CLIENT_FIELDS, times=[], rows=[],
                )
            )
        for name in self._server_names:
            self.timeseries.machines[name] = MachineSeries(
                machine=name, fields=SERVER_FIELDS, times=[], rows=[],
            )
        self.sample()  # the baseline: integration starts from here
        self._timer = ticker.subscribe(self.sample)

    def sample(self) -> None:
        """Read every machine's counters at the current simulated time."""
        assert self._engine is not None and self._servers
        now = self._engine.now
        for client in self._clients:
            client.snapshot_sizes()  # refresh gauges, as snapshots do
            series = self.timeseries.machines[f"client-{client.client_id}"]
            series.times.append(now)
            series.rows.append(client.counters.as_row())
        for server, name in zip(self._servers, self._server_names):
            series = self.timeseries.machines[name]
            series.times.append(now)
            series.rows.append(server.counters.as_row())
        if self.on_sample is not None:
            self.on_sample(now)

    def finalize(self, now: float) -> None:
        """Take the closing sample (idempotent per timestamp)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._engine is None:
            return
        server_times = self.timeseries.machines[self._server_names[0]].times
        if not server_times or server_times[-1] < now:
            self.sample()
