"""Tests for the observability layer (repro.obs).

The two contracts under test:

* **inert by default** -- with no observation attached, nothing changes;
  with one attached, the replay's results are *identical* to an
  unobserved run (the layer reads, it never steers);
* **integration exactness** -- summing any sampled counter's deltas over
  the whole run reproduces the end-of-run aggregate exactly, for every
  counter on every machine.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import SimulationError
from repro.fs import ClusterConfig, FaultConfig, ProtocolOracle
from repro.fs.cluster import run_cluster_on_trace
from repro.fs.faults import SERVER_TARGET, FaultEvent, FaultKind, FaultSchedule
from repro.obs import (
    CounterTimeseries,
    MachineSeries,
    ObsConfig,
    Observation,
    TraceRecorder,
)

from checkers import validate_chrome_trace, verify_integration

pytestmark = pytest.mark.obs


def observed_replay(trace, config=None, seed=9, oracle=None,
                    fault_schedule=None, sample_interval=60.0,
                    max_trace_events=1_000_000):
    obs = Observation(ObsConfig(
        sample_interval=sample_interval, max_trace_events=max_trace_events,
    ))
    result = run_cluster_on_trace(
        trace.columnar, trace.duration,
        config or ClusterConfig(client_count=4),
        seed=seed, oracle=oracle, fault_schedule=fault_schedule, obs=obs,
    )
    return obs, result


@pytest.fixture(scope="module")
def observed(small_trace):
    """One observed replay, identical in inputs to ``cluster_result``."""
    return observed_replay(small_trace)


class TestInertness:
    def test_observed_run_has_identical_results(
        self, observed, cluster_result
    ):
        """Same trace, config, seed as the (unobserved) ``cluster_result``
        fixture: every counter on every machine must match exactly."""
        obs, result = observed
        assert result.final_counters == cluster_result.final_counters
        assert result.server_counters == cluster_result.server_counters
        assert result.records_replayed == cluster_result.records_replayed
        assert result.snapshots == cluster_result.snapshots

    def test_double_attach_refused(self, small_trace):
        obs = Observation()
        run_cluster_on_trace(
            small_trace.columnar, small_trace.duration,
            ClusterConfig(client_count=2), seed=3, obs=obs,
        )
        with pytest.raises(RuntimeError, match="already attached"):
            run_cluster_on_trace(
                small_trace.columnar, small_trace.duration,
                ClusterConfig(client_count=2), seed=3, obs=obs,
            )


class TestIntegration:
    def test_timeseries_integrates_to_final_counters(self, observed):
        """The acceptance check: sum-of-deltas == end-of-run aggregate
        for every ClientCounters and ServerCounters field."""
        obs, result = observed
        problems = verify_integration(
            obs.timeseries, result.final_counters, result.server_counters
        )
        assert problems == []

    def test_sampling_cadence(self, observed, small_trace):
        obs, result = observed
        series = obs.timeseries.series("server")
        # Baseline at t=0, one per interval, plus the closing sample.
        assert series.times[0] == 0.0
        assert series.times[-1] == pytest.approx(small_trace.duration)
        assert len(series) >= 2
        assert all(b >= a for a, b in zip(series.times, series.times[1:]))

    def test_column_reads_cumulative_samples(self):
        series = MachineSeries(
            machine="client-0", fields=("x",),
            times=[0.0, 10.0, 20.0], rows=[(0,), (4,), (10,)],
        )
        assert series.column("x") == [0, 4, 10]
        with pytest.raises(KeyError):
            series.column("nope")


class TestTraceExport:
    def test_trace_validates_against_schema(self, observed):
        obs, _ = observed
        trace = obs.tracer.to_chrome_trace()
        assert validate_chrome_trace(trace) == []

    def test_trace_names_every_machine(self, observed):
        obs, _ = observed
        trace = obs.tracer.to_chrome_trace()
        names = {
            row["args"]["name"]
            for row in trace["traceEvents"] if row["ph"] == "M"
        }
        assert names == {
            "server", "client-0", "client-1", "client-2", "client-3",
        }

    def test_trace_round_trips_through_json(self, observed, tmp_path):
        obs, _ = observed
        path = tmp_path / "trace.json"
        obs.write_trace(path)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["events_dropped"] == 0

    def test_event_cap_counts_drops(self):
        recorder = TraceRecorder(max_events=5)
        for i in range(12):
            recorder.instant(float(i), 0, "test", f"event-{i}")
        assert len(recorder) == 5
        assert recorder.dropped == 7
        exported = recorder.to_chrome_trace()
        assert exported["otherData"]["events_recorded"] == 5
        assert exported["otherData"]["events_dropped"] == 7

    def test_capped_observed_run_stays_inert(self, small_trace,
                                             cluster_result):
        """Hitting the event cap changes the trace, never the replay."""
        obs, result = observed_replay(small_trace, max_trace_events=10)
        assert obs.tracer.dropped > 0
        assert result.final_counters == cluster_result.final_counters

    def test_validator_flags_bad_rows(self):
        bad = {"traceEvents": [
            {"name": 5, "ph": "i", "ts": 0, "pid": 0, "tid": 0},
            {"name": "x", "ph": "?", "ts": 0, "pid": 0, "tid": 0},
            {"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) == 3
        assert validate_chrome_trace({"traceEvents": None}) != []


class TestLatencies:
    def test_lossy_run_populates_histograms(self, small_trace):
        config = ClusterConfig(
            client_count=4,
            faults=FaultConfig(
                message_loss_rate=0.05,
                message_delay_rate=0.3,
                message_delay_mean=0.02,
            ),
        )
        oracle = ProtocolOracle(seed=77, raise_on_violation=False)
        obs, result = observed_replay(
            small_trace, config=config, seed=77, oracle=oracle,
        )
        stats = obs.latencies.stats
        assert stats["rpc_round_trip_seconds"].count > 0
        assert stats["writeback_age_seconds"].count > 0
        # The oracle's checks were mirrored into the observation.
        assert obs.oracle_checks.get("execute", 0) > 0
        assert obs.oracle_checks.get("final", 0) > 0
        assert obs.oracle_violations == 0
        # Integration exactness holds on lossy runs too.
        assert verify_integration(
            obs.timeseries, result.final_counters, result.server_counters
        ) == []
        payload = obs.bench_payload()
        assert payload["schema"] == "repro-obs-bench-v1"
        assert (
            payload["latency_histograms"]["rpc_round_trip_seconds"]["count"]
            > 0
        )

    def test_fault_schedule_shows_up_in_trace(self, small_trace):
        # The trace is bursty at this small scale: anchor the outage at
        # the median record so client ops land inside it and stall.
        times = small_trace.columnar.times.tolist()
        crash_at = times[len(times) // 2] - 1.0
        outage = small_trace.duration * 0.02
        schedule = FaultSchedule(events=[
            FaultEvent(crash_at, FaultKind.SERVER_CRASH, SERVER_TARGET, outage),
        ])
        obs, result = observed_replay(
            small_trace, fault_schedule=schedule, seed=11,
        )
        names = {event.name for event in obs.tracer.events}
        assert "armed:server_crash" in names
        assert "outage:server_crash" in names
        assert "recovered:server_crash" in names
        assert obs.latencies.stats["recovery_stall_seconds"].count > 0

    def test_bench_file_is_json(self, observed, tmp_path):
        obs, _ = observed
        path = tmp_path / "BENCH_obs.json"
        obs.write_bench(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-obs-bench-v1"
        assert payload["trace_events_dropped"] == 0
        assert payload["machines"] == [
            "client-0", "client-1", "client-2", "client-3", "server",
        ]

    def test_render_summary_mentions_everything(self, observed):
        obs, _ = observed
        text = obs.render_summary()
        assert "counter timeseries" in text
        assert "trace events" in text
        assert "Latency histograms" in text


class TestCodecRoundTrip:
    def test_timeseries_dump_load(self, observed, tmp_path):
        obs, result = observed
        path = tmp_path / "timeseries.bin"
        obs.timeseries.dump(path)
        loaded = CounterTimeseries.load(path)
        assert loaded.sample_interval == obs.timeseries.sample_interval
        assert sorted(loaded.machines) == sorted(obs.timeseries.machines)
        for name, series in obs.timeseries.machines.items():
            twin = loaded.series(name)
            assert twin.fields == series.fields
            assert twin.times == series.times
            assert twin.rows == series.rows
        # The loaded series still integrates to the final counters.
        assert verify_integration(
            loaded, result.final_counters, result.server_counters
        ) == []

    def test_load_rejects_other_artifacts(self, observed, tmp_path):
        from repro.pipeline.codec import encode_artifact

        _, result = observed
        path = tmp_path / "replay.bin"
        path.write_bytes(encode_artifact(result))
        with pytest.raises(SimulationError, match="not a counter timeseries"):
            CounterTimeseries.load(path)


class TestCli:
    def test_obs_subflags_require_obs(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table4", "--obs-trace-out", "x.json"])
        with pytest.raises(SystemExit):
            main(["table4", "--obs-sample-interval", "30"])
        for interval in ("0", "nan", "inf"):
            with pytest.raises(SystemExit) as exited:
                main(["table4", "--obs", "--obs-sample-interval", interval])
            assert exited.value.code == 2
            assert "must be finite and > 0" in capsys.readouterr().err
