"""Pipeline smoke tests: cache round-trips, corruption, key hygiene.

These run at a tiny scale so the whole module stays in the tier-1
budget; the full-scale determinism crosscheck lives in
``test_pipeline_determinism.py``.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments import ExperimentContext
from repro.pipeline import (
    PipelineReport,
    run_stage,
)
from repro.pipeline import (
    ArtifactCache,
    build_traces,
    resolve_cache,
    resolve_workers,
    trace_tasks,
)
from repro.obs.sampler import CounterTimeseries
from repro.pipeline.codec import decode_artifact, encode_artifact
from repro.trace.columnar import RECORD_CLASSES
from repro.trace.records import AccessMode
from repro.workload import generate_trace
from repro.workload.profiles import STANDARD_PROFILES

from checkers import refuse_records
from reference_trace import materialize

SCALE = 0.02


def assert_same_tables(tables, expected):
    """Two access-table lists hold equal arrays, field by field."""
    assert len(tables) == len(expected)
    for table, other in zip(tables, expected):
        assert vars(table).keys() == vars(other).keys()
        for name, values in vars(table).items():
            assert values.dtype == getattr(other, name).dtype, name
            assert np.array_equal(values, getattr(other, name)), name


def test_cold_then_warm_round_trip(tmp_path):
    """A warm context rebuilds the exact artifacts the cold one stored."""
    cold = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    cold_traces = cold.traces()
    cold_accesses = cold.trace_accesses()
    cold_results = cold.cluster_results()
    assert cold._artifact_cache.stats.hits == 0
    assert cold._artifact_cache.stats.stores == cold._artifact_cache.stats.misses > 0

    warm = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    warm_traces = warm.traces()
    warm_accesses = warm.trace_accesses()
    warm_results = warm.cluster_results()
    stats = warm._artifact_cache.stats
    assert stats.misses == 0 and stats.corrupt == 0
    assert stats.hits == cold._artifact_cache.stats.stores

    assert warm_traces == cold_traces
    assert_same_tables(warm_accesses, cold_accesses)
    assert len(warm_results) == len(cold_results)
    for a, b in zip(warm_results, cold_results):
        assert a.server_counters == b.server_counters
        assert a.final_counters == b.final_counters
        assert a.snapshots == b.snapshots
        assert a.config == b.config
        assert (a.duration, a.records_replayed) == (b.duration, b.records_replayed)


def test_warm_accesses_build_no_records_view(tmp_path, monkeypatch):
    """Accesses are assembled from the warm traces' columns: no record
    is built."""
    ExperimentContext(scale=SCALE, seed=7, cache=tmp_path).trace_accesses()
    refuse_records(monkeypatch)
    warm = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    assert sum(len(table) for table in warm.trace_accesses()) > 0


def test_corrupt_entries_are_misses_not_fatal(tmp_path):
    """Truncated/garbage cache files are ignored, unlinked, and rebuilt."""
    cold = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    expected = cold.traces()
    cache = cold._artifact_cache

    entries = sorted(tmp_path.rglob("*.pkl"))
    assert entries
    entries[0].write_bytes(b"not an artifact at all")
    entries[1].write_bytes(entries[1].read_bytes()[:40])  # truncated

    warm = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    assert warm.traces() == expected
    stats = warm._artifact_cache.stats
    assert stats.corrupt == 2
    assert stats.misses == 2
    # the corrupt entries were replaced by fresh stores
    assert stats.stores == 2
    again = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    assert again.traces() == expected
    assert again._artifact_cache.stats.misses == 0


def test_unwritable_cache_is_not_fatal(tmp_path):
    """An unusable cache root degrades to recompute, not an error."""
    root = tmp_path / "blocked"
    root.write_text("a file where the cache root should be")
    ctx = ExperimentContext(scale=SCALE, seed=7, cache=root)
    assert len(ctx.traces()) == 8
    assert ctx._artifact_cache.stats.stores == 0


#: Exact Python type of a record field, by its annotation.
_FIELD_TYPES = {"float": float, "int": int, "bool": bool, "AccessMode": AccessMode}


def _small_trace():
    return generate_trace(
        STANDARD_PROFILES[0], seed=7, scale=SCALE, client_count=4
    )


def _remapped(trace):
    return dataclasses.replace(
        trace, columnar=trace.columnar.remap_group(1, 4, client_base=8)
    )


@pytest.mark.parametrize("source_decoded", [True, False])
def test_trace_codec_round_trip(source_decoded):
    """Traces store as columns (tag ``C``), whether the encoded trace was
    generated or itself decoded (read-only column buffers).  Equality
    compares the column arrays: a trace equals its round trip and a
    regenerated twin, but not its remapped copy, whose records carry
    other ids.  The decoded columns encode the generated records, field
    types exact."""
    trace = _small_trace()
    source = _small_trace()
    if source_decoded:
        source = decode_artifact(encode_artifact(source))
    payload = encode_artifact(source)
    assert payload[:1] == b"C"
    decoded = decode_artifact(payload)
    assert decoded == trace
    assert _small_trace() == trace
    remapped = _remapped(trace)
    assert remapped != trace
    assert remapped.columnar.max_file_id() > trace.columnar.max_file_id()
    assert decoded.record_count == trace.record_count > 0
    records = materialize(decoded.columnar)
    assert records == materialize(trace.columnar)
    for record in records:
        for item in dataclasses.fields(record):
            expected = _FIELD_TYPES[item.type]
            value = getattr(record, item.name)
            assert type(value) is expected, (record, item.name)


def test_records_view_is_not_pickled():
    """A pickled trace carries its columns and no record: a generated
    trace pickles to the same bytes as its decoded copy, and no record
    class is named in a generated, decoded or remapped trace's pickle."""
    trace = _small_trace()
    decoded = decode_artifact(encode_artifact(trace))
    for candidate in (trace, decoded, _remapped(trace)):
        payload = pickle.dumps(candidate)
        assert pickle.loads(payload) == candidate
        assert not [
            cls for cls in RECORD_CLASSES if cls.__name__.encode() in payload
        ]
    assert pickle.dumps(trace) == pickle.dumps(decoded)


def test_only_traces_replays_and_timeseries_are_artifacts(tmp_path):
    """Any other type has no encoding: the codec refuses it and the
    cache reports it as not stored."""
    with pytest.raises(TypeError, match="no artifact encoding for list"):
        encode_artifact([1, 2, 3])
    cache = ArtifactCache(tmp_path)
    key = cache.key_for({"kind": "not-an-artifact"})
    assert cache.store(key, {"square": 9}) is False
    assert cache.load(key) is None


def test_keys_stable_and_parameter_sensitive(tmp_path):
    cache = ArtifactCache(tmp_path)
    tasks = trace_tasks(0.05, 1991, 4)
    keys = [cache.key_for(t.key_fields()) for t in tasks]
    assert keys == [cache.key_for(t.key_fields()) for t in tasks]
    assert len(set(keys)) == len(keys)  # each trace its own entry
    bumped = trace_tasks(0.05, 1992, 4)
    assert all(
        cache.key_for(b.key_fields()) != k for b, k in zip(bumped, keys)
    )
    scaled = trace_tasks(0.1, 1991, 4)
    assert all(
        cache.key_for(s.key_fields()) != k for s, k in zip(scaled, keys)
    )


def test_cache_knob_resolution(tmp_path):
    assert resolve_cache(False) is None
    assert resolve_cache(None) is None
    assert resolve_cache(tmp_path).root == tmp_path
    shared = ArtifactCache(tmp_path)
    assert resolve_cache(shared) is shared
    assert resolve_cache(True).root is not None


def test_workers_knob_resolution():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1  # one per core
    with pytest.raises(ValueError):
        resolve_workers(-2)


def test_pooled_accesses_match_per_trace_order(tmp_path):
    """Figures 1-3 pool the per-trace tables in trace order: each CDF is
    fed exactly what the record path fed it from the concatenated
    per-trace access lists."""
    import reference_analysis as reference

    from repro.analysis import (
        compute_file_sizes,
        compute_open_times,
        compute_run_lengths,
    )
    from repro.analysis.episodes import assemble_accesses

    ctx = ExperimentContext(scale=SCALE, seed=7, cache=False)
    traces = ctx.traces()
    tables = ctx.trace_accesses()
    assert_same_tables(tables, [assemble_accesses(t.columnar) for t in traces])
    assert ctx.trace_accesses() is tables
    pooled = [
        a for t in traces for a in reference.assemble_accesses(materialize(t.columnar))
    ]
    for compute, curves in (
        (compute_run_lengths, ("by_runs", "by_bytes")),
        (compute_file_sizes, ("by_accesses", "by_bytes")),
        (compute_open_times, ("by_opens",)),
    ):
        ours = compute(tables)
        theirs = getattr(reference, compute.__name__)(pooled)
        for curve in curves:
            assert getattr(ours, curve)._samples == getattr(theirs, curve)._samples


def test_accesses_assembled_once_per_trace(monkeypatch):
    """Table 3 and Figures 1-3 share one assembly per trace."""
    import sys

    from repro.analysis import episodes
    from repro.experiments import run_experiment

    original = episodes.assemble_accesses
    calls = []

    def counting(trace):
        calls.append(1)
        return original(trace)

    # Rebind every module-level name of the assembler, not just the
    # registry's, so an import inside any caller is counted too.
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, "assemble_accesses", None) is original
        ):
            monkeypatch.setattr(module, "assemble_accesses", counting)

    ctx = ExperimentContext(scale=SCALE, seed=7, cache=False)
    for experiment_id in ("table3", "figure1", "figure2", "figure3"):
        run_experiment(experiment_id, ctx)
    assert len(calls) == len(ctx.traces())


def test_build_traces_matches_generate_standard_traces(tmp_path):
    from repro.workload import generate_standard_traces

    built = build_traces(SCALE, 7, 4)
    reference = generate_standard_traces(scale=SCALE, seed=7, client_count=4)
    assert built == reference


# Module-level so the pool branch of run_stage can pickle it.  Its
# artifact is a counter timeseries, the smallest type the codec stores,
# carrying the square as its sample interval.
@dataclass
class _SquareTask:
    value: int

    def key_fields(self):
        return {"kind": "square-test", "value": self.value}

    def run(self):
        return CounterTimeseries(float(self.value * self.value))


def _squares(results) -> list[float]:
    return [result.sample_interval for result in results]


class TestStageTimingWorkers:
    """StageTiming must report requested vs effective workers -- the old
    single field recorded the pool size, so a ``workers=8`` stage with
    one miss looked like the caller asked for serial, and an all-hit
    stage reported 0 workers requested."""

    def test_pool_request_with_one_miss_reports_both(self, tmp_path):
        cache = resolve_cache(tmp_path)
        report = PipelineReport()
        run_stage(
            "one-miss", [_SquareTask(3)], workers=8, cache=cache, report=report
        )
        timing = report.stages[-1]
        assert timing.workers == 8  # what the caller asked for
        assert timing.workers_effective == 1  # serial fallback, one miss
        assert (timing.cache_hits, timing.cache_misses) == (0, 1)

    def test_all_hit_stage_keeps_requested_workers(self, tmp_path):
        cache = resolve_cache(tmp_path)
        tasks = [_SquareTask(3), _SquareTask(4)]
        run_stage("warmup", tasks, workers=1, cache=cache)
        report = PipelineReport()
        results = run_stage(
            "all-hit", tasks, workers=8, cache=cache, report=report
        )
        assert _squares(results) == [9.0, 16.0]
        timing = report.stages[-1]
        assert timing.workers == 8
        assert timing.workers_effective == 0  # nothing actually ran
        assert (timing.cache_hits, timing.cache_misses) == (2, 0)

    def test_pool_size_is_capped_by_misses(self):
        report = PipelineReport()
        results = run_stage(
            "pooled",
            [_SquareTask(2), _SquareTask(5)],
            workers=8,
            report=report,
        )
        assert _squares(results) == [4.0, 25.0]
        timing = report.stages[-1]
        assert timing.workers == 8
        assert timing.workers_effective == 2  # pool capped at the misses

    def test_serial_request_stays_serial(self):
        report = PipelineReport()
        run_stage("serial", [_SquareTask(2), _SquareTask(5)], report=report)
        timing = report.stages[-1]
        assert timing.workers == 1
        assert timing.workers_effective == 1
