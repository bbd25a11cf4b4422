"""Pipeline smoke tests: cache round-trips, corruption, key hygiene.

These run at a tiny scale so the whole module stays in the tier-1
budget; the full-scale determinism crosscheck lives in
``test_pipeline_determinism.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

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
from repro.pipeline.codec import decode_artifact, encode_artifact
from repro.trace.records import AccessMode
from repro.workload import generate_trace
from repro.workload.profiles import STANDARD_PROFILES

SCALE = 0.02


def test_cold_then_warm_round_trip(tmp_path):
    """A warm context rebuilds the exact artifacts the cold one stored."""
    cold = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    cold_traces = cold.traces()
    cold_accesses = cold.accesses()
    cold_results = cold.cluster_results()
    assert cold._artifact_cache.stats.hits == 0
    assert cold._artifact_cache.stats.stores == cold._artifact_cache.stats.misses > 0

    warm = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    warm_traces = warm.traces()
    warm_accesses = warm.accesses()
    warm_results = warm.cluster_results()
    stats = warm._artifact_cache.stats
    assert stats.misses == 0 and stats.corrupt == 0
    assert stats.hits == cold._artifact_cache.stats.stores

    assert warm_traces == cold_traces
    assert len(warm_accesses) == len(cold_accesses)
    for a, b in zip(warm_accesses, cold_accesses):
        assert a.open_record == b.open_record
        assert a.close_record == b.close_record
        assert a.runs == b.runs
        assert a.reposition_count == b.reposition_count
    assert len(warm_results) == len(cold_results)
    for a, b in zip(warm_results, cold_results):
        assert a.server_counters == b.server_counters
        assert a.final_counters == b.final_counters
        assert a.snapshots == b.snapshots
        assert a.config == b.config
        assert (a.duration, a.records_replayed) == (b.duration, b.records_replayed)


def test_warm_accesses_alias_trace_records(tmp_path):
    """Cached accesses share record objects with the cached traces, the
    same aliasing the serial assembler produces."""
    ExperimentContext(scale=SCALE, seed=7, cache=tmp_path).accesses()
    warm = ExperimentContext(scale=SCALE, seed=7, cache=tmp_path)
    traces = warm.traces()
    record_ids = {id(r) for t in traces for r in t.records}
    for access in warm.accesses():
        assert id(access.open_record) in record_ids
        assert id(access.close_record) in record_ids


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


def _small_trace(materialize):
    return generate_trace(
        STANDARD_PROFILES[0],
        seed=7,
        scale=SCALE,
        client_count=4,
        materialize=materialize,
    )


@pytest.mark.parametrize("materialize", [True, False])
def test_trace_codec_round_trip(materialize):
    """Traces store as columns (tag ``C``); a materialized trace comes
    back with the same records, field types exact, and an unmaterialized
    one stays unmaterialized."""
    trace = _small_trace(materialize)
    payload = encode_artifact(trace)
    assert payload[:1] == b"C"
    decoded = decode_artifact(payload)
    assert decoded.records == trace.records
    assert bool(decoded.records) is materialize
    assert decoded.record_count == trace.record_count > 0
    assert decoded == trace
    for record in decoded.records or decoded.columnar.materialize():
        for item in dataclasses.fields(record):
            expected = _FIELD_TYPES[item.type]
            value = getattr(record, item.name)
            assert type(value) is expected, (record, item.name)


def test_store_refuses_trace_whose_records_disagree_with_columns(tmp_path):
    trace = _small_trace(True)
    skewed = dataclasses.replace(trace, records=trace.records[:-1])
    cache = ArtifactCache(tmp_path)
    assert cache.store("ab" * 32, skewed) is False
    assert cache.stats.stores == 0
    assert not any(path.is_file() for path in tmp_path.rglob("*"))


def test_accesses_without_trace_context_round_trip_through_pickle():
    from repro.analysis.episodes import assemble_accesses

    trace = _small_trace(True)
    accesses = list(assemble_accesses(trace.records))
    assert accesses
    for context in (None, {"records": []}):
        payload = encode_artifact(accesses, context)
        assert payload[:1] == b"P"
        assert decode_artifact(payload) == accesses


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
    """The pooled access list is the per-trace lists concatenated in
    trace order (what the serial assembler produced)."""
    from repro.analysis.episodes import assemble_accesses

    ctx = ExperimentContext(scale=SCALE, seed=7, cache=False)
    traces = ctx.traces()
    pooled = ctx.accesses()
    expected = []
    for trace in traces:
        expected.extend(assemble_accesses(trace.records))
    assert len(pooled) == len(expected)
    for a, b in zip(pooled, expected):
        assert a.open_record == b.open_record
        assert a.close_record == b.close_record
        assert a.runs == b.runs
        assert a.reposition_count == b.reposition_count


def test_build_traces_matches_generate_standard_traces(tmp_path):
    from repro.workload import generate_standard_traces

    built = build_traces(SCALE, 7, 4)
    reference = generate_standard_traces(scale=SCALE, seed=7, client_count=4)
    assert built == reference


# Module-level so the pool branch of run_stage can pickle it.
@dataclass
class _SquareTask:
    value: int

    def key_fields(self):
        return {"kind": "square-test", "value": self.value}

    def run(self):
        return {"square": self.value * self.value}

    def codec_context(self):
        return None


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
        assert results == [{"square": 9}, {"square": 16}]
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
        assert results == [{"square": 4}, {"square": 25}]
        timing = report.stages[-1]
        assert timing.workers == 8
        assert timing.workers_effective == 2  # pool capped at the misses

    def test_serial_request_stays_serial(self):
        report = PipelineReport()
        run_stage("serial", [_SquareTask(2), _SquareTask(5)], report=report)
        timing = report.stages[-1]
        assert timing.workers == 1
        assert timing.workers_effective == 1
