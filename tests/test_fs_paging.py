"""Tests for the paging model and the ids/errors foundations."""

import pytest

from repro.common import errors
from repro.common.ids import IdAllocator
from repro.common.rng import RngStream
from repro.fs.config import ClusterConfig
from repro.fs.paging import EXECUTABLE_FILE_ID_BASE, PagingModel
from rigs import build_rig


def make_paging_rig(seed=3, intensity=1.0):
    config = ClusterConfig(client_count=1)
    engine, _, (client,) = build_rig(config, base_demand_pages=1000)
    rng = RngStream.root(seed)
    binaries = PagingModel.build_binaries(rng.fork("bins"))
    model = PagingModel(client, engine, rng.fork("paging"), binaries,
                        intensity=intensity)
    return engine, client, model


class TestPagingModel:
    def test_binaries_have_code_and_data(self):
        binaries = PagingModel.build_binaries(RngStream.root(1))
        assert len(binaries) == 24
        for binary in binaries:
            assert binary.file_id >= EXECUTABLE_FILE_ID_BASE
            assert binary.code_bytes > 0
            assert binary.data_bytes > 0

    def test_first_pulse_is_startup_burst(self):
        engine, client, model = make_paging_rig()
        model.on_activity(0.0, migrated=False)
        assert client.counters.paging_code_bytes > 0
        assert client.counters.paging_data_bytes > 0

    def test_steady_state_generates_traffic(self):
        engine, client, model = make_paging_rig()
        model.on_activity(0.0, migrated=False)
        for step in range(1, 400):
            model.on_activity(float(step), migrated=False)
        assert client.counters.paging_backing_bytes_read > 0
        assert client.counters.paging_backing_bytes_written > 0

    def test_idle_gap_triggers_new_burst(self):
        engine, client, model = make_paging_rig()
        model.on_activity(0.0, migrated=False)
        code_after_first = client.counters.paging_code_bytes
        engine.run_until(5000.0)
        model.on_activity(5000.0, migrated=False)  # > IDLE_THRESHOLD
        assert client.counters.paging_code_bytes > code_after_first

    def test_burst_schedules_working_set_release(self):
        engine, client, model = make_paging_rig()
        active_before = client.vm.active
        model.on_activity(0.0, migrated=False)
        assert client.vm.active > active_before
        engine.run_until(46 * 60.0)  # releases fire within 25 minutes
        assert client.vm.active + client.vm.aging >= active_before
        assert client.vm.aging > 0

    def test_popular_binary_pages_hit_after_warmup(self):
        engine, client, model = make_paging_rig(seed=9)
        for step in range(300):
            model.on_activity(step * 2.0, migrated=False)
            if step % 50 == 0:
                engine.run_until(step * 2.0 + 1.0)
        counters = client.counters
        assert counters.paging_read_misses < counters.paging_read_ops

    def test_intensity_scales_traffic(self):
        _, quiet_client, quiet = make_paging_rig(seed=5, intensity=0.5)
        _, loud_client, loud = make_paging_rig(seed=5, intensity=3.0)
        for step in range(200):
            quiet.on_activity(float(step), migrated=False)
            loud.on_activity(float(step), migrated=False)
        assert (loud_client.counters.raw_paging_bytes
                > quiet_client.counters.raw_paging_bytes)


class TestIdAllocator:
    def test_dense_allocation(self):
        alloc = IdAllocator()
        assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]

    def test_custom_start(self):
        assert IdAllocator(start=10).allocate() == 10

    def test_negative_start_raises(self):
        with pytest.raises(ValueError):
            IdAllocator(start=-1)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in ("ConfigError", "TraceError", "TraceOrderError",
                     "SimulationError", "SchedulingError", "CacheError",
                     "ConsistencyError", "AnalysisError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_order_error_is_trace_error(self):
        assert issubclass(errors.TraceOrderError, errors.TraceError)

    def test_scheduling_error_is_simulation_error(self):
        assert issubclass(errors.SchedulingError, errors.SimulationError)
