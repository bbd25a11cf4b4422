"""Tests for workload building blocks: distributions, users, filespace,
emitter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, TraceError
from repro.common.ids import ClientId, UserId
from repro.common.rng import RngStream
from repro.common.units import KB, MB
from repro.trace.records import AccessMode
from repro.trace.validate import validate_stream
from repro.workload.distributions import (
    FileSizeModel,
    SizeClass,
    diurnal_weight,
    io_duration,
    open_latency,
    process_rate,
)
from repro.workload.emitter import RecordEmitter
from repro.workload.filespace import FileSpace
from repro.workload.users import UserGroup, build_user_population

from checkers import emitted_records


@pytest.fixture()
def filespace(rng):
    return FileSpace(server_count=4, rng=rng)


@pytest.fixture()
def emitter(filespace):
    return RecordEmitter(filespace)


class TestDistributions:
    def test_typical_model_samples_positive(self, rng):
        model = FileSizeModel.typical()
        for _ in range(200):
            assert model.sample(rng) >= 1

    def test_class_caps_respected(self, rng):
        model = FileSizeModel.typical()
        for _ in range(200):
            assert model.sample(rng, SizeClass.TINY) <= 4 * KB
            assert model.sample(rng, SizeClass.HUGE) <= 24 * MB

    def test_huge_files_are_megabytes(self, rng):
        model = FileSizeModel.typical()
        sizes = [model.sample(rng, SizeClass.HUGE) for _ in range(50)]
        assert min(sizes) > 1 * MB

    def test_most_samples_are_small(self, rng):
        model = FileSizeModel.typical()
        sizes = [model.sample(rng) for _ in range(2000)]
        small = sum(1 for s in sizes if s < 64 * KB)
        assert small / len(sizes) > 0.7

    def test_empty_weights_rejected(self):
        with pytest.raises(ConfigError):
            FileSizeModel(weights={})

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            FileSizeModel(weights={SizeClass.TINY: -1.0})

    def test_io_duration_monotone_in_bytes(self):
        assert io_duration(1000, 1e6, 0.01) < io_duration(100000, 1e6, 0.01)

    def test_io_duration_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            io_duration(-1, 1e6, 0.0)
        with pytest.raises(ConfigError):
            io_duration(1, 0.0, 0.0)

    def test_open_latency_band(self, rng):
        for _ in range(100):
            assert 0.010 <= open_latency(rng) <= 0.040

    def test_process_rate_band(self, rng):
        for _ in range(100):
            assert 0.5 * MB <= process_rate(rng) <= 2.0 * MB

    def test_diurnal_peaks_in_afternoon(self):
        assert diurnal_weight(15 * 3600.0) > diurnal_weight(4 * 3600.0)

    def test_diurnal_positive_everywhere(self):
        for hour in range(24):
            assert diurnal_weight(hour * 3600.0) > 0


class TestUserPopulation:
    def build(self, rng, regular=6, occasional=4, migration=3):
        return build_user_population(
            rng, regular_users=regular, occasional_users=occasional,
            client_count=10, migration_user_target=migration,
        )

    def test_population_size(self, rng):
        assert len(self.build(rng)) == 10

    def test_migration_target_met(self, rng):
        users = self.build(rng, migration=3)
        assert sum(1 for u in users if u.uses_migration) == 3

    def test_groups_roughly_equal(self, rng):
        users = self.build(rng, regular=8, occasional=8, migration=4)
        by_group = {g: 0 for g in UserGroup}
        for user in users:
            by_group[user.group] += 1
        assert all(count == 4 for count in by_group.values())

    def test_regular_users_session_more(self, rng):
        users = self.build(rng)
        regulars = [u.sessions_per_day for u in users if u.regular]
        occasionals = [u.sessions_per_day for u in users if not u.regular]
        assert min(regulars) > max(occasionals)

    def test_home_clients_assigned(self, rng):
        users = self.build(rng)
        assert all(0 <= int(u.home_client) < 10 for u in users)

    def test_migration_exceeding_population_raises(self, rng):
        with pytest.raises(ConfigError):
            self.build(rng, regular=2, occasional=0, migration=5)

    def test_empty_population_raises(self, rng):
        with pytest.raises(ConfigError):
            self.build(rng, regular=0, occasional=0, migration=0)

    def test_app_mix_covers_groups(self, rng):
        for user in self.build(rng):
            mix = user.app_mix()
            assert "edit" in mix and "shell" in mix
            assert all(weight >= 0 for weight in mix.values())

    def test_shares_files_is_deterministic_subset(self, rng):
        users = self.build(rng, regular=10, occasional=10, migration=4)
        sharers = [u for u in users if u.shares_files]
        assert 0 < len(sharers) < len(users)


class TestFileSpace:
    def test_create_and_get(self, filespace):
        state = filespace.create(1.0, UserId(3), size=100)
        assert filespace.get(state.file_id) is state
        assert filespace.exists(state.file_id)
        assert state.size == 100

    def test_create_with_size_sets_byte_times(self, filespace):
        state = filespace.create(5.0, UserId(0), size=10)
        assert state.oldest_byte_time == 5.0
        assert state.newest_byte_time == 5.0

    def test_create_empty_has_no_byte_times(self, filespace):
        state = filespace.create(5.0, UserId(0))
        assert state.oldest_byte_time == -1.0

    def test_negative_size_rejected(self, filespace):
        with pytest.raises(TraceError):
            filespace.create(0.0, UserId(0), size=-1)

    def test_delete_removes(self, filespace):
        state = filespace.create(0.0, UserId(0))
        filespace.delete(state.file_id)
        assert not filespace.exists(state.file_id)
        with pytest.raises(TraceError):
            filespace.get(state.file_id)

    def test_double_delete_raises(self, filespace):
        state = filespace.create(0.0, UserId(0))
        filespace.delete(state.file_id)
        with pytest.raises(TraceError):
            filespace.delete(state.file_id)

    def test_server_zero_gets_most_files(self, filespace):
        servers = [
            int(filespace.create(0.0, UserId(0)).server_id) for _ in range(400)
        ]
        assert servers.count(0) > 200
        assert len(set(servers)) > 1

    def test_record_write_extends_size(self, filespace):
        state = filespace.create(0.0, UserId(0))
        state.record_write(1.0, 0, 100, client=2)
        assert state.size == 100
        state.record_write(2.0, 100, 50, client=2)
        assert state.size == 150

    def test_full_overwrite_resets_oldest(self, filespace):
        state = filespace.create(0.0, UserId(0))
        state.record_write(1.0, 0, 100, client=2)
        state.record_write(5.0, 0, 100, client=2)
        assert state.oldest_byte_time == 5.0

    def test_partial_write_keeps_oldest(self, filespace):
        state = filespace.create(0.0, UserId(0))
        state.record_write(1.0, 0, 100, client=2)
        state.record_write(5.0, 50, 10, client=3)
        assert state.oldest_byte_time == 1.0
        assert state.newest_byte_time == 5.0
        assert state.last_writer_client == 3

    def test_truncate_resets(self, filespace):
        state = filespace.create(0.0, UserId(0), size=100)
        state.truncate(3.0)
        assert state.size == 0
        assert state.oldest_byte_time == -1.0

    def test_live_count(self, filespace):
        a = filespace.create(0.0, UserId(0))
        filespace.create(0.0, UserId(0))
        assert len(filespace._files) == 2
        filespace.delete(a.file_id)
        assert len(filespace._files) == 1
        assert filespace.created_count == 2
        assert filespace.deleted_count == 1


class TestEmitter:
    def test_whole_episode_is_valid(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        episode = emitter.open_file(
            1.0, file, UserId(1), ClientId(2), AccessMode.WRITE
        )
        episode.write(2.0, 0, 100)
        episode.close(2.5)
        report = validate_stream(emitter.sink.seal())
        assert report.balanced

    def test_write_updates_filespace(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        episode = emitter.open_file(
            1.0, file, UserId(1), ClientId(2), AccessMode.WRITE
        )
        episode.write(2.0, 0, 100)
        episode.close(2.5)
        assert file.size == 100
        assert file.newest_byte_time == 2.0

    def test_reposition_emitted_on_seek(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2), )
        file.record_write(0.1, 0, 1000, client=0)
        episode = emitter.open_file(
            1.0, file, UserId(1), ClientId(2), AccessMode.READ
        )
        episode.read(2.0, 0, 100)
        episode.read(3.0, 500, 100)  # jump -> reposition
        episode.close(3.5)
        kinds = [r.kind for r in emitted_records(emitter.sink)]
        assert kinds.count("reposition") == 1

    def test_contiguous_runs_no_reposition(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        file.record_write(0.1, 0, 1000, client=0)
        episode = emitter.open_file(
            1.0, file, UserId(1), ClientId(2), AccessMode.READ
        )
        episode.read(2.0, 0, 500)
        episode.read(3.0, 500, 500)
        episode.close(3.5)
        assert all(r.kind != "reposition" for r in emitted_records(emitter.sink))

    def test_close_totals(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        episode = emitter.open_file(
            1.0, file, UserId(1), ClientId(2), AccessMode.READ_WRITE
        )
        episode.write(2.0, 0, 300)
        episode.read(3.0, 0, 200)
        episode.close(4.0)
        close = [r for r in emitted_records(emitter.sink) if r.kind == "close"][0]
        assert close.bytes_written == 300
        assert close.bytes_read == 200
        assert close.size_at_close == 300

    def test_truncate_on_open(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        file.record_write(0.5, 0, 500, client=2)
        episode = emitter.open_file(
            1.0, file, UserId(1), ClientId(2), AccessMode.WRITE, truncate=True
        )
        assert file.size == 0
        episode.close(1.5)
        open_record = [r for r in emitted_records(emitter.sink) if r.kind == "open"][0]
        assert open_record.size_at_open == 500  # size before truncation

    def test_truncate_readonly_rejected(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        with pytest.raises(TraceError):
            emitter.open_file(
                1.0, file, UserId(1), ClientId(2), AccessMode.READ, truncate=True
            )

    def test_open_deleted_file_rejected(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        emitter.delete_file(1.0, file, UserId(1), ClientId(2))
        with pytest.raises(TraceError):
            emitter.open_file(2.0, file, UserId(1), ClientId(2), AccessMode.READ)

    def test_double_close_rejected(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        episode = emitter.open_file(1.0, file, UserId(1), ClientId(2),
                                    AccessMode.READ)
        episode.close(2.0)
        with pytest.raises(TraceError):
            episode.close(3.0)

    def test_time_going_backwards_rejected(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        episode = emitter.open_file(1.0, file, UserId(1), ClientId(2),
                                    AccessMode.WRITE)
        episode.write(2.0, 0, 10)
        with pytest.raises(TraceError):
            episode.write(1.5, 10, 10)

    def test_delete_carries_byte_times(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        episode = emitter.open_file(1.0, file, UserId(1), ClientId(2),
                                    AccessMode.WRITE)
        episode.write(2.0, 0, 100)
        episode.close(2.5)
        emitter.delete_file(10.0, file, UserId(1), ClientId(2))
        delete = [r for r in emitted_records(emitter.sink) if r.kind == "delete"][0]
        assert delete.oldest_byte_time == 2.0
        assert delete.size == 100

    def test_shared_request_records(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        episode = emitter.open_file(1.0, file, UserId(1), ClientId(2),
                                    AccessMode.WRITE)
        episode.shared_request(2.0, 0, 50, is_write=True)
        episode.shared_request(3.0, 0, 50, is_write=False)
        episode.close(4.0)
        kinds = [r.kind for r in emitted_records(emitter.sink)]
        assert "shared_write" in kinds and "shared_read" in kinds

    def test_directory_read(self, emitter):
        emitter.read_directory(1.0, UserId(1), ClientId(2), 512)
        assert emitted_records(emitter.sink)[-1].kind == "dir_read"
        with pytest.raises(TraceError):
            emitter.read_directory(1.0, UserId(1), ClientId(2), 0)

    def test_open_episode_count_tracks(self, emitter):
        file = emitter.create_file(0.0, UserId(1), ClientId(2))
        episode = emitter.open_file(1.0, file, UserId(1), ClientId(2),
                                    AccessMode.READ)
        assert len(emitter._open_episodes) == 1
        episode.close(2.0)
        assert len(emitter._open_episodes) == 0


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=5_000),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_filespace_size_invariant(writes):
    """File size is always the max extent ever written."""
    space = FileSpace(server_count=1, rng=RngStream.root(0))
    state = space.create(0.0, UserId(0))
    expected = 0
    for step, (offset, length) in enumerate(writes):
        state.record_write(float(step + 1), offset, length, client=0)
        expected = max(expected, offset + length)
    assert state.size == expected
    assert state.newest_byte_time == float(len(writes))
