"""Tests for the application models and the trace generator."""

import pytest

from repro.common.ids import ClientId, UserId
from repro.common.rng import RngStream
from repro.trace.validate import validate_stream
from repro.workload import (
    STANDARD_PROFILES,
    FileSpace,
    RecordEmitter,
    TraceProfile,
    generate_trace,
)
from repro.workload.apps import (
    AppContext,
    UserFiles,
    run_browse,
    run_compile,
    run_document,
    run_edit,
    run_mail,
    run_rw_update,
    run_shared_log,
    run_shell,
    run_simulation,
)
from repro.workload.distributions import FileSizeModel
from repro.workload.profiles import scaled_profile
from repro.workload.users import UserGroup, UserProfile

from checkers import emitted_records
from reference_trace import materialize


def make_context(seed=5, migration_hosts=4):
    rng = RngStream.root(seed)
    filespace = FileSpace(server_count=4, rng=rng.fork("fs"))
    emitter = RecordEmitter(filespace)
    user = UserProfile(
        user_id=UserId(0),
        group=UserGroup.OS,
        home_client=ClientId(0),
        regular=True,
        sessions_per_day=5.0,
        uses_migration=True,
    )
    return AppContext(
        emitter=emitter,
        rng=rng.fork("app"),
        user=user,
        files=UserFiles(),
        size_model=FileSizeModel.typical(),
        migration_hosts=[ClientId(i) for i in range(1, migration_hosts + 1)],
    )


def sorted_records(ctx):
    return sorted(emitted_records(ctx.emitter.sink), key=lambda r: r.time)


APPS = [
    ("edit", lambda ctx: run_edit(ctx, 0.0)),
    ("compile_local", lambda ctx: run_compile(ctx, 0.0, migrated=False)),
    ("compile_migrated", lambda ctx: run_compile(ctx, 0.0, migrated=True)),
    ("simulation", lambda ctx: run_simulation(ctx, 0.0, migrated=False)),
    ("simulation_migrated", lambda ctx: run_simulation(ctx, 0.0, migrated=True)),
    ("mail", lambda ctx: run_mail(ctx, 0.0)),
    ("document", lambda ctx: run_document(ctx, 0.0)),
    ("browse", lambda ctx: run_browse(ctx, 0.0)),
    ("shell", lambda ctx: run_shell(ctx, 0.0)),
    ("rw_update", lambda ctx: run_rw_update(ctx, 0.0)),
]


class TestApplications:
    @pytest.mark.parametrize("name,runner", APPS, ids=[a[0] for a in APPS])
    def test_app_emits_valid_trace(self, name, runner):
        ctx = make_context()
        end = runner(ctx)
        assert end > 0.0
        report = validate_stream(ctx.emitter.sink.seal())
        assert report.balanced, f"{name} left unbalanced episodes"

    @pytest.mark.parametrize("name,runner", APPS, ids=[a[0] for a in APPS])
    def test_app_advances_time_monotonically(self, name, runner):
        ctx = make_context(seed=11)
        end = runner(ctx)
        assert all(r.time <= end + 1e-6 for r in emitted_records(ctx.emitter.sink))

    def test_compile_migrated_uses_remote_hosts(self):
        ctx = make_context(seed=3)
        run_compile(ctx, 0.0, migrated=True)
        migrated = [r for r in emitted_records(ctx.emitter.sink)
                    if getattr(r, "migrated", False)]
        assert migrated, "a migrated compile must produce migrated records"
        assert any(r.client_id != 0 for r in migrated)

    def test_compile_local_stays_home(self):
        ctx = make_context(seed=3)
        run_compile(ctx, 0.0, migrated=False)
        assert all(r.client_id == 0 for r in emitted_records(ctx.emitter.sink)
                   if hasattr(r, "client_id"))

    def test_compile_link_reads_objects_at_home(self):
        ctx = make_context(seed=4)
        run_compile(ctx, 0.0, migrated=True)
        # The link step writes an executable on the home client.
        writes_home = [
            r for r in emitted_records(ctx.emitter.sink)
            if r.kind == "write_run" and r.client_id == 0
        ]
        assert writes_home

    def test_simulation_deletes_its_output(self):
        ctx = make_context(seed=6)
        run_simulation(ctx, 0.0, migrated=False)
        kinds = [r.kind for r in emitted_records(ctx.emitter.sink)]
        assert "delete" in kinds

    def test_simulation_reads_megabytes(self):
        ctx = make_context(seed=6)
        ctx.simulation_intensity = 3.0
        run_simulation(ctx, 0.0, migrated=False)
        read_bytes = sum(r.length for r in emitted_records(ctx.emitter.sink)
                         if r.kind == "read_run")
        assert read_bytes > 5 * 1024 * 1024

    def test_edit_reuses_files_across_invocations(self):
        ctx = make_context(seed=7)
        run_edit(ctx, 0.0)
        first_sources = list(ctx.files.sources)
        run_edit(ctx, 10_000.0)
        assert any(f in ctx.files.sources for f in first_sources)

    def test_shell_appends_history(self):
        ctx = make_context(seed=8)
        run_shell(ctx, 0.0)
        assert ctx.files.history is not None

    def test_mail_creates_inbox(self):
        ctx = make_context(seed=9)
        run_mail(ctx, 0.0)
        assert ctx.files.inbox is not None

    def test_rw_update_produces_read_write_access(self):
        ctx = make_context(seed=10)
        run_rw_update(ctx, 0.0)
        from repro.analysis import assemble_accesses
        from repro.analysis.access_patterns import (
            CELLS,
            AccessType,
            classify_accesses,
        )
        from repro.trace.columnar import ColumnarTrace

        table = assemble_accesses(ColumnarTrace.from_records(sorted_records(ctx)))
        types = {CELLS[c][0] for c in classify_accesses(table).tolist() if c >= 0}
        assert AccessType.READ_WRITE in types

    def test_shared_log_produces_shared_events_and_overlap(self):
        ctx = make_context(seed=12)
        partner = UserProfile(
            user_id=UserId(1), group=UserGroup.OS, home_client=ClientId(3),
            regular=True, sessions_per_day=5.0, uses_migration=False,
        )
        log = ctx.emitter.register_existing_file(0.0, ctx.user_id, 4096)
        run_shared_log(ctx, 0.0, partner, requests=20, log_file=log)
        kinds = [r.kind for r in emitted_records(ctx.emitter.sink)]
        assert "shared_write" in kinds
        opens = [r for r in emitted_records(ctx.emitter.sink) if r.kind == "open"]
        assert len(opens) == 2
        assert {o.client_id for o in opens} == {0, 3}


class TestProfiles:
    def test_standard_profiles_count(self):
        assert len(STANDARD_PROFILES) == 8

    def test_profile_names_unique(self):
        names = [p.name for p in STANDARD_PROFILES]
        assert len(set(names)) == 8

    def test_sim_traces_marked(self):
        assert STANDARD_PROFILES[2].simulation_intensity > 2
        assert STANDARD_PROFILES[3].simulation_intensity > 2

    def test_scaled_profile_shrinks_users(self):
        scaled = scaled_profile(STANDARD_PROFILES[0], 0.5)
        assert scaled.user_target == round(44 * 0.5)
        assert scaled.migration_user_target >= 1

    def test_scaled_profile_identity(self):
        assert scaled_profile(STANDARD_PROFILES[0], 1.0) is STANDARD_PROFILES[0]

    def test_scaled_profile_rejects_zero(self):
        with pytest.raises(Exception):
            scaled_profile(STANDARD_PROFILES[0], 0.0)

    def test_profile_validation(self):
        with pytest.raises(Exception):
            TraceProfile(name="bad", date="x", user_target=0)
        with pytest.raises(Exception):
            TraceProfile(name="bad", date="x", user_target=5,
                         migration_user_target=6)


class TestGenerator:
    def test_trace_is_sorted_and_valid(self, small_trace):
        times = [r.time for r in materialize(small_trace.columnar)]
        assert times == sorted(times)
        assert small_trace.validation.records == len(times)

    def test_trace_within_duration(self, small_trace):
        assert all(0 <= r.time < small_trace.duration
                   for r in materialize(small_trace.columnar))

    def test_trace_determinism(self):
        a = generate_trace(STANDARD_PROFILES[0], seed=77, scale=0.03)
        b = generate_trace(STANDARD_PROFILES[0], seed=77, scale=0.03)
        assert materialize(a.columnar) == materialize(b.columnar)

    def test_different_seeds_differ(self):
        a = generate_trace(STANDARD_PROFILES[0], seed=77, scale=0.03)
        b = generate_trace(STANDARD_PROFILES[0], seed=78, scale=0.03)
        assert materialize(a.columnar) != materialize(b.columnar)

    def test_trace_has_core_event_kinds(self, small_trace):
        kinds = {r.kind for r in materialize(small_trace.columnar)}
        assert {"open", "close", "read_run", "write_run", "delete",
                "dir_read"} <= kinds

    def test_migration_users_present(self, small_trace):
        migrated_users = {
            r.user_id for r in materialize(small_trace.columnar)
            if getattr(r, "migrated", False)
        }
        assert migrated_users

    def test_client_ids_in_range(self, small_trace):
        clients = {
            r.client_id for r in materialize(small_trace.columnar)
            if hasattr(r, "client_id")
        }
        assert all(0 <= c < 40 for c in clients)

    def test_shared_trace_has_more_shared_events(
        self, small_trace, shared_heavy_trace
    ):
        def shared_count(trace):
            return sum(1 for r in materialize(trace.columnar)
                       if r.kind in ("shared_read", "shared_write"))

        # trace8's shared intensity is 20x trace1's.
        assert shared_count(shared_heavy_trace) > shared_count(small_trace)

    def test_sim_trace_reads_more_bytes(self, small_trace, sim_trace):
        def read_bytes(trace):
            return sum(r.length for r in materialize(trace.columnar)
                       if r.kind == "read_run")

        assert read_bytes(sim_trace) > 2 * read_bytes(small_trace)
