"""The top-level synthetic trace generator.

For each trace profile the generator builds a user population, a shared
file hierarchy on four servers, and a set of shared group log files,
then plays out every user's day as a series of sessions whose start
times follow the diurnal activity curve.  Sessions invoke the
application models of :mod:`repro.workload.apps` according to the user's
group mix; migration users fan pmake compilations (and some simulations)
out to idle hosts.  The result is a time-sorted, validated record
stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.ids import ClientId
from repro.common.rng import RngStream
from repro.common.units import DEFAULT_CLIENT_COUNT, DEFAULT_SERVER_COUNT, MINUTE
from repro.trace.columnar import ColumnarTrace
from repro.trace.validate import ValidationReport, validate_stream
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
from repro.workload.distributions import FileSizeModel, diurnal_weight
from repro.workload.emitter import RecordEmitter
from repro.workload.filespace import FileSpace, FileState
from repro.workload.profiles import STANDARD_PROFILES, TraceProfile, scaled_profile
from repro.workload.users import UserGroup, UserProfile, build_user_population

#: Peak value of the diurnal curve, for rejection sampling.
_DIURNAL_PEAK = 1.4


@dataclass(frozen=True)
class SyntheticTrace:
    """One generated 24-hour trace plus its provenance.

    The stream is stored once, as ``columnar``
    (:class:`~repro.trace.columnar.ColumnarTrace`): generation validates
    it, every cluster replay and analysis reads it, the trace-file tools
    write it, and equality compares its column arrays.
    """

    profile: TraceProfile
    seed: int
    scale: float
    users: list[UserProfile]
    validation: ValidationReport
    columnar: ColumnarTrace

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def duration(self) -> float:
        return self.profile.duration

    @property
    def record_count(self) -> int:
        """Number of records, read off the columns."""
        return len(self.columnar)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SyntheticTrace({self.name}, records={self.record_count}, "
            f"users={len(self.users)}, scale={self.scale})"
        )


class TraceGenerator:
    """Generates one synthetic trace from a profile."""

    #: Applications each session can invoke, keyed by mix name.
    _MEAN_SESSION_MINUTES = 55.0

    def __init__(
        self,
        profile: TraceProfile,
        seed: int,
        client_count: int = DEFAULT_CLIENT_COUNT,
        server_count: int = DEFAULT_SERVER_COUNT,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.client_count = client_count
        self.rng = RngStream.root(seed).fork(profile.name)
        self.filespace = FileSpace(server_count, self.rng.fork("filespace"))
        self.emitter = RecordEmitter(self.filespace)
        self.size_model = FileSizeModel.typical()
        self.users = build_user_population(
            self.rng.fork("users"),
            regular_users=profile.regular_users,
            occasional_users=profile.occasional_users,
            client_count=client_count,
            migration_user_target=profile.migration_user_target,
        )
        self._user_files: dict[int, UserFiles] = {}
        self._group_logs: dict[UserGroup, list[FileState]] = {}

    # --- shared resources ---------------------------------------------------

    def _shared_logs_for(self, group: UserGroup) -> list[FileState]:
        logs = self._group_logs.get(group)
        if logs is None:
            rng = self.rng.fork(f"logs-{group.value}")
            logs = [
                self.emitter.register_existing_file(
                    0.0, self.users[0].user_id, rng.randint(1024, 64 * 1024)
                )
                for _ in range(2)
            ]
            self._group_logs[group] = logs
        return logs

    def _partner_for(self, user: UserProfile, rng: RngStream) -> UserProfile:
        """Someone in the same group to share a file with (or anyone, if
        the user is alone in their group)."""
        mates = [
            u
            for u in self.users
            if u.group is user.group and u.user_id != user.user_id
            and u.shares_files
        ]
        if not mates:
            mates = [u for u in self.users if u.user_id != user.user_id]
        if not mates:
            return user
        return rng.choice(mates)

    # --- session machinery --------------------------------------------------

    #: Uniform draws fetched per rejection-sampling batch (8 candidate
    #: time/acceptance pairs; ~71% of candidates accept, so one batch
    #: almost always suffices).
    _START_BATCH = 16

    def _sample_session_start(self, rng: RngStream) -> float:
        """Rejection-sample a session start time from the diurnal curve.

        Draws are batched (:meth:`RngStream.randoms`) and consumed in
        pairs, in order -- byte-identical to the one-at-a-time
        ``uniform`` loop because ``uniform(0, x)`` is exactly
        ``x * random()``; the batch's unused tail is never observed
        (each session start owns a dedicated fork).
        """
        duration = self.profile.duration
        weight = diurnal_weight
        while True:
            draws = rng.randoms(self._START_BATCH)
            for i in range(0, self._START_BATCH, 2):
                t = duration * draws[i]
                if _DIURNAL_PEAK * draws[i + 1] <= weight(t):
                    return t

    def _context_for(self, user: UserProfile, rng: RngStream) -> AppContext:
        files = self._user_files.get(int(user.user_id))
        if files is None:
            files = UserFiles()
            self._user_files[int(user.user_id)] = files
        # A stable, user-specific host preference order: Sprite's
        # migration policy "tends to reuse the same hosts over and over
        # again, which may allow some reuse of data in the caches" --
        # the reason migrated processes hit better than average.
        others = [c for c in range(self.client_count) if c != int(user.home_client)]
        rotation = (int(user.user_id) * 7) % max(1, len(others))
        hosts = [ClientId(c) for c in others[rotation:] + others[:rotation]]
        return AppContext(
            emitter=self.emitter,
            rng=rng,
            user=user,
            files=files,
            size_model=self.size_model,
            migration_hosts=hosts,
            simulation_intensity=self.profile.simulation_intensity,
        )

    def _run_app(
        self, ctx: AppContext, app: str, time: float, rng: RngStream
    ) -> float:
        user = ctx.user
        if app == "edit":
            return run_edit(ctx, time)
        if app == "compile":
            migrated = user.uses_migration and rng.bernoulli(0.7)
            return run_compile(ctx, time, migrated=migrated)
        if app == "simulation":
            # The hot class-project simulations (traces 3-4) ran under
            # pmake, i.e. nearly always migrated; day-to-day simulations
            # only sometimes.
            p_migrate = 0.85 if self.profile.simulation_intensity >= 2.0 else 0.35
            migrated = user.uses_migration and rng.bernoulli(p_migrate)
            return run_simulation(ctx, time, migrated=migrated)
        if app == "mail":
            return run_mail(ctx, time)
        if app == "document":
            return run_document(ctx, time)
        if app == "browse":
            return run_browse(ctx, time)
        if app == "shell":
            return run_shell(ctx, time)
        if app == "shared_log":
            partner = self._partner_for(user, rng)
            requests = max(
                1, round(rng.randint(10, 80) * self.profile.shared_intensity)
            )
            log = rng.choice(self._shared_logs_for(user.group))
            return run_shared_log(ctx, time, partner, requests, log)
        if app == "rw_update":
            return run_rw_update(ctx, time)
        raise ValueError(f"unknown application kind: {app}")

    def _run_session(self, user: UserProfile, start: float, rng: RngStream) -> None:
        ctx = self._context_for(user, rng)
        length = min(
            rng.lognormal(
                mu=_log_mean_minutes(self._MEAN_SESSION_MINUTES), sigma=0.5
            )
            * MINUTE,
            4.0 * 3600.0,
        )
        mix = dict(user.app_mix())
        # Sharing is concentrated: clique members share several times a
        # day, everyone else not at all.
        if user.shares_files:
            if "shared_log" in mix:
                mix["shared_log"] *= 3.0
        else:
            mix.pop("shared_log", None)
        # A pinch of in-place read/write updates keeps Table 3's rare
        # read/write row populated.
        mix["rw_update"] = 0.04
        # The hot class-project simulations belonged to a couple of
        # pmake-driven users: concentrate them on migration users.
        if self.profile.simulation_intensity >= 2.0 and "simulation" in mix:
            mix["simulation"] *= 2.5 if user.uses_migration else 0.25
        apps = list(mix)
        weights = [mix[a] for a in apps]
        now = start
        deadline = start + length
        while now < deadline:
            app = rng.weighted_choice(apps, weights)
            now = self._run_app(ctx, app, now, rng)
            now += rng.exponential(25.0)

    # --- main entry -----------------------------------------------------------

    def generate(self, scale: float = 1.0) -> SyntheticTrace:
        """Play out the full day and return the sorted, validated trace.

        ``scale`` is provenance only (the population is already scaled
        into the profile).  Validation reads the columns; no record is
        built until something reads the trace's ``records`` view.
        """
        for user in self.users:
            user_rng = self.rng.fork(f"sessions-{user.user_id}")
            mean_sessions = user.sessions_per_day * self.profile.intensity
            session_count = user_rng.poisson(mean_sessions)
            if user.regular and session_count == 0:
                session_count = 1  # day-to-day users always show up
            starts = sorted(
                self._sample_session_start(user_rng.fork(f"start-{index}"))
                for index in range(session_count)
            )
            # Sessions are generated in time order so that file lifecycle
            # operations (a cleanup delete in an afternoon session) stay
            # temporally consistent with morning sessions.
            for index, start in enumerate(starts):
                self._run_session(user, start, user_rng.fork(f"run-{index}"))

        # Seal the columnar sink: drop out-of-window rows and argsort by
        # time (stable, emission order breaking ties) -- the vectorized
        # equivalent of the classic filter + list.sort.
        columnar = self.emitter.sink.seal(duration=self.profile.duration)
        return SyntheticTrace(
            profile=self.profile,
            seed=self.seed,
            scale=scale,
            users=self.users,
            validation=validate_stream(columnar, allow_open_at_end=True),
            columnar=columnar,
        )


def _log_mean_minutes(mean: float) -> float:
    """mu for a lognormal whose *median* is ``mean`` minutes."""
    import math

    return math.log(mean)


def generate_trace(
    profile: TraceProfile,
    seed: int = 1991,
    scale: float = 1.0,
    client_count: int = DEFAULT_CLIENT_COUNT,
) -> SyntheticTrace:
    """Generate one trace, optionally population-scaled."""
    effective = scaled_profile(profile, scale)
    return TraceGenerator(
        effective, seed=seed, client_count=client_count
    ).generate(scale=scale)


def generate_standard_traces(
    scale: float = 1.0,
    seed: int = 1991,
    client_count: int = DEFAULT_CLIENT_COUNT,
    profiles: tuple[TraceProfile, ...] = STANDARD_PROFILES,
) -> list[SyntheticTrace]:
    """Generate the study's eight traces.

    ``scale`` shrinks the user population for fast test/bench runs;
    distributional results are scale-invariant, totals scale roughly
    linearly (multiply by ``1/scale`` to compare with Table 1).
    """
    return [
        generate_trace(profile, seed=seed + index, scale=scale, client_count=client_count)
        for index, profile in enumerate(profiles)
    ]
