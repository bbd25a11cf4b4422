"""Application behaviour models.

Section 2 lists the cluster's common applications: "interactive editors
of various types, program development and debugging, electronic mail,
document production, and simulation".  Each model here turns one
invocation of such an application into a legal sequence of trace
records, with I/O timing derived from a 10-MIPS-workstation processing
rate and network-file-system open latencies.

Every model is a function ``run_<app>(ctx, ...) -> float`` that emits
records through ``ctx.emitter`` and returns the wall-clock time at which
the invocation finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.ids import ClientId, UserId
from repro.common.rng import RngStream
from repro.common.units import KB, MB
from repro.trace.records import AccessMode
from repro.workload.distributions import (
    FileSizeModel,
    SizeClass,
    io_duration,
    open_latency,
    process_rate,
)
from repro.workload.emitter import RecordEmitter
from repro.workload.filespace import FileState
from repro.workload.users import UserProfile


@dataclass
class UserFiles:
    """A user's persistent files, created lazily and reused across
    sessions so the workload has genuine locality."""

    sources: list[FileState] = field(default_factory=list)
    headers: list[FileState] = field(default_factory=list)
    objects: dict[int, FileState] = field(default_factory=dict)
    executable: FileState | None = None
    libraries: list[FileState] = field(default_factory=list)
    inbox: FileState | None = None
    sent_mbox: FileState | None = None
    documents: list[FileState] = field(default_factory=list)
    sim_input: FileState | None = None
    #: Shell history, appended to by nearly every shell invocation.
    history: FileState | None = None
    #: Build log, appended to by compiles.
    build_log: FileState | None = None
    #: A small record-structured file updated in place now and then.
    dbfile: FileState | None = None


@dataclass
class AppContext:
    """Everything an application invocation needs."""

    emitter: RecordEmitter
    rng: RngStream
    user: UserProfile
    files: UserFiles
    size_model: FileSizeModel
    #: Clients available as migration targets (excluding the home client).
    migration_hosts: list[ClientId]
    #: Knob from the trace profile: >1 makes simulation jobs bigger/longer.
    simulation_intensity: float = 1.0

    @property
    def user_id(self) -> UserId:
        return self.user.user_id

    @property
    def home(self) -> ClientId:
        return self.user.home_client


# ---------------------------------------------------------------------------
# small building blocks
# ---------------------------------------------------------------------------


def _dwell(rng: RngStream) -> float:
    """Extra time a process keeps the file open while it works on the
    contents.  Most opens close immediately; a minority are held while
    the application processes (the tail of Figure 3)."""
    if rng.bernoulli(0.22):
        if rng.bernoulli(0.12):
            return rng.uniform(2.0, 60.0)
        return rng.uniform(0.05, 2.0)
    return 0.0


def read_whole(
    ctx: AppContext,
    time: float,
    file: FileState,
    client: ClientId,
    migrated: bool = False,
    rate: float | None = None,
) -> float:
    """Open, read the whole file sequentially, close.  Returns end time."""
    rate = rate or process_rate(ctx.rng)
    episode = ctx.emitter.open_file(
        time, file, ctx.user_id, client, AccessMode.READ, migrated=migrated
    )
    end = time + io_duration(file.size, rate, open_latency(ctx.rng))
    if file.size > 0:
        episode.read(end, 0, file.size)
    end += _dwell(ctx.rng)
    episode.close(end)
    return end


def read_prefix(
    ctx: AppContext,
    time: float,
    file: FileState,
    client: ClientId,
    migrated: bool = False,
) -> float:
    """Open and read only a leading fraction of the file sequentially
    (head, an early-exiting grep, a pager quit part-way): the paper's
    "other sequential" read accesses."""
    rng = ctx.rng
    episode = ctx.emitter.open_file(
        time, file, ctx.user_id, client, AccessMode.READ, migrated=migrated
    )
    length = max(1, int(file.size * rng.uniform(0.1, 0.9)))
    end = time + io_duration(length, process_rate(rng), open_latency(rng))
    if file.size > 0:
        episode.read(end, 0, min(length, file.size))
    end += _dwell(rng)
    episode.close(end)
    return end


def write_whole(
    ctx: AppContext,
    time: float,
    file: FileState,
    client: ClientId,
    size: int,
    migrated: bool = False,
    rate: float | None = None,
) -> float:
    """Open with truncate, write ``size`` bytes sequentially, close."""
    rate = rate or process_rate(ctx.rng)
    episode = ctx.emitter.open_file(
        time,
        file,
        ctx.user_id,
        client,
        AccessMode.WRITE,
        migrated=migrated,
        truncate=True,
    )
    end = time + io_duration(size, rate, open_latency(ctx.rng))
    if size > 0:
        episode.write(end, 0, size)
    episode.close(end)
    return end


def write_random(
    ctx: AppContext,
    time: float,
    file: FileState,
    client: ClientId,
    pieces: int,
    migrated: bool = False,
) -> float:
    """Open and update scattered records in place (a write-only random
    access, e.g. a dbm-style index update)."""
    rng = ctx.rng
    episode = ctx.emitter.open_file(
        time, file, ctx.user_id, client, AccessMode.WRITE, migrated=migrated
    )
    rate = process_rate(rng)
    now = time + open_latency(rng)
    size = max(file.size, 1)
    max_chunk = max(512, min(size // 8, 256 * KB))
    for _ in range(max(1, pieces)):
        offset = rng.randint(0, max(0, size - 1))
        length = min(size - offset, rng.randint(64, max_chunk)) or 1
        now += io_duration(length, rate, 0.001)
        episode.write(now, offset, length)
    episode.close(now)
    return now


def append_run(
    ctx: AppContext,
    time: float,
    file: FileState,
    client: ClientId,
    size: int,
    migrated: bool = False,
) -> float:
    """Open for writing and append ``size`` bytes at the end."""
    episode = ctx.emitter.open_file(
        time, file, ctx.user_id, client, AccessMode.WRITE, migrated=migrated
    )
    end = time + io_duration(size, process_rate(ctx.rng), open_latency(ctx.rng))
    episode.write(end, file.size, size)
    episode.close(end)
    return end


def read_random(
    ctx: AppContext,
    time: float,
    file: FileState,
    client: ClientId,
    pieces: int,
    migrated: bool = False,
) -> float:
    """Open and read ``pieces`` scattered chunks (a Random access)."""
    episode = ctx.emitter.open_file(
        time, file, ctx.user_id, client, AccessMode.READ, migrated=migrated
    )
    rate = process_rate(ctx.rng)
    now = time + open_latency(ctx.rng)
    size = max(file.size, 1)
    # Chunk sizes scale with the file: random access into a font or data
    # file pulls proportionally bigger pieces.
    max_chunk = max(1024, min(size // 8, 256 * KB))
    for _ in range(max(1, pieces)):
        offset = ctx.rng.randint(0, max(0, size - 1))
        length = min(size - offset, ctx.rng.randint(200, max_chunk))
        if length <= 0:
            length = 1
            offset = max(0, size - 1)
        now += io_duration(length, rate, 0.001)
        episode.read(now, offset, length)
    episode.close(now)
    return now


# ---------------------------------------------------------------------------
# the applications
# ---------------------------------------------------------------------------


def run_edit(ctx: AppContext, time: float) -> float:
    """An interactive editing burst: load a file, think, save it (via a
    short-lived backup copy, the classic editor pattern that gives the
    paper its sub-30-second file lifetimes)."""
    rng = ctx.rng
    client = ctx.home

    if not ctx.files.sources or rng.bernoulli(0.12):
        target = ctx.emitter.register_existing_file(
            time, ctx.user_id, ctx.size_model.sample(rng, SizeClass.SMALL)
        )
        ctx.files.sources.append(target)
    else:
        target = rng.choice(ctx.files.sources)

    # Editors stat the directory and read their startup/config files.
    if rng.bernoulli(0.5):
        ctx.emitter.read_directory(time, ctx.user_id, client, rng.randint(256, 4 * KB))
    now = time + 0.01
    for _ in range(rng.randint(1, 3)):
        dotfile = ctx.emitter.register_existing_file(
            now, ctx.user_id, ctx.size_model.sample(rng, SizeClass.TINY)
        )
        now = read_whole(ctx, now, dotfile, client)

    now = read_whole(ctx, now, target, client)

    saves = rng.randint(1, 5)
    for _ in range(saves):
        now += rng.uniform(15.0, 180.0)  # typing
        new_size = max(
            64, int(target.size * rng.uniform(0.9, 1.15)) + rng.randint(-64, 256)
        )
        if rng.bernoulli(0.35):
            # Save through a backup file that is deleted a little later.
            backup = ctx.emitter.create_file(now, ctx.user_id, client)
            now = write_whole(ctx, now, backup, client, target.size or 64)
            now = write_whole(ctx, now + 0.01, target, client, new_size)
            now += rng.uniform(2.0, 45.0)
            ctx.emitter.delete_file(now, backup, ctx.user_id, client)
        else:
            now = write_whole(ctx, now + 0.01, target, client, new_size)
    return now


def run_compile(ctx: AppContext, time: float, migrated: bool) -> float:
    """A pmake build: read the Makefile, compile out-of-date targets
    (possibly fanned out to idle hosts via process migration), then link.

    Migration is where the paper's 6-7x burst factor comes from: several
    hosts compile simultaneously on one user's behalf, and the link step
    reads the objects seconds after remote clients wrote them (the
    server-recall pattern of Table 10).
    """
    rng = ctx.rng
    home = ctx.home

    # Ensure the user has a project.
    if not ctx.files.sources:
        for _ in range(rng.randint(4, 18)):
            ctx.files.sources.append(
                ctx.emitter.register_existing_file(
                    time, ctx.user_id, ctx.size_model.sample(rng, SizeClass.SMALL)
                )
            )
    if not ctx.files.headers:
        for _ in range(rng.randint(3, 10)):
            ctx.files.headers.append(
                ctx.emitter.register_existing_file(
                    time, ctx.user_id, ctx.size_model.sample(rng, SizeClass.SMALL)
                )
            )
    if not ctx.files.libraries:
        for _ in range(rng.randint(1, 3)):
            ctx.files.libraries.append(
                ctx.emitter.register_existing_file(
                    time, ctx.user_id, ctx.size_model.sample(rng, SizeClass.MEDIUM)
                )
            )

    # pmake reads the makefile and scans the directory.
    makefile = ctx.files.sources[0]
    now = read_whole(ctx, time, makefile, home)
    ctx.emitter.read_directory(now, ctx.user_id, home, rng.randint(512, 8 * KB))

    # The build's progress is appended to a log as it goes.
    if ctx.files.build_log is None or not ctx.emitter.filespace.exists(
        ctx.files.build_log.file_id
    ):
        ctx.files.build_log = ctx.emitter.register_existing_file(
            now, ctx.user_id, rng.randint(256, 16 * KB)
        )
    now = append_run(ctx, now, ctx.files.build_log, home, rng.randint(100, 2 * KB))

    # Choose the out-of-date targets.  Migrated builds are the big ones:
    # a full pmake over the whole project (that is why it was migrated).
    if migrated:
        while len(ctx.files.sources) < 13:
            ctx.files.sources.append(
                ctx.emitter.register_existing_file(
                    time, ctx.user_id, ctx.size_model.sample(rng, SizeClass.SMALL)
                )
            )
        count = rng.randint(8, len(ctx.files.sources) - 1)
    else:
        count = rng.randint(1, max(1, len(ctx.files.sources) - 1))
    pool = ctx.files.sources[1:] or ctx.files.sources
    targets = rng.sample(pool, min(count, len(pool)))

    hosts: list[ClientId]
    if migrated and ctx.migration_hosts:
        # Take the user's preferred hosts in order: host reuse across
        # builds keeps headers and sources warm in remote caches.
        fanout = min(len(ctx.migration_hosts), rng.randint(2, 8))
        hosts = list(ctx.migration_hosts[:fanout])
    else:
        hosts = [home]

    # Compile targets in parallel across hosts; track per-host clocks.
    # Each source always compiles on the same host (pmake's stable
    # scheduling), so re-reads of unchanged sources and headers hit the
    # remote caches on rebuilds.
    host_clock = {host: now for host in hosts}
    finished: list[tuple[float, FileState]] = []
    for source in targets:
        host = hosts[int(source.file_id) % len(hosts)]
        is_remote = host != home
        t = host_clock[host]
        rate = process_rate(rng)
        t = read_whole(ctx, t, source, host, migrated=is_remote, rate=rate)
        for header in rng.sample(
            ctx.files.headers, min(len(ctx.files.headers), rng.randint(2, 6))
        ):
            t = read_whole(ctx, t, header, host, migrated=is_remote, rate=rate)
        if rng.bernoulli(0.4):
            # Compiler temp file: written, read back, deleted in seconds.
            temp = ctx.emitter.create_file(t, ctx.user_id, host)
            temp_size = max(256, int(source.size * rng.uniform(0.5, 1.5)))
            t = write_whole(
                ctx, t, temp, host, temp_size, migrated=is_remote, rate=rate
            )
            t = read_whole(ctx, t + 0.01, temp, host, migrated=is_remote, rate=rate)
            ctx.emitter.delete_file(t + 0.01, temp, ctx.user_id, host)
            t += 0.02
        t += rng.uniform(0.3, 3.0)  # code generation CPU time
        # Object file: overwrite the previous version.
        obj = ctx.files.objects.get(int(source.file_id))
        if obj is None or not ctx.emitter.filespace.exists(obj.file_id):
            obj = ctx.emitter.create_file(t, ctx.user_id, host)
            ctx.files.objects[int(source.file_id)] = obj
        obj_size = max(512, int(source.size * rng.uniform(1.0, 2.0)))
        t = write_whole(ctx, t, obj, host, obj_size, migrated=is_remote, rate=rate)
        host_clock[host] = t
        finished.append((t, obj))

    if not finished:
        return now

    # Link on the home client as soon as the slowest host finishes.  The
    # freshly written objects are still dirty in remote caches.
    link_start = max(t for t, _ in finished) + rng.uniform(0.1, 1.0)
    t = link_start
    rate = process_rate(rng)
    for _, obj in finished:
        t = read_whole(ctx, t, obj, home, rate=rate)
    for library in ctx.files.libraries:
        t = read_whole(ctx, t, library, home, rate=rate)
    exe = ctx.files.executable
    if exe is None or not ctx.emitter.filespace.exists(exe.file_id):
        exe = ctx.emitter.create_file(t, ctx.user_id, home)
        ctx.files.executable = exe
    # Executables are about the size of their inputs; a minority of
    # builds are kernel-sized binaries (the paper's 2-10 Mbyte kernels).
    if rng.bernoulli(0.06):
        exe_size = ctx.size_model.sample(rng, SizeClass.LARGE)
    else:
        total_objects = sum(o.size for o in ctx.files.objects.values())
        exe_size = max(32 * KB, int(total_objects * rng.uniform(0.8, 1.2)))
    t = write_whole(ctx, t, exe, home, exe_size, rate=rate)
    return t


def run_simulation(ctx: AppContext, time: float, migrated: bool) -> float:
    """A simulation run: read a multi-megabyte input, compute, write a
    multi-megabyte output, post-process it, delete it.

    This is the workload of the paper's traces 3 and 4 (20-Mbyte inputs;
    a 10-Mbyte output "subsequently postprocessed and deleted") and the
    main source of million-byte sequential runs and long per-byte
    lifetimes.
    """
    rng = ctx.rng
    intensity = max(0.1, ctx.simulation_intensity)
    # A migrated simulation is a pmake parameter sweep: the runs execute
    # in parallel on several idle hosts, which is what makes migration
    # traffic so bursty (Table 2's 6-7x factor).
    sweep_hosts: list[ClientId] = [ctx.home]
    if migrated and ctx.migration_hosts:
        fanout = min(len(ctx.migration_hosts), rng.randint(2, 4))
        sweep_hosts = list(ctx.migration_hosts[:fanout])

    sim_input = ctx.files.sim_input
    if sim_input is None or not ctx.emitter.filespace.exists(sim_input.file_id):
        # Ordinary simulation inputs are a few hundred kilobytes; the hot
        # class-project workloads of traces 3-4 (intensity >= 2) read
        # the paper's 20-Mbyte inputs.
        if intensity >= 2.0:
            base = ctx.size_model.sample(rng, SizeClass.HUGE)
        else:
            base = int(
                ctx.size_model.sample(rng, SizeClass.MEDIUM) * rng.uniform(1.0, 4.0)
            )
        sim_input = ctx.emitter.register_existing_file(
            time, ctx.user_id, min(int(base), 24 * MB)
        )
        ctx.files.sim_input = sim_input

    if migrated:
        repeats = max(len(sweep_hosts), rng.poisson(0.6 * max(1.0, intensity)))
    else:
        repeats = max(1, rng.poisson(0.5 if intensity < 2.0 else 0.4 * intensity))
    host_clock: dict[int, float] = {int(h): time for h in sweep_hosts}
    home_clock = time
    for index in range(repeats):
        client = sweep_hosts[index % len(sweep_hosts)]
        is_remote = client != ctx.home
        now = host_clock[int(client)]
        rate = process_rate(rng)
        # Sequential read of the whole input.  Big simulators read in a
        # few long chunks (checkpointed phases) rather than one run.
        episode = ctx.emitter.open_file(
            now, sim_input, ctx.user_id, client, AccessMode.READ, migrated=is_remote
        )
        # Some runs only consume a leading portion of the input (a
        # shortened experiment): megabyte-scale "other sequential" reads.
        wanted = sim_input.size
        if rng.bernoulli(0.25):
            wanted = max(1, int(sim_input.size * rng.uniform(0.4, 0.95)))
        chunks = rng.randint(1, 3)
        chunk = wanted // chunks if chunks else wanted
        t = now + open_latency(rng)
        offset = 0
        for i in range(chunks):
            length = chunk if i < chunks - 1 else wanted - offset
            if length <= 0:
                break
            t += io_duration(length, rate, 0.0)
            episode.read(t, offset, length)
            offset += length
        episode.close(t)
        now = t + rng.uniform(20.0, 120.0)  # compute phase

        # Output file.  Usually created fresh and written whole; some
        # simulators instead append each run to a growing results file,
        # and some update a preallocated results matrix in place.
        output = ctx.emitter.create_file(now, ctx.user_id, client)
        out_size = max(
            64 * KB, min(int(sim_input.size * rng.uniform(0.3, 0.8)), 12 * MB)
        )
        style = rng.random()
        if style < 0.6:
            now = write_whole(ctx, now, output, client, out_size, migrated=is_remote)
        elif style < 0.85:
            # Seed the file, then append the bulk: an other-sequential
            # write run carrying megabytes.
            now = write_whole(
                ctx, now, output, client, max(1024, out_size // 16),
                migrated=is_remote,
            )
            now = append_run(
                ctx, now + 0.5, output, client, out_size, migrated=is_remote
            )
        else:
            # Preallocate, then fill slices in place: random write bytes.
            now = write_whole(ctx, now, output, client, out_size, migrated=is_remote)
            now = write_random(
                ctx, now + 0.5, output, client, rng.randint(4, 10),
                migrated=is_remote,
            )
        host_clock[int(client)] = now

        # Post-process: read the output, write a small summary, delete
        # the output minutes after its bytes were written.  Under pmake
        # the postprocess step usually runs remotely too; otherwise it
        # happens back on the home client.
        if is_remote and rng.bernoulli(0.7):
            pp_client, pp_migrated = client, True
        else:
            pp_client, pp_migrated = ctx.home, False
        now = max(home_clock, now) + rng.uniform(2.0, 20.0)
        now = read_whole(ctx, now, output, pp_client, migrated=pp_migrated)
        summary = ctx.emitter.create_file(now, ctx.user_id, pp_client)
        now = write_whole(
            ctx, now, summary, pp_client,
            ctx.size_model.sample(rng, SizeClass.SMALL), migrated=pp_migrated,
        )
        now += rng.uniform(1.0, 30.0)
        ctx.emitter.delete_file(now, output, ctx.user_id, pp_client)
        home_clock = now + rng.uniform(5.0, 60.0)
    return max([home_clock, *host_clock.values()])


def run_mail(ctx: AppContext, time: float) -> float:
    """A mail session: scan the inbox, read messages (random access into
    the mbox), maybe compose (draft created, appended to the sent mbox,
    deleted)."""
    rng = ctx.rng
    client = ctx.home
    if ctx.files.inbox is None or not ctx.emitter.filespace.exists(
        ctx.files.inbox.file_id
    ):
        ctx.files.inbox = ctx.emitter.register_existing_file(
            time, ctx.user_id, ctx.size_model.sample(rng, SizeClass.MEDIUM)
        )
    if ctx.files.sent_mbox is None or not ctx.emitter.filespace.exists(
        ctx.files.sent_mbox.file_id
    ):
        ctx.files.sent_mbox = ctx.emitter.register_existing_file(
            time, ctx.user_id, ctx.size_model.sample(rng, SizeClass.SMALL)
        )

    inbox = ctx.files.inbox
    # Headers scan: a partial sequential read of the front of the inbox.
    episode = ctx.emitter.open_file(
        time, inbox, ctx.user_id, client, AccessMode.READ
    )
    scan = max(1, min(inbox.size, rng.randint(2 * KB, 32 * KB)))
    t = time + io_duration(scan, process_rate(rng), open_latency(rng))
    episode.read(t, 0, scan)
    episode.close(t)
    now = t + rng.uniform(2.0, 20.0)

    # Read individual messages: random access into the inbox.
    if inbox.size > 4 * KB and rng.bernoulli(0.8):
        now = read_random(ctx, now, inbox, client, pieces=rng.randint(2, 6))
        now += rng.uniform(5.0, 60.0)

    # Compose and send.
    if rng.bernoulli(0.5):
        draft = ctx.emitter.create_file(now, ctx.user_id, client)
        draft_size = rng.randint(300, 6 * KB)
        now = write_whole(ctx, now, draft, client, draft_size)
        now += rng.uniform(10.0, 120.0)  # typing the message
        now = read_whole(ctx, now, draft, client)  # mailer re-reads it
        now = append_run(ctx, now, ctx.files.sent_mbox, client, draft_size)
        now += rng.uniform(0.5, 5.0)
        ctx.emitter.delete_file(now, draft, ctx.user_id, client)

    # Rewrite the inbox after deleting messages.
    if rng.bernoulli(0.4):
        new_size = max(1 * KB, int(inbox.size * rng.uniform(0.5, 1.05)))
        now = write_whole(ctx, now + 1.0, inbox, client, new_size)
    return now


def run_document(ctx: AppContext, time: float) -> float:
    """Document production: edit the source, format it (reads of style
    and font files, some random), write the output device file."""
    rng = ctx.rng
    client = ctx.home
    if not ctx.files.documents:
        for _ in range(rng.randint(1, 3)):
            ctx.files.documents.append(
                ctx.emitter.register_existing_file(
                    time, ctx.user_id, ctx.size_model.sample(rng, SizeClass.SMALL)
                )
            )
    doc = rng.choice(ctx.files.documents)

    now = read_whole(ctx, time, doc, client)
    now += rng.uniform(30.0, 300.0)  # editing
    new_size = max(512, int(doc.size * rng.uniform(0.95, 1.2)))
    now = write_whole(ctx, now, doc, client, new_size)

    # Formatter pass: read the source, a few style/macro files, fonts
    # with random access, then write the output.
    now = read_whole(ctx, now + 1.0, doc, client)
    for _ in range(rng.randint(2, 6)):
        style = ctx.emitter.register_existing_file(
            now, ctx.user_id, ctx.size_model.sample(rng, SizeClass.SMALL)
        )
        now = read_whole(ctx, now, style, client)
    if rng.bernoulli(0.6):
        font = ctx.emitter.register_existing_file(
            now, ctx.user_id, ctx.size_model.sample(rng, SizeClass.MEDIUM)
        )
        now = read_random(ctx, now, font, client, pieces=rng.randint(3, 10))
    output = ctx.emitter.create_file(now, ctx.user_id, client)
    out_size = max(2 * KB, int(new_size * rng.uniform(1.5, 4.0)))
    now = write_whole(ctx, now, output, client, out_size)

    # Previewer reads the output with repositions (random).
    if rng.bernoulli(0.5):
        now = read_random(ctx, now + 2.0, output, client, pieces=rng.randint(3, 8))
    return now


def run_browse(ctx: AppContext, time: float) -> float:
    """Poking around the shared hierarchy: directory listings and
    whole-file reads (ls, more, grep...)."""
    rng = ctx.rng
    client = ctx.home
    now = time
    for _ in range(rng.randint(2, 8)):
        ctx.emitter.read_directory(
            now, ctx.user_id, client, rng.randint(256, 16 * KB)
        )
        now += rng.uniform(1.0, 15.0)
        reads = rng.randint(1, 5)
        for _ in range(reads):
            size_class = (
                SizeClass.TINY if rng.bernoulli(0.5) else SizeClass.SMALL
            )
            victim = ctx.emitter.register_existing_file(
                now, ctx.user_id, ctx.size_model.sample(rng, size_class)
            )
            if rng.bernoulli(0.35):
                now = read_prefix(ctx, now, victim, client)  # pager quit early
            else:
                now = read_whole(ctx, now, victim, client)
            now += rng.uniform(0.5, 10.0)
    return now


def run_shell(ctx: AppContext, time: float) -> float:
    """Shell and script activity: greps over sources, `make depend`,
    status files, tool rc files -- dozens of whole-file reads of tiny
    files with the odd short-lived /tmp file.

    This is where the bulk of the paper's open *count* lives: enormous
    numbers of accesses that move almost no bytes.
    """
    rng = ctx.rng
    client = ctx.home
    now = time

    if ctx.files.history is None or not ctx.emitter.filespace.exists(
        ctx.files.history.file_id
    ):
        ctx.files.history = ctx.emitter.register_existing_file(
            now, ctx.user_id, rng.randint(512, 32 * KB)
        )

    sweeps = rng.randint(1, 3)
    for _ in range(sweeps):
        ctx.emitter.read_directory(
            now, ctx.user_id, client, rng.randint(256, 8 * KB)
        )
        # Sweep the user's project files plus assorted small files.
        victims: list[FileState] = list(ctx.files.sources)
        extras = rng.randint(8, 30)
        for _ in range(extras):
            size_class = SizeClass.TINY if rng.bernoulli(0.6) else SizeClass.SMALL
            victims.append(
                ctx.emitter.register_existing_file(
                    now, ctx.user_id, ctx.size_model.sample(rng, size_class)
                )
            )
        rate = process_rate(rng)
        for victim in victims:
            if rng.bernoulli(0.30):
                now = read_prefix(ctx, now, victim, client)  # grep -l, head
            elif rng.bernoulli(0.06):
                now = read_random(ctx, now, victim, client, rng.randint(2, 5))
            else:
                now = read_whole(ctx, now, victim, client, rate=rate)
            now += rng.uniform(0.005, 0.1)
        # Pipe through a short-lived temporary file now and then.
        if rng.bernoulli(0.4):
            temp = ctx.emitter.create_file(now, ctx.user_id, client)
            now = write_whole(ctx, now, temp, client, rng.randint(256, 16 * KB))
            now = read_whole(ctx, now + 0.01, temp, client)
            now += rng.uniform(0.5, 12.0)
            ctx.emitter.delete_file(now, temp, ctx.user_id, client)
        # The shell appends the commands to its history file.
        now = append_run(
            ctx, now, ctx.files.history, client, rng.randint(40, 400)
        )
        # Occasionally update a small record file in place.
        if rng.bernoulli(0.05):
            if ctx.files.dbfile is None or not ctx.emitter.filespace.exists(
                ctx.files.dbfile.file_id
            ):
                ctx.files.dbfile = ctx.emitter.register_existing_file(
                    now, ctx.user_id, ctx.size_model.sample(rng, SizeClass.SMALL)
                )
            now = write_random(
                ctx, now, ctx.files.dbfile, client, rng.randint(2, 5)
            )
        # Spring-clean an old file once in a while: these deletions give
        # Figure 4 its hours-old tail.
        if rng.bernoulli(0.08) and len(ctx.files.sources) > 4:
            victim = ctx.files.sources.pop(rng.randint(2, len(ctx.files.sources) - 1))
            ctx.files.objects.pop(int(victim.file_id), None)
            if ctx.emitter.filespace.exists(victim.file_id):
                ctx.emitter.delete_file(now, victim, ctx.user_id, client)
        now += rng.uniform(1.0, 20.0)
    return now


def run_rw_update(ctx: AppContext, time: float) -> float:
    """Read/write accesses: in-place record updates (the paper's rare
    read-write accesses are essentially all random).  One invocation
    performs several read-modify-write episodes, like a database tool
    walking a set of record files."""
    rng = ctx.rng
    client = ctx.home
    now = time
    for _ in range(rng.randint(2, 6)):
        dbfile = ctx.emitter.register_existing_file(
            now, ctx.user_id, ctx.size_model.sample(rng, SizeClass.MEDIUM)
        )
        episode = ctx.emitter.open_file(
            now, dbfile, ctx.user_id, client, AccessMode.READ_WRITE
        )
        now += open_latency(rng)
        rate = process_rate(rng)
        for _ in range(rng.randint(2, 6)):
            size = max(dbfile.size, 1)
            offset = rng.randint(0, max(0, size - 1))
            length = min(size - offset, rng.randint(64, 2 * KB)) or 1
            now += io_duration(length, rate, 0.001)
            episode.read(now, offset, length)
            now += io_duration(length, rate, 0.001)
            episode.write(now, offset, length)
        episode.close(now)
        now += rng.uniform(0.5, 10.0)
    return now


def run_shared_log(
    ctx: AppContext,
    time: float,
    partner_user: UserProfile,
    requests: int,
    log_file: FileState,
) -> float:
    """Concurrent write-sharing on a shared log file.

    ``ctx.user`` appends records from their client while
    ``partner_user`` follows the same file from another client.  Both
    episodes overlap in time, which is precisely the paper's definition
    of concurrent write-sharing; each request is logged as a shared
    read/write event (Table 1's Shared Read/Write rows, the input to
    the Section 5.5/5.6 simulations).

    Most sharing is *phased*: the writer appends a batch, pauses, and
    the reader catches up on the accumulated tail -- minutes-grained
    alternation, which is why the paper's 3-second polling interval
    eliminated most stale reads and why the token scheme was usually
    competitive.  A minority of activities interleave at per-request
    granularity (the fine-grained sharing that makes the token scheme's
    overhead so variable).
    """
    rng = ctx.rng
    writer_client = ctx.home
    reader_client = partner_user.home_client
    if reader_client == writer_client and ctx.migration_hosts:
        reader_client = ctx.migration_hosts[0]
    reader_migrated = partner_user.uses_migration and rng.bernoulli(0.3)

    writer = ctx.emitter.open_file(
        time, log_file, ctx.user_id, writer_client, AccessMode.WRITE
    )
    reader = ctx.emitter.open_file(
        time + rng.uniform(0.5, 5.0),
        log_file,
        partner_user.user_id,
        reader_client,
        AccessMode.READ,
        migrated=reader_migrated,
    )

    now = max(writer.opened_at, reader.opened_at) + 0.1
    start_offset = log_file.size
    appended = 0
    read_position = start_offset
    remaining = max(1, requests)
    mode = rng.weighted_choice(
        ["status", "fine", "phased"], [0.50, 0.08, 0.42]
    )

    if mode == "status":
        # A shared status region rewritten in place by the writer and
        # polled by the reader.  Token-friendly: the writer's repeated
        # overwrites coalesce in its cache and flush once per delay
        # window, whereas Sprite's pass-through pays for every write.
        region = rng.randint(2048, 6144)
        region = min(region, max(1024, log_file.size or 4096))
        for _ in range(remaining):
            now += rng.uniform(2.0, 20.0)
            writer.shared_request(now, 0, region, is_write=True)
            if rng.bernoulli(0.18):
                now += rng.uniform(0.5, 5.0)
                reader.shared_request(now, 0, region, is_write=False)
        end = now + 0.05
        writer.write(end, 0, region)
        reader.read(end + 0.01, 0, region)
        writer.close(end + 0.02)
        reader.close(end + rng.uniform(0.03, 5.0))
        return end + 0.1

    fine_grained = mode == "fine"

    def reader_catch_up(at: float) -> float:
        nonlocal read_position
        delta = start_offset + appended - read_position
        t = at
        while delta > 0:
            chunk = min(delta, rng.randint(2 * KB, 32 * KB))
            t += rng.uniform(0.05, 1.0)
            reader.shared_request(t, read_position, chunk, is_write=False)
            read_position += chunk
            delta -= chunk
        return t

    if fine_grained:
        # Tight alternation: every append is chased by a read.
        for _ in range(remaining):
            size = rng.randint(100, 2000)
            now += rng.uniform(1.0, 8.0)
            writer.shared_request(
                now, start_offset + appended, size, is_write=True
            )
            appended += size
            if rng.bernoulli(0.8):
                now += rng.uniform(0.1, 2.0)
                chunk = start_offset + appended - read_position
                if chunk > 0:
                    reader.shared_request(
                        now, read_position, chunk, is_write=False
                    )
                    read_position += chunk
    else:
        # Phased: batches of appends, then a catch-up read pass.
        while remaining > 0:
            batch = min(remaining, rng.randint(3, 10))
            remaining -= batch
            for _ in range(batch):
                size = rng.randint(200, 6000)
                now += rng.uniform(1.0, 20.0)
                writer.shared_request(
                    now, start_offset + appended, size, is_write=True
                )
                appended += size
            now += rng.uniform(5.0, 90.0)
            now = reader_catch_up(now)
            now += rng.uniform(5.0, 60.0)

    # Coalesced runs carry the bytes: one long append run for the writer,
    # one tail read for the reader.
    end = now + 0.05
    if appended > 0:
        writer.write(end, start_offset, appended)
        if read_position > start_offset:
            reader.read(end + 0.01, start_offset, read_position - start_offset)
    writer.close(end + 0.02)
    reader.close(end + rng.uniform(0.03, 5.0))
    return end + 0.1
