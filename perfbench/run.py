"""Run one benchmark workload in this fresh process and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up five times (``setup_s`` is the median),
then runs the timed phase at least the workload's ``samples`` times and
until ``--seconds`` are spent; ``wall_s`` and ``cpu_s`` are the median
iteration.  A shared host's speed drifts by tens of percent within
seconds and over minutes, so every timed part (an experiment, the
scale-out replay, a set-up) is scaled by the bench suite's calibration
loop, run around it (see :class:`PartTimer`).  ``--trace 1`` installs
the layer tracer (``tracer.py``), runs one traced set-up and one traced
timed phase, removes the tracer, and times untraced iterations for half
of ``--seconds`` to report the tracer's overhead with the per-layer
metrics.  Either way every output is checked (goldens at seed 1991, the
recorded reference, determinism across iterations, the workload's
invariants), a run record is written to ``perfbench/runs/``, and the
last stdout line is the JSON result.  A failed check is reported on
stderr with the workload, seed, config digest, commit and machine, and
the exit code is 1.

Everything runs serially in this one process (``workers=1``, artifact
cache off), so peak RSS and the GC counts belong to this run alone.
METRICS.md lists every metric, its layer, and what it should move.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCH_SUITE_PATH = ROOT / "benchmarks" / "conftest.py"
GOLDEN_PATH = ROOT / "tests" / "golden" / "experiments_scale0.05_seed1991.json"
REFERENCE_PATH = BENCH_DIR / "reference.json"
RUNS_DIR = BENCH_DIR / "runs"
GOLDEN_SEED = 1991
SETUP_REPEATS = 5
#: Calibration-loop seconds of the host the timed figures are scaled to
#: (the development host's loop takes 0.09-0.15 s).
REFERENCE_CALIBRATION_S = 0.1
#: Shortest stretch of work between two runs of the calibration loop,
#: which keeps the loop's own cost near a tenth of a run.
SEGMENT_S = 1.0

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Per-layer call counts: metric -> the tracer layer whose calls it counts.
CALL_METRICS = {
    "fs.constructions": "fs.construct_s",
    "fs.client_calls": "fs.client_self_s",
    "fs.rpc_calls": "fs.rpc_self_s",
}
#: Per-layer work counts: metric -> the tracer layer that counted them.
COUNT_METRICS = {"workload.records": "workload.generate_s"}
#: Fingerprint counts that are also per-layer metrics.
FINGERPRINT_METRICS = {
    "sim.records_replayed": "records_replayed",
    "sim.tick_events": "tick_events",
    "sim.events_run": "events_run",
    "fs.cache_read_ops": "cache_read_ops",
    "fs.cache_read_misses": "cache_read_misses",
    "fs.server_bytes": "server_bytes",
}
#: Layers that run while a workload sets up.
SETUP_LAYERS = ("workload.generate_s", "trace.validate_s", "trace.materialize_s")


def use_source_tree() -> bool:
    """Put ``src/`` first on the import path; False when the source tree
    or the bench suite the benchmark shares code with is missing."""
    if not (ROOT / "src" / "repro").is_dir() or not BENCH_SUITE_PATH.is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


# --- provenance and the host -------------------------------------------------


@functools.cache
def bench_suite():
    """``benchmarks/conftest.py``: the bench suite's calibration loop,
    machine description and dirty-tree rule, shared rather than copied."""
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_SUITE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def source_state() -> tuple[str | None, bool | None]:
    """(HEAD commit, whether the tree differs from it by the bench
    suite's rule); (None, None) outside a git checkout."""
    commit = bench_suite()._git_commit()
    if commit is None:
        return None, None
    return commit, bench_suite()._tree_is_dirty()


def machine() -> dict:
    import numpy

    return {
        **bench_suite()._machine_info(),
        "node": platform.node(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def current_rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        resident = int(statm.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class PartTimer:
    """The ``checkpoint`` of one timed phase: wall and CPU seconds of
    each part, from the previous checkpoint to the one naming it.

    ``parts`` holds them scaled to the reference host, ``raw`` as
    measured.  The bench suite's calibration loop runs when the timer
    starts, at the first checkpoint at least ``SEGMENT_S`` after its
    last run, and at :meth:`close`.  Each part is scaled by
    ``REFERENCE_CALIBRATION_S`` over the mean of the two loop times that
    bracket it: when the host slows down for a while, the loop slows
    with the work, and the scaled figure stays put.  The loop's own time
    is in no part.
    """

    def __init__(self, loops: list[float]) -> None:
        self.parts: dict[str, tuple[float, float]] = {}
        self.raw: dict[str, tuple[float, float]] = {}
        self._loops = loops
        self._calibrate()

    def _calibrate(self) -> None:
        self._loops.append(bench_suite().calibration_seconds(repeats=1))
        self._segment: list[str] = []
        self._wall, self._cpu = perf_counter(), process_time()
        self._segment_start = self._wall

    def __call__(self, part: str) -> None:
        wall, cpu = perf_counter(), process_time()
        self.raw[part] = (wall - self._wall, cpu - self._cpu)
        self._segment.append(part)
        self._wall, self._cpu = wall, cpu
        if wall - self._segment_start >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        """Calibrate and scale the parts since the last calibration."""
        if not self._segment:
            return
        segment, before = self._segment, self._loops[-1]
        self._calibrate()
        scale = REFERENCE_CALIBRATION_S / statistics.fmean((before, self._loops[-1]))
        for part in segment:
            wall, cpu = self.raw[part]
            self.parts[part] = (wall * scale, cpu * scale)


# --- checks ------------------------------------------------------------------


def load_json(path: Path) -> dict | None:
    return json.loads(path.read_text()) if path.exists() else None


def fingerprint(workload, counts: dict) -> dict:
    from workloads import canonical, sha256

    return {
        **workload.plan(),
        "config_digest": sha256(canonical(workload.config()))[:16],
        **counts,
    }


def check_outputs(
    workload, seed: int, inputs, runs: list[dict], use_reference: bool = True
) -> tuple[int, int, list[str]]:
    """Check every output of every iteration; (attempted, failed, notes).

    ``runs`` are ``{"outputs", "fingerprint"}`` dicts; the first is the
    iteration the others must repeat exactly.  Seeds the reference has no
    entry for are checked against everything else.
    """
    from workloads import canonical, summarize

    pinned_by_golden = workload.golden and seed == GOLDEN_SEED
    golden = load_json(GOLDEN_PATH) if pinned_by_golden else None
    expected = None
    if use_reference:
        reference = (load_json(REFERENCE_PATH) or {}).get("workloads", {})
        expected = reference.get(workload.name, {}).get("seeds", {}).get(str(seed))
    failures: list[str] = []
    attempted = failed = 0
    first = runs[0]
    for index, run in enumerate(runs):
        if run["fingerprint"] != first["fingerprint"]:
            failures.append(f"iteration {index}: fingerprint differs from iteration 0")
        if expected is not None and run["fingerprint"] != expected["fingerprint"]:
            failures.append(
                f"iteration {index}: fingerprint {run['fingerprint']} differs from "
                f"the reference {expected['fingerprint']}; the simulated "
                "behaviour changed -- re-record perfbench/reference.json only "
                "if that was intended"
            )
        for eid, output in run["outputs"].items():
            attempted += 1
            problems = workload.check(eid, output, inputs)
            if canonical(output) != canonical(first["outputs"][eid]):
                problems.append(f"{eid}: differs from iteration 0")
            if golden is not None:
                pinned = golden["experiments"].get(eid, {})
                if output["rendered_sha256"] != pinned.get("rendered_sha256"):
                    problems.append(f"{eid}: rendered table differs from the golden")
                if canonical(output["metrics"]) != canonical(pinned.get("metrics")):
                    problems.append(f"{eid}: metrics differ from the golden")
            elif pinned_by_golden:
                problems.append(f"{eid}: golden file {GOLDEN_PATH.name} missing")
            if expected is not None and summarize(output) != expected["outputs"].get(eid):
                problems.append(f"{eid}: differs from the recorded reference")
            if problems:
                failed += 1
                failures.extend(f"iteration {index}: {p}" for p in problems)
    return attempted, failed, failures


# --- the two kinds of run ----------------------------------------------------


def timed_loop(
    workload, inputs, seed: int, probe, seconds: float, loops: list[float]
) -> list[dict]:
    """Run the timed phase ``workload.samples`` times, then repeat it
    until ``seconds`` are spent (no iteration past the samples starts
    that the median so far says would overrun)."""
    iterations: list[dict] = []
    start = perf_counter()
    while True:
        gc.collect()
        probe.take()
        timer = PartTimer(loops)
        outputs = workload.run(inputs, seed, timer)
        timer.close()
        iterations.append({
            "wall_s": sum(wall for wall, _ in timer.parts.values()),
            "cpu_s": sum(cpu for _, cpu in timer.parts.values()),
            "raw_wall_s": sum(wall for wall, _ in timer.raw.values()),
            "outputs": outputs,
            "fingerprint": fingerprint(workload, probe.take()),
        })
        median_wall = statistics.median(i["raw_wall_s"] for i in iterations)
        if (
            len(iterations) >= workload.samples
            and perf_counter() - start + median_wall > seconds
        ):
            return iterations


def end_to_end_run(workload, seed: int, seconds: float, probe) -> dict:
    from workloads import traces_digest

    setup_times, digests, inputs, loops = [], set(), None, []
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        timer = PartTimer(loops)
        inputs = workload.setup()
        timer("setup")
        timer.close()
        setup_times.append(timer.parts["setup"][0])
        digests.add(traces_digest(inputs))
    iterations = timed_loop(workload, inputs, seed, probe, seconds, loops)
    wall = statistics.median(i["wall_s"] for i in iterations)
    records = iterations[0]["fingerprint"]["records_replayed"]
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(i["cpu_s"] for i in iterations),
        "setup_s": statistics.median(setup_times),
        "records_per_s": records / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [] if len(digests) == 1 else ["set-up is not deterministic: inputs differ"]
    return {
        "inputs": inputs,
        "iterations": iterations,
        "metrics": {name: (value, END_TO_END[name]) for name, value in metrics.items()},
        "run_failures": notes,
        "detail": {
            "setup_s": setup_times,
            "calibration_loops_s": loops,
            "iteration_wall_s": [i["wall_s"] for i in iterations],
            "iteration_raw_wall_s": [i["raw_wall_s"] for i in iterations],
        },
    }


def traced_run(workload, seed: int, seconds: float, probe) -> dict:
    from tracer import LayerTracer, standard_layers
    from workloads import STUDY_IDS, TABLE_IDS, traces_digest

    # The wrappers go in before this process builds its first Cluster:
    # construction binds methods into tables that would keep originals.
    tracer = LayerTracer(standard_layers())
    tracer.install()
    try:
        tracer.reset()
        start = perf_counter()
        inputs = workload.setup()
        setup = tracer.snapshot(perf_counter() - start)
        traced_digest = traces_digest(inputs)
        rss_setup = current_rss_mb()
        gc.collect()
        probe.take()
        tracer.reset()
        start = perf_counter()
        outputs = workload.run(inputs, seed)
        timed = tracer.snapshot(perf_counter() - start)
        counts = probe.take()
        rss_timed = current_rss_mb()
    finally:
        tracer.uninstall()
    traced = {"wall_s": timed["wall_s"], "outputs": outputs,
              "fingerprint": fingerprint(workload, counts)}

    inputs = None
    gc.collect()
    inputs = workload.setup()
    untraced = timed_loop(workload, inputs, seed, probe, seconds / 2, [])
    # Plain seconds on both sides: the traced phase is not calibrated.
    untraced_wall = statistics.median(i["raw_wall_s"] for i in untraced)

    notes = []
    if traces_digest(inputs) != traced_digest:
        notes.append("traced set-up built different inputs than the untraced one")

    setup_claimed = sum(setup["self_s"][name] for name in SETUP_LAYERS)
    metrics = {
        "setup.wall_s": (setup["wall_s"], "s"),
        **{f"setup.{name}": (setup["self_s"][name], "s") for name in SETUP_LAYERS},
        "setup.workload.records": (setup["counted"]["workload.generate_s"], "count"),
        "setup.other_s": (setup["wall_s"] - setup_claimed, "s"),
        "rss.setup_mb": (rss_setup, "MB"),
        "tracer.wall_s": (timed["wall_s"], "s"),
        "tracer.untraced_wall_s": (untraced_wall, "s"),
        "tracer.overhead_ratio": (timed["wall_s"] / untraced_wall, "ratio"),
        "tracer.layers_not_measured": (len(tracer.not_measured), "count"),
        **{name: (seconds_, "s") for name, seconds_ in timed["self_s"].items()},
        **{name: (timed["calls"][layer], "count") for name, layer in CALL_METRICS.items()},
        **{name: (timed["counted"][layer], "count") for name, layer in COUNT_METRICS.items()},
        **{name: (counts[key], "count") for name, key in FINGERPRINT_METRICS.items()},
        **{
            f"experiments.{eid}_s": (timed["keyed_s"].get(eid, 0.0), "s")
            for eid in TABLE_IDS + STUDY_IDS
        },
        "gc.pause_s": (timed["gc_pause_s"], "s"),
        "gc.gen2_collections": (timed["gc_gen2_collections"], "count"),
        "rss.timed_mb": (rss_timed, "MB"),
        "unattributed_s": (timed["unattributed_s"], "s"),
    }
    return {
        "inputs": inputs,
        "iterations": [traced] + untraced,
        "metrics": metrics,
        "run_failures": notes,
        "detail": {
            "not_measured": tracer.not_measured,
            "untraced_wall_s": [i["raw_wall_s"] for i in untraced],
            "layer_sum_s": sum(timed["self_s"].values()) + timed["unattributed_s"],
        },
    }


# --- main --------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "studies", "scaleout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_source_tree():
        print(f"perfbench: no source tree at {ROOT / 'src'} or no bench suite "
              f"at {BENCH_SUITE_PATH}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, ReplayProbe

    workload = WORKLOADS[args.workload]
    probe = ReplayProbe()
    probe.install()
    commit, dirty = source_state()
    calibration = bench_suite().calibration_seconds()
    run = (traced_run if args.trace else end_to_end_run)(
        workload, args.seed, args.seconds, probe
    )
    attempted, failed, failures = check_outputs(
        workload, args.seed, run["inputs"], run["iterations"]
    )
    failures = run["run_failures"] + failures
    correct = not failures
    fp = run["iterations"][0]["fingerprint"]
    host = machine()

    record = {
        "schema_version": 2,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config(),
        "fingerprint": fp,
        "commit": commit,
        "tree_dirty": dirty,
        "machine": host,
        "calibration_seconds": calibration,
        "reference_calibration_seconds": REFERENCE_CALIBRATION_S,
        "samples": workload.samples,
        "iterations": len(run["iterations"]),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_share": failed / attempted,
        "failures": failures[:100],
        "metrics": {name: value for name, (value, _) in run["metrics"].items()},
        "detail": run["detail"],
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RUNS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = RUNS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(run['iterations'])} iterations, {attempted} checked outputs, "
          f"{failed} failed (ops_failed_share {failed / attempted:g}); "
          f"calibration {calibration:.4f} s; record {out.relative_to(ROOT)}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:32} {value:16.6f} {unit}")
    if args.trace:
        print(f"  layer self times + unattributed_s = "
              f"{run['detail']['layer_sum_s']:.6f} s "
              f"(traced wall_s {run['metrics']['tracer.wall_s'][0]:.6f} s)")
        for target in run["detail"]["not_measured"]:
            print(f"  not measured: {target}")
    if failures:
        print(
            f"perfbench: {len(failures)} check(s) FAILED -- workload "
            f"{workload.name}, seed {args.seed}, config {fp['config_digest']}, "
            f"commit {commit or 'unknown (not a git checkout)'}, machine "
            f"{host['node']} ({host['machine']}, {host['nproc']} cpus):",
            file=sys.stderr,
        )
        for failure in failures[:20]:
            print(f"  {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
