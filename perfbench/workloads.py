"""The three benchmark workloads and the replay fingerprint probe.

Every workload replays the same fixed population: the golden scale-0.05
traces generated from seed 1991 (``tables``, ``studies``) or a scale-out
population generated from seed 1991 (``scaleout``).  ``--seed`` drives
what the simulation draws at random -- replay seeds, fault timelines,
message-loss draws, study seeds -- so every seed does the same amount of
trace work and the spread between seeds is host noise, not population
size.  At seed 1991 ``tables`` and ``studies`` are exactly the golden
configuration and are checked byte-for-byte against the repo goldens.

A workload's ``setup`` builds its inputs (trace generation) and ``run``
is the timed phase.  ``run`` returns one checked output per part -- an
experiment, or the merged scale-out result -- and calls ``checkpoint``
with the part's name as each part ends, so the harness can time it.  The
experiment workloads build accesses and cluster replays lazily inside
the first experiment that needs them, exactly as a CLI run does.
"""

from __future__ import annotations

import functools
import hashlib
import json
import marshal

from repro.experiments import EXPERIMENT_IDS, ExperimentContext, run_experiment
from repro.fs.cluster import Cluster
from repro.pipeline.scaleout import (
    ScaleOutPlan,
    build_group_traces,
    run_partitioned_replay,
)
from repro.workload import STANDARD_PROFILES

#: The population every workload replays, and the golden scale.
POPULATION_SEED = 1991
SCALE = 0.05

TABLE_IDS = tuple(
    eid for eid in EXPERIMENT_IDS if eid.startswith(("table", "figure"))
)
#: The robustness studies.  ``scale_out`` (Table D) is left out: its
#: replays repeat the ``scaleout`` workload's partitioned path and, at
#: 8-10 s, would double an iteration, leaving one sample per run on a
#: host whose speed drifts by tens of percent over minutes.
STUDY_IDS = ("faults", "rpc_loss", "replication", "integrity")

#: Study metrics that are protocol invariants at any seed: lossy RPC
#: never costs correctness and repaired integrity columns expose
#: nothing.  (Table A's oracle column is not one: at seed 1 its r=3 cell
#: reports two replica divergences, so it is pinned only by the goldens
#: and the reference.)
STUDY_INVARIANTS = {
    "rpc_loss": {"oracle_violations_total": 0.0},
    "integrity": {
        "oracle_violations_r2_scrub60": 0.0,
        "oracle_violations_r3_scrub30": 0.0,
    },
}


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def summarize(output: dict) -> dict:
    """The reference form of one output: strings (already digests) cut
    to 16 hex digits, nested dicts hashed, numbers kept."""
    return {
        key: value[:16] if isinstance(value, str)
        else sha256(canonical(value))[:16] if isinstance(value, dict)
        else value
        for key, value in sorted(output.items())
    }


def experiment_output(result) -> dict:
    """What the golden file pins per experiment."""
    return {
        "rendered_sha256": sha256(result.rendered),
        "metrics": {key: result.metrics[key] for key in sorted(result.metrics)},
    }


def traces_digest(traces) -> str:
    """Digest of generated traces' columnar form (their exact records)."""
    h = hashlib.sha256()
    for trace in traces:
        h.update(marshal.dumps(trace.columnar.to_payload()))
    return h.hexdigest()


class ReplayProbe:
    """Sums what every ``Cluster.replay`` simulated: the fingerprint.

    One wrapper call per replay (a handful per iteration), so it stays
    installed in untraced runs too.
    """

    FIELDS = (
        "replays", "records_replayed", "tick_events", "events_run",
        "cache_read_ops", "cache_read_misses", "server_bytes",
    )

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.FIELDS, 0)

    def install(self) -> None:
        original = Cluster.replay
        counts = self.counts

        @functools.wraps(original)
        def replay(cluster, records, duration):
            result = original(cluster, records, duration)
            counts["replays"] += 1
            counts["records_replayed"] += result.records_replayed
            counts["tick_events"] += result.tick_events
            counts["events_run"] += cluster.engine.events_run
            for client in result.final_counters.values():
                counts["cache_read_ops"] += client.cache_read_ops
                counts["cache_read_misses"] += client.cache_read_misses
                counts["server_bytes"] += client.server_bytes
            return result

        Cluster.replay = replay

    def take(self) -> dict:
        """The counts since the last take."""
        taken = dict(self.counts)
        self.counts.update(dict.fromkeys(self.FIELDS, 0))
        return taken


class _ExperimentWorkload:
    ids: tuple[str, ...] = ()
    #: Outputs pinned by the repo golden file at seed 1991.
    golden = True

    def context(self, seed: int, traces=None) -> ExperimentContext:
        return ExperimentContext(
            scale=SCALE, seed=seed, workers=1, cache=False, _traces=traces
        )

    def config(self) -> dict:
        return {
            "workload": self.name,
            "scale": SCALE,
            "population_seed": POPULATION_SEED,
            "experiments": list(self.ids),
            "cluster_config": repr(self.context(POPULATION_SEED).base_cluster_config()),
        }

    def plan(self) -> dict:
        return {"clients": self.context(POPULATION_SEED).client_count, "groups": 1, "shards": 1}

    def setup(self):
        return self.context(POPULATION_SEED).traces()

    def run(self, traces, seed: int, checkpoint=lambda part: None) -> dict:
        ctx = self.context(seed, traces)
        outputs = {}
        for eid in self.ids:
            outputs[eid] = experiment_output(run_experiment(eid, ctx))
            checkpoint(eid)
        return outputs

    def check(self, eid: str, output: dict, inputs) -> list[str]:
        failures = []
        for key, expected in STUDY_INVARIANTS.get(eid, {}).items():
            actual = output["metrics"].get(key)
            if actual != expected:
                failures.append(f"{eid}: {key} = {actual}, expected {expected}")
        return failures


class Tables(_ExperimentWorkload):
    name = "tables"
    ids = TABLE_IDS
    #: Fewest timed iterations whose median makes ``wall_s``.
    samples = 5


class Studies(_ExperimentWorkload):
    name = "studies"
    ids = STUDY_IDS
    samples = 2


class ScaleOut:
    """Owned-only shard replay of a grouped population, merged."""

    name = "scaleout"
    scale = 0.5
    groups = 10
    shards = 4
    golden = False
    samples = 5

    def scaleout_plan(self, seed: int) -> ScaleOutPlan:
        return ScaleOutPlan(
            profile=STANDARD_PROFILES[0],
            seed=POPULATION_SEED,
            scale=self.scale,
            groups=self.groups,
            replay_seed=seed,
        )

    def config(self) -> dict:
        plan = self.scaleout_plan(0)
        return {
            "workload": self.name,
            "profile": plan.profile.name,
            "population_seed": POPULATION_SEED,
            "scale": self.scale,
            "groups": self.groups,
            "shards": self.shards,
            "cluster_config": repr(plan.cluster_config()),
        }

    def plan(self) -> dict:
        plan = self.scaleout_plan(0)
        return {"clients": plan.client_count, "groups": plan.groups, "shards": self.shards}

    def setup(self):
        return build_group_traces(self.scaleout_plan(0), workers=1, cache=None)

    def run(self, traces, seed: int, checkpoint=lambda part: None) -> dict:
        result = run_partitioned_replay(
            self.scaleout_plan(seed), traces,
            shards=self.shards, workers=1, cache=None,
        )
        checkpoint("merged")
        clients = "".join(
            result.final_counters[c].digest() for c in sorted(result.final_counters)
        )
        servers = "".join(row.digest() for row in result.per_server_counters)
        outputs = {
            "merged": {
                "counters_sha256": sha256(
                    clients + servers + result.server_counters.digest()
                ),
                "records_replayed": result.records_replayed,
            }
        }
        return outputs

    def check(self, eid: str, output: dict, inputs) -> list[str]:
        generated = sum(trace.record_count for trace in inputs)
        if output["records_replayed"] != generated:
            return [
                f"{eid}: replayed {output['records_replayed']} records, "
                f"generated {generated}"
            ]
        return []


WORKLOADS = {w.name: w for w in (Tables(), Studies(), ScaleOut())}
