"""Record ``perfbench/reference.json``: each workload's outputs per seed.

Usage (from the repository root, on a clean tree)::

    python3 perfbench/record_reference.py                  # every workload
    python3 perfbench/record_reference.py --workload tables --seeds 0-20,1991

For every seed the timed phase runs once; its checked outputs (rendered
table and metrics digests per experiment, the merged-counter digest for
``scaleout``) and its simulated-behaviour fingerprint are stored under
the commit that produced them.  ``run.py`` then fails any run whose
outputs or fingerprint differ from the entry for its seed.

Re-record only after an intended change of simulated behaviour.  The
recorder refuses when the tree differs from HEAD, by the bench suite's
dirty-tree rule -- the stamped commit would not hold the code that
produced the numbers -- and when a seed's outputs fail the goldens or
the workload's invariants.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=("tables", "studies", "scaleout"))
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-20,1991"))
    args = parser.parse_args(argv)
    if not run.use_source_tree():
        print("record_reference: no source tree", file=sys.stderr)
        return 2
    commit, dirty = run.source_state()
    if commit is None or dirty:
        print(
            f"record_reference: refusing to record: the tree "
            f"{'is not a git checkout' if commit is None else 'differs from HEAD ' + commit[:12]}; "
            "commit the code first so the stamped commit produced the numbers",
            file=sys.stderr,
        )
        return 2
    from workloads import WORKLOADS, ReplayProbe, summarize

    probe = ReplayProbe()
    probe.install()
    document = run.load_json(run.REFERENCE_PATH) or {"schema_version": 1, "workloads": {}}
    refused: list[str] = []
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        inputs = workload.setup()
        seeds = {}
        for seed in args.seeds:
            probe.take()
            outputs = workload.run(inputs, seed)
            iteration = {
                "outputs": outputs,
                "fingerprint": run.fingerprint(workload, probe.take()),
            }
            _, _, failures = run.check_outputs(
                workload, seed, inputs, [iteration], use_reference=False
            )
            if failures:
                refused.extend(f"{name} seed {seed}: {f}" for f in failures)
                continue
            seeds[str(seed)] = {
                "fingerprint": iteration["fingerprint"],
                "outputs": {eid: summarize(o) for eid, o in outputs.items()},
            }
            print(f"{name} seed {seed}: {len(outputs)} outputs recorded", flush=True)
        document["workloads"][name] = {
            "commit": commit,
            "machine": run.machine(),
            "seeds": seeds,
        }
    if refused:
        print("record_reference: nothing written; these seeds fail their checks:",
              file=sys.stderr)
        for failure in refused:
            print(f"  {failure}", file=sys.stderr)
        return 1
    run.REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
