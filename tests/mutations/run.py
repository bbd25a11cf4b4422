#!/usr/bin/env python3
"""Check that the differential tests still catch the bugs they were
written to catch.

Each ``*.json`` file in this directory holds a list of mutations:

    {"name": "...", "why": "...", "file": "src/repro/...py",
     "old": "<exact snippet>", "new": "<replacement>",
     "tests": ["tests/test_x.py::test_y", ...]}

For every entry the runner copies ``src/`` into a temporary directory,
replaces the one occurrence of ``old`` in ``file`` with ``new``, and runs
the named tests against the copy.  Every named test must fail.  The
same tests must pass on an unmutated copy first, so a failure is the
mutation's doing.  An ``old`` snippet that does not occur exactly once
fails the entry loudly: a mutation is updated together with the code it
mutates.  Hypothesis runs without its shrink phase and without its
example database: a mutant only has to be caught, not minimized.

Run from the repository root:

    python tests/mutations/run.py              # every entry
    python tests/mutations/run.py NAME ...     # the named entries
    python tests/mutations/run.py --list

Standard library only; exits 1 if any entry fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
FIELDS = ("name", "why", "file", "old", "new", "tests")

#: A pytest plugin, importable from the scratch directory, that turns
#: off Hypothesis shrinking and its example database for the run.
PLUGIN = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutation", database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("mutation")
"""


def load_entries() -> list[dict]:
    entries = []
    for path in sorted(HERE.glob("*.json")):
        for entry in json.loads(path.read_text(encoding="utf-8")):
            missing = [key for key in FIELDS if key not in entry]
            if missing or not entry["tests"]:
                raise SystemExit(
                    f"{path.name}: entry {entry.get('name')!r} lacks "
                    f"{missing or 'tests'}"
                )
            if not entry["file"].startswith("src/"):
                raise SystemExit(
                    f"{path.name}: {entry['name']}: only src/ files can be mutated"
                )
            entries.append({**entry, "source": path.name})
    names = [entry["name"] for entry in entries]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise SystemExit(f"duplicate mutation names: {duplicates}")
    return entries


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(
        ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    return src


def passes(src: Path, test: str) -> bool:
    """Run one test from the repository root with ``src`` first on the
    path: ``True`` when it passes, ``False`` when it fails."""
    scratch = src.parent
    (scratch / "mutation_profile.py").write_text(PLUGIN, encoding="utf-8")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join((str(src), str(scratch))),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    where = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if not where.stdout.strip().startswith(str(src)):
        raise RuntimeError(
            f"repro imports from {where.stdout.strip() or where.stderr.strip()!r}, "
            f"not from the copy in {src}"
        )
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-p", "mutation_profile", test,
        ],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    # Exit 0: passed; 1: ran and failed; anything else (no such test, a
    # collection error, an internal error) is a broken entry.
    if done.returncode not in (0, 1):
        raise RuntimeError(
            f"{test}: pytest exit {done.returncode}:\n"
            f"{(done.stdout + done.stderr)[-3000:]}"
        )
    return done.returncode == 0


def apply(src: Path, entry: dict) -> None:
    path = src / Path(entry["file"]).relative_to("src")
    text = path.read_text(encoding="utf-8")
    found = text.count(entry["old"])
    if found != 1:
        raise ValueError(
            f"the old snippet occurs {found} times in {entry['file']} (needs exactly 1)"
        )
    path.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")


def check(entry: dict) -> str | None:
    """``None`` when every named test passes unmutated and fails mutated;
    otherwise what went wrong."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        clean = copy_src(Path(scratch) / "clean")
        mutant = copy_src(Path(scratch) / "mutant")
        try:
            apply(mutant, entry)
            for test in entry["tests"]:
                if not passes(clean, test):
                    problems.append(f"{test}: fails unmutated")
                elif passes(mutant, test):
                    problems.append(f"{test}: passes mutated (the mutant survived)")
        except (RuntimeError, ValueError) as exc:
            problems.append(str(exc))
    return "\n".join(problems) or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the entries and exit")
    args = parser.parse_args(argv)
    entries = load_entries()
    if args.list:
        for entry in entries:
            print(f"{entry['name']:40} {entry['source']}: {entry['why']}")
        return 0
    unknown = set(args.names) - {entry["name"] for entry in entries}
    if unknown:
        parser.error(f"unknown mutations: {sorted(unknown)}")
    chosen = [e for e in entries if not args.names or e["name"] in args.names]
    failures = 0
    for entry in chosen:
        problem = check(entry)
        status = "caught" if problem is None else "FAILED"
        print(f"{status:7} {entry['name']} ({entry['file']})", flush=True)
        if problem is not None:
            failures += 1
            print("        " + problem.replace("\n", "\n        "), flush=True)
    print(f"{len(chosen) - failures}/{len(chosen)} mutations caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
