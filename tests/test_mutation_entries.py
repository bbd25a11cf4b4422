"""The committed mutation entries still match the code they mutate.

``tests/mutations/run.py`` applies each entry and runs its tests, which
takes minutes, so it runs in its own CI job.  This check is cheap: every
entry's ``old`` snippet occurs exactly once in its file, and every test
it names is a test file that exists, so an edit that moves mutated code
fails here, on the pull request that moves it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutation_runner", ROOT / "tests" / "mutations" / "run.py"
)
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)

ENTRIES = runner.load_entries()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_entry_matches_its_file_once(entry):
    text = (ROOT / entry["file"]).read_text(encoding="utf-8")
    assert text.count(entry["old"]) == 1
    assert entry["new"] != entry["old"]
    for test in entry["tests"]:
        assert (ROOT / test.split("::")[0]).is_file(), test


def test_a_snippet_that_does_not_match_is_refused(tmp_path):
    source = tmp_path / "src" / "repro" / "m.py"
    source.parent.mkdir(parents=True)
    source.write_text("x = 1\nx = 1\n")
    entry = {"file": "src/repro/m.py", "old": "y = 2\n", "new": "y = 3\n"}
    with pytest.raises(ValueError, match="occurs 0 times"):
        runner.apply(tmp_path / "src", entry)
    with pytest.raises(ValueError, match="occurs 2 times"):
        runner.apply(tmp_path / "src", {**entry, "old": "x = 1\n"})
    assert source.read_text() == "x = 1\nx = 1\n"
