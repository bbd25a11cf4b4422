"""Every public top-level name in ``src/repro`` has a user outside tests.

A short ``ast`` walk: for each top-level public ``def``/``class`` in a
``repro`` module (``__init__.py`` files excluded), some reference must
exist in another ``src/`` module, in its own module outside the
definition, in ``examples/``, ``benchmarks/`` or ``perfbench/``, or in a
``[project.scripts]`` entry point.  A reference is a load ``Name``, an
``Attribute``, an import alias, or a string constant that names the
symbol once split on ``:`` and ``.`` (perfbench's tracer targets look
like ``"repro.fs.cluster:Cluster.replay"``).  ``__init__`` re-exports do
not count, and neither does a name that only appears in prose (a
docstring is not a string reference), so a helper that only tests call
fails here: move it into ``tests/`` or delete it.

The package is located through ``repro.__file__``, so the scan checks
whichever ``src/`` is first on ``PYTHONPATH``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(repro.__file__).resolve().parent
USER_DIRS = ("examples", "benchmarks", "perfbench")
_STRING_PARTS = re.compile(r"[:.]")
_DOCSTRING_OWNERS = (
    ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
)


def _docstrings(node: ast.AST) -> set[int]:
    """``id`` of every docstring constant under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, _DOCSTRING_OWNERS) and sub.body:
            first = sub.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _references(node: ast.AST) -> set[str]:
    """Names that ``node`` refers to, per the rules in the module docstring."""
    names: set[str] = set()
    prose = _docstrings(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and id(sub) not in prose
        ):
            names.update(_STRING_PARTS.split(sub.value))
    return names


def _entry_point_targets(pyproject: str) -> list[str]:
    """The ``"module:attr"`` targets of the ``[project.scripts]`` table."""
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject,
                      re.MULTILINE | re.DOTALL)
    if table is None:
        return []
    return re.findall(r'^[\w.-]+\s*=\s*"([^"]+)"', table.group(1), re.MULTILINE)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module_name(path: Path) -> str:
    return ".".join(("repro", *path.relative_to(PACKAGE).with_suffix("").parts))


def unreferenced_public_names() -> list[str]:
    """``module:name`` for every public top-level symbol with no user."""
    modules = {
        path: _parse(path)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }
    outside: set[str] = set()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside |= _references(_parse(path))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for target in _entry_point_targets(pyproject):
        outside.update(_STRING_PARTS.split(target))

    per_statement = {
        path: [_references(statement) for statement in tree.body]
        for path, tree in modules.items()
    }
    missing = []
    for path, tree in modules.items():
        other_modules = set().union(*(
            refs
            for other, statements in per_statement.items() if other != path
            for refs in statements
        ))
        for index, statement in enumerate(tree.body):
            if not isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or statement.name.startswith("_"):
                continue
            # The definition's own body (recursion, a class naming
            # itself) is not a use.
            own_module = set().union(*(
                refs for i, refs in enumerate(per_statement[path]) if i != index
            ))
            if statement.name not in outside | other_modules | own_module:
                missing.append(f"{_module_name(path)}:{statement.name}")
    return missing


def test_every_public_symbol_has_a_non_test_user():
    missing = unreferenced_public_names()
    assert not missing, (
        "public names in src/ that only tests (or nothing) reference; move them "
        "into tests/ or delete them:\n  " + "\n  ".join(missing)
    )


def test_docstrings_are_prose_but_string_targets_are_references():
    tree = ast.parse(
        'def helper():\n'
        '    """Wraps units.blocks_for."""\n'
        'class Probe:\n'
        '    """See tracer.validate_chrome_trace."""\n'
        'TARGET = "repro.fs.cluster:Cluster.replay"\n'
    )
    refs = _references(tree)
    assert "blocks_for" not in refs
    assert "validate_chrome_trace" not in refs
    assert {"Cluster", "replay"} <= refs


def test_entry_points_are_read_from_the_scripts_table():
    pyproject = (
        '[project]\nname = "x"\n\n'
        '[project.scripts]\nrun-it = "pkg.cli:main"\n\n'
        '[tool.other]\nnot-a-script = "pkg.other:helper"\n'
    )
    assert _entry_point_targets(pyproject) == ["pkg.cli:main"]
    targets = _entry_point_targets(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )
    assert "repro.experiments.cli:main" in targets
