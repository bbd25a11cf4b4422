"""Every public name in ``src/repro`` has a user outside tests.

A short ``ast`` walk over the ``repro`` modules (``__init__.py`` files
excluded) checks two kinds of name:

* every public top-level ``def``/``class``;
* every public method and property of a top-level class (a ``def`` in
  the class body; same-named definitions, such as a property and its
  setter, count as one).

Each must be referenced somewhere outside its own definition: in a
``src/`` module (its own included), in ``examples/``, ``benchmarks/``
or ``perfbench/``, or in a ``[project.scripts]`` entry point.  A
reference is a load ``Name``, an ``Attribute``, an import alias, or a
string constant that names the symbol once split on ``:`` and ``.``
(perfbench's tracer targets look like
``"repro.fs.cluster:Cluster.replay"``).  ``__init__`` re-exports do not
count, and neither does a name that only appears in prose (a docstring
is not a string reference), so a helper that only tests call fails
here: move it into ``tests/`` or delete it.  There is no allowlist.

References are matched by name, not resolved through types, so a
method whose name collides with another reference (``get``, ``server``,
``oracle``) counts as used: a collision can hide a test-only method,
never fail a used one.  Such a method has to be found by reading.

The package is located through ``repro.__file__``, so the scan checks
whichever ``src/`` is first on ``PYTHONPATH``.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(repro.__file__).resolve().parent
USER_DIRS = ("examples", "benchmarks", "perfbench")
_STRING_PARTS = re.compile(r"[:.]")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)
_DOCSTRING_OWNERS = (ast.Module, *_DEFS)


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


def _references(node: ast.AST) -> Counter[str]:
    """How often ``node`` refers to each name, per the rules in the
    module docstring."""
    names: Counter[str] = Counter()
    prose = _docstrings(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
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


def _definitions(tree: ast.Module) -> list[tuple[str, list[ast.AST]]]:
    """``(label, definition nodes)`` for every public top-level symbol
    and every public method of a top-level class."""
    found: list[tuple[str, list[ast.AST]]] = []
    for statement in tree.body:
        if not isinstance(statement, _DEFS) or statement.name.startswith("_"):
            continue
        found.append((statement.name, [statement]))
        if isinstance(statement, ast.ClassDef):
            methods: dict[str, list[ast.AST]] = {}
            for member in statement.body:
                if isinstance(member, _FUNCTIONS) and not member.name.startswith("_"):
                    methods.setdefault(member.name, []).append(member)
            found.extend(
                (f"{statement.name}.{name}", nodes)
                for name, nodes in methods.items()
            )
    return found


def unreferenced(sources: dict[str, ast.Module], outside: Counter[str]) -> list[str]:
    """``module:label`` for every definition in ``sources`` that nothing
    but its own body references (``outside`` holds the references made
    from everywhere that is not a scanned module)."""
    total = outside.copy()
    for tree in sources.values():
        total.update(_references(tree))
    missing = []
    for module, tree in sources.items():
        for label, nodes in _definitions(tree):
            name = label.rpartition(".")[2]
            # The definition's own body (recursion, a class naming
            # itself, a setter naming its property) is not a use.
            own = sum(_references(node)[name] for node in nodes)
            if total[name] <= own:
                missing.append(f"{module}:{label}")
    return missing


def unreferenced_public_names() -> list[str]:
    """Every public top-level symbol or method in ``src/repro`` with no
    user outside tests."""
    sources = {
        _module_name(path): _parse(path)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }
    outside: Counter[str] = Counter()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside.update(_references(_parse(path)))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for target in _entry_point_targets(pyproject):
        outside.update(_STRING_PARTS.split(target))
    return unreferenced(sources, outside)


def test_every_public_symbol_has_a_non_test_user():
    missing = unreferenced_public_names()
    assert not missing, (
        "public names or methods in src/ that only tests (or nothing) "
        "reference; move them into tests/ or delete them:\n  "
        + "\n  ".join(missing)
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
    assert refs["Cluster"] and refs["replay"]


def test_methods_are_scanned_and_their_own_bodies_do_not_count():
    tree = ast.parse(
        'class Cache:\n'
        '    def insert(self):\n'
        '        return self.evict()\n'
        '    def evict(self):\n'
        '        """Calls evict_all."""\n'
        '    def reset(self):\n'
        '        self.reset()\n'
        '    @property\n'
        '    def size(self):\n'
        '        return 0\n'
        '    @size.setter\n'
        '    def size(self, value):\n'
        '        pass\n'
        '    def _private(self):\n'
        '        pass\n'
        'def evict_all():\n'
        '    pass\n'
    )
    outside = Counter({"Cache": 1, "insert": 1})
    assert unreferenced({"m": tree}, outside) == [
        "m:Cache.reset", "m:Cache.size", "m:evict_all",
    ]


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
