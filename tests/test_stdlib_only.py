"""The package has no runtime dependencies: every module of ``resgraph``
imports only from itself or from the standard library."""

import ast
import sys
from pathlib import Path

import resgraph

SOURCES = sorted(Path(resgraph.__file__).parent.glob("*.py"))


def imported_modules(path: Path):
    """(line, top-level module name or None for a relative import)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.partition(".")[0]


def test_every_import_is_relative_or_stdlib():
    assert len(SOURCES) >= 10
    outside = [f"{path.name}:{line}: {name}" for path in SOURCES for line, name in imported_modules(path)
               if name is not None and name not in sys.stdlib_module_names]
    assert outside == []


def test_the_walk_sees_relative_and_stdlib_imports():
    found = {name for path in SOURCES for _, name in imported_modules(path)}
    assert {None, "json", "__future__"} <= found
