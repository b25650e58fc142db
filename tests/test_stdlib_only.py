"""The library imports nothing outside the Python standard library and itself."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "horofan").glob("*.py"))


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert any(path.name == "intlin.py" for path in SOURCES)


def test_imports_are_stdlib_or_horofan():
    allowed = set(sys.stdlib_module_names) | {"horofan"}
    outside = {
        f"{path.name}: {name}" for path in SOURCES for name in imported_modules(path) if name not in allowed
    }
    assert not outside
