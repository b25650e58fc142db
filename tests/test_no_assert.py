"""Library invariants are raised as errors, never checked with `assert`, which `python -O` strips."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "horofan").glob("*.py"))


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found
