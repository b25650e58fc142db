#!/usr/bin/env python3
"""Source and code line counts of the horofan package.

Run from anywhere:

    python3 tools/code_lines.py

It prints two numbers for `src/horofan/*.py`: every line, and the code
lines, those that hold a token other than a comment once docstrings are
left out.  A docstring is the string statement that opens a module, class
or function body (found with `ast`); a line counts when a token of
`tokenize` other than a comment, a newline or an indent lies on it.  A
string spanning lines counts on every line it spans.  Comparing both
numbers before and after a change tells a code reduction from deleted
comments and docs.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring: module, class and function bodies that open with a string."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of `text` that hold code: a significant token outside the docstrings."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> int:
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "horofan").glob("*.py"))]
    print(f"src/horofan source lines: {sum(len(text.splitlines()) for text in texts)}")
    print(f"src/horofan code lines (no docstrings, comments or blank lines): {sum(map(code_lines, texts))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
