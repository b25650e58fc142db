"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library example")) + len("```python\n")
    block = text[start : text.index("\n```", start) + 1]
    expected = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected == ["True", "Z^3", "Z^2"]
    assert out.getvalue().splitlines() == expected
