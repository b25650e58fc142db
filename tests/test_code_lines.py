"""`tools/code_lines.py` counts the lines that hold code: no docstrings, comments or blank lines."""

import importlib.util
import pathlib

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", PATH)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
        that is no docstring"""  # trailing comment
        return text
'''


def test_docstrings_comments_and_blank_lines_are_left_out():
    # class A, def f, the two lines of the assigned string and the return
    assert code_lines.code_lines(SAMPLE) == 5


def test_the_package_has_fewer_code_lines_than_lines():
    texts = [p.read_text(encoding="utf-8") for p in sorted((PATH.parents[1] / "src" / "horofan").glob("*.py"))]
    total = sum(len(text.splitlines()) for text in texts)
    assert 0 < sum(map(code_lines.code_lines, texts)) < total
