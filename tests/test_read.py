"""The CLI's document reader: one binary read and one UTF-8 decode, against the text-mode reader it replaced.

`cli._read` must return exactly the text that text mode with universal
newlines returns (`oracles.text_mode_read`), or raise the same ParseError,
on any bytes: CR, CR LF and LF line ends, a byte order mark, bytes that are
not UTF-8, and no bytes at all.  Stdin for `-` follows the same rule.
"""

import builtins
import io
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horofan import cli
from horofan.cli import ParseError

from .oracles import text_mode_read

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# line ends, a BOM, JSON text, a two-byte character, and bytes that are not UTF-8 (a lone
# continuation byte, a truncated sequence, an overlong form, an invalid start byte)
PIECES = [
    b"\r", b"\r\n", b"\n", b"\xef\xbb\xbf", b'{"a": [1, 2]}', b" x", b"\xc3\xa4",
    b"\xa4", b"\xe2\x82", b"\xc0\xaf", b"\xff",
]


def outcome(read, path: str):
    """The text `read` returns for `path`, or the message of the ParseError it raises."""
    try:
        return "text", read(path, "document")
    except ParseError as exc:
        return "error", str(exc)


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from(PIECES), max_size=12).map(b"".join), st.binary(max_size=24)))
@example(b"")
@example(b"\r\r\n")
@example(b'{\r\n  "a": 1,\r  "b"\r\n}')
def test_binary_read_is_text_mode_read(data):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "doc.json")
        with open(path, "wb") as handle:
            handle.write(data)
        expected = outcome(text_mode_read, path)
        assert outcome(cli._read, path) == expected
        stdin = sys.stdin
        # a stdin as Python sets it up in the C locale: no newline translation, bad bytes kept as surrogates
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n")
        try:
            assert outcome(cli._read, "-") == expected
        finally:
            sys.stdin = stdin


def test_a_command_opens_its_document_once_in_binary_mode(monkeypatch, capsys):
    document = str(GOLDEN / "readme.json")
    builtin_open, modes = builtins.open, []

    def recording_open(file, mode="r", *args, **kwargs):
        if file == document:
            modes.append(mode)
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    assert cli.main(["validate", document]) == 0
    assert modes == ["rb"]


@pytest.mark.parametrize(
    "old,new,stderr",
    [
        (b'"delta"', b'"d\xe4lta"', b"parse error: document: not UTF-8 text: byte 0xe4 at position 410 (invalid continuation byte)\n"),
        (b'"torus_rank": 0', b'"torus_rank" 0', b"parse error: line 3, column 16: Expecting ':' delimiter\n"),
    ],
    ids=["not-utf8", "cr-json-error"],
)
def test_piped_document_fails_as_the_file_does(old, new, stderr, tmp_path):
    """A document piped in is decoded as strictly as a file, and its lone CRs read as newlines,
    whatever error handler and newline rule the stdin stream has."""
    path = tmp_path / "doc.json"
    path.write_bytes((GOLDEN / "readme.json").read_bytes().replace(b"\n", b"\r").replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8:surrogateescape")
    command = [sys.executable, "-c", "import sys; from horofan.cli import main; sys.exit(main())", "validate"]
    from_file = subprocess.run([*command, str(path)], capture_output=True, env=env, timeout=60)
    with open(path, "rb") as stdin:
        piped = subprocess.run([*command, "-"], stdin=stdin, capture_output=True, env=env, timeout=60)
    assert (from_file.returncode, from_file.stdout, from_file.stderr) == (2, b"", stderr)
    assert (piped.returncode, piped.stdout, piped.stderr) == (from_file.returncode, from_file.stdout, from_file.stderr)


@pytest.mark.parametrize("flags,field", [([], "document"), (["--target", "-"], "--target")])
def test_closed_stdin_is_a_parse_error(flags, field, monkeypatch, capsys):
    """Python sets `sys.stdin` to None when the process starts with fd 0 closed; reading `-` then exits 2."""
    document = "-" if not flags else str(GOLDEN / "readme.json")
    monkeypatch.setattr(sys, "stdin", None)
    assert cli.main(["morphism" if flags else "validate", document, *flags]) == 2
    assert capsys.readouterr() == ("", f"parse error: {field}: stdin is closed\n")


def test_closed_stdin_in_a_process_of_its_own():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-m", "horofan.cli", "validate", "-"],
        capture_output=True, env=env, timeout=60, preexec_fn=lambda: os.close(0),
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", b"parse error: document: stdin is closed\n")
