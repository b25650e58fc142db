"""Golden CLI outputs: exact stdout, stderr and exit codes, replayed.

`cli_golden/cases.json` holds the recorded result of every case: all
commands on the README document and on an invalid fan, the argument errors,
`--help`, argparse's invalid-choice error, `execute` on an unknown command,
`validate` on the README document with an integer past Python's
int-string conversion limit, a document that is not UTF-8 text, as the
source and as the `--target`, a flag before FILE as the README writes it,
argv that only argparse reads (`--cone=3`, an abbreviated or repeated
flag, two FILEs, no FILE), and the README document with CR LF and with
lone CR line ends, valid and with a syntax error on its third line.
Arguments naming a `.json` file refer to the documents in `cli_golden/`;
`.gitattributes` keeps the bytes of those with CR line ends.
"""

import contextlib
import io
import json
import pathlib
import re

import pytest

from horofan import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(case: dict) -> dict:
    """Run one case through `cli.main` (argv) or `cli.execute` and record it."""
    if "argv" in case:
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    doc = cli.parse_input((GOLDEN / case["document"]).read_text(encoding="utf-8"))
    try:
        code, text = cli.execute(case["execute"], doc, **case.get("kwargs", {}))
    except cli.ParseError as exc:
        return {"raises": str(exc)}
    return {"code": code, "stdout": text}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    assert run_case(case) == case["expect"]


@pytest.mark.parametrize("name", ["crlf-validate", "cr-only-validate"])
def test_line_ends_do_not_change_the_output(name):
    by_name = {case["name"]: case for case in CASES}
    assert (GOLDEN / by_name[name]["argv"][1]).read_bytes().count(b"\r") == 15
    assert by_name[name]["expect"] == by_name["readme-validate"]["expect"]


def test_parser_choices_are_the_command_table():
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        cli.main(["bogus", "doc.json"])
    choices = err.getvalue().split("(choose from ", 1)[1].rstrip().rstrip(")")
    assert re.findall(r"[\w-]+", choices) == list(cli.COMMANDS)


def test_readme_lists_the_command_table():
    """The README's command list names each command, in table order, with the
    flag of the one argument it takes."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("Commands:") : text.index("Every report")]
    listed = [item.split() for item in re.findall(r"`([^`]+)`", block)]
    flags = {"divisor": ["--divisor", "NAME"], "cone": ["--cone", "INDEX"], "target": ["--target", "FILE"]}
    expected = [[name] + flags.get(argument, []) for name, (_, argument) in cli.COMMANDS.items()]
    assert listed == expected
