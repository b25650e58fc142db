"""One parse and one validation per document text: `cli.parse_input` keeps the last parsed document.

Every answer from a kept document must equal the answer from a fresh parse:
the golden argv cases replayed on a warm memo, a file rewritten between two
commands, a caller mutating the divisors it was handed, a text that fails to
parse, and more distinct texts than the memo keeps.
"""

import contextlib
import io
import json

import pytest

from horofan import cli, horo

from .test_cli_golden import CASES, GOLDEN, run_case

ARGV_CASES = [case for case in CASES if "argv" in case]
README_TEXT = (GOLDEN / "readme.json").read_text(encoding="utf-8")
INVALID_TEXT = (GOLDEN / "invalid.json").read_text(encoding="utf-8")
# the expected output of `validate FILE` for each golden FILE
VALIDATE = {case["argv"][1]: case["expect"] for case in ARGV_CASES if case["argv"][0] == "validate" and len(case["argv"]) == 2}


@pytest.fixture(autouse=True)
def cold_memo():
    cli._parsed.cache_clear()
    yield
    cli._parsed.cache_clear()


def run_main(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_argv_cases_replay_in_reverse_on_a_warm_memo(monkeypatch):
    """A forward pass warms the memo with the golden documents; the reverse pass then reads
    each document back kept, and every case still matches its recorded exit code and output."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    for case in ARGV_CASES + ARGV_CASES[::-1]:
        assert run_case(case) == case["expect"], case["name"]
    assert cli._parsed.cache_info().hits > 0


def test_commands_on_one_text_parse_and_validate_it_once(tmp_path, monkeypatch):
    """Counts, not timers: every golden case on the README document alone, with one file as
    source and target of `morphism`, parses the text once and validates the fan once."""
    path = tmp_path / "doc.json"
    path.write_text(README_TEXT, encoding="utf-8")
    checks = []
    check_axioms = horo._check_axioms

    def counted(fan):
        checks.append(fan)
        return check_axioms(fan)

    monkeypatch.setattr(horo, "_check_axioms", counted)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    cases = [
        c for c in ARGV_CASES
        if c["argv"][0] in cli.COMMANDS and {a for a in c["argv"] if a.endswith(".json")} == {"readme.json"}
    ]
    for case in cases:
        argv = [str(path) if a.endswith(".json") else a for a in case["argv"]]
        assert run_main(argv) == case["expect"], case["name"]
    assert len(cases) >= 13 and cli._parsed.cache_info().misses == 1 and len(checks) == 1


@pytest.mark.parametrize("texts", [(README_TEXT, INVALID_TEXT), (INVALID_TEXT, README_TEXT)], ids=["valid-invalid", "invalid-valid"])
def test_a_rewritten_file_is_parsed_again(tmp_path, texts):
    """`main` reads its file on every call, so the second call answers for the new text."""
    path = tmp_path / "doc.json"
    for text in texts + texts:
        path.write_text(text, encoding="utf-8")
        expected = VALIDATE["readme.json" if text == README_TEXT else "invalid.json"]
        assert run_main(["validate", str(path)]) == expected


def test_mutating_the_divisors_handed_out_changes_no_later_parse():
    doc = cli.parse_input(README_TEXT)
    divisors = dict(doc.divisors)
    assert "delta" in divisors
    doc.divisors.clear()
    doc.divisors["stray"] = divisors["delta"]
    again = cli.parse_input(README_TEXT)
    assert again.divisors == divisors and again.fan is doc.fan


@pytest.mark.parametrize(
    "text",
    [
        '{"group": "A2", "M": [[1, 0], [0, 1]], "fan": [], "extra": 1}',
        README_TEXT.replace('"-1,0": 1', '"7,7": 1'),
        "{",
    ],
    ids=["unknown key", "bad divisor ray", "bad json"],
)
def test_a_text_that_fails_to_parse_raises_every_time_and_is_not_kept(text):
    messages = []
    for _ in range(3):
        with pytest.raises(cli.ParseError) as exc:
            cli.parse_input(text)
        messages.append(str(exc.value))
    assert len(set(messages)) == 1
    assert cli._parsed.cache_info().currsize == 0


def test_the_memo_keeps_at_most_its_bound():
    """More distinct texts than the bound: the memo drops the least recent, and every parse answers for its text."""
    bound = cli._PARSE_MEMO_SIZE
    body = json.loads(README_TEXT)
    for k in range(bound + 3):
        text = json.dumps(body, indent=k)
        assert cli.serialize(cli.parse_input(text)) == cli.serialize(cli.parse_input(README_TEXT))
        assert cli._parsed.cache_info().currsize <= bound
    assert cli._parsed.cache_info().maxsize == bound and cli._parsed.cache_info().currsize == bound
