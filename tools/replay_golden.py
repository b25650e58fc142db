#!/usr/bin/env python3
"""Replay the golden CLI cases through a command line, each in a process of its own.

    python3 tools/replay_golden.py [--command COMMAND]

Every case of this checkout's `tests/cli_golden/cases.json` that has an
argv is run as `COMMAND ARGV...` with `COLUMNS=80`, an argument ending in
`.json` naming a document in that directory, and its exit code, stdout and stderr must be the recorded ones.  Each case but
the not-UTF-8 ones runs again on CR LF copies of the documents, where the
exit code and stdout must stay the same; the byte positions in the not-UTF-8
messages move when CRs are put in.  Then `validate -` runs twice: with the
README document piped to it, which must print what `readme-validate`
records, and with stdin closed, which must be a parse error, exit 2.

COMMAND is split as a shell would split it; it defaults to this interpreter
with `-m horofan.cli`, so `PYTHONPATH=src` replays the checkout's source, and
`--command horofan` replays an installed console script.  The script uses
the standard library only and imports no horofan, so one copy replays any
interpreter's install.  It prints one summary line and exits 1 if a case
differs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "cli_golden"


def main() -> int:
    parser = argparse.ArgumentParser(description="replay the golden CLI cases through a command line")
    parser.add_argument("--command", help="the CLI to run (default: this interpreter with -m horofan.cli)")
    args = parser.parse_args()
    command = shlex.split(args.command) if args.command else [sys.executable, "-m", "horofan.cli"]
    env = dict(os.environ, COLUMNS="80")  # argparse wraps --help to the terminal width

    def run(argv: list[str], **options) -> subprocess.CompletedProcess:
        return subprocess.run(command + argv, capture_output=True, encoding="utf-8", env=env, **options)

    cases = [c for c in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8")) if "argv" in c]
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        crlf = pathlib.Path(tmp)
        for document in GOLDEN.glob("*.json"):
            (crlf / document.name).write_bytes(document.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", b"\r\n"))
        for case in cases:
            done = run([str(GOLDEN / a) if a.endswith(".json") else a for a in case["argv"]])
            if {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr} != case["expect"]:
                failed.append(case["name"])
            if not case["name"].startswith("not-utf8-"):
                done = run([str(crlf / a) if a.endswith(".json") else a for a in case["argv"]])
                if (done.returncode, done.stdout) != (case["expect"]["code"], case["expect"]["stdout"]):
                    failed.append(f"{case['name']} (CRLF)")
    readme = next(case for case in cases if case["name"] == "readme-validate")["expect"]
    done = run(["validate", "-"], input=(GOLDEN / "readme.json").read_text(encoding="utf-8"))
    if (done.returncode, done.stdout, done.stderr) != (0, readme["stdout"], ""):
        failed.append("readme-validate (piped)")
    done = run(["validate", "-"], preexec_fn=lambda: os.close(0))
    if (done.returncode, done.stdout, done.stderr) != (2, "", "parse error: document: stdin is closed\n"):
        failed.append("validate - (stdin closed)")
    print(f"{len(cases)} golden argv cases replayed on LF and CRLF documents, and two stdin runs; failed: {failed}")
    return 0 if cases and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
