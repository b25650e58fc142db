#!/usr/bin/env python3
"""One sha256 over the parse outcomes of seeded mutations of the golden CLI documents.

Run from anywhere:

    python3 tools/parse_digest.py

It mutates the three golden documents of `tests/cli_golden/` (readme,
invalid and incomplete) with a seeded `random.Random`, 1-4 mutations each,
using the mutation kinds of the `mutated_documents` strategy of
`tests/test_cli.py`: an integer changed, an entry dropped or duplicated, a
string value or a key replaced by a label, or the group replaced.  Each
text is parsed by the horofan of this checkout's `src/`, and the tool prints
the number of texts and the sha256 over their outcomes, one per text: the
`serialize` of the parsed document, or the text of the ParseError that
`parse_input` raised; any other exception stops the tool.
A change to the reader that keeps every accepted document and every error
message keeps the digest.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 0
COUNT = 4000
# groups of rank at most 8, and two descriptors that do not parse
GROUPS = ["", "A1", "A2", "A3", "B2", "C3", "G2", "A1xA1", "A2xA1", "B3xA1", "D4", "F4", "A8", "E8", "Z2", "A0"]
LABELS = ["a1", "a2", "a3", "2.a1", "1.a2", "b1", "", "1,0", "-1,0", "0,1", "1,1", "x", "delta", "rays", "colours"]


def entries(node):
    """(container, key, value) of every entry of a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key, value
        yield from entries(value)


def mutated(rng: random.Random, doc):
    """`doc`, changed in place by 1-4 mutations; entries stay within -3..3."""
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["integer", "drop", "duplicate", "label", "key", "group"])
        slots = list(entries(doc))
        if kind == "group":
            doc["group"] = rng.choice(GROUPS)
            continue
        if kind in ("integer", "label"):
            leaves = [(c, k) for c, k, value in slots if type(value) is (int if kind == "integer" else str)]
            if leaves:
                container, key = rng.choice(leaves)
                container[key] = rng.randint(-3, 3) if kind == "integer" else rng.choice(LABELS)
            continue
        wanted = {"key": dict, "drop": (dict, list), "duplicate": list}[kind]
        holders = [c for c in [doc] + [value for _, _, value in slots] if isinstance(c, wanted) and c]
        if not holders:
            continue
        holder = rng.choice(holders)
        key = rng.choice(sorted(holder)) if isinstance(holder, dict) else rng.randrange(len(holder))
        if kind == "key":
            holder[rng.choice(LABELS)] = holder.pop(key)
        elif kind == "drop":
            del holder[key]
        else:
            holder.insert(key, copy.deepcopy(holder[key]))
    return doc


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from horofan.cli import ParseError, parse_input, serialize

    golden = ROOT / "tests" / "cli_golden"
    documents = [json.loads((golden / name).read_text(encoding="utf-8")) for name in ("readme.json", "invalid.json", "incomplete.json")]
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    for _ in range(COUNT):
        text = json.dumps(mutated(rng, copy.deepcopy(rng.choice(documents))))
        try:
            outcome = serialize(parse_input(text))
        except ParseError as exc:
            outcome = f"parse error: {exc}"
        digest.update(outcome.encode() + b"\0")
    print(COUNT, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
