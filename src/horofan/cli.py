"""Batch command-line interface over the coloured-fan engine.

Input is a single JSON document describing a horospherical datum, a coloured
fan (its members, listed explicitly; the trivial coloured cone is always an
implied member), and optionally named divisors.  Every command prints a human
summary, a sentinel line, and a machine-readable JSON block, in that order,
with deterministic ordering throughout.  Exit codes: 0 success; 1 an invalid
fan, `positivity` on an incomplete fan, or an error raised by the library;
2 a parse error, an unreadable file or one that is not UTF-8 text, `-` with
stdin closed, or a missing or bad command argument.

FILE, and stdin for `-`, are read as bytes and decoded as UTF-8, with CR LF
and a lone CR read as newlines, as text mode reads them.

One process parses and validates a document text once while calls on it
come back to back.  `parse_input` keeps the parsed document of the last text
it parsed, and the fan keeps its validation report with everything else it
has worked out, so a later `main` or `parse_input` call on the same text in
the same process, and a `morphism` target with the source's text, reuse
them.  A command run as a process of its own parses its document once either
way; there only a `morphism` whose target holds the source's text gains.
`main` reads its files on every call, so a changed file is new text and is
parsed afresh; a text that fails to parse fails every time.

Each command argument is stated once, in `_ARGUMENTS`: its name, the
metavar of its "this command needs" message and its argparse options.
`_PARSER` adds its flags from the table, `main` reads them off it, and
`execute` checks the one argument a command takes (`COMMANDS`).  `main`
reads the documented argv itself: the command, then one FILE (`-` or a
token not starting with `-`) and each flag at most once, in any order,
each with a value not starting with `-` that converts as argparse would
convert it.  Any other argv (`--help`, `--cone=3`, an abbreviated or
repeated flag, a negative number) goes to argparse, whose help, usage and
error text are unchanged.  Every JSON block is written by `_dumps`, byte
for byte `json.dumps(value, indent=2, sort_keys=True)`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

from .dictionary import (
    PropertyReport,
    classify_variety,
    decolouration,
    morphism_check,
    orbit_closure,
    orbit_table,
    regularity_report,
    weight_monoid_generators,
)
from .divisors import (
    BInvariantDivisor,
    NotCompleteError,
    _ray_key,
    anticanonical,
    cartier_data,
    class_group,
    invariant_ray_generators,
    make_divisor,
    picard_group,
    positivity_check,
)
from .horo import (
    ColouredCone,
    ColouredFan,
    HorosphericalDatum,
    InvalidDatumError,
    build_coloured_lattice,
    coloured_cone_key,
    coloured_lattice_map,
    trivial_coloured_cone,
    validate_coloured_fan,
)
from .intlin import IntMatrix
from .polyhedra import Cone
from .rootsys import RootDatum

SENTINEL = "---JSON---"

_TOP_KEYS = {"group", "torus_rank", "I", "M", "fan", "divisors"}
_CONE_KEYS = {"generators", "colours"}
_DIVISOR_KEYS = {"rays", "colours"}
# the number of distinct document texts whose parsed documents `parse_input` keeps:
# commands on one document run back to back, and a `morphism` target repeats its source
_PARSE_MEMO_SIZE = 1


class ParseError(ValueError):
    """Schema or content error in an input document, with a field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class InputDocument:
    datum: HorosphericalDatum
    fan: ColouredFan
    divisors: dict[str, BInvariantDivisor]


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ParseError(path, message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fields(raw, path: str, keys: set[str], message: str) -> None:
    """Check that `raw` is a JSON object (else `message`) whose keys are all in `keys`."""
    _expect(isinstance(raw, dict), path, message)
    unknown = set(raw) - keys
    _expect(not unknown, path, f"unknown keys: {sorted(unknown)}")


def _roots(raw, path: str, known: dict[str, int], message: str, suffix: str) -> frozenset[int]:
    """The roots named by `raw`, which must be a JSON list (else `message`) of labels in `known`."""
    _expect(isinstance(raw, list), path, message)
    for i, label in enumerate(raw):
        _expect(isinstance(label, str) and label in known, f"{path}[{i}]", f"no such simple root {label!r}{suffix}")
    return frozenset(known[label] for label in raw)


def _int_vector(value, path: str, length: int) -> tuple[int, ...]:
    _expect(isinstance(value, list), path, "expected a list of integers")
    _expect(all(map(_is_int, value)), path, "entries must be integers")
    _expect(len(value) == length, path, f"expected {length} entries, got {len(value)}")
    return tuple(value)


def _first_repeated_key(document, repeated: dict[int, tuple[dict, str]]) -> Optional[tuple[str, str]]:
    """The field path of the first object, depth first, that `repeated` marks by id, and its repeated key.

    The walk keeps its own stack, so no nesting depth exhausts the interpreter's.
    """
    stack = [("document", document)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, dict):
            if id(value) in repeated:
                return path, repeated[id(value)][1]
            children = [(key if path == "document" else f"{path}.{key}", v) for key, v in value.items()]
        elif isinstance(value, list):
            children = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(children))
    return None


def _load_json(text: str):
    """`json.loads`, raising a ParseError for bad JSON (at its line), too deep nesting, too long an integer, and a repeated key (at its path).

    An integer longer than Python's int-string conversion limit (4300 digits
    by default) makes `json.loads` raise a plain ValueError, whose message
    differs between Python versions, so the ParseError's message is fixed.
    Each object whose source repeats a key is marked by its id, with the
    first key repeated; the mark holds the object, so no id is reused while
    the marks are read, not even that of an object a repeated key dropped.
    """
    repeated: dict[int, tuple[dict, str]] = {}

    def object_pairs(pairs: list[tuple[str, object]]) -> dict:
        out = dict(pairs)
        if len(out) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated[id(out)] = out, next(key for i, key in enumerate(keys) if key in keys[:i])
        return out

    try:
        raw = json.loads(text, object_pairs_hook=object_pairs)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except RecursionError:
        raise ParseError("document", "nested too deeply") from None
    except ValueError:
        raise ParseError("document", "an integer has too many digits") from None
    if repeated:
        path, key = _first_repeated_key(raw, repeated)
        raise ParseError(path, f"repeated key {key!r}")
    return raw


def parse_input(text: str) -> InputDocument:
    """Strictly parse and validate a JSON document into datum + fan + divisors.

    A key repeated in one JSON object, or two divisor ray keys naming one
    ray, is an error rather than a silent overwrite.  The document of the
    last text parsed is kept (`_parsed`, bounded by `_PARSE_MEMO_SIZE`), so
    parsing that text again returns its datum and fan objects, with what
    they have cached, and the divisors in a fresh dict.
    """
    doc = _parsed(text)
    return InputDocument(doc.datum, doc.fan, dict(doc.divisors))


@lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parsed(text: str) -> InputDocument:
    """The document `parse_input` returns for this text, parsed afresh; a ParseError is raised, never kept."""
    raw = _load_json(text)
    _fields(raw, "document", _TOP_KEYS, "top level must be a JSON object")
    _expect("group" in raw, "group", "missing required key")
    _expect(isinstance(raw["group"], str), "group", "expected a Dynkin descriptor string")
    torus_rank = raw.get("torus_rank", 0)
    _expect(_is_int(torus_rank) and torus_rank >= 0, "torus_rank", "expected a nonnegative integer")
    try:
        group = RootDatum.parse(raw["group"], central_torus_rank=torus_rank)
    except ValueError as exc:
        raise ParseError("group", str(exc)) from exc

    labels = {group.label(i): i for i in range(group.simple_count)}
    parabolic = _roots(raw.get("I", []), "I", labels, "expected a list of simple-root labels", "")
    raw_m = raw.get("M")
    _expect(isinstance(raw_m, list), "M", "expected a list of character basis vectors")
    columns = [_int_vector(col, f"M[{i}]", group.character_rank) for i, col in enumerate(raw_m)]
    try:
        datum = HorosphericalDatum(group, parabolic, IntMatrix.from_columns(columns, rows=group.character_rank))
    except InvalidDatumError as exc:
        raise ParseError("M", str(exc)) from exc
    lattice = build_coloured_lattice(datum)
    colour_labels = {c.label: c.root for c in lattice.colours}

    raw_fan = raw.get("fan", [])
    _expect(isinstance(raw_fan, list), "fan", "expected a list of coloured cones")
    specs = []
    # every shape error is raised before the first cone is built
    for i, raw_cone in enumerate(raw_fan):
        path = f"fan[{i}]"
        _fields(raw_cone, path, _CONE_KEYS, "expected an object")
        gens_raw = raw_cone.get("generators", [])
        _expect(isinstance(gens_raw, list), f"{path}.generators", "expected a list of vectors")
        gens = [_int_vector(g, f"{path}.generators[{j}]", lattice.rank) for j, g in enumerate(gens_raw)]
        roots = _roots(raw_cone.get("colours", []), f"{path}.colours", colour_labels, "expected a list of labels", " in S minus I")
        specs.append((gens, roots))
    cones = [ColouredCone(Cone.from_generators(lattice.rank, gens), roots) for gens, roots in specs]
    trivial = trivial_coloured_cone(lattice)
    if trivial not in cones:
        cones.append(trivial)
    fan = ColouredFan(lattice, tuple(cones))

    divisors: dict[str, BInvariantDivisor] = {}
    raw_divisors = raw.get("divisors", {})
    _expect(isinstance(raw_divisors, dict), "divisors", "expected an object of named divisors")
    ray_gens = set(invariant_ray_generators(fan))
    for name, raw_div in sorted(raw_divisors.items()):
        path = f"divisors.{name}"
        _fields(raw_div, path, _DIVISOR_KEYS, "expected an object")
        raw_rays = raw_div.get("rays", {})
        _expect(isinstance(raw_rays, dict), f"{path}.rays", "expected an object of coefficients")
        # each entry's checks run in turn, so an entry with several faults reports the first
        rays = {}
        for key, value in raw_rays.items():
            try:
                gen = tuple(int(part) for part in key.split(","))
            except ValueError:
                raise ParseError(f"{path}.rays", f"bad ray key {key!r}") from None
            _expect(gen in ray_gens, f"{path}.rays", f"{key!r} is not a non-coloured ray of the fan")
            _expect(_is_int(value), f"{path}.rays", "coefficients must be integers")
            _expect(gen not in rays, f"{path}.rays", f"{key!r} repeats the ray {list(gen)}")
            canonical = _ray_key(gen)
            _expect(key == canonical, f"{path}.rays", f"bad ray key {key!r}: the ray {list(gen)} is written {canonical!r}")
            rays[gen] = value
        raw_colours = raw_div.get("colours", {})
        _expect(isinstance(raw_colours, dict), f"{path}.colours", "expected an object of coefficients")
        colours = {}
        for key, value in raw_colours.items():
            _expect(key in colour_labels, f"{path}.colours", f"no such simple root {key!r} in S minus I")
            _expect(_is_int(value), f"{path}.colours", "coefficients must be integers")
            colours[colour_labels[key]] = value
        divisors[name] = make_divisor(fan, rays=rays, colours=colours)
    return InputDocument(datum, fan, divisors)


def _document_body(datum: HorosphericalDatum, fan: ColouredFan, divisors: dict[str, BInvariantDivisor]) -> dict:
    """The canonical JSON body of a document, as a dict."""
    group = datum.group
    descriptor = "x".join(f"{letter}{rank}" for letter, rank in group.components)
    labels = fan.lattice.labels()
    cones = []
    for cc in sorted(fan.cones, key=coloured_cone_key):
        if cc.dim() == 0 and not cc.colours:
            continue  # the trivial coloured cone is implied
        cones.append(
            {
                "generators": [list(g) for g in cc.cone.generators],
                "colours": [labels[r] for r in sorted(cc.colours)],
            }
        )
    body = {
        "group": descriptor,
        "torus_rank": group.central_torus_rank,
        "I": [group.label(i) for i in sorted(datum.parabolic)],
        "M": [list(col) for col in datum.characters.columns()],
        "fan": cones,
    }
    if divisors:
        body["divisors"] = {
            name: {
                "rays": {_ray_key(g): a for g, a in div.ray_coeffs if a},
                "colours": {labels[r]: a for r, a in div.colour_coeffs if a},
            }
            for name, div in sorted(divisors.items())
        }
    return body


def _dumps(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for dicts with str keys, lists, tuples, str, int, bool and None.

    Any other type, a float included, raises TypeError.  json's C encoder
    does not indent, so `json.dumps` with an indent runs its pure-Python
    encoder; this writer gives the same bytes.  `indent` is the newline and
    indentation that precede the value's closing bracket.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(key) + ": " + _dumps(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(item, inner) for item in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize(doc: InputDocument) -> str:
    """Canonical JSON for a document (deterministic member ordering)."""
    return _dumps(_document_body(doc.datum, doc.fan, doc.divisors))


def _report(lines: list[str], payload: dict) -> str:
    return "\n".join(lines + [SENTINEL, _dumps(payload)]) + "\n"


def _require_valid(fan: ColouredFan) -> Optional[str]:
    report = validate_coloured_fan(fan)
    if report.valid:
        return None
    lines = ["invalid coloured fan:"] + [f"  - {v}" for v in report.violations]
    return _report(lines, {"valid": False, "violations": list(report.violations)})


def _group_payload(g) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "name": str(g)}


def _validate(doc: InputDocument) -> tuple[int, str]:
    lines = [f"coloured fan with {len(doc.fan.cones)} members: valid"]
    return 0, _report(lines, {"valid": True, "violations": []})


def _orbits(doc: InputDocument) -> tuple[int, str]:
    fan = doc.fan
    table = orbit_table(fan, doc.datum)
    # `execute` validated the fan, so each member is its own first occurrence: the covers answer by index
    maximal = set(fan._anchors)
    labels = fan.lattice.labels()
    lines = [f"{'cone':>4}  {'dim':>3}  {'closed':>6}  cone description"]
    rows = []
    for rec in table:
        cc = fan.cones[rec.cone_index]
        closed = rec.cone_index in maximal
        colours = [labels[r] for r in sorted(cc.colours)]
        gens = " ".join("(" + _ray_key(g) + ")" for g in cc.cone.generators) or "0"
        description = f"{gens} | colours {','.join(colours) or '-'}"
        lines.append(f"{rec.cone_index:>4}  {rec.dimension:>3}  {str(closed).lower():>6}  {description}")
        rows.append(
            {
                "cone": rec.cone_index,
                "generators": [list(g) for g in cc.cone.generators],
                "colours": colours,
                "dimension": rec.dimension,
                "closed": closed,
                "closure_contains": fan._above(rec.cone_index),
            }
        )
    return 0, _report(lines, {"orbits": rows})


# (field, payload key) of each flag `classify` reports: PropertyReport's is_* fields, in field order
_CLASSIFY_FLAGS = tuple((f.name, f.name[3:]) for f in fields(PropertyReport) if f.name.startswith("is_"))


def _classify(doc: InputDocument) -> tuple[int, str]:
    rep = classify_variety(doc.fan, doc.datum)
    payload = {key: getattr(rep, field) for field, key in _CLASSIFY_FLAGS}
    lines = [f"{key:>12}: {str(value).lower()}" for key, value in payload.items()]
    lines += [f"note: {note}" for note in rep.diagnostics]
    payload["notes"] = list(rep.diagnostics)
    return 0, _report(lines, payload)


def _class_group(doc: InputDocument) -> tuple[int, str]:
    result = class_group(doc.fan, doc.datum)
    lines = [f"Cl(X) = {result.group}", f"left exact: {str(result.left_exact).lower()}"]
    generators = {}
    for name, cls in result.generator_classes:
        generators[name] = {"free": list(cls.free), "torsion": list(cls.torsion)}
        lines.append(f"  class {name}: free {list(cls.free)} torsion {list(cls.torsion)}")
    payload = {
        "class_group": _group_payload(result.group),
        "left_exact": result.left_exact,
        "generator_classes": generators,
    }
    return 0, _report(lines, payload)


def _picard(doc: InputDocument) -> tuple[int, str]:
    result = picard_group(doc.fan, doc.datum)
    lines = [
        f"Pic(X) = {result.group}",
        f"PLF/LF = {result.plf_mod_lf}",
        f"exact sequence rank check: {str(result.report.rank_consistent).lower()}",
    ]
    payload = {
        "picard": _group_payload(result.group),
        "plf_mod_lf": _group_payload(result.plf_mod_lf),
        "report": asdict(result.report),
    }
    return 0, _report(lines, payload)


def _cartier(doc: InputDocument, divisor: str) -> tuple[int, str]:
    data = cartier_data(doc.divisors[divisor], doc.fan)
    if data is None:
        return 0, _report([f"divisor {divisor!r} is not Cartier"], {"cartier": False, "data": None})
    lines = [f"divisor {divisor!r} is Cartier"]
    pieces = {}
    for idx, m in data.pieces:
        lines.append(f"  m on cone {idx} = {list(m)}")
        pieces[str(idx)] = list(m)
    return 0, _report(lines, {"cartier": True, "data": pieces})


def _positivity(doc: InputDocument, divisor: str) -> tuple[int, str]:
    try:
        cartier, bpf, ample = positivity_check(doc.divisors[divisor], doc.fan, doc.datum)
    except NotCompleteError as exc:
        return 1, _report([f"error: {exc}"], {"error": str(exc)})
    lines = [
        f"cartier: {str(cartier).lower()}",
        f"basepoint free: {str(bpf).lower()}",
        f"ample: {str(ample).lower()}",
    ]
    return 0, _report(lines, {"cartier": cartier, "basepoint_free": bpf, "ample": ample})


def _anticanonical(doc: InputDocument) -> tuple[int, str]:
    k = anticanonical(doc.fan, doc.datum)
    labels = doc.fan.lattice.labels()
    lines = ["-K ="]
    for g, a in k.ray_coeffs:
        lines.append(f"  {a} * D[{_ray_key(g)}]")
    for r, a in k.colour_coeffs:
        lines.append(f"  {a} * D_{labels[r]}")
    payload = {
        "rays": {_ray_key(g): a for g, a in k.ray_coeffs},
        "colours": {labels[r]: a for r, a in k.colour_coeffs},
    }
    return 0, _report(lines, payload)


def _smooth(doc: InputDocument) -> tuple[int, str]:
    regs = regularity_report(doc.fan, doc.datum)
    smooth = all(r.smooth for r in regs)
    lines = [f"smooth: {str(smooth).lower()}"]
    rows = []
    for r in regs:
        lines.append(
            f"  cone {r.cone_index}: simplicial {str(r.simplicial).lower()}, "
            f"regular {str(r.regular).lower()}, smooth {str(r.smooth).lower()} ({r.diagnostic})"
        )
        rows.append(
            {
                "cone": r.cone_index,
                "multiset": [list(v) for v in r.multiset],
                "simplicial": r.simplicial,
                "regular": r.regular,
                "smooth": r.smooth,
                "diagnostic": r.diagnostic,
            }
        )
    return 0, _report(lines, {"smooth": smooth, "cones": rows})


def _decolour(doc: InputDocument) -> tuple[int, str]:
    return 0, _report(["decolouration:"], _document_body(doc.datum, decolouration(doc.fan), {}))


def _orbit_closure(doc: InputDocument, index: int) -> tuple[int, str]:
    closure, closure_datum = orbit_closure(doc.fan, index, doc.datum)
    lines = [
        f"orbit closure of cone {index}",
        f"quotient lattice rank {closure.lattice.rank}",
        f"I' = {[closure_datum.group.label(i) for i in sorted(closure_datum.parabolic)]}",
    ]
    return 0, _report(lines, _document_body(closure_datum, closure, {}))


def _weight_monoid(doc: InputDocument, index: int) -> tuple[int, str]:
    gens = weight_monoid_generators(doc.fan.cones[index], doc.datum)
    lines = [f"weight monoid generators for cone {index}:"] + [f"  {list(g)}" for g in gens]
    return 0, _report(lines, {"generators": [list(g) for g in gens]})


def _morphism(doc: InputDocument, target: InputDocument) -> tuple[int, str]:
    phi = coloured_lattice_map(doc.datum, target.datum)
    compatible, proper = morphism_check(phi, doc.fan, target.fan)
    labels = doc.fan.lattice.labels()
    lines = [f"compatible: {str(compatible).lower()}", f"proper: {str(proper).lower()}"]
    payload = {
        "compatible": compatible,
        "proper": proper,
        "matrix": [list(phi.matrix.row(i)) for i in range(phi.matrix.rows)],
        "dominantly_mapped": [labels[r] for r in sorted(phi.dominantly_mapped)],
    }
    return 0, _report(lines, payload)


# name -> (handler, its one argument: None or a name in _ARGUMENTS), in --help order
COMMANDS: dict[str, tuple[Callable[..., tuple[int, str]], Optional[str]]] = {
    "validate": (_validate, None),
    "orbits": (_orbits, None),
    "classify": (_classify, None),
    "class-group": (_class_group, None),
    "picard": (_picard, None),
    "cartier": (_cartier, "divisor"),
    "positivity": (_positivity, "divisor"),
    "anticanonical": (_anticanonical, None),
    "smooth": (_smooth, None),
    "decolour": (_decolour, None),
    "orbit-closure": (_orbit_closure, "cone"),
    "morphism": (_morphism, "target"),
    "weight-monoid": (_weight_monoid, "cone"),
}

# each command argument: name -> (metavar in messages, argparse options of --name), in --help order
_ARGUMENTS: dict[str, tuple[str, dict]] = {
    "divisor": ("NAME", {"help": "named divisor from the document"}),
    "cone": ("INDEX", {"type": int, "help": "index of a fan member"}),
    "target": ("FILE", {"help": "target document for morphism checks"}),
}


def execute(command: str, doc: InputDocument, *, divisor: Optional[str] = None,
            cone: Optional[int] = None, target: Optional[InputDocument] = None) -> tuple[int, str]:
    """Validate the fan, look up the command, check its argument and run it: (exit_code, text).

    Checking the argument of `morphism` validates the target fan, after the source.
    """
    invalid = _require_valid(doc.fan)
    if invalid is not None:
        return 1, invalid
    if command not in COMMANDS:
        raise ParseError("command", f"unknown command {command!r}")
    handler, argument = COMMANDS[command]
    if argument is None:
        return handler(doc)
    value = {"divisor": divisor, "cone": cone, "target": target}[argument]
    if value is None:
        raise ParseError(f"--{argument}", f"this command needs --{argument} {_ARGUMENTS[argument][0]}")
    if argument == "divisor" and value not in doc.divisors:
        raise ParseError("--divisor", f"document has no divisor named {value!r}")
    if argument == "cone" and not 0 <= value < len(doc.fan.cones):
        raise ParseError("--cone", f"cone index {value} out of range (fan has {len(doc.fan.cones)} members)")
    if argument == "target":
        invalid = _require_valid(value.fan)
        if invalid is not None:
            return 1, invalid
    return handler(doc, value)


def _read(path: str, field: str) -> str:
    """The text of a document file, or of stdin for -; bytes that are not UTF-8 are a ParseError at `field`.

    The bytes come in one binary read and are decoded once; CR LF and a lone
    CR then read as LF, as in text mode's universal newlines, so a JSON
    error's line and column do not depend on the line endings.  A stdin
    with no byte buffer (an `io.StringIO`) is read as the text it holds.
    """
    if path == "-":
        if sys.stdin is None:  # the process started with fd 0 closed
            raise ParseError(field, "stdin is closed")
        stdin = getattr(sys.stdin, "buffer", None)
        if stdin is None:
            return sys.stdin.read()
        data = stdin.read()
    else:
        with open(path, "rb", buffering=0) as handle:
            data = handle.readall()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(field, f"not UTF-8 text: byte 0x{byte:02x} at position {exc.start} ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


_PARSER = argparse.ArgumentParser(
    prog="horofan",
    description="exact combinatorics of horospherical varieties via coloured fans",
)
_PARSER.add_argument("command", choices=list(COMMANDS))
_PARSER.add_argument("file", help="input JSON document, or - for stdin")
for _name, (_, _options) in _ARGUMENTS.items():
    _PARSER.add_argument(f"--{_name}", **_options)


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace `_PARSER.parse_args(argv)` returns, if `argv` has the documented shape; else None.

    The shape is a command, then exactly one FILE (`-` or a token not
    starting with `-`) and each flag of `_ARGUMENTS` at most once, in any
    order, each followed by a value not starting with `-` that its `type`,
    if any, converts.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    file = None
    values = dict.fromkeys(_ARGUMENTS)
    tokens = iter(argv[1:])
    for token in tokens:
        name = token[2:] if token[:2] == "--" else None
        if name in _ARGUMENTS:
            value = next(tokens, "-")  # a flag with no value is read as one starting with -
            if values[name] is not None or value.startswith("-"):
                return None
            try:
                values[name] = _ARGUMENTS[name][1].get("type", str)(value)
            except ValueError:
                return None
        elif file is None and (token == "-" or not token.startswith("-")):
            file = token
        else:
            return None
    return None if file is None else argparse.Namespace(command=argv[0], file=file, **values)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; argv in the documented shape is read directly, any other goes to argparse."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = _PARSER.parse_args(argv)
    try:
        doc = parse_input(_read(args.file, "document"))
        target = parse_input(_read(args.target, "--target")) if args.target else None
        code, text = execute(args.command, doc, divisor=args.divisor, cone=args.cone, target=target)
    except (ParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
