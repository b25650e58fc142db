"""Batch command-line interface over the coloured-fan engine.

Input is a single JSON document describing a horospherical datum, a coloured
fan (its members, listed explicitly; the trivial coloured cone is always an
implied member), and optionally named divisors.  Every command prints a human
summary, a sentinel line, and a machine-readable JSON block, in that order,
with deterministic ordering throughout.  Exit codes: 0 success; 1 an invalid
fan, `positivity` on an incomplete fan, or an error raised by the library;
2 a parse error, an unreadable file, or a missing or bad command argument.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .dictionary import (
    classify_variety,
    closure_contains,
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
    ColouredLattice,
    HorosphericalDatum,
    InvalidDatumError,
    build_coloured_lattice,
    coloured_cone_key,
    coloured_faces,
    coloured_lattice_map,
    trivial_coloured_cone,
    validate_coloured_fan,
)
from .intlin import IntMatrix
from .polyhedra import Cone, primitive
from .rootsys import RootDatum

SENTINEL = "---JSON---"

_TOP_KEYS = {"group", "torus_rank", "I", "M", "fan", "divisors"}
_CONE_KEYS = {"generators", "colours"}
_DIVISOR_KEYS = {"rays", "colours"}


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


def _int_vector(value, path: str, length: int) -> tuple[int, ...]:
    _expect(isinstance(value, list), path, "expected a list of integers")
    _expect(
        all(isinstance(x, int) and not isinstance(x, bool) for x in value),
        path,
        "entries must be integers",
    )
    _expect(len(value) == length, path, f"expected {length} entries, got {len(value)}")
    return tuple(value)


class _RepeatedKeys(dict):
    """A JSON object whose source repeats the key `repeated`; the last value is kept."""

    def __init__(self, pairs: list[tuple[str, object]], repeated: str):
        super().__init__(pairs)
        self.repeated = repeated


def _first_repeated_key(value, path: str) -> Optional[tuple[str, str]]:
    """The field path of the first object, depth first, whose source repeats a key, and that key."""
    if isinstance(value, _RepeatedKeys):
        return path, value.repeated
    if isinstance(value, dict):
        children = [(key if path == "document" else f"{path}.{key}", v) for key, v in value.items()]
    elif isinstance(value, list):
        children = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return None
    return next(filter(None, (_first_repeated_key(v, p) for p, v in children)), None)


def _load_json(text: str):
    """`json.loads`, raising a ParseError for bad JSON (at its line) and for a repeated key (at its field path)."""
    marked: list[_RepeatedKeys] = []

    def object_pairs(pairs: list[tuple[str, object]]) -> dict:
        out = dict(pairs)
        if len(out) == len(pairs):
            return out
        keys = [key for key, _ in pairs]
        marked.append(_RepeatedKeys(pairs, next(key for i, key in enumerate(keys) if key in keys[:i])))
        return marked[-1]

    try:
        raw = json.loads(text, object_pairs_hook=object_pairs)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    if marked:
        path, key = _first_repeated_key(raw, "document")
        raise ParseError(path, f"repeated key {key!r}")
    return raw


def _canonical_members(
    lattice: ColouredLattice, specs: list[tuple[list[tuple[int, ...]], frozenset[int]]]
) -> tuple[list[ColouredCone], dict[int, list[ColouredCone]]]:
    """The listed members as coloured cones, with one double-description pass per member that is no face of another.

    Members are canonicalised largest first, by their distinct primitive
    generators.  A member whose primitive generators are exactly those of a
    face of a pointed member built before takes that face's cone: the face's
    canonical generators are that member's generators in it, so it is the
    cone `Cone.from_generators` would make.  The coloured faces of each built
    pointed member are returned by its index, for the fan's face table.
    """
    keys = [frozenset(primitive(g) for g in gens if any(g)) for gens, _ in specs]
    made: dict[frozenset, Cone] = {}
    cones: list = [None] * len(specs)
    listed: dict[int, list[ColouredCone]] = {}
    for i in sorted(range(len(specs)), key=lambda i: -len(keys[i])):
        gens, roots = specs[i]
        face = made.get(keys[i])
        cones[i] = ColouredCone(Cone.from_generators(lattice.rank, gens) if face is None else face, roots)
        if face is None and cones[i].cone.is_strongly_convex():
            listed[i] = coloured_faces(lattice, cones[i])
            for f in listed[i]:
                made.setdefault(frozenset(f.cone.generators), f.cone)
    return cones, listed


def parse_input(text: str) -> InputDocument:
    """Strictly parse and validate a JSON document into datum + fan + divisors.

    A key repeated in one JSON object, or two divisor ray keys naming one
    ray, is an error rather than a silent overwrite.
    """
    raw = _load_json(text)
    _expect(isinstance(raw, dict), "document", "top level must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _expect(not unknown, "document", f"unknown keys: {sorted(unknown)}")
    _expect("group" in raw, "group", "missing required key")
    _expect(isinstance(raw["group"], str), "group", "expected a Dynkin descriptor string")
    torus_rank = raw.get("torus_rank", 0)
    _expect(
        isinstance(torus_rank, int) and not isinstance(torus_rank, bool) and torus_rank >= 0,
        "torus_rank",
        "expected a nonnegative integer",
    )
    try:
        group = RootDatum.parse(raw["group"], central_torus_rank=torus_rank)
    except ValueError as exc:
        raise ParseError("group", str(exc)) from exc

    labels = {group.label(i): i for i in range(group.simple_count)}
    parabolic = set()
    raw_parabolic = raw.get("I", [])
    _expect(isinstance(raw_parabolic, list), "I", "expected a list of simple-root labels")
    for pos, label in enumerate(raw_parabolic):
        _expect(isinstance(label, str) and label in labels, f"I[{pos}]", f"no such simple root {label!r}")
        parabolic.add(labels[label])

    raw_m = raw.get("M")
    _expect(isinstance(raw_m, list), "M", "expected a list of character basis vectors")
    columns = [
        _int_vector(col, f"M[{i}]", group.character_rank) for i, col in enumerate(raw_m)
    ]
    try:
        datum = HorosphericalDatum(
            group, frozenset(parabolic), IntMatrix.from_columns(columns, rows=group.character_rank)
        )
    except InvalidDatumError as exc:
        raise ParseError("M", str(exc)) from exc
    lattice = build_coloured_lattice(datum)
    colour_labels = {c.label: c.root for c in lattice.colours}

    raw_fan = raw.get("fan", [])
    _expect(isinstance(raw_fan, list), "fan", "expected a list of coloured cones")
    specs = []
    for i, raw_cone in enumerate(raw_fan):
        path = f"fan[{i}]"
        _expect(isinstance(raw_cone, dict), path, "expected an object")
        unknown = set(raw_cone) - _CONE_KEYS
        _expect(not unknown, path, f"unknown keys: {sorted(unknown)}")
        gens_raw = raw_cone.get("generators", [])
        _expect(isinstance(gens_raw, list), f"{path}.generators", "expected a list of vectors")
        gens = [
            _int_vector(g, f"{path}.generators[{j}]", lattice.rank)
            for j, g in enumerate(gens_raw)
        ]
        roots = set()
        raw_colours = raw_cone.get("colours", [])
        _expect(isinstance(raw_colours, list), f"{path}.colours", "expected a list of labels")
        for j, label in enumerate(raw_colours):
            _expect(
                isinstance(label, str) and label in colour_labels,
                f"{path}.colours[{j}]",
                f"no such simple root {label!r} in S minus I",
            )
            roots.add(colour_labels[label])
        specs.append((gens, frozenset(roots)))
    cones, listed = _canonical_members(lattice, specs)
    trivial = trivial_coloured_cone(lattice)
    if trivial not in cones:
        cones.append(trivial)
    fan = ColouredFan(lattice, tuple(cones), listed)

    divisors: dict[str, BInvariantDivisor] = {}
    raw_divisors = raw.get("divisors", {})
    _expect(isinstance(raw_divisors, dict), "divisors", "expected an object of named divisors")
    ray_gens = set(invariant_ray_generators(fan))
    for name, raw_div in sorted(raw_divisors.items()):
        path = f"divisors.{name}"
        _expect(isinstance(raw_div, dict), path, "expected an object")
        unknown = set(raw_div) - _DIVISOR_KEYS
        _expect(not unknown, path, f"unknown keys: {sorted(unknown)}")
        raw_rays = raw_div.get("rays", {})
        _expect(isinstance(raw_rays, dict), f"{path}.rays", "expected an object of coefficients")
        rays = {}
        for key, value in raw_rays.items():
            try:
                gen = tuple(int(part) for part in key.split(","))
            except ValueError:
                raise ParseError(f"{path}.rays", f"bad ray key {key!r}") from None
            _expect(
                gen in ray_gens,
                f"{path}.rays",
                f"{key!r} is not a non-coloured ray of the fan",
            )
            _expect(isinstance(value, int) and not isinstance(value, bool), f"{path}.rays", "coefficients must be integers")
            _expect(gen not in rays, f"{path}.rays", f"{key!r} repeats the ray {list(gen)}")
            canonical = ",".join(map(str, gen))
            _expect(key == canonical, f"{path}.rays", f"bad ray key {key!r}: the ray {list(gen)} is written {canonical!r}")
            rays[gen] = value
        raw_colours = raw_div.get("colours", {})
        _expect(isinstance(raw_colours, dict), f"{path}.colours", "expected an object of coefficients")
        colours = {}
        for key, value in raw_colours.items():
            _expect(
                isinstance(key, str) and key in colour_labels,
                f"{path}.colours",
                f"no such simple root {key!r} in S minus I",
            )
            _expect(isinstance(value, int) and not isinstance(value, bool), f"{path}.colours", "coefficients must be integers")
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
                "rays": {",".join(map(str, g)): a for g, a in div.ray_coeffs if a},
                "colours": {labels[r]: a for r, a in div.colour_coeffs if a},
            }
            for name, div in sorted(divisors.items())
        }
    return body


def serialize(doc: InputDocument) -> str:
    """Canonical JSON for a document (deterministic member ordering)."""
    return json.dumps(_document_body(doc.datum, doc.fan, doc.divisors), indent=2, sort_keys=True)


def _report(lines: list[str], payload: dict) -> str:
    return "\n".join(lines + [SENTINEL, json.dumps(payload, indent=2, sort_keys=True)]) + "\n"


def _require_valid(fan: ColouredFan) -> Optional[str]:
    report = validate_coloured_fan(fan)
    if report.valid:
        return None
    lines = ["invalid coloured fan:"] + [f"  - {v}" for v in report.violations]
    return _report(lines, {"valid": False, "violations": list(report.violations)})


def _group_payload(g) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "name": str(g)}


def _divisor_arg(doc: InputDocument, name: Optional[str]) -> str:
    if name is None:
        raise ParseError("--divisor", "this command needs --divisor NAME")
    if name not in doc.divisors:
        raise ParseError("--divisor", f"document has no divisor named {name!r}")
    return name


def _cone_arg(doc: InputDocument, index: Optional[int]) -> int:
    if index is None:
        raise ParseError("--cone", "this command needs --cone INDEX")
    if not 0 <= index < len(doc.fan.cones):
        raise ParseError("--cone", f"cone index {index} out of range (fan has {len(doc.fan.cones)} members)")
    return index


def _validate(doc: InputDocument) -> tuple[int, str]:
    lines = [f"coloured fan with {len(doc.fan.cones)} members: valid"]
    return 0, _report(lines, {"valid": True, "violations": []})


def _orbits(doc: InputDocument) -> tuple[int, str]:
    fan = doc.fan
    table = orbit_table(fan, doc.datum)
    maximal = set(fan.maximal())
    labels = fan.lattice.labels()
    lines = [f"{'cone':>4}  {'dim':>3}  {'closed':>6}  cone description"]
    rows = []
    for rec in table:
        cc = fan.cones[rec.cone_index]
        closed = cc in maximal
        colours = [labels[r] for r in sorted(cc.colours)]
        gens = " ".join("(" + ",".join(map(str, g)) + ")" for g in cc.cone.generators) or "0"
        description = f"{gens} | colours {','.join(colours) or '-'}"
        lines.append(f"{rec.cone_index:>4}  {rec.dimension:>3}  {str(closed).lower():>6}  {description}")
        rows.append(
            {
                "cone": rec.cone_index,
                "generators": [list(g) for g in cc.cone.generators],
                "colours": colours,
                "dimension": rec.dimension,
                "closed": closed,
                "closure_contains": sorted(
                    other.cone_index
                    for other in table
                    if closure_contains(fan, rec.cone_index, other.cone_index)
                ),
            }
        )
    return 0, _report(lines, {"orbits": rows})


def _classify(doc: InputDocument) -> tuple[int, str]:
    rep = classify_variety(doc.fan, doc.datum)
    payload = {
        "simple": rep.is_simple,
        "affine": rep.is_affine,
        "complete": rep.is_complete,
        "toroidal": rep.is_toroidal,
        "projective": rep.is_projective,
        "simplicial": rep.is_simplicial,
        "regular": rep.is_regular,
        "factorial": rep.is_factorial,
        "q_factorial": rep.is_q_factorial,
        "smooth": rep.is_smooth,
        "notes": list(rep.diagnostics),
    }
    lines = [f"{key:>12}: {str(value).lower()}" for key, value in payload.items() if key != "notes"]
    lines += [f"note: {note}" for note in rep.diagnostics]
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
        "report": {
            "span_perp_rank": result.report.span_perp_rank,
            "unused_colour_count": result.report.unused_colour_count,
            "span_perp_image_rank": result.report.span_perp_image_rank,
            "plf_rank": result.report.plf_rank,
            "pic_rank": result.report.pic_rank,
            "rank_consistent": result.report.rank_consistent,
        },
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
        lines.append(f"  {a} * D[{','.join(map(str, g))}]")
    for r, a in k.colour_coeffs:
        lines.append(f"  {a} * D_{labels[r]}")
    payload = {
        "rays": {",".join(map(str, g)): a for g, a in k.ray_coeffs},
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


# name -> (handler, its one argument: None, "divisor", "cone" or "target"), in --help order
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
    if argument == "divisor":
        return handler(doc, _divisor_arg(doc, divisor))
    if argument == "cone":
        return handler(doc, _cone_arg(doc, cone))
    if argument == "target":
        if target is None:
            raise ParseError("--target", "this command needs --target FILE")
        invalid = _require_valid(target.fan)
        return (1, invalid) if invalid is not None else handler(doc, target)
    return handler(doc)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


_PARSER = argparse.ArgumentParser(
    prog="horofan",
    description="exact combinatorics of horospherical varieties via coloured fans",
)
_PARSER.add_argument("command", choices=list(COMMANDS))
_PARSER.add_argument("file", help="input JSON document, or - for stdin")
_PARSER.add_argument("--divisor", help="named divisor from the document")
_PARSER.add_argument("--cone", type=int, help="index of a fan member")
_PARSER.add_argument("--target", help="target document for morphism checks")


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        doc = parse_input(_read(args.file))
        target = parse_input(_read(args.target)) if args.target else None
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
