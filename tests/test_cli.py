"""CLI parsing, command output, exit codes, and serialization round-trips."""

import argparse
import contextlib
import copy
import io
import json
import os
import pathlib
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horofan.cli import (
    _PARSER,
    COMMANDS,
    InputDocument,
    ParseError,
    _dumps,
    _read_argv,
    execute,
    main,
    parse_input,
    serialize,
)

from .factories import cold_parse

CLASS_GROUP_DOC = json.dumps(
    {
        "group": "A2",
        "torus_rank": 0,
        "I": [],
        "M": [[1, 0], [0, 1]],
        "fan": [
            {"generators": [[1, 1], [1, -1]], "colours": ["a1"]},
            {"generators": [[-1, 0], [1, 1]], "colours": []},
            {"generators": [[-1, 0], [1, -1]], "colours": []},
            {"generators": [[1, 1]], "colours": []},
            {"generators": [[1, -1]], "colours": []},
            {"generators": [[-1, 0]], "colours": []},
        ],
        "divisors": {
            "delta": {"rays": {"-1,0": 1}, "colours": {"a2": 2}},
            "flat": {"rays": {"-1,0": 1}, "colours": {"a2": 1}},
            "bad": {"rays": {"1,1": 1}},
        },
    }
)

ORBITS_DOC = json.dumps(
    {
        "group": "A2",
        "M": [[1, 0], [0, 1]],
        "fan": [
            {"generators": [[1, 0], [0, 1]], "colours": ["a1"]},
            {"generators": [[0, 1], [-1, -1]], "colours": []},
            {"generators": [[1, 0], [-1, -1]], "colours": ["a1"]},
            {"generators": [[1, 0]], "colours": ["a1"]},
            {"generators": [[0, 1]], "colours": []},
            {"generators": [[-1, -1]], "colours": []},
        ],
    }
)


def _a1(**fields) -> dict:
    """A valid A1 document with one ray, with `fields` replacing or adding top-level keys."""
    return {"group": "A1", "M": [[1]], "fan": [{"generators": [[1]], "colours": []}], **fields}


# (document, "path: message") for every check of `parse_input`'s reader, in reading order;
# the last three give a divisor ray entry several faults, and the first check in the loop wins
READER_MESSAGES = [
    ([1], "document: top level must be a JSON object"),
    (_a1(fans=[]), "document: unknown keys: ['fans']"),
    ({"M": [[1]]}, "group: missing required key"),
    ({"group": 1}, "group: expected a Dynkin descriptor string"),
    ({"group": "A1", "torus_rank": True}, "torus_rank: expected a nonnegative integer"),
    ({"group": "A1", "I": "a1"}, "I: expected a list of simple-root labels"),
    ({"group": "A1", "I": ["a2"]}, "I[0]: no such simple root 'a2'"),
    ({"group": "A1"}, "M: expected a list of character basis vectors"),
    (_a1(M=[1]), "M[0]: expected a list of integers"),
    (_a1(M=[[True]]), "M[0]: entries must be integers"),
    (_a1(M=[[1, 2]]), "M[0]: expected 1 entries, got 2"),
    (_a1(fan={}), "fan: expected a list of coloured cones"),
    (_a1(fan=[[1]]), "fan[0]: expected an object"),
    (_a1(fan=[{"rays": [[1]]}]), "fan[0]: unknown keys: ['rays']"),
    (_a1(fan=[{"generators": 1}]), "fan[0].generators: expected a list of vectors"),
    (_a1(fan=[{"colours": "a1"}]), "fan[0].colours: expected a list of labels"),
    (_a1(fan=[{"colours": ["a2"]}]), "fan[0].colours[0]: no such simple root 'a2' in S minus I"),
    (_a1(divisors=[]), "divisors: expected an object of named divisors"),
    (_a1(divisors={"d": []}), "divisors.d: expected an object"),
    (_a1(divisors={"d": {"x": {}}}), "divisors.d: unknown keys: ['x']"),
    (_a1(divisors={"d": {"rays": [[1]]}}), "divisors.d.rays: expected an object of coefficients"),
    (_a1(divisors={"d": {"rays": {"x": 1}}}), "divisors.d.rays: bad ray key 'x'"),
    (_a1(divisors={"d": {"rays": {"7": 1}}}), "divisors.d.rays: '7' is not a non-coloured ray of the fan"),
    (_a1(divisors={"d": {"rays": {"1": 1.5}}}), "divisors.d.rays: coefficients must be integers"),
    (_a1(divisors={"d": {"rays": {"1": 1, " 1": 2}}}), "divisors.d.rays: ' 1' repeats the ray [1]"),
    (_a1(divisors={"d": {"rays": {"+1": 1}}}), "divisors.d.rays: bad ray key '+1': the ray [1] is written '1'"),
    (_a1(divisors={"d": {"colours": ["a1"]}}), "divisors.d.colours: expected an object of coefficients"),
    (_a1(divisors={"d": {"colours": {"a2": 1}}}), "divisors.d.colours: no such simple root 'a2' in S minus I"),
    (_a1(divisors={"d": {"colours": {"a1": False}}}), "divisors.d.colours: coefficients must be integers"),
    (_a1(divisors={"d": {"rays": {"7": "x"}}}), "divisors.d.rays: '7' is not a non-coloured ray of the fan"),
    (_a1(divisors={"d": {"rays": {"1": 1, " 1": "x"}}}), "divisors.d.rays: coefficients must be integers"),
    (_a1(divisors={"d": {"rays": {"1": 1, "+1": 2}}}), "divisors.d.rays: '+1' repeats the ray [1]"),
]


def json_block(text: str) -> dict:
    _, _, tail = text.partition("---JSON---\n")
    return json.loads(tail)


class TestParseInput:
    def test_well_formed_document(self):
        doc = parse_input(CLASS_GROUP_DOC)
        assert doc.fan.lattice.rank == 2
        assert len(doc.fan.cones) == 7  # six listed plus the implied trivial cone
        assert set(doc.divisors) == {"delta", "flat", "bad"}

    def test_unknown_colour_label(self):
        bad = json.dumps({"group": "A2", "M": [[1, 0]], "fan": [{"generators": [[1]], "colours": ["a3"]}]})
        with pytest.raises(ParseError, match="a3"):
            parse_input(bad)

    def test_empty_fan_is_trivial_fan(self):
        doc = parse_input(json.dumps({"group": "A2", "M": [[1, 0], [0, 1]], "fan": []}))
        assert len(doc.fan.cones) == 1
        assert doc.fan.cones[0].dim() == 0

    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError, match="unknown keys"):
            parse_input(json.dumps({"group": "A1", "M": [[1]], "fans": []}))

    def test_unknown_cone_key(self):
        with pytest.raises(ParseError, match="unknown keys"):
            parse_input(
                json.dumps({"group": "A1", "M": [[1]], "fan": [{"rays": [[1]]}]})
            )

    def test_invalid_datum_is_parse_error(self):
        with pytest.raises(ParseError, match="pairs nonzero"):
            parse_input(json.dumps({"group": "A2", "I": ["a1"], "M": [[1, 0]], "fan": []}))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_input("{not json")

    def test_wrong_vector_length(self):
        with pytest.raises(ParseError, match="expected 2 entries"):
            parse_input(json.dumps({"group": "A2", "M": [[1]], "fan": []}))

    def test_bad_divisor_ray(self):
        with pytest.raises(ParseError, match="not a non-coloured ray"):
            parse_input(
                json.dumps(
                    {
                        "group": "A1",
                        "M": [[1]],
                        "fan": [{"generators": [[1]], "colours": []}],
                        "divisors": {"d": {"rays": {"7,7": 1}}},
                    }
                )
            )

    @pytest.mark.parametrize(
        "divisor, path",
        [({"rays": [[1, 1]]}, "divisors.d.rays"), ({"colours": ["a1"]}, "divisors.d.colours")],
    )
    def test_divisor_coefficients_not_an_object(self, divisor, path, tmp_path, capsys):
        text = json.dumps(
            {
                "group": "A2",
                "I": [],
                "M": [[1, 0], [0, 1]],
                "fan": [{"generators": [[1, 1]], "colours": []}],
                "divisors": {"d": divisor},
            }
        )
        with pytest.raises(ParseError, match="expected an object") as info:
            parse_input(text)
        assert info.value.path == path
        document = tmp_path / "doc.json"
        document.write_text(text)
        assert main(["validate", str(document)]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {path}:")

    def test_two_keys_naming_one_ray_are_a_parse_error(self, tmp_path, capsys):
        text = CLASS_GROUP_DOC.replace('"rays": {"-1,0": 1}, "colours": {"a2": 2}', '"rays": {"-1,0": 1, "-1, 0": 5}')
        assert '"-1, 0": 5' in text
        with pytest.raises(ParseError, match="repeats the ray") as info:
            parse_input(text)
        assert info.value.path == "divisors.delta.rays"
        document = tmp_path / "doc.json"
        document.write_text(text)
        assert main(["validate", str(document)]) == 2
        assert capsys.readouterr().err.startswith("parse error: divisors.delta.rays:")

    @pytest.mark.parametrize("key", ["1,0", " +1 , 0", "\u0661,\u0660", "1_0,0", "+1,0", "01,0", "1,-0", "1,0,"])
    def test_ray_keys_are_read_only_in_the_serialised_form(self, key, tmp_path, capsys):
        """A ray key must be `",".join(map(str, ray))`, as `serialize` writes it; `int` alone
        would read " +1 , 0" and Arabic-Indic digits as (1, 0), and "1_0" as 10."""
        text = json.dumps(
            {
                "group": "",
                "torus_rank": 2,
                "I": [],
                "M": [[1, 0], [0, 1]],
                "fan": [
                    {"generators": gens, "colours": []}
                    for gens in ([[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]], [[1, 0]], [[0, 1]], [[-1, -1]])
                ],
                "divisors": {"d": {"rays": {key: 1}}},
            }
        )
        document = tmp_path / "doc.json"
        document.write_text(text)
        code = main(["cartier", str(document), "--divisor", "d"])
        out, err = capsys.readouterr()
        if key == "1,0":
            assert parse_input(text).divisors["d"].ray_coeffs == (((-1, -1), 0), ((0, 1), 0), ((1, 0), 1))
            assert code == 0 and "Cartier" in out and not err
            return
        with pytest.raises(ParseError) as info:
            parse_input(text)
        assert info.value.path == "divisors.d.rays"
        assert code == 2 and not out and err.startswith("parse error: divisors.d.rays:")

    @pytest.mark.parametrize(
        "old, new, path",
        [
            ('"torus_rank": 0', '"torus_rank": 0, "torus_rank": 1', "document"),
            ('"colours": ["a1"]', '"colours": ["a1"], "colours": []', "fan[0]"),
            ('"a2": 1', '"a2": 1, "a2": 3', "divisors.flat.colours"),
            ('"-1,0": 1}, "colours": {"a2": 2}', '"-1,0": 1, "-1,0": 4}, "colours": {"a2": 2}', "divisors.delta.rays"),
        ],
    )
    def test_repeated_json_key_is_a_parse_error_at_its_path(self, old, new, path, tmp_path, capsys):
        text = CLASS_GROUP_DOC.replace(old, new, 1)
        assert text != CLASS_GROUP_DOC
        with pytest.raises(ParseError, match="repeated key") as info:
            parse_input(text)
        assert info.value.path == path
        document = tmp_path / "doc.json"
        document.write_text(text)
        assert main(["validate", str(document)]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {path}: repeated key")

    def test_first_repeated_key_depth_first_is_reported(self):
        """A repeat deep in an early member is found before a shallower one later in the document."""
        text = (
            '{"group": "A2", "M": [[1, 0], [0, 1]], "fan": [{"generators": [[1, 1]], "colours": [], "colours": []}],'
            ' "divisors": {"d": {}, "d": {}}}'
        )
        with pytest.raises(ParseError, match="repeated key 'colours'") as info:
            parse_input(text)
        assert info.value.path == "fan[0]"

    @pytest.mark.parametrize(
        "text, path",
        [
            ("[" * 100_000 + "]" * 100_000, "document"),
            ("[" * 600 + '{"a": 1, "a": 2}' + "]" * 600, "document" + "[0]" * 600),
        ],
        ids=["lists-100000-deep", "repeated-key-600-deep"],
    )
    def test_deep_nesting_is_a_parse_error(self, text, path, tmp_path, capsys):
        with pytest.raises(ParseError) as info:
            parse_input(text)
        assert info.value.path == path
        document = tmp_path / "doc.json"
        document.write_text(text)
        assert main(["validate", str(document)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}: ") and "Traceback" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string conversion limit"
    )
    def test_integer_past_the_conversion_limit_is_a_parse_error(self, tmp_path, capsys):
        """Python's limit raises a plain ValueError in `json.loads`; it is a parse error, exit 2."""
        entry = "1" + "0" * sys.get_int_max_str_digits()
        document = tmp_path / "doc.json"
        document.write_text(CLASS_GROUP_DOC.replace('"M": [[1, 0]', f'"M": [[{entry}, 0]', 1))
        assert main(["validate", str(document)]) == 2
        assert capsys.readouterr().err == "parse error: document: an integer has too many digits\n"

    def test_round_trip_idempotent(self):
        once = serialize(parse_input(CLASS_GROUP_DOC))
        twice = serialize(parse_input(once))
        assert once == twice

    @pytest.mark.parametrize("document, message", READER_MESSAGES, ids=[m for _, m in READER_MESSAGES])
    def test_every_reader_message_in_full(self, document, message, tmp_path, capsys):
        """One minimal malformed document per check of the reader: exit 2 and the whole stderr line."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {message}\n")


class TestCommands:
    def test_class_group(self):
        doc = parse_input(CLASS_GROUP_DOC)
        code, text = execute("class-group", doc)
        assert code == 0
        payload = json_block(text)
        assert payload["class_group"]["name"] == "Z^3"
        assert payload["left_exact"] is True
        assert "Cl(X) = Z^3" in text

    def test_orbits_table(self):
        doc = parse_input(ORBITS_DOC)
        code, text = execute("orbits", doc)
        assert code == 0
        payload = json_block(text)
        dims = sorted(row["dimension"] for row in payload["orbits"])
        assert dims == [2, 2, 3, 3, 4, 4, 5]
        closed = {row["dimension"] for row in payload["orbits"] if row["closed"]}
        assert closed == {2, 3}
        for row in payload["orbits"]:
            assert row["cone"] in row["closure_contains"]

    def test_validate_valid(self):
        doc = parse_input(ORBITS_DOC)
        code, text = execute("validate", doc)
        assert code == 0
        assert json_block(text)["valid"] is True

    def test_validate_missing_face_exit_one(self):
        bad = json.dumps(
            {
                "group": "A2",
                "M": [[1, 0], [0, 1]],
                "fan": [{"generators": [[1, 0], [0, 1]], "colours": ["a1"]}],
            }
        )
        doc = parse_input(bad)
        code, text = execute("validate", doc)
        assert code == 1
        payload = json_block(text)
        assert payload["valid"] is False
        assert any("missing" in v for v in payload["violations"])

    def test_other_commands_reject_invalid_fan(self):
        bad = json.dumps(
            {
                "group": "A2",
                "M": [[1, 0], [0, 1]],
                "fan": [{"generators": [[1, 0], [0, 1]], "colours": ["a1"]}],
            }
        )
        doc = parse_input(bad)
        code, _ = execute("class-group", doc)
        assert code == 1

    def test_classify(self):
        doc = parse_input(ORBITS_DOC)
        code, text = execute("classify", doc)
        payload = json_block(text)
        assert code == 0
        assert payload["complete"] and payload["projective"] and payload["smooth"]
        assert not payload["affine"]

    def test_picard(self):
        doc = parse_input(CLASS_GROUP_DOC)
        _, text = execute("picard", doc)
        payload = json_block(text)
        assert payload["picard"]["name"] == "Z^2"
        assert payload["plf_mod_lf"]["name"] == "Z"
        assert payload["report"]["rank_consistent"] is True

    def test_cartier(self):
        doc = parse_input(CLASS_GROUP_DOC)
        _, text = execute("cartier", doc, divisor="delta")
        payload = json_block(text)
        assert payload["cartier"] is True
        assert sorted(payload["data"].values()) == [[-1, -1], [-1, 1], [0, 0]]

    def test_not_cartier(self):
        doc = parse_input(CLASS_GROUP_DOC)
        _, text = execute("cartier", doc, divisor="bad")
        assert json_block(text)["cartier"] is False

    def test_positivity(self):
        doc = parse_input(CLASS_GROUP_DOC)
        _, ample_text = execute("positivity", doc, divisor="delta")
        assert json_block(ample_text) == {
            "cartier": True,
            "basepoint_free": True,
            "ample": True,
        }
        _, flat_text = execute("positivity", doc, divisor="flat")
        assert json_block(flat_text) == {
            "cartier": True,
            "basepoint_free": True,
            "ample": False,
        }

    def test_anticanonical(self):
        doc = parse_input(CLASS_GROUP_DOC)
        _, text = execute("anticanonical", doc)
        payload = json_block(text)
        assert payload["colours"] == {"a1": 2, "a2": 2}
        assert set(payload["rays"].values()) == {1}

    def test_smooth(self):
        doc = parse_input(CLASS_GROUP_DOC)
        _, text = execute("smooth", doc)
        payload = json_block(text)
        assert payload["smooth"] is False
        bad_cones = [c for c in payload["cones"] if not c["simplicial"]]
        assert len(bad_cones) == 1 and len(bad_cones[0]["multiset"]) == 3

    def test_decolour_output_reparses(self):
        doc = parse_input(ORBITS_DOC)
        _, text = execute("decolour", doc)
        payload = json_block(text)
        stripped = parse_input(json.dumps(payload))
        assert all(not cc.colours for cc in stripped.fan.cones)
        code, _ = execute("validate", stripped)
        assert code == 0

    def test_orbit_closure(self):
        doc = parse_input(ORBITS_DOC)
        ray_index = next(
            i
            for i, cc in enumerate(doc.fan.cones)
            if cc.cone.generators == ((0, 1),) and not cc.colours
        )
        code, text = execute("orbit-closure", doc, cone=ray_index)
        assert code == 0
        payload = json_block(text)
        closure_doc = parse_input(json.dumps(payload))
        assert closure_doc.fan.lattice.rank == 1
        assert closure_doc.datum.parabolic == frozenset()

    def test_weight_monoid(self):
        doc = parse_input(
            json.dumps(
                {
                    "group": "A2",
                    "M": [[1, 0], [0, 1]],
                    "fan": [
                        {"generators": [[1, 0], [0, 1]], "colours": ["a1", "a2"]},
                        {"generators": [[1, 0]], "colours": ["a1"]},
                        {"generators": [[0, 1]], "colours": ["a2"]},
                    ],
                }
            )
        )
        quadrant = next(i for i, cc in enumerate(doc.fan.cones) if cc.dim() == 2)
        _, text = execute("weight-monoid", doc, cone=quadrant)
        assert json_block(text)["generators"] == [[0, 1], [1, 0]]

    def test_morphism(self):
        plane = parse_input(
            json.dumps(
                {
                    "group": "A1",
                    "M": [[1]],
                    "fan": [{"generators": [[1]], "colours": ["a1"]}],
                }
            )
        )
        blowup = parse_input(
            json.dumps(
                {"group": "A1", "M": [[1]], "fan": [{"generators": [[1]], "colours": []}]}
            )
        )
        line = parse_input(json.dumps({"group": "A1", "M": [], "fan": []}))
        code, text = execute("morphism", blowup, target=plane)
        assert code == 0
        assert json_block(text) == {
            "compatible": True,
            "proper": True,
            "matrix": [[1]],
            "dominantly_mapped": [],
        }
        _, text2 = execute("morphism", plane, target=line)
        payload = json_block(text2)
        assert payload["compatible"] is False and payload["proper"] is False

    def test_missing_divisor_argument(self):
        doc = parse_input(CLASS_GROUP_DOC)
        with pytest.raises(ParseError):
            execute("cartier", doc)
        with pytest.raises(ParseError):
            execute("cartier", doc, divisor="nope")

    def test_outputs_deterministic(self):
        for command in ["orbits", "classify", "class-group", "picard", "smooth"]:
            doc1 = cold_parse(CLASS_GROUP_DOC)
            doc2 = cold_parse(CLASS_GROUP_DOC)
            assert doc1.fan is not doc2.fan
            assert execute(command, doc1) == execute(command, doc2)


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(ORBITS_DOC)
        assert main(["orbits", str(good)]) == 0
        out = capsys.readouterr().out
        assert "---JSON---" in out

        bad_fan = tmp_path / "bad_fan.json"
        bad_fan.write_text(
            json.dumps(
                {
                    "group": "A2",
                    "M": [[1, 0], [0, 1]],
                    "fan": [{"generators": [[1, 0], [0, 1]], "colours": ["a1"]}],
                }
            )
        )
        assert main(["validate", str(bad_fan)]) == 1

        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{")
        assert main(["validate", str(bad_json)]) == 2

        assert main(["orbits", str(tmp_path / "missing.json")]) == 2

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(ORBITS_DOC))
        assert main(["classify", "-"]) == 0
        assert "projective" in capsys.readouterr().out

    def test_morphism_via_files(self, tmp_path, capsys):
        plane = tmp_path / "plane.json"
        plane.write_text(
            json.dumps(
                {"group": "A1", "M": [[1]], "fan": [{"generators": [[1]], "colours": ["a1"]}]}
            )
        )
        blowup = tmp_path / "blowup.json"
        blowup.write_text(
            json.dumps(
                {"group": "A1", "M": [[1]], "fan": [{"generators": [[1]], "colours": []}]}
            )
        )
        assert main(["morphism", str(blowup), "--target", str(plane)]) == 0
        assert '"proper": true' in capsys.readouterr().out

    def test_every_command_costs_nothing_per_torus_coordinate(self, tmp_path, capsys):
        """A short document with a 10^9-dimensional central torus and a rank-0 lattice: each command under 1 s of CPU."""
        doc = tmp_path / "torus.json"
        doc.write_text(json.dumps({"group": "A1", "torus_rank": 10**9, "M": [], "divisors": {"zero": {}}}))
        extra = {"divisor": ["--divisor", "zero"], "cone": ["--cone", "0"], "target": ["--target", str(doc)]}
        for command, (_, argument) in COMMANDS.items():
            start = time.process_time()
            assert main([command, str(doc), *extra.get(argument, [])]) == 0
            assert time.process_time() - start < 1.0, command
        capsys.readouterr()

    def test_main_builds_no_parser(self, tmp_path, monkeypatch, capsys):
        doc = tmp_path / "orbits.json"
        doc.write_text(ORBITS_DOC)

        def refuse(*args, **kwargs):
            raise AssertionError("main built an argument parser")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        assert main(["validate", str(doc)]) == 0
        capsys.readouterr()

    def test_documented_argv_skips_argparse(self, tmp_path, monkeypatch, capsys):
        """Every command in the benchmark's order (FILE, then its flag) and the README's (flag, then
        FILE) is read without `_PARSER.parse_args`; `--help` still goes through it."""
        doc = tmp_path / "doc.json"
        doc.write_text(CLASS_GROUP_DOC)
        calls = []
        parse_args = _PARSER.parse_args

        def counted(*args, **kwargs):
            calls.append(args)
            return parse_args(*args, **kwargs)

        monkeypatch.setattr(_PARSER, "parse_args", counted)
        extra = {"divisor": ["--divisor", "delta"], "cone": ["--cone", "0"], "target": ["--target", str(doc)]}
        for command, (_, argument) in COMMANDS.items():
            flag = extra.get(argument, [])
            assert main([command, str(doc), *flag]) == main([command, *flag, str(doc)])
        assert calls == []
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and len(calls) == 1
        capsys.readouterr()


GOLDEN_DOCUMENTS = [
    json.loads((pathlib.Path(__file__).resolve().parent / "cli_golden" / name).read_text(encoding="utf-8"))
    for name in ("readme.json", "invalid.json", "incomplete.json")
]
# groups of rank at most 8, so that no mutated document is slow, and two descriptors that do not parse
GROUPS = ["", "A1", "A2", "A3", "B2", "C3", "G2", "A1xA1", "A2xA1", "B3xA1", "D4", "F4", "A8", "E8", "Z2", "A0"]
LABELS = ["a1", "a2", "a3", "2.a1", "1.a2", "b1", "", "1,0", "-1,0", "0,1", "1,1", "x", "delta", "rays", "colours"]


def entries(node):
    """(container, key, value) of every entry of a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key, value
        yield from entries(value)


@st.composite
def mutated_documents(draw):
    """A golden document with 1-4 mutations: an integer changed, an entry dropped or duplicated,
    a label (a string value or key) or the group replaced; entries stay within -3..3."""
    doc = copy.deepcopy(draw(st.sampled_from(GOLDEN_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["integer", "drop", "duplicate", "label", "key", "group"]))
        slots = list(entries(doc))
        if kind == "group":
            doc["group"] = draw(st.sampled_from(GROUPS))
            continue
        if kind in ("integer", "label"):
            leaves = [(c, k) for c, k, value in slots if type(value) is (int if kind == "integer" else str)]
            if leaves:
                container, key = draw(st.sampled_from(leaves))
                container[key] = draw(st.integers(-3, 3) if kind == "integer" else st.sampled_from(LABELS))
            continue
        wanted = {"key": dict, "drop": (dict, list), "duplicate": list}[kind]
        holders = [c for c in [doc] + [value for _, _, value in slots] if isinstance(c, wanted) and c]
        if not holders:
            continue
        holder = draw(st.sampled_from(holders))
        key = draw(st.sampled_from(sorted(holder)) if isinstance(holder, dict) else st.integers(0, len(holder) - 1))
        if kind == "key":
            holder[draw(st.sampled_from(LABELS))] = holder.pop(key)
        elif kind == "drop":
            del holder[key]
        else:
            holder.insert(key, copy.deepcopy(holder[key]))
    return doc


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(mutated_documents(), mutated_documents(), st.sampled_from(["delta", "flat", "nope"]), st.integers(-1, 8))
def test_mutated_golden_documents_never_crash_main(source, target, divisor, cone):
    """Every command through `main` on mutated golden documents: exit 0, 1 or 2, no exception
    past `main`, a 2 says `parse error:`, and a source that `parse_input` refuses exits 2."""
    texts = [json.dumps(doc) for doc in (source, target)]
    try:
        parse_input(texts[0])
        refused = False
    except ParseError:
        refused = True
    with tempfile.TemporaryDirectory() as folder:
        paths = [os.path.join(folder, name) for name in ("source.json", "target.json")]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        extra = {"divisor": ["--divisor", divisor], "cone": ["--cone", str(cone)], "target": ["--target", paths[1]]}
        for command, (_, argument) in COMMANDS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, paths[0], *extra.get(argument, [])])
            assert code in (0, 1, 2), command
            assert code != 2 or err.getvalue().startswith("parse error:"), (command, err.getvalue())
            assert code == 2 or not refused, (command, err.getvalue())


# leaves of JSON trees: text with quotes, backslashes, control characters, non-ASCII and lone surrogates
JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\té€\u2028\ud800\udfff😀'), max_size=6)
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**999, 10**1000 - 1)
    | st.integers(-(10**1000) + 1, -(10**999))
    | JSON_TEXT
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(JSON_TREES)
def test_json_writer_is_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1, 2}, {1: "a"}, {"a": {"b": 1, 2: 3}}, [frozenset()]])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _dumps(value)


ARGV_FILES = ["doc.json", "-", "", "-x", "--"]
ARGV_FLAGS = ["--divisor", "--cone", "--target", "--div", "--co", "--tar", "--cone=3", "--divisor=d", "-h"]
ARGV_VALUES = ["3", "-1", " 3", "\u0663", "x"]
ARGV_TOKEN = st.sampled_from([*COMMANDS, "bogus", *ARGV_FILES, *ARGV_FLAGS, *ARGV_VALUES])


@st.composite
def argvs(draw):
    """0-6 tokens: mostly a command, then in any order single tokens and flags each with the token
    after it, drawn so that a good share of them have the documented shape."""
    head = [draw(st.sampled_from([*COMMANDS, "bogus"]))] if draw(st.integers(0, 3)) else []
    flag = st.sampled_from(["--divisor", "--cone", "--target"]) | st.sampled_from(ARGV_FLAGS)
    singles = [(token,) for token in draw(st.lists(ARGV_TOKEN, min_size=1, max_size=2))]
    pairs = draw(st.lists(st.tuples(flag, st.sampled_from(ARGV_VALUES) | ARGV_TOKEN), max_size=2))
    units = draw(st.permutations(singles + pairs))
    return (head + [token for unit in units for token in unit])[:6]


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(argvs())
@example(["orbit-closure", "doc.json", "--cone", "x", "--cone", "3"])  # argparse converts every --cone it reads
@example(["cartier", "--divisor", "-x", "doc.json"])
def test_argv_reader_agrees_with_argparse(argv):
    """Wherever `main` reads argv itself, argparse reads it to an equal Namespace without an error."""
    args = _read_argv(argv)
    if args is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            expected = _PARSER.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}: {err.getvalue()}")
    assert args == expected
