"""Fans built and validated on their face lattice, against the routes they replace.

The wall route of `validate_coloured_fan` against the all-pairs oracle on
complete fans that break it in each way the route must notice, the face table
over member indices against one `coloured_faces` pass per member, the
incidence tables read off the double-description pass and the bit-mask face
walk against the dot-product rule and the frozenset walk, and call counts.
"""

import itertools
import pathlib
import random
from collections import Counter

import pytest

from horofan import cli, dictionary, horo, polyhedra
from horofan.horo import (
    ColouredCone,
    ColouredFan,
    HorosphericalDatum,
    ValidationReport,
    build_coloured_lattice,
    close_under_coloured_faces,
    coloured_fan,
    validate_coloured_fan,
)
from horofan.intlin import IntMatrix
from horofan.polyhedra import Cone, faces
from horofan.rootsys import RootDatum

from .factories import (
    RANK3_BASES,
    a1_cubed,
    cold_parse,
    prism_maximal,
    rank3_cones,
    rank3_fan,
    stellar_subdivision,
    torus,
    torus3,
)
from .oracles import all_pairs_validation, dot_product_incidences, frozenset_faces, per_member_face_table
from .test_validation import face_table

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden"


def a1_squared_lattice():
    """The rank-2 coloured lattice of A1 x A1 with M = Z^2: colour points (1, 0) and (0, 1)."""
    group = RootDatum.parse("A1xA1")
    return build_coloured_lattice(HorosphericalDatum(group, frozenset(), IntMatrix.identity(2)))


def built(lattice, maximal, colours=None) -> ColouredFan:
    """The fan on the face closure of these maximal cones."""
    colours = colours or [()] * len(maximal)
    cones = [
        ColouredCone(Cone.from_generators(lattice.rank, gens), frozenset(c)) for gens, c in zip(maximal, colours)
    ]
    return ColouredFan(lattice, close_under_coloured_faces(lattice, cones))


QUADRANTS = [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))]
DIAGONALS = [((1, 1), (-1, 1)), ((-1, 1), (-1, -1)), ((-1, -1), (1, -1)), ((1, -1), (1, 1))]
# five cones of 135-162 degrees, each sharing a ray with the next: 720 degrees in all
WINDING = [((1, 0), (-3, 2)), ((-3, 2), (1, -3)), ((1, -3), (1, 2)), ((1, 2), (-3, -1)), ((-3, -1), (1, 0))]
# the chain 0, 90, 45, 180, 270 degrees folds back at 90 and at 45, where both owners lie on one side
FOLDED = [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))]
# (P1)^3 in the basis (1, 0, 1), (1, 1, 0), (0, 1, 1): no facet in common with (P1)^3
SKEWED = [
    tuple(tuple(sign * x for x in b) for sign, b in zip(signs, [(1, 0, 1), (1, 1, 0), (0, 1, 1)]))
    for signs in itertools.product((1, -1), repeat=3)
]


def complete_broken_fans() -> dict[str, ColouredFan]:
    """Complete fans whose walls all have two owners, but which are no fans, and a coloured one that is none."""
    torus2 = build_coloured_lattice(torus(2))
    lattice3 = build_coloured_lattice(torus3())
    return {
        "winding": built(torus2, WINDING),
        "overlapping": built(torus2, QUADRANTS + DIAGONALS),
        "overlapping-rank3": built(lattice3, RANK3_BASES["P1^3"] + SKEWED),
        "folded": built(torus2, FOLDED),
        # (1, 0) lies in the fourth quadrant too, which lacks its colour
        "colour-neighbour": built(a1_squared_lattice(), QUADRANTS, [(0,), (), (), ()]),
        # (1, 0) lies outside the third quadrant, which the closure keeps verbatim with its colour
        "colour-outside": built(a1_squared_lattice(), QUADRANTS, [(0,), (), (0,), (0,)]),
    }


def test_skewed_cubes_are_a_complete_fan():
    fan = built(build_coloured_lattice(torus3()), SKEWED)
    assert validate_coloured_fan(fan).valid and fan.walls() is not None and len(fan.maximal()) == 8


def test_wall_route_matches_all_pairs_oracle_on_complete_broken_fans():
    """Each broken fan is reported as the all-pairs oracle reports it.  The first five have a
    wall table, and the route runs on the first four and must fall through: the winding and
    overlapping fans cover every point twice (the one-point check), the folded one has walls
    with both owners on one side (the side check).  The colour-neighbour fan has two members
    on one cone, and the last a colour point outside its cone, both reported before the route."""
    walled = 0
    for name, fan in complete_broken_fans().items():
        report = validate_coloured_fan(fan)
        assert not report.valid, name
        assert report == all_pairs_validation(fan), name
        walled += fan.walls() is not None
    assert walled == 5


def test_wall_route_matches_all_pairs_oracle_on_complete_valid_fans(monkeypatch):
    """Valid complete fans of rank 2 and 3, coloured or not, are decided by their walls: no meet is tested."""
    lattice = a1_squared_lattice()
    fans = [built(lattice, QUADRANTS, [(0, 1), (1,), (), (0,)]), built(lattice, DIAGONALS, [(1,), (), (), (0,)])]
    fans += [rank3_fan(base, torus3()) for base in RANK3_BASES.values()]
    fans += [rank3_fan(prism_maximal(d), a1_cubed(), (0, 2)) for d in itertools.product((0, 1), repeat=3)]
    fans += [rank3_fan(stellar_subdivision(RANK3_BASES["P3"], 3, (1, 1, 2)), a1_cubed(), (0, 1))]
    expected = [all_pairs_validation(ColouredFan(fan.lattice, fan.cones)) for fan in fans]
    meets = Counter()
    function = horo._meet_in_coloured_face

    def counted(*args):
        meets["meet"] += 1
        return function(*args)

    monkeypatch.setattr(horo, "_meet_in_coloured_face", counted)
    for fan, report in zip(fans, expected):
        fresh = ColouredFan(fan.lattice, fan.cones)
        assert validate_coloured_fan(fresh) == report == ValidationReport(True, ())
    assert meets == Counter()


def test_face_table_over_indices_matches_per_member_table_with_repeated_members():
    """A member listed twice, and a repeated member whose face is missing: stars, missing
    faces (once per occurrence) and face sets, and the report."""
    lattice = build_coloured_lattice(a1_cubed())
    cones = rank3_cones(stellar_subdivision(RANK3_BASES["P2xP1"], 5, (1, 2, 2)), lattice, (0, 1))
    members = close_under_coloured_faces(lattice, cones)
    twice = members + (members[-1], members[3])
    lone = ColouredCone(Cone.from_generators(3, [(1, 1, 1), (1, 0, 0)]), frozenset())
    fans = [ColouredFan(lattice, twice), ColouredFan(lattice, (lone,) + members + (lone,))]
    for fan in fans:
        assert face_table(fan) == per_member_face_table(fan)
        star, gaps, faces_of = face_table(fan)
        expected = per_member_face_table(fan)
        assert list(star.items()) == list(expected[0].items()) and gaps == expected[1]
        assert validate_coloured_fan(fan) == all_pairs_validation(fan)
    assert len(face_table(fans[1])[1]) == 2 * 2
    assert fans[0].maximal() == ColouredFan(lattice, members).maximal()


def seeded_cones(seed: int, count: int):
    """Seeded generator lists in Z^1-Z^5: 1-6 small vectors, some with repeats, multiples, zeros or a line."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            gens.append(tuple(2 * x for x in rng.choice(gens)))
        if rng.random() < 0.2:
            line = tuple(rng.randint(-2, 2) for _ in range(n))
            gens += [line, tuple(-x for x in line)]
        yield n, gens


def test_seeded_incidences_and_bit_mask_faces_match_the_oracles():
    """On 600 seeded cones, pointed ones with tables read off their pass and others filled on use,
    the incidence table is the dot-product rule and `faces` is the frozenset walk, dimensions included."""
    kinds = Counter()
    for n, gens in seeded_cones(31, 600):
        sigma = Cone.from_generators(n, gens)
        seeded = "incidences" in vars(sigma)
        assert seeded == (sigma.is_strongly_convex() and bool(sigma.generators))
        assert sigma.incidences == dot_product_incidences(sigma)
        walked, expected = faces(sigma), frozenset_faces(sigma)
        assert walked == expected
        assert [f.dim() for f in walked] == [f.dim() for f in expected]
        kinds["seeded" if seeded else "pointed" if sigma.is_strongly_convex() else "lineality"] += 1
    assert kinds["seeded"] >= 350 and kinds["lineality"] >= 60


def test_seeded_dual_cone_tables_are_read_off_one_pass_on_first_use(monkeypatch):
    """On 600 seeded cones, the dual cone's incidence table, empty until read and then read off
    one double-description pass on the dual's own generators, is the dot-product rule and the
    table a fresh cone on those generators reads."""
    kinds, passes = Counter(), Counter()
    count(monkeypatch, passes, polyhedra, "_dual_description")
    for n, gens in seeded_cones(37, 600):
        sigma = Cone.from_generators(n, gens)
        dual = polyhedra.dual_cone(sigma)
        assert "incidences" not in vars(dual)
        before = passes["_dual_description"]
        table = dual.incidences
        assert passes["_dual_description"] == before + 1
        assert dual.incidences is table and passes["_dual_description"] == before + 1
        assert table == dot_product_incidences(dual)
        assert dual.incidences == Cone(n, dual.generators).incidences
        kinds["pointed" if sigma.is_strongly_convex() else "lineality"] += 1
    assert kinds["pointed"] >= 350 and kinds["lineality"] >= 60


def count(monkeypatch, calls, owner, name, wrap=lambda f: f):
    function = getattr(owner, name)

    def wrapper(*args):
        calls[name] += 1
        return function(*args)

    monkeypatch.setattr(owner, name, wrap(wrapper))


@pytest.mark.parametrize("colours", [(), (0, 1)])
def test_building_a_rank3_fan_runs_no_meet_and_no_double_description(monkeypatch, colours):
    """Counts, not timers: once its cones are made, `coloured_fan` builds and validates (P1)^3
    and a coloured subdivided P2 x P1 with no meet, no `intersect` and no double description;
    the colour points of the coloured members are read off the face table."""
    lattice = build_coloured_lattice(a1_cubed())
    calls = Counter()
    for maximal in (RANK3_BASES["P1^3"], stellar_subdivision(RANK3_BASES["P2xP1"], 5, (1, 2, 2))):
        cones = rank3_cones(maximal, lattice, colours)
        for owner, name in [(horo, "_meet_in_coloured_face"), (polyhedra, "intersect")]:
            count(monkeypatch, calls, owner, name)
        for name in ("dual_generators", "_dual_description"):
            count(monkeypatch, calls, polyhedra, name)
        fan = coloured_fan(lattice, cones)
        monkeypatch.undo()
        assert len(fan.maximal()) == len(maximal)
        assert sum(bool(cc.colours) for cc in fan.cones) >= (8 if colours else 0)
    assert calls == Counter()


def test_weight_monoid_makes_one_double_description(monkeypatch):
    """Counts, not timers: one double description per cone, so two for the weight monoid of a
    README member: one canonicalises the cone in its span, and one on the dual's own generators
    gives the dual's incidence table."""
    doc = cold_parse((GOLDEN / "readme.json").read_text(encoding="utf-8"))
    member = next(cc for cc in doc.fan.cones if cc.dim() == 2)
    calls = Counter()
    count(monkeypatch, calls, polyhedra, "_dual_description")
    generators = dictionary.weight_monoid_generators(member, doc.datum)
    monkeypatch.undo()
    assert calls == Counter(_dual_description=2) and len(generators) >= 2


def test_parse_runs_one_double_description_per_nonzero_listed_member(monkeypatch):
    """Counts, not timers: the README document lists 3 maximal cones and 3 rays, and each is
    built by `Cone.from_generators` with one pass on its own generators, which keeps the
    cone's table; the fan's walk down from the 3 maximal members finds the listed members, so
    parsing and validating run 6 passes and walk 3.  Parsing the text again does none of it:
    it returns the same fan, whose validation report is kept."""
    text = (GOLDEN / "readme.json").read_text(encoding="utf-8")
    calls = Counter()
    count(monkeypatch, calls, polyhedra, "_dual_description")
    count(monkeypatch, calls, horo, "_walk_down")
    doc = cold_parse(text)
    assert validate_coloured_fan(doc.fan).valid
    assert calls == Counter(_dual_description=6, _walk_down=3)
    count(monkeypatch, calls, horo, "_check_axioms")
    calls.clear()
    again = cli.parse_input(text)
    assert validate_coloured_fan(again.fan).valid
    monkeypatch.undo()
    assert calls == Counter() and again.fan is doc.fan
    for cc, raw in zip(doc.fan.cones, cli._load_json(text)["fan"]):
        assert cc.cone == Cone.from_generators(2, [tuple(g) for g in raw["generators"]])


@pytest.mark.parametrize("name", ["readme.json", "invalid.json", "incomplete.json"])
def test_parsed_members_hold_their_own_tables_and_validation_makes_none(monkeypatch, name):
    """Every nonzero listed member of a parsed golden document holds the incidence table of its
    own `Cone.from_generators` pass, equal to the dot-product rule, and validating the fan reads
    those tables with no `Cone._describe`."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    doc = cold_parse(text)
    listed = [cc for cc in doc.fan.cones if cc.cone.generators]
    assert len(listed) == len(cli._load_json(text)["fan"])
    for cc in listed:
        assert "incidences" in vars(cc.cone) and cc.cone.incidences == dot_product_incidences(cc.cone)
    calls = Counter()
    count(monkeypatch, calls, Cone, "_describe")
    validate_coloured_fan(doc.fan)
    monkeypatch.undo()
    assert calls == Counter()
