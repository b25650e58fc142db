"""The fan as a Hasse diagram: covers, validation and regularity read down them, against the oracles.

Each fan keeps only its members' coloured facets (`ColouredFan._face_table`).
Their transitive closure is checked against one `coloured_faces` pass per
member (`oracles.per_member_face_table`), validation against the all-pairs
oracle, and `regularity_report`, which reads regularity down the covers,
against one column Hermite form per member.  The fans are seeded rank-3
fans, the rank-4 products of `test_rank4_products`, (P1)^4, the broken fans
of `test_face_lattice` and `test_validation`, and fans with repeated members
and members some colour point of which lies outside their cone.
"""

import itertools
import json
import random
from collections import Counter

import pytest

from horofan import horo, intlin, polyhedra
from horofan.dictionary import regularity_report
from horofan.horo import (
    Colour,
    ColouredCone,
    ColouredFan,
    ColouredLattice,
    close_under_coloured_faces,
    coloured_cone_key,
    coloured_faces,
    product_coloured_fan,
    validate_coloured_fan,
)
from horofan.polyhedra import Cone, _keep

from .factories import (
    RANK3_BASES,
    a1_cubed,
    cold_parse,
    p1_power,
    random_rank3_coloured_fans,
    rank3_cones,
    rank3_fan,
    stellar_subdivision,
)
from .oracles import all_pairs_validation, column_hermite_regularity, per_member_face_table
from .test_face_lattice import a1_squared_lattice, complete_broken_fans
from .test_rank4_products import FACTORS, LINE, rank4_datum
from .test_validation import broken_fans


def closure_table(fan: ColouredFan) -> tuple[dict, tuple, dict]:
    """Stars, missing faces and face sets, in the form of `per_member_face_table`, by the transitive
    closure of the covers alone: member k's coloured faces are k, unless it is a stray, and all
    that its coloured facets reach."""
    first, pool, down, strays = fan._face_table
    n = len(fan.cones)
    reach = {}
    for k in dict.fromkeys(first):
        seen = set() if k in strays else {k}
        frontier = list(down[k])
        while frontier:
            j = frontier.pop()
            if j not in seen:
                seen.add(j)
                frontier += down[j]
        reach[k] = seen
    star = {fan.cones[k]: tuple(fan.cones[m] for m in reach if k in reach[m]) for k in reach}
    missing = tuple(
        (cc, face)
        for cc, k in zip(fan.cones, first)
        for face in sorted((pool[j] for j in reach[k] if j >= n), key=coloured_cone_key)
    )
    return star, missing, {fan.cones[k]: frozenset(pool[j] for j in faces) for k, faces in reach.items()}


def outside_colour_fans() -> list[ColouredFan]:
    """Fans with a member some colour point of which lies outside its cone, kept verbatim by the
    closure, alone, twice, next to its full coloured face, and as a fan built without the closure."""
    lattice = a1_squared_lattice()
    quadrant = Cone.from_generators(2, [(1, 0), (0, 1)])
    third = Cone.from_generators(2, [(-1, 0), (0, -1)])
    stray, inside = ColouredCone(third, frozenset({0})), ColouredCone(quadrant, frozenset({0, 1}))
    fans = [
        ColouredFan(lattice, close_under_coloured_faces(lattice, [stray])),
        ColouredFan(lattice, close_under_coloured_faces(lattice, [inside, stray, stray])),
        ColouredFan(lattice, close_under_coloured_faces(lattice, [stray, ColouredCone(third, frozenset())])),
    ]
    fans.append(ColouredFan(lattice, (stray,) + fans[1].cones))
    return fans


def table_fans() -> list[ColouredFan]:
    """Seeded rank-3 fans, the rank-4 products, (P1)^4, the broken fans and the fans with outside colours."""
    fans = [fan for fan, _ in random_rank3_coloured_fans(random.Random(41), 12)]
    fans += [product_coloured_fan(factor, LINE) for _, factor, _ in FACTORS]
    fans.append(p1_power(4)[0])
    fans += list(complete_broken_fans().values()) + broken_fans()
    lattice = rank3_fan(RANK3_BASES["P1^3"], a1_cubed(), (0, 1)).lattice
    members = close_under_coloured_faces(lattice, rank3_cones(RANK3_BASES["P1^3"], lattice, (0, 1)))
    fans.append(ColouredFan(lattice, members + (members[-1], members[4])))
    return fans + outside_colour_fans()


def test_closure_of_the_covers_is_the_per_member_face_table():
    """The covers the closure hands to `coloured_fan`, and those a fan walks itself from its
    members, close to one `coloured_faces` pass per member: stars and missing faces in order."""
    kinds = Counter()
    for fan in table_fans():
        expected = per_member_face_table(fan)
        for built in (fan, ColouredFan(fan.lattice, fan.cones)):
            star, missing, faces_of = closure_table(built)
            assert list(star.items()) == list(expected[0].items())
            assert missing == expected[1] and faces_of == expected[2]
            assert (built.star(fan.cones[0]), tuple(built._missing()), built._faces_of()) == (
                expected[0][fan.cones[0]],
                expected[1],
                expected[2],
            )
        kinds["missing" if expected[1] else "closed"] += 1
        kinds["stray"] += bool(fan._face_table[3])
    seeded = [rank3_fan(RANK3_BASES["P2xP1"], a1_cubed(), (0, 2)), p1_power(3)[0]]
    for fan in seeded:
        assert closure_table(fan) == per_member_face_table(fan)
    assert kinds["missing"] >= 20 and kinds["closed"] >= 20 and kinds["stray"] >= 4


def test_closure_orders_key_ties_as_the_input_order_walks_reach_them():
    """`coloured_cone_key` ties only zero cones of different ambient ranks, coloured or not.  The
    closure puts them in the order in which the inputs' coloured faces, input by input, first hold
    them, strays included; the covers it hands over are those of one pass per member."""
    lattice = ColouredLattice(3, (Colour(0, "a1", (1, 0, 0)), Colour(1, "a2", (0, 0, 0))), 2, 1)
    a = ColouredCone(Cone.from_generators(3, [(1, 0, 0), (0, 1, 0)]), frozenset({0}))
    zero = ColouredCone(Cone.zero(2), frozenset())
    b = ColouredCone(Cone.from_generators(2, [(1, 0), (0, 1)]), frozenset())
    members = close_under_coloured_faces(lattice, [a, zero, b])
    assert [(cc.cone.ambient_rank, cc.cone.generators) for cc in members[:2]] == [(3, ()), (2, ())]
    inputs = [
        a,
        zero,
        b,
        # the point of a2 is zero, so a2 colours every face
        ColouredCone(Cone.zero(3), frozenset({1})),
        ColouredCone(Cone.from_generators(3, [(0, 0, 1)]), frozenset({1})),
        # strays: the point of a1 lies outside the cone
        ColouredCone(Cone.zero(3), frozenset({0})),
        ColouredCone(Cone.from_generators(3, [(0, 1, 0)]), frozenset({0})),
    ]
    ties = 0
    for cones in itertools.permutations(inputs, 4):
        faces = (f for cc in cones for f in [cc, *coloured_faces(lattice, cc)])
        members, table = horo._closure(lattice, cones)
        assert members == tuple(sorted(dict.fromkeys(faces), key=coloured_cone_key))
        ties += len(members) - len({(cc.cone.generators, cc.colours) for cc in members})
        fan = _keep(ColouredFan(lattice, members), _face_table=table)
        assert closure_table(fan) == per_member_face_table(fan)
    assert ties >= 500


def test_validation_on_the_covers_is_the_all_pairs_oracle():
    """Reports, violation order included, on every table fan, and on each rebuilt from its members,
    walking its own covers."""
    invalid = 0
    for fan in table_fans():
        report = validate_coloured_fan(fan)
        assert report == all_pairs_validation(fan)
        assert validate_coloured_fan(ColouredFan(fan.lattice, fan.cones)) == report
        invalid += not report.valid
    assert invalid >= 30


def under_non_regular_members(fan: ColouredFan, report) -> int:
    """The coloured members that are a coloured face of some other member, and of no regular one."""
    regular = {fan.cones[r.cone_index] for r in report if r.regular}
    above = [[m for m in fan.star(cc) if m != cc] for cc in fan.cones]
    return sum(1 for cc, others in zip(fan.cones, above) if cc.colours and others and not regular.intersection(others))


def test_regularity_read_down_the_covers_is_the_column_hermite_oracle(monkeypatch):
    """On coloured fans with non-unimodular maximal cones, some of whose coloured faces lie under
    no regular member, on seeded rank-3 fans, the rank-4 products and (P1)^4; twice, the second
    time with no echelon."""
    datum = a1_cubed()
    fans = [
        (rank3_fan(stellar_subdivision(RANK3_BASES[base], 3, weights), datum, (0, 1)), datum)
        for base, weights in [("P3", (1, 1, 2)), ("P2xP1", (1, 2, 2)), ("P1^3", (2, 2, 1))]
    ]
    fans += list(random_rank3_coloured_fans(random.Random(43), 8))
    fans += [(product_coloured_fan(f, LINE), rank4_datum(bool(f.lattice.colours))) for _, f, _ in FACTORS]
    fans.append(p1_power(4))
    seen = Counter()
    for fan, datum in fans:
        expected = column_hermite_regularity(fan, datum)
        assert regularity_report(fan, datum) == expected
        with monkeypatch.context() as m:
            for module in (intlin, polyhedra, horo):
                m.setattr(module, "echelon_triple", lambda *args: pytest.fail("a member was echelonised again"))
            assert regularity_report(fan, datum) == expected
        seen["under no regular member"] += under_non_regular_members(fan, expected)
        seen.update(f"regular {r.regular}, simplicial {r.simplicial}" for r in expected)
    assert seen["under no regular member"] >= 10
    assert min(seen["regular True, simplicial True"], seen["regular False, simplicial True"]) >= 20
    assert seen["regular False, simplicial False"] >= 5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_regularity_of_p1_powers_echelonises_the_maximal_members_only(monkeypatch, n):
    """Counts, not timers: on a fresh (P1)^n, 3^n members, the report echelonises the 2^n
    maximal members; every other member lies under one, which is regular."""
    fan, datum = p1_power(n)
    fresh = ColouredFan(fan.lattice, fan.cones)
    calls = Counter()
    function = intlin.echelon_triple

    def counted(*args):
        calls["echelon_triple"] += 1
        return function(*args)

    for module in (intlin, polyhedra, horo):
        monkeypatch.setattr(module, "echelon_triple", counted)
    report = regularity_report(fresh, datum)
    assert len(fresh.cones) == 3**n and all(r.regular for r in report)
    assert sorted(fresh._multisets) == sorted(fresh.cones.index(cc) for cc in fresh.maximal())
    assert len(fresh._multisets) == 2**n and calls["echelon_triple"] <= 2**n


def invalid_documents() -> dict[str, str]:
    """Two invalid CLI documents over the rank-2 torus: a complete fan missing a ray, and two overlapping 2-cones."""
    quadrants = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]]]
    overlap = [[[1, 0], [0, 1]], [[1, 1], [-1, 1]], [[1, 0]], [[0, 1]], [[1, 1]], [[-1, 1]]]
    fans = {"missing ray": quadrants + [[[1, 0]], [[-1, 0]], [[0, -1]]], "overlap": overlap}
    head = {"group": "", "torus_rank": 2, "M": [[1, 0], [0, 1]]}
    return {name: json.dumps({**head, "fan": [{"generators": g} for g in cones]}) for name, cones in fans.items()}


def test_invalid_fan_pair_walk_reads_its_normals_off_the_maximal_members(monkeypatch):
    """Counts, not timers: parsing and validating two invalid documents walks the pairs of
    members, with each meet decided by the face lists, a normal sum read off a member's own
    incidence table or one pass on the pair's generators, so no member cone takes a
    double-description pass of its own."""
    for name, text in invalid_documents().items():
        calls = Counter()
        describe, meet = Cone._describe, horo._meet_in_coloured_face

        def counted_describe(self):
            calls["_describe"] += 1
            return describe(self)

        def counted_meet(faces_of, a, b, *tables):
            calls["meet of a face"] += min(a.dim(), b.dim()) < 2
            return meet(faces_of, a, b, *tables)

        with monkeypatch.context() as m:
            m.setattr(Cone, "_describe", counted_describe)
            m.setattr(horo, "_meet_in_coloured_face", counted_meet)
            doc = cold_parse(text)
            report = validate_coloured_fan(doc.fan)
        assert not report.valid and calls["_describe"] == 0, name
        # the quadrants meet as they should, so only the overlapping cones leave pairs to walk
        assert calls["meet of a face"] >= (5 if name == "overlap" else 0), (name, calls)
        assert report == all_pairs_validation(ColouredFan(doc.fan.lattice, doc.fan.cones)), name
