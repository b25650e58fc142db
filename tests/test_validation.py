"""Anchor-pair validation, the coloured-face table and face incidences against the all-pairs routes."""

import itertools
import random
import sys
from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from horofan import horo, polyhedra
from horofan.dictionary import closure_contains, orbit_closure
from horofan.horo import (
    Colour,
    ColouredCone,
    ColouredFan,
    ColouredLattice,
    ValidationReport,
    build_coloured_lattice,
    close_under_coloured_faces,
    coloured_cone_key,
    coloured_fan,
    coloured_faces,
    is_coloured_face,
    validate_coloured_fan,
)
from horofan.polyhedra import Cone, intersect

from .factories import (
    RANK3_BASES,
    a1_cubed,
    p1_power,
    prism_maximal,
    random_rank3_coloured_fans,
    random_valid_fan,
    rank3_cones,
    rank3_fan,
    stellar_subdivision,
    torus3,
)
from .oracles import (
    all_pairs_validation,
    containment_maximal,
    contains_rule_anchors,
    contains_rule_coloured_faces,
    contains_rule_is_coloured_face,
    per_member_face_table,
)


def valid_fans() -> list[ColouredFan]:
    """Rank 1-2 fans from `random_valid_fan`, and rank-3 fans: two bases, one of
    them coloured, a coloured stellar subdivision and a prism.  The oracle's
    cost grows as members squared, so the rank-3 list stays short."""
    rng = random.Random(7)
    fans = [random_valid_fan(rng)[0] for _ in range(30)]
    fans.append(rank3_fan(RANK3_BASES["P1^3"], torus3()))
    fans.append(rank3_fan(RANK3_BASES["P3"], torus3()))
    fans.append(rank3_fan(RANK3_BASES["P2xP1"], a1_cubed(), (0, 2)))
    fans.append(rank3_fan(stellar_subdivision(RANK3_BASES["P3"], 3, (1, 1, 2)), a1_cubed(), (0, 1)))
    fans.append(rank3_fan(prism_maximal((0, 0, 0)), torus3()))
    return fans


def broken_variants(fan: ColouredFan, rng: random.Random) -> list[ColouredFan]:
    """The fan with a member dropped, an overlapping cone added with its faces,
    a colour flipped, and an underlying cone duplicated with other colours."""
    lattice, cones = fan.lattice, list(fan.cones)
    n = lattice.rank
    roots = sorted(lattice.colour_roots())
    out = []
    k = rng.randrange(len(cones))
    out.append(ColouredFan(lattice, tuple(cones[:k] + cones[k + 1 :])))
    # the cone on a generator and the relative interior point of another member
    # overlaps that member unless it happens to be a face of the fan
    member = rng.choice([cc for cc in cones if cc.dim() >= 2] or cones[-1:])
    ray = rng.choice([cc for cc in cones if cc.dim() == 1] or cones[-1:])
    interior = member.cone.relative_interior_point()
    overlapping = Cone.from_generators(n, list(ray.cone.generators) + [interior])
    if overlapping.is_strongly_convex():
        added = ColouredCone(overlapping, frozenset())
        out.append(ColouredFan(lattice, close_under_coloured_faces(lattice, cones + [added])))
    if roots:
        k = rng.randrange(len(cones))
        flipped = ColouredCone(cones[k].cone, cones[k].colours ^ {rng.choice(roots)})
        out.append(ColouredFan(lattice, tuple(cones[:k] + [flipped] + cones[k + 1 :])))
        twin = rng.choice(cones)
        twin = ColouredCone(twin.cone, twin.colours ^ {rng.choice(roots)})
        out.append(ColouredFan(lattice, tuple(cones + [twin])))
    return out


def broken_fans() -> list[ColouredFan]:
    """Seeded `broken_variants` of every fan of `valid_fans`."""
    rng = random.Random(11)
    return [b for fan in valid_fans() for b in broken_variants(fan, rng)]


def face_table(fan: ColouredFan) -> tuple[dict, tuple, dict]:
    """The fan's stars, missing faces and face sets, in the form of `per_member_face_table`."""
    return {cc: fan.star(cc) for cc in fan.cones}, tuple(fan._missing()), fan._faces_of()


def test_anchor_validation_matches_all_pairs_oracle():
    fans = valid_fans()
    broken = broken_fans()
    invalid = 0
    for fan in fans + broken:
        report = validate_coloured_fan(fan)
        assert report == all_pairs_validation(fan)
        invalid += not report.valid
    assert all(validate_coloured_fan(fan).valid for fan in fans)
    # most variants must break the fan, or the comparison tests little
    assert invalid > len(broken) // 2


def test_meets_read_off_the_face_table_match_the_face_tests():
    """A meet is a coloured face of both members iff it is in both members' lists
    of coloured faces, on every pair of members of valid and broken fans."""
    outcomes = Counter()
    for fan in valid_fans() + broken_fans():
        faces_of = fan._faces_of()
        for a, b in itertools.combinations(fan.cones, 2):
            meet = horo.coloured_intersection(a, b)
            expected = is_coloured_face(fan.lattice, meet, a) and is_coloured_face(fan.lattice, meet, b)
            assert horo._meet_in_coloured_face(faces_of, a, b) == expected
            outcomes[expected] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 50


def test_validation_makes_no_face_test(monkeypatch):
    """Counts, not timers: validating a coloured (P1)^3 fan reads every meet off the face table."""
    fan = rank3_fan(RANK3_BASES["P1^3"], a1_cubed(), (0, 1))
    calls = Counter()
    for name in ("is_face_of", "is_coloured_face"):
        function = getattr(horo, name)

        def wrapper(*args, _name=name, _function=function):
            calls[_name] += 1
            return _function(*args)

        monkeypatch.setattr(horo, name, wrapper)
    assert validate_coloured_fan(ColouredFan(fan.lattice, fan.cones)) == ValidationReport(True, ())
    overlapping = ColouredCone(Cone.from_generators(3, [(1, 1, 1), (1, 0, 0)]), frozenset())
    assert not validate_coloured_fan(ColouredFan(fan.lattice, fan.cones + (overlapping,))).valid
    assert calls == Counter()


def test_pair_count_is_one_per_pair_of_maximal_cones(monkeypatch):
    """Counts, not timers: the walls decide the complete (P1)^3, with no meet and no double
    description; without one of its maximal cones it is incomplete, and validation tests
    one meet per pair of maximal cones, each settled by a separating functional."""
    fan = rank3_fan(RANK3_BASES["P1^3"], torus3())
    incomplete = ColouredFan(fan.lattice, close_under_coloured_faces(fan.lattice, fan.maximal()[1:]))
    calls = Counter()

    def counted(owner, name, wrap=lambda f: f):
        function = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(owner, name, wrap(wrapper))

    counted(horo, "_meet_in_coloured_face")
    counted(horo, "intersect")
    counted(polyhedra, "intersect")
    counted(Cone, "from_inequalities", staticmethod)
    counted(polyhedra, "_dual_description")
    assert validate_coloured_fan(ColouredFan(fan.lattice, fan.cones)).valid
    assert len(fan.cones) == 27 and fan.walls() is not None
    assert calls == Counter()
    # 26 members, 7 maximal: C(7, 2) meets, not C(26, 2)
    assert validate_coloured_fan(incomplete).valid
    assert len(incomplete.cones) == 26 and incomplete.walls() is None
    assert calls == Counter(_meet_in_coloured_face=21)


def test_face_table_runs_coloured_faces_on_the_maximal_members_only(monkeypatch):
    """Counts, not timers: every other member of (P1)^3 filters a larger member's list."""
    fan = rank3_fan(RANK3_BASES["P1^3"], torus3())
    listed = []
    function = horo.coloured_faces

    def wrapper(lattice, cc):
        listed.append(cc)
        return function(lattice, cc)

    monkeypatch.setattr(horo, "coloured_faces", wrapper)
    fresh = ColouredFan(fan.lattice, fan.cones)
    assert validate_coloured_fan(fresh).valid
    assert listed == fresh.maximal() and len(listed) == 8


def test_face_table_matches_one_coloured_faces_pass_per_member():
    """Stars, missing faces and face lists equal the per-member oracle's, orders included,
    on valid fans and on broken ones, where members repeat cones and miss faces."""
    missing = 0
    for fan in table_fans() + broken_fans():
        star, gaps, faces_of = face_table(ColouredFan(fan.lattice, fan.cones))
        expected = per_member_face_table(fan)
        assert list(star.items()) == list(expected[0].items())
        assert gaps == expected[1]
        assert faces_of == expected[2]
        missing += bool(gaps)
    assert missing >= 10


def test_coloured_fan_runs_coloured_faces_once_per_input_cone(monkeypatch):
    """Counts, not timers: the face table reads the closure's lists, so building and
    validating (P1)^3 from its 8 maximal cones runs `coloured_faces` 8 times, not 16."""
    lattice = build_coloured_lattice(torus3())
    cones = rank3_cones(RANK3_BASES["P1^3"], lattice)
    listed = []
    function = horo.coloured_faces

    def wrapper(lattice, cc):
        listed.append(cc)
        return function(lattice, cc)

    monkeypatch.setattr(horo, "coloured_faces", wrapper)
    fan = coloured_fan(lattice, cones)
    assert validate_coloured_fan(fan).valid
    assert listed == cones and sorted(listed, key=coloured_cone_key) == fan.maximal() and len(listed) == 8


def test_face_table_read_off_the_closure_matches_one_coloured_faces_pass_per_member():
    """A fan made from a face closure reads the closure's lists of its input cones.  Stars,
    missing faces and face lists equal the per-member oracle's, on the table fans rebuilt
    from their maximal members, and on those inputs with a colour flipped in place or
    added as a twin cone, which the closure keeps verbatim."""
    rng = random.Random(23)
    invalid = 0
    for fan in table_fans():
        lattice, tops = fan.lattice, fan.maximal()
        variants = [tops]
        roots = sorted(lattice.colour_roots())
        if roots:
            k = rng.randrange(len(tops))
            flipped = ColouredCone(tops[k].cone, tops[k].colours ^ {rng.choice(roots)})
            variants += [tops[:k] + [flipped] + tops[k + 1 :], tops + [flipped]]
        for cones in variants:
            members, listed = horo._closure(lattice, cones)
            assert members == close_under_coloured_faces(lattice, cones)
            built = ColouredFan(lattice, members, listed)
            star, gaps, faces_of = face_table(built)
            expected = per_member_face_table(ColouredFan(lattice, members))
            assert list(star.items()) == list(expected[0].items())
            assert gaps == expected[1]
            assert faces_of == expected[2]
            invalid += not validate_coloured_fan(built).valid
    assert invalid >= 10


def test_certified_meets_equal_the_double_description():
    """Wherever a separating functional certifies a meet, it is the meet `intersect` computes,
    on every pair of members of valid, broken and seeded rank-3 fans."""
    fans = valid_fans() + broken_fans() + [fan for fan, _ in random_rank3_coloured_fans(random.Random(13), 8)]
    outcomes = Counter()
    for fan in fans:
        for a, b in itertools.combinations(fan.cones, 2):
            certified = horo._separated_meet(a.cone, b.cone)
            if certified is not None:
                assert certified == intersect(a.cone, b.cone)
            outcomes[certified is not None] += 1
    assert outcomes[True] > 5000 and outcomes[False] > 100


@st.composite
def coloured_cones(draw):
    """A rank 1-4 cone (some with a lineality line) and colour points on it, off it and at zero."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    gens = draw(st.lists(vector, min_size=1, max_size=5))
    if draw(st.booleans()):
        line = draw(vector)
        gens += [line, tuple(-x for x in line)]
    points = draw(st.lists(vector, max_size=2))
    for _ in range(draw(st.integers(0, 3))):
        # nonnegative combinations of some generators land on a face
        picked = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
        points.append(tuple(sum(g[i] for g in picked) for i in range(n)))
    colours = tuple(Colour(r, f"a{r + 1}", p) for r, p in enumerate(points))
    lattice = ColouredLattice(n, colours, len(colours), 1)
    return lattice, ColouredCone(Cone.from_generators(n, gens), frozenset(range(len(colours))))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(coloured_cones())
def test_face_colours_by_incidence_match_face_contains(data):
    lattice, cc = data
    assert coloured_faces(lattice, cc) == contains_rule_coloured_faces(lattice, cc)
    for f in coloured_faces(lattice, cc):
        for colours in (f.colours, cc.colours, frozenset()):
            tau = ColouredCone(f.cone, colours)
            assert is_coloured_face(lattice, tau, cc) == contains_rule_is_coloured_face(lattice, tau, cc)


def table_fans() -> list[ColouredFan]:
    """`valid_fans`, seeded `random_rank3_coloured_fans` and (P1)^4."""
    fans = valid_fans() + [fan for fan, _ in random_rank3_coloured_fans(random.Random(5), 10)]
    return fans + [p1_power(4)[0]]


def test_maximal_is_the_containment_rule_on_valid_fans():
    fans = table_fans()
    for fan in fans:
        assert fan.maximal() == containment_maximal(fan)
    assert len(fans) >= 50 and len(fans[-1].maximal()) == 16


def test_closure_order_is_the_coloured_face_relation():
    """`closure_contains` on every pair of members against the `contains` rule
    for coloured faces; on broken fans too, where cones repeat with other colours."""
    pairs = Counter()
    for fan in table_fans() + broken_fans():
        for (i, outer), (j, inner) in itertools.product(enumerate(fan.cones), repeat=2):
            contained = closure_contains(fan, i, j)
            assert contained == contains_rule_is_coloured_face(fan.lattice, outer, inner)
            pairs[contained] += 1
    assert pairs[True] > 1000 and pairs[False] > 10000


def test_maximal_on_invalid_fans_is_the_coloured_face_rule():
    """On broken fans `maximal()` keeps the members that are a coloured face of
    themselves and of no other member, which is not the containment rule there."""
    differs = 0
    for fan in broken_fans():
        assert fan.maximal() == contains_rule_anchors(fan)
        differs += fan.maximal() != containment_maximal(fan)
    assert differs
    unknown = ColouredCone(Cone.from_generators(1, [(1,)]), frozenset({99}))
    with pytest.raises(KeyError):
        ColouredFan(ColouredLattice(1, (), 0, 1), (unknown,)).maximal()


def test_orbit_order_reads_the_face_table(monkeypatch):
    """Counts, not timers: once `coloured_fan` has validated (P1)^3, its maximal
    cones, closure order and orbit closures run no face or containment test."""
    fan, datum = p1_power(3)
    calls = Counter()

    def counted(owner, name):
        function = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Cone, "contains_cone")
    for module in [m for n, m in sys.modules.items() if n == "horofan" or n.startswith("horofan.")]:
        for name in ("is_face_of", "coloured_faces"):
            if hasattr(module, name):
                counted(module, name)
    # each orthant's 8 faces, each square's 4, each ray's 2 and the origin
    face_pairs = 8 * 8 + 12 * 4 + 6 * 2 + 1
    assert len(fan.maximal()) == 8
    pairs = itertools.product(range(len(fan.cones)), repeat=2)
    assert sum(closure_contains(fan, i, j) for i, j in pairs) == face_pairs
    assert sum(len(orbit_closure(fan, i, datum)[0].cones) for i in range(len(fan.cones))) == face_pairs
    assert calls == Counter()
