"""Anchor-pair validation, the coloured-face table and face incidences against the all-pairs routes."""

import itertools
import random
import sys
from collections import Counter

import pytest

from hypothesis import assume, given, settings
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
    validate_coloured_fan,
)
from horofan.polyhedra import Cone, faces, intersect

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


def candidate_walk_fans() -> dict[str, ColouredFan]:
    """Invalid fans whose faults reach, or just miss, the walk over the pairs of failed anchor pairs:
    (P1)^4 without a ray, with a ray inside a square cone, with a cone inside an orthant, and with a
    member listed twice; a coloured P2 x P1 with a maximal member repeated on other colours, and with
    an overlapping maximal cone.  The inner cone's new ray comes before the orthant in member order
    but its anchor after it, so a pair of a failed anchor pair is tested in both orientations."""
    p1, _ = p1_power(4)
    lattice, cones = p1.lattice, list(p1.cones)
    ray = ColouredCone(Cone.from_generators(4, [(1, 0, 0, 0)]), frozenset())
    inside = ColouredCone(Cone.from_generators(4, [(1, 1, 0, 0)]), frozenset())
    square = next(cc for cc in cones if cc.dim() == 2)
    # a cone inside the positive orthant, on three of its rays and the new ray
    wedge = [(1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    wedge = ColouredCone(Cone.from_generators(4, wedge), frozenset())
    fans = {
        "p1^4-without-a-ray": ColouredFan(lattice, tuple(cc for cc in cones if cc != ray)),
        "p1^4-plus-a-ray": ColouredFan(lattice, close_under_coloured_faces(lattice, cones + [inside])),
        "p1^4-plus-an-inner-cone": ColouredFan(lattice, close_under_coloured_faces(lattice, cones + [wedge])),
        "p1^4-member-twice": ColouredFan(lattice, tuple(cones + [square])),
    }
    coloured = rank3_fan(RANK3_BASES["P2xP1"], a1_cubed(), (0, 2))
    lattice, cones = coloured.lattice, list(coloured.cones)
    member = next(cc for cc in coloured.maximal() if cc.colours)
    fans["p2xp1-twin-colours"] = ColouredFan(lattice, tuple(cones + [ColouredCone(member.cone, frozenset())]))
    ray = next(cc for cc in cones if cc.dim() == 1 and not cc.cone.contains_cone(member.cone))
    interior = member.cone.relative_interior_point()
    overlapping = ColouredCone(Cone.from_generators(3, list(ray.cone.generators) + [interior]), frozenset())
    fans["p2xp1-overlapping"] = ColouredFan(lattice, close_under_coloured_faces(lattice, cones + [overlapping]))
    return fans


# meets tested: one per anchor pair, C(16, 2) = 120 for (P1)^4, then one per walked pair that is no
# anchor pair and lies under no anchor, nor under two anchors that meet
CANDIDATE_WALK_MEETS = {
    "p1^4-without-a-ray": 120,
    "p1^4-plus-a-ray": 141,
    "p1^4-plus-an-inner-cone": 204,
    "p1^4-member-twice": 120,
    "p2xp1-twin-colours": 26,
    "p2xp1-overlapping": 22,
}


@pytest.mark.parametrize("name", list(candidate_walk_fans()))
def test_candidate_walk_matches_all_pairs_oracle(name, monkeypatch):
    fan = candidate_walk_fans()[name]
    meet, tested = horo._meet_in_coloured_face, []
    monkeypatch.setattr(horo, "_meet_in_coloured_face", lambda *args: tested.append(args) or meet(*args))
    report = validate_coloured_fan(fan)
    monkeypatch.undo()
    assert len(tested) == CANDIDATE_WALK_MEETS[name]
    assert report == all_pairs_validation(fan)
    assert not report.valid
    meets = [v for v in report.violations if v.startswith("intersection of")]
    assert bool(meets) == (name not in ("p1^4-without-a-ray", "p1^4-member-twice"))


def test_missing_faces_alone_make_one_meet_per_anchor_pair_and_no_walk_up(monkeypatch):
    """Counts, not timers: (P1)^3 without a ray misses faces but every pair of its 8 maximal
    members meets, so validation tests C(8, 2) meets and groups no member under an anchor."""
    fan, _ = p1_power(3)
    ray = ColouredCone(Cone.from_generators(3, [(1, 0, 0)]), frozenset())
    broken = ColouredFan(fan.lattice, tuple(cc for cc in fan.cones if cc != ray))
    calls = Counter()

    def counted(owner, name):
        function = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(horo, "_meet_in_coloured_face")
    counted(ColouredFan, "_above")
    report = validate_coloured_fan(broken)
    assert not report.valid and all("is missing from the fan" in v for v in report.violations)
    assert len(broken.maximal()) == 8
    assert calls == Counter(_meet_in_coloured_face=28)


def test_meets_read_off_the_face_table_match_the_face_tests():
    """A meet is a coloured face of both members iff it is in both members' lists
    of coloured faces, on every pair of members of valid and broken fans, with the
    normals read off the two members' own tables."""
    outcomes = Counter()
    for fan in valid_fans() + broken_fans():
        faces_of = fan._faces_of()
        for a, b in itertools.combinations(fan.cones, 2):
            meet = ColouredCone(intersect(a.cone, b.cone), a.colours & b.colours)
            expected = all(contains_rule_is_coloured_face(fan.lattice, meet, c) for c in (a, b))
            assert horo._meet_in_coloured_face(faces_of, a, b) == expected
            outcomes[expected] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 50


def test_validation_makes_no_face_test(monkeypatch):
    """Counts, not timers: validating a coloured (P1)^3 fan reads every meet off the face table."""
    fan = rank3_fan(RANK3_BASES["P1^3"], a1_cubed(), (0, 1))
    calls = Counter()
    function = polyhedra.is_face_of

    def wrapper(*args):
        calls["is_face_of"] += 1
        return function(*args)

    monkeypatch.setattr(polyhedra, "is_face_of", wrapper)
    assert validate_coloured_fan(ColouredFan(fan.lattice, fan.cones)) == ValidationReport(True, ())
    overlapping = ColouredCone(Cone.from_generators(3, [(1, 1, 1), (1, 0, 0)]), frozenset())
    assert not validate_coloured_fan(ColouredFan(fan.lattice, fan.cones + (overlapping,))).valid
    assert calls == Counter()


def test_pair_count_is_one_per_pair_of_maximal_cones(monkeypatch):
    """Counts, not timers: the walls decide the complete (P1)^3, with no meet and no double
    description; without one of its maximal cones it is incomplete, and validation tests
    one meet per pair of maximal cones, each accepted by a normal sum with no pass."""
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
    counted(polyhedra, "intersect")
    counted(Cone, "from_inequalities", staticmethod)
    counted(polyhedra, "_dual_description")
    # the meet rule's own pass, on the generators of a pair, goes through the name `horo` imports
    counted(horo, "_dual_description")
    assert validate_coloured_fan(ColouredFan(fan.lattice, fan.cones)).valid
    assert len(fan.cones) == 27 and fan.walls() is not None
    assert calls == Counter()
    # 26 members, 7 maximal: C(7, 2) meets, not C(26, 2)
    assert validate_coloured_fan(incomplete).valid
    assert len(incomplete.cones) == 26 and incomplete.walls() is None
    assert calls == Counter(_meet_in_coloured_face=21)


def test_face_table_walks_down_from_the_maximal_members_only(monkeypatch):
    """Counts, not timers: every other member of (P1)^3 is reached below a maximal member,
    and no member's list of coloured faces is made."""
    fan = rank3_fan(RANK3_BASES["P1^3"], torus3())
    walked = []
    function = horo._walk_down

    def wrapper(lattice, cc, *args):
        walked.append(cc)
        return function(lattice, cc, *args)

    monkeypatch.setattr(horo, "_walk_down", wrapper)
    monkeypatch.setattr(horo, "coloured_faces", lambda *args: pytest.fail("a list of coloured faces was made"))
    fresh = ColouredFan(fan.lattice, fan.cones)
    assert validate_coloured_fan(fresh).valid
    assert walked == fresh.maximal() and len(walked) == 8


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


def test_coloured_fan_walks_each_input_cone_once(monkeypatch):
    """Counts, not timers: the fan keeps the face table of the closure's walk, so building and
    validating (P1)^3 from its 8 maximal cones walks 8 face lattices, not 16, and builds each of
    the 19 coloured faces that are no input cone once."""
    lattice = build_coloured_lattice(torus3())
    cones = rank3_cones(RANK3_BASES["P1^3"], lattice)
    walked, built = [], []
    function = horo._walk_down
    original = horo.ColouredCone.__init__

    def wrapper(lattice, cc, *args):
        walked.append(cc)
        return function(lattice, cc, *args)

    def counted(self, *args):
        original(self, *args)
        built.append(self)

    monkeypatch.setattr(horo, "_walk_down", wrapper)
    monkeypatch.setattr(horo.ColouredCone, "__init__", counted)
    fan = coloured_fan(lattice, cones)
    assert validate_coloured_fan(fan).valid
    monkeypatch.undo()
    tops = sorted(cones, key=coloured_cone_key)
    assert walked == cones and tops == fan.maximal() and len(walked) == 8
    assert len(fan.cones) == 27 and len(built) == 19 and set(built) == set(fan.cones) - set(cones)


def test_validating_a_fan_built_without_coloured_fan_runs_no_double_description(monkeypatch):
    """Counts, not timers: the colour points of a coloured, stellar-subdivided P2 x P1 built as
    `ColouredFan(lattice, close_under_coloured_faces(...))` are read off its face table, so
    closing and validating it runs no double description on a face cone."""
    lattice = build_coloured_lattice(a1_cubed())
    cones = rank3_cones(stellar_subdivision(RANK3_BASES["P2xP1"], 5, (1, 2, 2)), lattice, (0, 1))
    passes = []
    function = polyhedra._dual_description

    def counted(*args):
        passes.append(args)
        return function(*args)

    monkeypatch.setattr(polyhedra, "_dual_description", counted)
    fan = ColouredFan(lattice, close_under_coloured_faces(lattice, cones))
    assert validate_coloured_fan(fan) == ValidationReport(True, ())
    assert passes == []
    coloured = [cc for cc in fan.cones if cc.colours]
    assert len(coloured) >= 8 and any(cc.dim() < 3 for cc in coloured)


def test_colour_points_are_tested_by_contains_on_members_of_another_rank_or_unknown_colours():
    """The face table is read for colour points only when every member has the lattice's rank
    and known colours; otherwise validation reports, in the oracle's order, and does not raise."""
    fan = rank3_fan(RANK3_BASES["P1^3"], a1_cubed(), (0, 1))
    ray = ColouredCone(Cone.from_generators(3, [(1, 0, 0)]), frozenset({0, 7}))
    outside = ColouredCone(Cone.from_generators(3, [(0, 1, 0)]), frozenset({0}))
    wide = ColouredCone(Cone.from_generators(4, [(1, 0, 0, 0)]), frozenset())
    for extra in [(ray,), (outside, wide), (ray, outside)]:
        broken = ColouredFan(fan.lattice, fan.cones + extra)
        report = validate_coloured_fan(broken)
        assert not report.valid and report == all_pairs_validation(broken)
        assert any("outside the cone" in v for v in report.violations) == (outside in extra)


def test_coloured_faces_read_the_colour_points_of_the_given_lattice():
    """One cone, two lattices: each call reads the colour points of its own lattice, as a fresh
    cone's call does and as the `contains` rule has it, and a colour the lattice lacks is a KeyError."""
    cc = ColouredCone(Cone.from_generators(2, [(1, 0), (0, 1)]), frozenset({0, 1}))
    on_rays = ColouredLattice(2, (Colour(0, "a1", (1, 0)), Colour(1, "a2", (0, 1))), 2, 1)
    inside = ColouredLattice(2, (Colour(0, "a1", (1, 1)), Colour(1, "a2", (0, 1))), 2, 1)
    first = coloured_faces(on_rays, cc)
    first.clear()
    again = coloured_faces(on_rays, cc)
    moved = coloured_faces(inside, cc)
    assert len(again) == 4 and moved != again
    for lattice, listed in ((on_rays, again), (inside, moved)):
        assert listed == coloured_faces(lattice, ColouredCone(cc.cone, cc.colours))
        assert listed == contains_rule_coloured_faces(lattice, cc)
    with pytest.raises(KeyError):
        coloured_faces(ColouredLattice(2, on_rays.colours[1:], 2, 1), cc)


def test_face_table_read_off_the_closure_matches_one_coloured_faces_pass_per_member():
    """A fan made from a face closure reads the lists the closure left on its input cones.
    Stars, missing faces and face lists equal the per-member oracle's, on the table fans
    rebuilt from their maximal members, and on those inputs with a colour flipped in place
    or added as a twin cone, which the closure keeps verbatim."""
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
            members = close_under_coloured_faces(lattice, cones)
            built = ColouredFan(lattice, members)
            star, gaps, faces_of = face_table(built)
            expected = per_member_face_table(built)
            assert list(star.items()) == list(expected[0].items())
            assert gaps == expected[1]
            assert faces_of == expected[2]
            invalid += not validate_coloured_fan(built).valid
    assert invalid >= 10


def test_meet_rule_matches_intersect_and_the_face_lists(monkeypatch):
    """`_meet_in_coloured_face` gives the answer of `intersect` and the two lists of coloured faces
    on every pair of members, all pointed, of valid, broken and seeded rank-3 fans, and each step of the
    rule decides enough pairs to be tested: the face lists reject, a normal sum accepts with no
    double-description pass, and one pass answers true or false."""
    fans = valid_fans() + broken_fans() + [fan for fan, _ in random_rank3_coloured_fans(random.Random(13), 8)]
    passes = []
    function = horo._dual_description

    def counted(*args):
        passes.append(args)
        return function(*args)

    monkeypatch.setattr(horo, "_dual_description", counted)
    steps = Counter()
    for fan in fans:
        faces_of = fan._faces_of()
        for a, b in itertools.combinations(fan.cones, 2):
            colours = a.colours & b.colours
            meet = ColouredCone(intersect(a.cone, b.cone), colours)
            expected = meet in faces_of[a] and meet in faces_of[b]
            shared = tuple(sorted(set(a.cone.generators) & set(b.cone.generators)))
            listed = ColouredCone(Cone(a.cone.ambient_rank, shared), colours)
            before = len(passes)
            answer = horo._meet_in_coloured_face(faces_of, a, b)
            assert answer == expected and len(passes) - before <= 1
            if listed not in faces_of[a] or listed not in faces_of[b]:
                assert not answer and len(passes) == before
                steps["face lists reject"] += 1
            elif len(passes) == before:
                assert answer
                steps["normal sum accepts"] += 1
            else:
                steps[f"pass answers {answer}"] += 1
    assert steps["face lists reject"] >= 50 and steps["normal sum accepts"] >= 5000
    assert steps["pass answers True"] >= 1000 and steps["pass answers False"] >= 20


@st.composite
def pooled_cone_pairs(draw):
    """Two pointed cones of one rank 2-4 on generators from one pool of at most six small vectors,
    so that they often share generators and overlap."""
    n = draw(st.integers(2, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n).filter(any), min_size=n, max_size=6, unique=True))
    pair = []
    for _ in range(2):
        cone = Cone.from_generators(n, draw(st.lists(st.sampled_from(pool), min_size=2, max_size=n + 2)))
        assume(cone.is_strongly_convex())
        pair.append(cone)
    return pair


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(pooled_cone_pairs())
def test_meet_rule_matches_intersect_on_pooled_pairs(pair):
    """Uncoloured pairs get the answer of `intersect` and `polyhedra.faces`, whichever step decides."""
    a, b = (ColouredCone(cone, frozenset()) for cone in pair)
    faces_of = {cc: frozenset(ColouredCone(f, frozenset()) for f in faces(cc.cone)) for cc in (a, b)}
    meet = intersect(a.cone, b.cone)
    assert horo._meet_in_coloured_face(faces_of, a, b) == all(meet in faces(cone) for cone in pair)


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
            assert (tau in coloured_faces(lattice, cc)) == contains_rule_is_coloured_face(lattice, tau, cc)


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
