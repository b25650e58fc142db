"""Anchor-pair validation and face incidences against the all-pairs routes."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from horofan import horo
from horofan.horo import (
    Colour,
    ColouredCone,
    ColouredFan,
    ColouredLattice,
    HorosphericalDatum,
    close_under_coloured_faces,
    coloured_faces,
    is_coloured_face,
    validate_coloured_fan,
)
from horofan.intlin import IntMatrix
from horofan.polyhedra import Cone
from horofan.rootsys import RootDatum

from .factories import (
    RANK3_BASES,
    prism_maximal,
    random_valid_fan,
    rank3_fan,
    stellar_subdivision,
    torus3,
)
from .oracles import all_pairs_validation, contains_rule_coloured_faces, contains_rule_is_coloured_face


def a1_cubed() -> HorosphericalDatum:
    return HorosphericalDatum(RootDatum.parse("A1xA1xA1"), frozenset(), IntMatrix.identity(3))


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


def test_anchor_validation_matches_all_pairs_oracle():
    rng = random.Random(11)
    fans = valid_fans()
    broken = [b for fan in fans for b in broken_variants(fan, rng)]
    invalid = 0
    for fan in fans + broken:
        report = validate_coloured_fan(fan)
        assert report == all_pairs_validation(fan)
        invalid += not report.valid
    assert all(validate_coloured_fan(fan).valid for fan in fans)
    # most variants must break the fan, or the comparison tests little
    assert invalid > len(broken) // 2


def test_pair_count_is_one_per_pair_of_maximal_cones(monkeypatch):
    fan = rank3_fan(RANK3_BASES["P1^3"], torus3())
    calls = []
    real = horo.intersect

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(horo, "intersect", counting)
    assert validate_coloured_fan(fan).valid
    # 27 members, 8 maximal: C(8, 2) intersections, not C(27, 2)
    assert len(fan.cones) == 27
    assert len(calls) == 28


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
