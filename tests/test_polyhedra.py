"""Cone and fan geometry, checked against brute-force oracles."""

import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horofan import horo, intlin, polyhedra
from horofan.intlin import IntMatrix, invariant_factors
from horofan.polyhedra import (
    Cone,
    NotPointedError,
    covered_by,
    dot,
    dual_cone,
    dual_generators,
    faces,
    facet_owners,
    fan_is_complete,
    hilbert_basis,
    intersect,
    is_face_of,
    primitive,
)

from .factories import RANK3_BASES, random_rank2_fan, random_rank3_fan, rank3_cones, torus3
from .oracles import brute_force_hilbert, dual_of_dual_generators, subset_scan_dual_generators


def cone2(*gens):
    return Cone.from_generators(2, gens)


E1, E2 = (1, 0), (0, 1)


class TestDualCone:
    def test_first_quadrant_self_dual(self):
        q = cone2(E1, E2)
        assert dual_cone(q) == q

    def test_single_ray_gives_half_plane(self):
        d = dual_cone(cone2(E1))
        # both inclusions on generators
        for g in d.generators:
            assert g[0] >= 0
        assert set(d.generators) >= {(0, 1), (0, -1)}
        assert d.contains(E1) and d.contains((5, -3)) and not d.contains((-1, 0))

    def test_dual_of_zero_cone_is_everything(self):
        d = dual_cone(Cone.zero(2))
        assert d.contains((3, -7)) and d.contains((-2, 5))
        assert set(d.generators) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_involution_on_random_cones(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 4))]
            c = Cone.from_generators(n, gens)
            assert dual_cone(dual_cone(c)) == c


class TestFaces:
    def test_quadrant_has_four_faces(self):
        fs = faces(cone2(E1, E2))
        assert len(fs) == 4
        assert Cone.zero(2) in fs
        assert cone2(E1) in fs and cone2(E2) in fs
        assert cone2(E1, E2) in fs

    def test_ray_faces(self):
        assert faces(cone2(E1)) == [Cone.zero(2), cone2(E1)]

    def test_tilted_cone_proper_faces_are_rays(self):
        c = cone2((1, 1), (1, -1))
        proper = [f for f in faces(c) if f not in (c, Cone.zero(2))]
        assert sorted(proper, key=lambda f: f.generators) == [cone2((1, -1)), cone2((1, 1))]
        assert set(c.facet_normals()) == {(1, 1), (1, -1)}

    def test_simplicial_cone_face_count_is_2_to_d(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 4)
            d = rng.randint(0, n)
            basis = []
            while len(basis) < d:
                v = tuple(rng.randint(-2, 2) for _ in range(n))
                trial = basis + [v]
                c = Cone.from_generators(n, trial)
                if c.dim() == len(trial) and c.is_strongly_convex():
                    basis = trial
            assert len(faces(Cone.from_generators(n, basis))) == 2 ** d


class TestIntersectAndFaceOf:
    def test_shared_ray_of_class_group_fan(self):
        a = cone2((1, 1), (1, -1))
        b = cone2((-1, 0), (1, 1))
        assert intersect(a, b) == cone2((1, 1))

    def test_self_intersection(self):
        c = cone2((1, 1), (1, -1))
        assert intersect(c, c) == c
        assert is_face_of(c, c)

    def test_ray_is_face_of_quadrant(self):
        assert is_face_of(cone2(E1), cone2(E1, E2))

    def test_interior_ray_is_not_a_face(self):
        assert not is_face_of(cone2((1, 1)), cone2(E1, E2))
        assert not is_face_of(cone2((1, 1)), cone2((1, 2), (2, 1)))

    def test_faces_are_exactly_is_face_of(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            c = Cone.from_generators(n, gens)
            fs = faces(c)
            for f in fs:
                assert is_face_of(f, c)
            ray = Cone.from_generators(n, [tuple(rng.randint(-2, 2) for _ in range(n))])
            if ray not in fs:
                assert not is_face_of(ray, c)

    @pytest.mark.parametrize("point", [(1,), (1, 0, 0), (0, 0, 0), ()])
    def test_point_of_another_length_is_an_error(self, point):
        """A point is read on every coordinate or not at all: (1, 0, 0) is not (1, 0) in a rank-2 cone."""
        for c in (cone2(E1, E2), cone2((1, 1)), Cone.zero(2), Cone.from_generators(2, [E1, (-1, 0)])):
            with pytest.raises(ValueError, match="ambient rank 2"):
                c.contains(point)
            with pytest.raises(ValueError, match="ambient rank 2"):
                c.smallest_face(point)


class TestHilbertBasis:
    def test_quadrant(self):
        assert hilbert_basis(cone2(E1, E2)) == [(0, 1), (1, 0)]

    def test_quadric_cone(self):
        assert hilbert_basis(cone2((1, 0), (1, 2))) == [(1, 0), (1, 1), (1, 2)]

    def test_rank_one(self):
        assert hilbert_basis(Cone.from_generators(1, [(1,)])) == [(1,)]

    def test_not_pointed_raises(self):
        with pytest.raises(NotPointedError):
            hilbert_basis(cone2(E1, (-1, 0)))

    def test_against_box_oracle(self):
        rng = random.Random(17)
        cones = []
        while len(cones) < 25:
            n = rng.randint(2, 3)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2)]
            c = Cone.from_generators(n, [g for g in gens if any(g)])
            if c.is_strongly_convex() and c.dim() >= min(2, len(set(c.generators))):
                cones.append(c)
        while len(cones) < 45:
            # full-dimensional rank-3 cones on 3-5 generators
            gens = [tuple(rng.randint(-1, 2) for _ in range(3)) for _ in range(rng.randint(3, 5))]
            c = Cone.from_generators(3, [g for g in gens if any(g)])
            if c.is_strongly_convex() and c.dim() == 3:
                cones.append(c)
        while len(cones) < 60:
            # 2-dimensional cones in Z^3 whose plane contains no coordinate axis,
            # spanned by combinations of u and w so that the index can exceed 1
            u, w = [tuple(rng.randint(-1, 2) for _ in range(3)) for _ in range(2)]
            normal = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
            p, q, r, s = (rng.randint(-2, 2) for _ in range(4))
            if all(normal) and p * s != q * r:
                gens = [tuple(p * x + q * y for x, y in zip(u, w)), tuple(r * x + s * y for x, y in zip(u, w))]
                cones.append(Cone.from_generators(3, gens))
        while len(cones) < 80:
            # 2- and 3-dimensional cones in Z^4 whose generators span a
            # sublattice of index > 1 in their saturated span
            d = len(cones) % 2 + 2
            base = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(d)]
            gens = [
                tuple(sum(c * b[i] for c, b in zip(cs, base)) for i in range(4))
                for cs in ([rng.randint(0, 3) for _ in range(d)] for _ in range(d + rng.randint(0, 1)))
            ]
            c = Cone.from_generators(4, gens)
            if (
                c.is_strongly_convex()
                and c.dim() == d
                and invariant_factors(IntMatrix.from_columns(c.generators, rows=4))[-1] > 1
            ):
                cones.append(c)
        for c in cones:
            assert sorted(hilbert_basis(c)) == sorted(brute_force_hilbert(c))

    def test_non_cyclic_group(self):
        gens = [(1, 1, 1), (1, -1, 1), (1, 1, -1)]
        assert invariant_factors(IntMatrix.from_columns(gens, rows=3)) == (1, 2, 2)
        assert hilbert_basis(Cone.from_generators(3, gens)) == [
            (1, -1, 1), (1, 0, 0), (1, 0, 1), (1, 1, -1), (1, 1, 0), (1, 1, 1)
        ]

    def test_unimodular_rank4_is_its_generators(self):
        a = 20
        gens = [(1, 0, 0, 0), (a, 1, 0, 0), (a, a, 1, 0), (a, a, a, 1)]
        assert hilbert_basis(Cone.from_generators(4, gens)) == gens

    @pytest.mark.parametrize(
        "n, gens",
        [
            (4, [(1, 0, 0, 1), (1, 2, 0, 1), (1, 0, 2, 1), (1, 2, 2, 1)]),
            (3, [(1, 0, 0), (1, 3, 0), (1, 0, 2), (1, 3, 2), (2, 1, 1)]),
            (4, [(2, 0, 1, 1), (0, 2, 1, -1)]),
        ],
    )
    def test_hilbert_basis_makes_one_smith_form_per_subset_and_no_span_split(self, monkeypatch, n, gens):
        cone = Cone.from_generators(n, gens)
        expected = brute_force_hilbert(cone)
        duals = count_calls(monkeypatch, polyhedra.dual_generators)
        saturations = count_calls(monkeypatch, intlin.saturate)
        coordinates = count_calls(monkeypatch, intlin.lattice_coordinates)
        smith = count_calls(monkeypatch, intlin.smith_normal_form)
        assert sorted(hilbert_basis(cone)) == sorted(expected)
        assert (duals[0], saturations[0], coordinates[0]) == (0, 0, 0)
        assert smith[0] == len(list(itertools.combinations(cone.generators, cone.dim())))


def test_hilbert_basis_elements_are_irreducible_and_generate():
    rng = random.Random(19)
    for _ in range(10):
        gens = [(rng.randint(1, 3), rng.randint(0, 3)), (rng.randint(0, 3), rng.randint(1, 3))]
        c = Cone.from_generators(2, gens)
        if not c.is_strongly_convex():
            continue
        hb = hilbert_basis(c)
        for h in hb:
            assert c.contains(h)
        # every lattice point of the cone in a test box decomposes over the basis
        for p in itertools.product(range(0, 5), repeat=2):
            if not any(p) or not c.contains(p):
                continue
            assert monoid_member(p, hb, c)


def monoid_member(p, basis, c):
    if not any(p):
        return True
    for b in basis:
        q = tuple(x - y for x, y in zip(p, b))
        if c.contains(q) and monoid_member(q, basis, c):
            return True
    return False


class TestStrongConvexityAndDim:
    def test_line_not_strongly_convex(self):
        line = cone2(E1, (-1, 0))
        assert not line.is_strongly_convex()
        assert not Cone.from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]).is_strongly_convex()

    def test_pointed(self):
        assert cone2(E1, E2).is_strongly_convex()
        assert Cone.zero(3).is_strongly_convex()

    def test_dims(self):
        assert Cone.zero(2).dim() == 0
        assert cone2(E1).dim() == 1
        assert cone2(E1, E2).dim() == 2
        assert cone2(E1, (-1, 0)).dim() == 1


def fan_of(rank, *cone_gen_lists):
    """The maximal cones of a fan, one per generator list."""
    return [Cone.from_generators(rank, gens) for gens in cone_gen_lists]


def support_contains(maximal, u):
    return any(c.contains(u) for c in maximal)


class TestCompleteness:
    def test_three_cones_tile_the_plane(self):
        fan = fan_of(2, [E1, E2], [E2, (-1, -1)], [E1, (-1, -1)])
        assert fan_is_complete(fan)

    def test_single_ray_fan_in_rank_one(self):
        assert not fan_is_complete(fan_of(1, [(1,)]))
        assert fan_is_complete(fan_of(1, [(1,)], [(-1,)]))

    def test_quadrant_fan_incomplete(self):
        assert not fan_is_complete(fan_of(2, [E1, E2]))

    def test_half_plane_union_incomplete(self):
        assert not fan_is_complete(fan_of(2, [E1, E2], [E1, (0, -1)]))

    def test_rank_zero_trivial_fan_complete(self):
        assert fan_is_complete([Cone.zero(0)])

    def test_agrees_with_rational_sampling(self):
        rng = random.Random(23)
        fans = [
            fan_of(2, [E1, E2], [E2, (-1, -1)], [E1, (-1, -1)]),
            fan_of(2, [E1, E2], [E2, (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), E1]),
            fan_of(2, [E1, E2], [E2, (-1, -1)]),
            fan_of(2, [(2, 1), (1, 2)]),
        ]
        for fan in fans:
            complete = fan_is_complete(fan)
            samples_in = all(
                support_contains(fan, (rng.randint(-20, 20), rng.randint(-20, 20)))
                for _ in range(200)
            )
            if complete:
                assert samples_in
            else:
                # incomplete desk-scale fans always miss some sampled direction
                missed = any(
                    not support_contains(fan, (rng.randint(-20, 20), rng.randint(-20, 20)))
                    for _ in range(400)
                )
                assert missed


OCTANTS = [
    [(sx, 0, 0), (0, sy, 0), (0, 0, sz)]
    for sx in (1, -1)
    for sy in (1, -1)
    for sz in (1, -1)
]


class TestRankThree:
    def test_octant_fan_complete(self):
        assert fan_is_complete(fan_of(3, *OCTANTS))

    def test_half_space_and_missing_octant_incomplete(self):
        assert not fan_is_complete(fan_of(3, *[o for o in OCTANTS if o[1] == (0, 1, 0)]))
        assert not fan_is_complete(fan_of(3, *OCTANTS[:7]))

    def test_space_covering(self):
        space = Cone.from_generators(
            3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )
        cones = [Cone.from_generators(3, g) for g in OCTANTS]
        assert covered_by(space, cones)
        assert not covered_by(space, cones[:7])

    def test_oblique_subdivision_cover(self):
        target = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        parts = [
            Cone.from_generators(3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)]),
            Cone.from_generators(3, [(1, 1, 0), (0, 1, 0), (0, 0, 1)]),
        ]
        assert covered_by(target, parts)
        assert not covered_by(target, parts[:1])


@pytest.mark.parametrize("rank,factory,seed", [(2, random_rank2_fan, 31), (3, random_rank3_fan, 37)])
def test_complete_iff_maximal_cones_cover_space(rank, factory, seed):
    """`fan_is_complete` (facet pairing) against `covered_by` of R^n by the maximal cones."""
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    space = Cone.from_generators(rank, units + [tuple(-x for x in e) for e in units])
    rng = random.Random(seed)
    seen = set()
    for _ in range(50):
        maximal = factory(rng)
        complete = fan_is_complete(fan_of(rank, *maximal))
        assert complete == covered_by(space, [Cone.from_generators(rank, g) for g in maximal]), maximal
        seen.add(complete)
    assert seen == {True, False}


class TestCoveredBy:
    def test_cone_covered_by_split(self):
        target = cone2(E1, E2)
        parts = [cone2(E1, (1, 1)), cone2((1, 1), E2)]
        assert covered_by(target, parts)

    def test_not_covered(self):
        target = cone2(E1, E2)
        assert not covered_by(target, [cone2(E1, (1, 1))])

    def test_full_plane_cover(self):
        plane = Cone.from_generators(2, [E1, (-1, 0), E2, (0, -1)])
        wedges = [cone2(E1, E2), cone2(E2, (-1, -1)), cone2(E1, (-1, -1))]
        assert covered_by(plane, wedges)
        assert not covered_by(plane, wedges[:2])

    def test_many_covers_need_no_deep_stack(self):
        """A half-plane against the 120 maximal cones of a complete rank-2 fan, with a stack only
        60 frames deeper than the test's: one frame per cover tried would exhaust it."""
        n = 120
        points = [(round(10**6 * math.cos(2 * math.pi * t / n)), round(10**6 * math.sin(2 * math.pi * t / n))) for t in range(n)]
        rays = [primitive(p) for p in points]
        cones = [cone2(rays[i], rays[(i + 1) % n]) for i in range(n)]
        half_plane = Cone.from_inequalities(2, [E1])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            outcomes = covered_by(half_plane, cones), covered_by(half_plane, cones[: n // 2])
        finally:
            sys.setrecursionlimit(limit)
        assert outcomes == (True, False)


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((0, -3)) == (0, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_dual_generators_rejects_vectors_of_the_wrong_length():
    # the matrix of (1, 2) with cols=3 used to be read as 1 x 2, an answer in Z^2
    with pytest.raises(ValueError):
        dual_generators([(1, 2)], 3)


def test_canonical_form_removes_redundant_generators():
    c = Cone.from_generators(2, [(1, 0), (1, 1), (0, 1), (2, 2)])
    assert c.generators == ((0, 1), (1, 0))
    assert c == cone2(E2, E1)


# Differential checks: cones keep the normals canonicalisation computed, faces
# are built from incidence subsets and face tests compare generators directly.
# `Cone.from_generators` and `dual_generators` on a cone's generators stay the
# reference for all three.

DIFFERENTIAL = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@st.composite
def small_generator_lists(draw):
    """Up to five small generators in Z^2-Z^4, half of the lists with a lineality line."""
    n = draw(st.integers(2, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    gens = draw(st.lists(vector, min_size=1, max_size=5))
    if draw(st.booleans()):
        line = draw(vector)
        gens += [line, tuple(-x for x in line)]
    return n, gens


def small_cones():
    """Rank 2-4 cones from up to five small generators, half with a lineality line."""
    return small_generator_lists().map(lambda data: Cone.from_generators(*data))


def is_face_of_reference(tau, sigma):
    """The face test that re-canonicalises the smallest face containing tau."""
    n = sigma.ambient_rank
    normals = dual_generators(sigma.generators, n)
    if tau.ambient_rank != n or any(dot(h, g) < 0 for h in normals for g in tau.generators):
        return False
    point = tau.relative_interior_point()
    active = [h for h in normals if dot(h, point) == 0]
    smallest = [g for g in sigma.generators if all(dot(h, g) == 0 for h in active)]
    return Cone.from_generators(n, smallest) == tau


@st.composite
def inequality_sets(draw):
    """Rank 1-4 inequality lists, some with +/- pairs (equalities) and zero rows."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    hs = draw(st.lists(vector, max_size=5))
    if hs and draw(st.booleans()):
        h = draw(st.sampled_from(hs))
        hs.append(tuple(-x for x in h))
    if draw(st.booleans()):
        hs.append((0,) * n)
    return n, hs


class TestDescriptionsAgainstCanonicalisation:
    @DIFFERENTIAL
    @given(inequality_sets())
    def test_from_inequalities_is_canonical(self, data):
        n, hs = data
        cone = Cone.from_inequalities(n, hs)
        assert cone.generators == Cone.from_generators(n, dual_generators(hs, n)).generators

    @DIFFERENTIAL
    @given(small_cones())
    def test_faces_are_canonical(self, sigma):
        n = sigma.ambient_rank
        for f in faces(sigma):
            assert f.generators == Cone.from_generators(n, f.generators).generators

    @DIFFERENTIAL
    @given(small_cones())
    def test_facet_normals_equal_dual_generators(self, sigma):
        n = sigma.ambient_rank
        for c in [sigma, dual_cone(sigma)] + faces(sigma):
            assert c.facet_normals() == tuple(dual_generators(c.generators, n))

    @DIFFERENTIAL
    @given(small_cones())
    def test_rays_and_facets_are_faces_of_their_dimension(self, sigma):
        by_dim = faces(sigma)
        facets = [f for f in by_dim if f.dim() == sigma.dim() - 1]
        assert [(f, [0]) for f in facets] == list(facet_owners([sigma]).items())
        if sigma.is_strongly_convex():
            assert sigma.rays() == [f for f in by_dim if f.dim() == 1]
        else:
            with pytest.raises(NotPointedError):
                sigma.rays()

    @DIFFERENTIAL
    @given(small_cones(), st.data())
    def test_is_face_of_matches_reference(self, sigma, data):
        n = sigma.ambient_rank
        size = len(sigma.generators)
        keep = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        other = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=3))
        candidates = faces(sigma) + [
            Cone.from_generators(n, [g for g, k in zip(sigma.generators, keep) if k]),
            intersect(sigma, Cone.from_generators(n, other)),
        ]
        for tau in candidates:
            assert is_face_of(tau, sigma) == is_face_of_reference(tau, sigma)


# The duality engine against the subset scan it replaced (`tests/oracles.py`).


@st.composite
def dual_engine_inputs(draw):
    """Vector lists in Z^1-Z^5 whose span has any dimension from 0 to n.

    The vectors combine r <= n drawn basis vectors, the last one with a
    nonnegative coefficient, so the cone lies in a half-space of its span and
    its dual is rarely zero; zero vectors occur.  A line (a vector and its
    negative, inside that half-space's boundary) gives the dual a smaller
    span, copies scaled by 1, 2 or -3 add repeated, parallel and opposite
    vectors, and +/- the unit vectors give the whole space.
    """
    n = draw(st.integers(1, 5))
    small = st.integers(-2, 2)
    r = draw(st.integers(0, n))
    basis = draw(st.lists(st.tuples(*[small] * n), min_size=r, max_size=r))

    def combine(cs):
        return tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n))

    half = st.tuples(*[small] * (r - 1), st.integers(0, 2)) if r else st.just(())
    vecs = [combine(cs) for cs in draw(st.lists(half, max_size=9))]
    if r and draw(st.booleans()):
        line = combine(draw(st.tuples(*[small] * (r - 1), st.just(0))))
        vecs += [line, tuple(-x for x in line)]
    if vecs:
        for v in draw(st.lists(st.sampled_from(vecs), max_size=3)):
            k = draw(st.sampled_from([1, 2, -3]))
            vecs.append(tuple(k * x for x in v))
    if draw(st.integers(0, 5)) == 0:
        vecs += [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    return n, draw(st.permutations(vecs))


def seeded_pointed_vectors(seed, count, n):
    """`count` random vectors of Z^n with last entry positive, so their cone is pointed."""
    rng = random.Random(seed)
    return [tuple(rng.randint(-9, 9) for _ in range(n - 1)) + (rng.randint(1, 9),) for _ in range(count)]


def count_calls(monkeypatch, fn):
    """Count calls of `fn` through every name `intlin`, `polyhedra` and `horo` bind it to."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for module in (intlin, polyhedra, horo):
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestDualEngine:
    @settings(max_examples=250, deadline=None, database=None, derandomize=True)
    @given(dual_engine_inputs())
    def test_matches_subset_scan(self, data):
        n, vecs = data
        assert dual_generators(vecs, n) == subset_scan_dual_generators(vecs, n)

    def test_large_pointed_cone_makes_no_smith_form_and_at_most_d_kernels(self, monkeypatch):
        n = 5
        vecs = seeded_pointed_vectors(40, 40, n)
        expected = subset_scan_dual_generators(vecs, n)
        smith = count_calls(monkeypatch, intlin.smith_normal_form)
        coordinates = count_calls(monkeypatch, intlin.lattice_coordinates)
        kernels = count_calls(monkeypatch, intlin.kernel_basis)
        echelons = count_calls(monkeypatch, intlin.echelon_triple)
        assert dual_generators(vecs, n) == expected
        assert (smith[0], coordinates[0]) == (0, 0)
        assert kernels[0] <= n
        # the span split plus one echelon per kernel, nothing per subset
        assert echelons[0] <= n + 1


# One double-description pass per cone: generators read off its incidences
# against the dual of the dual (`tests/oracles.py`), face dimensions read off
# the face lattice against ranks.

ONE_PASS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def generator_lists():
    """`small_generator_lists`, and the `dual_engine_inputs` lists in Z^1-Z^5 of spans of every dimension."""
    return st.one_of(small_generator_lists(), dual_engine_inputs())


class TestOnePassCanonicalisation:
    @ONE_PASS
    @given(generator_lists())
    def test_generators_equal_the_dual_of_the_dual(self, data):
        n, gens = data
        cone = Cone.from_generators(n, gens)
        assert cone.generators == dual_of_dual_generators(n, gens)
        assert cone.facet_normals() == tuple(dual_generators(gens, n))

    @ONE_PASS
    @given(generator_lists())
    def test_face_dimensions_are_ranks(self, data):
        n, gens = data
        sigma = Cone.from_generators(n, gens)
        assert sigma.dim() == intlin.rank(IntMatrix.from_rows(list(gens), cols=n))
        for f in faces(sigma):
            assert f.dim() == intlin.rank(IntMatrix.from_rows(list(f.generators), cols=n))

    def test_pointed_rank4_cone_takes_one_pass_and_no_kernel_or_rank(self, monkeypatch):
        gens = seeded_pointed_vectors(7, 12, 4)
        expected_generators = dual_of_dual_generators(4, gens)
        passes = count_calls(monkeypatch, polyhedra._dual_extreme_rays)
        # the one elimination core behind `kernel_basis` and the pass's echelon
        echelons = count_calls(monkeypatch, intlin.echelon_triple)
        kernels = count_calls(monkeypatch, intlin.kernel_basis)
        ranks = count_calls(monkeypatch, intlin.rank)
        sigma = Cone.from_generators(4, gens)
        assert sigma.generators == expected_generators
        assert (passes[0], echelons[0], kernels[0]) == (1, 1, 0)
        assert len(faces(sigma)) > 2 ** 4
        assert ranks[0] == 0


# One incidence table per cone: every face question reads `Cone.incidences`,
# and pointedness is read off the canonical generators, against zero sets and
# lineality kernels taken straight from the normals.


@st.composite
def described_cones(draw):
    """A cone in Z^1-Z^5, its dual and its faces.

    The cone comes from `from_generators` or `from_inequalities` on up to six
    small vectors, half of the lists with a vector and its negative: a
    lineality line of the first, an equality of the second.
    """
    n = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    vecs = draw(st.lists(vector, max_size=6))
    if draw(st.booleans()):
        line = draw(vector)
        vecs += [line, tuple(-x for x in line)]
    sigma = Cone.from_generators(n, vecs) if draw(st.booleans()) else Cone.from_inequalities(n, vecs)
    return [sigma, dual_cone(sigma)] + faces(sigma)


class TestIncidenceTable:
    @ONE_PASS
    @given(described_cones())
    def test_pointed_iff_the_normals_have_no_kernel(self, cones):
        for sigma in cones:
            normals = IntMatrix.from_rows(list(sigma.facet_normals()), cols=sigma.ambient_rank)
            assert sigma.is_strongly_convex() == (not intlin.kernel_basis(normals))

    @ONE_PASS
    @given(described_cones())
    def test_incidences_are_the_zero_sets_of_the_normals(self, cones):
        for sigma in cones:
            normals = dual_generators(sigma.generators, sigma.ambient_rank)
            assert sigma.incidences == tuple(
                (h, frozenset(g for g in sigma.generators if dot(h, g) == 0)) for h in normals
            )
            # the equalities, zero on every generator, are the +/- pairs
            full = frozenset(sigma.generators)
            pairs = {h for h in normals if tuple(-x for x in h) in normals}
            assert {h for h, z in sigma.incidences if z == full} == pairs

    def test_building_the_p1_cubed_fan_takes_no_kernel(self, monkeypatch):
        lattice = horo.build_coloured_lattice(torus3())
        cones = rank3_cones(RANK3_BASES["P1^3"], lattice)
        kernels = count_calls(monkeypatch, intlin.kernel_basis)
        fan = horo.coloured_fan(lattice, cones)
        assert len(fan.cones) == 27
        assert kernels[0] == 0
