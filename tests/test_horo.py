"""Coloured lattices, cones, fans: construction, validation, quotients, maps."""

import random

import pytest

from horofan import horo, intlin
from horofan.horo import (
    Colour,
    ColouredCone,
    ColouredFan,
    ColouredLattice,
    ColourPointMismatchError,
    GroupMismatchError,
    HorosphericalDatum,
    InvalidDatumError,
    NotASubdatumError,
    NotSaturatedError,
    ColourOutsideSublatticeError,
    build_coloured_lattice,
    close_under_coloured_faces,
    coloured_faces,
    coloured_fan,
    coloured_lattice_map,
    homogeneous_spaces_isomorphic,
    product_coloured_fan,
    quotient_by_cone,
    quotient_coloured_lattice,
    trivial_coloured_cone,
    uncoloured_rays,
    validate_coloured_fan,
)
from horofan.intlin import IntMatrix, lattice_coordinates, saturate
from horofan.polyhedra import Cone, NotPointedError
from horofan.rootsys import RootDatum

from .factories import random_valid_fan
from .oracles import (
    containment_maximal,
    inverse_cartan_pairing_oracle,
    ray_contains_uncoloured_rays,
    sl_colour_point_oracle,
)


def sl_datum(n, columns=None, parabolic=frozenset()):
    group = RootDatum.parse(f"A{n - 1}")
    m = IntMatrix.identity(n - 1) if columns is None else IntMatrix.from_columns(columns, rows=n - 1)
    return HorosphericalDatum(group, frozenset(parabolic), m)


def sl2_u2_lattice():
    return build_coloured_lattice(sl_datum(2))


def cc(rank, gens, colours=()):
    return ColouredCone(Cone.from_generators(rank, gens), frozenset(colours))


class TestBuildColouredLattice:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sl_n_full_weight_lattice_gives_standard_basis(self, n):
        lattice = build_coloured_lattice(sl_datum(n))
        assert lattice.rank == n - 1
        for i, colour in enumerate(lattice.colours):
            expected = tuple(1 if j == i else 0 for j in range(n - 1))
            assert colour.point == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_epsilon_model_oracle(self, n):
        rng = random.Random(100 + n)
        for _ in range(10):
            cols = []
            m = None
            while m is None:
                cols = [tuple(rng.randint(-3, 3) for _ in range(n - 1)) for _ in range(rng.randint(1, n - 1))]
                try:
                    m = sl_datum(n, cols)
                except InvalidDatumError:
                    m = None
            lattice = build_coloured_lattice(m)
            for i, colour in enumerate(lattice.colours):
                expected = tuple(sl_colour_point_oracle(n, col)[i] for col in cols)
                assert colour.point == expected

    def test_sl2_index_two_sublattice(self):
        lattice = build_coloured_lattice(sl_datum(2, [(2,)]))
        assert lattice.colours == (Colour(0, "a1", (2,)),)

    def test_sl3_diagonal_sublattice_has_coincident_points(self):
        lattice = build_coloured_lattice(sl_datum(3, [(1, 1)]))
        assert [c.point for c in lattice.colours] == [(1,), (1,)]

    def test_matches_inverse_cartan_oracle_other_types(self):
        rng = random.Random(7)
        for descriptor in ["B3", "C3", "D4", "G2", "F4"]:
            group = RootDatum.parse(descriptor)
            n = group.simple_count
            cols = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
            try:
                datum = HorosphericalDatum(group, frozenset(), IntMatrix.from_columns(cols, rows=n))
            except InvalidDatumError:
                continue
            lattice = build_coloured_lattice(datum)
            for colour in lattice.colours:
                expected = tuple(inverse_cartan_pairing_oracle(group, col, colour.root) for col in cols)
                assert colour.point == expected

    def test_rejects_character_pairing_nonzero_on_parabolic(self):
        with pytest.raises(InvalidDatumError):
            sl_datum(3, [(1, 0)], parabolic={0})

    def test_accepts_character_vanishing_on_parabolic(self):
        datum = sl_datum(3, [(0, 1)], parabolic={0})
        lattice = build_coloured_lattice(datum)
        assert [c.root for c in lattice.colours] == [1]
        assert lattice.point(1) == (1,)

    def test_rejects_dependent_columns(self):
        with pytest.raises(InvalidDatumError):
            sl_datum(3, [(1, 0), (2, 0)])

    def test_flag_variety_rank_zero(self):
        datum = sl_datum(2, [], parabolic={0})
        lattice = build_coloured_lattice(datum)
        assert lattice.rank == 0
        assert lattice.colours == ()


class TestColouredFaces:
    def test_quadrant_with_one_colour(self):
        lattice = build_coloured_lattice(sl_datum(3))
        sigma = cc(2, [(1, 0), (0, 1)], {0})
        fs = coloured_faces(lattice, sigma)
        expected = {
            cc(2, [(1, 0), (0, 1)], {0}),
            cc(2, [(1, 0)], {0}),
            cc(2, [(0, 1)]),
            cc(2, []),
        }
        assert set(fs) == expected

    def test_trivial_cone_faces_itself(self):
        lattice = sl2_u2_lattice()
        assert coloured_faces(lattice, trivial_coloured_cone(lattice)) == [
            trivial_coloured_cone(lattice)
        ]

    def test_non_primitive_colour_point(self):
        lattice = build_coloured_lattice(sl_datum(2, [(2,)]))
        sigma = cc(1, [(1,)], {0})
        assert set(coloured_faces(lattice, sigma)) == {sigma, cc(1, [])}


def sl2_u2_fans():
    """The five nontrivial coloured fans on N(SL2/U2)."""
    lattice = sl2_u2_lattice()
    plus, minus = [(1,)], [(-1,)]
    shapes = [
        [cc(1, plus, {0})],
        [cc(1, plus)],
        [cc(1, minus)],
        [cc(1, plus, {0}), cc(1, minus)],
        [cc(1, plus), cc(1, minus)],
    ]
    return lattice, [ColouredFan(lattice, close_under_coloured_faces(lattice, s)) for s in shapes]


class TestValidateColouredFan:
    def test_five_sl2_fans_all_valid(self):
        _, fans = sl2_u2_fans()
        assert len(fans) == 5
        for fan in fans:
            report = validate_coloured_fan(fan)
            assert report.valid, report.violations

    def test_colour_point_outside_cone(self):
        lattice = sl2_u2_lattice()
        fan = ColouredFan(lattice, (trivial_coloured_cone(lattice), cc(1, [(-1,)], {0})))
        report = validate_coloured_fan(fan)
        assert not report.valid
        assert any("outside the cone" in v for v in report.violations)

    def test_missing_coloured_face_is_named(self):
        lattice = build_coloured_lattice(sl_datum(3))
        cones = (
            trivial_coloured_cone(lattice),
            cc(2, [(1, 0)]),  # wrong colour set: the face of sigma must carry a1
            cc(2, [(0, 1)]),
            cc(2, [(1, 0), (0, 1)], {0}),
        )
        report = validate_coloured_fan(ColouredFan(lattice, cones))
        assert not report.valid
        assert any("missing" in v and "a1" in v for v in report.violations)

    def test_zero_colour_point_rejected_in_cone(self):
        datum = sl_datum(3, [(0, 1)], parabolic=set())
        lattice = build_coloured_lattice(datum)
        assert lattice.point(0) == (0,)
        fan = ColouredFan(
            lattice, (trivial_coloured_cone(lattice), cc(1, [(1,)], {0}))
        )
        report = validate_coloured_fan(fan)
        assert not report.valid
        assert any("zero colour point" in v for v in report.violations)

    def test_duplicate_underlying_cone_rejected(self):
        lattice = build_coloured_lattice(sl_datum(3, [(1, 1)]))
        # both colours share the point e1, so two distinct coloured cones can
        # sit on the same ray only by breaking the face axioms
        cones = close_under_coloured_faces(lattice, [cc(1, [(1,)], {0})]) + (
            cc(1, [(1,)], {1}),
        )
        report = validate_coloured_fan(ColouredFan(lattice, cones))
        assert not report.valid

    def test_empty_fan_invalid(self):
        lattice = sl2_u2_lattice()
        report = validate_coloured_fan(ColouredFan(lattice, ()))
        assert not report.valid

    def test_fan_helper_raises_on_invalid(self):
        lattice = sl2_u2_lattice()
        with pytest.raises(ValueError):
            coloured_fan(lattice, [cc(1, [(-1,)], {0})])


class TestQuotient:
    def test_kill_e2_keeps_both_colours(self):
        datum = sl_datum(3)
        res = quotient_coloured_lattice(datum, IntMatrix.from_columns([(0, 1)], rows=2), set())
        assert res.lattice.rank == 1
        assert res.lattice.point(0) == (1,)
        assert res.lattice.point(1) == (0,)
        assert res.datum.parabolic == frozenset()
        # M' is the omega_1 axis: the characters orthogonal to e2
        assert res.datum.characters.columns() == [(1, 0)]

    def test_total_quotient(self):
        datum = sl_datum(3)
        res = quotient_coloured_lattice(datum, IntMatrix.identity(2), {0, 1})
        assert res.lattice.rank == 0
        assert res.lattice.colours == ()
        assert res.datum.parabolic == frozenset({0, 1})

    def test_rank_0_quotient_removes_colours_of_zero_point(self):
        # every colour point of a rank-0 lattice is zero, so it lies in the zero sublattice
        datum = HorosphericalDatum(RootDatum.parse("A1"), frozenset(), IntMatrix(1, 0, ()))
        res = quotient_coloured_lattice(datum, IntMatrix(0, 0, ()), {0})
        assert res.lattice.rank == 0 and res.lattice.colours == ()
        assert res.datum == HorosphericalDatum(datum.group, frozenset({0}), IntMatrix(1, 0, ()))

    def test_kill_e1_with_its_colour(self):
        datum = sl_datum(3)
        res = quotient_coloured_lattice(datum, IntMatrix.from_columns([(1, 0)], rows=2), {0})
        assert res.lattice.rank == 1
        assert [c.root for c in res.lattice.colours] == [1]
        assert res.lattice.point(1) == (1,)
        assert res.datum.parabolic == frozenset({0})

    def test_round_trip_with_build(self):
        rng = random.Random(17)
        datum = sl_datum(4)
        for _ in range(20):
            v = tuple(rng.randint(-2, 2) for _ in range(3))
            if not any(v):
                continue
            basis = saturate(IntMatrix.from_columns([v], rows=3))
            res = quotient_coloured_lattice(datum, basis, set())
            assert build_coloured_lattice(res.datum) == res.lattice

    def test_not_saturated_rejected(self):
        datum = sl_datum(3)
        with pytest.raises(NotSaturatedError):
            quotient_coloured_lattice(datum, IntMatrix.from_columns([(2, 0)], rows=2), set())

    def test_colour_outside_sublattice_rejected(self):
        datum = sl_datum(3)
        with pytest.raises(ColourOutsideSublatticeError):
            quotient_coloured_lattice(datum, IntMatrix.from_columns([(0, 1)], rows=2), {0})

    def test_colour_membership_reads_the_projection(self, monkeypatch):
        # N' is saturated, so the projection decides membership with no Smith form
        calls = []

        def counted(vectors, basis):
            calls.append(basis)
            return lattice_coordinates(vectors, basis)

        monkeypatch.setattr(horo, "lattice_coordinates", counted)
        monkeypatch.setattr(intlin, "lattice_coordinates", counted)
        datum = sl_datum(3)
        res = quotient_coloured_lattice(datum, IntMatrix.from_columns([(1, 0)], rows=2), {0})
        assert [c.root for c in res.lattice.colours] == [1]
        with pytest.raises(ColourOutsideSublatticeError):
            quotient_coloured_lattice(datum, IntMatrix.from_columns([(0, 1)], rows=2), {0})
        assert calls == []

    def test_quotient_by_cone_is_the_quotient_by_the_saturated_span(self):
        rng = random.Random(23)
        for _ in range(15):
            fan, datum = random_valid_fan(rng)
            for member in fan.cones:
                sub = saturate(IntMatrix.from_columns(list(member.cone.generators), rows=fan.lattice.rank))
                assert quotient_by_cone(datum, member) == quotient_coloured_lattice(datum, sub, member.colours)


class TestColouredLatticeMap:
    def test_identity(self):
        datum = sl_datum(3)
        phi = coloured_lattice_map(datum, datum)
        assert phi.matrix == IntMatrix.identity(2)
        assert phi.dominantly_mapped == frozenset()

    def test_sl2_full_to_index_two(self):
        phi = coloured_lattice_map(sl_datum(2), sl_datum(2, [(2,)]))
        assert phi.matrix == IntMatrix.from_rows([[2]])
        assert phi.dominantly_mapped == frozenset()
        assert phi.apply((1,)) == (2,)

    def test_sl2_to_flag_variety(self):
        target = sl_datum(2, [], parabolic={0})
        phi = coloured_lattice_map(sl_datum(2), target)
        assert phi.matrix.rows == 0 and phi.matrix.cols == 1
        assert phi.dominantly_mapped == frozenset({0})
        assert phi.apply((5,)) == ()

    def test_rejects_non_subgroup(self):
        with pytest.raises(NotASubdatumError):
            coloured_lattice_map(sl_datum(2, [(2,)]), sl_datum(2))

    def test_rejects_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            coloured_lattice_map(sl_datum(2), sl_datum(3))

    def test_rejects_parabolic_shrink(self):
        source = sl_datum(3, [(0, 1)], parabolic={0})
        target = sl_datum(3, [(0, 1)])
        with pytest.raises(NotASubdatumError):
            coloured_lattice_map(source, target)

    def test_wrong_colour_image_raises_named_error(self, monkeypatch):
        # a map that doubles every coefficient sends colour points to twice themselves
        def doubled(vectors, basis):
            return [tuple(2 * x for x in c) for c in lattice_coordinates(vectors, basis)]

        monkeypatch.setattr(horo, "lattice_coordinates", doubled)
        with pytest.raises(ColourPointMismatchError):
            coloured_lattice_map(sl_datum(3), sl_datum(3))


class TestUniqueness:
    def test_reflexive(self):
        datum = sl_datum(3)
        assert homogeneous_spaces_isomorphic(datum, datum)

    def test_sl2_lattice_index_detected(self):
        assert not homogeneous_spaces_isomorphic(sl_datum(2), sl_datum(2, [(2,)]))

    def test_sl3_swapped_basis_isomorphic(self):
        swapped = sl_datum(3, [(0, 1), (1, 0)])
        lattice = build_coloured_lattice(swapped)
        assert lattice.point(0) == (0, 1) and lattice.point(1) == (1, 0)
        assert homogeneous_spaces_isomorphic(sl_datum(3), swapped)

    def test_sl3_axis_sublattices_not_isomorphic(self):
        a = sl_datum(3, [(1, 0)])
        b = sl_datum(3, [(0, 1)])
        assert not homogeneous_spaces_isomorphic(a, b)

    def test_group_mismatch_raises(self):
        with pytest.raises(GroupMismatchError):
            homogeneous_spaces_isomorphic(sl_datum(2), sl_datum(3))

    @pytest.mark.parametrize(
        "a, b, isomorphic",
        [
            ([(1, 0), (0, 1)], [(1, 0), (0, 2)], False),
            ([(1, 0)], [(1, 1)], False),
            ([(1, 0), (0, 1)], [(1, 1), (0, 1)], True),
        ],
    )
    def test_central_torus_characters_count(self, a, b, isomorphic):
        # GL_2-like group A1 x G_m: the colour point of a1 is the same on both sides
        group = RootDatum.parse("A1", central_torus_rank=1)
        da, db = (HorosphericalDatum(group, frozenset(), IntMatrix.from_columns(c, rows=2)) for c in (a, b))
        assert build_coloured_lattice(da).point(0) == build_coloured_lattice(db).point(0)
        assert homogeneous_spaces_isomorphic(da, db) is isomorphic
        assert homogeneous_spaces_isomorphic(db, da) is isomorphic

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(29)
        data = []
        while len(data) < 8:
            cols = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(rng.randint(1, 2))]
            try:
                data.append(sl_datum(3, cols))
            except InvalidDatumError:
                continue
        for a in data:
            assert homogeneous_spaces_isomorphic(a, a)
            for b in data:
                ab = homogeneous_spaces_isomorphic(a, b)
                assert ab == homogeneous_spaces_isomorphic(b, a)
                for c in data:
                    if ab and homogeneous_spaces_isomorphic(b, c):
                        assert homogeneous_spaces_isomorphic(a, c)


def a2_fan():
    lattice = sl2_u2_lattice()
    return ColouredFan(lattice, close_under_coloured_faces(lattice, [cc(1, [(1,)], {0})]))


def trivial_rank_zero_fan():
    group = RootDatum.parse("", central_torus_rank=0)
    datum = HorosphericalDatum(group, frozenset(), IntMatrix.zero(0, 0))
    lattice = build_coloured_lattice(datum)
    return ColouredFan(lattice, (trivial_coloured_cone(lattice),))


def product_factors() -> list[tuple[ColouredFan, ColouredFan]]:
    """The factor pairs of `TestProduct`: the affine plane's fan with the rank-0 fan, itself and each `sl2_u2_fans`."""
    fan = a2_fan()
    return [(fan, trivial_rank_zero_fan()), (fan, fan)] + [(fan, other) for other in sl2_u2_fans()[1]]


class TestProduct:
    def test_unit_law(self):
        fan = a2_fan()
        prod = product_coloured_fan(fan, trivial_rank_zero_fan())
        assert prod.lattice == fan.lattice
        assert set(prod.cones) == set(fan.cones)

    def test_two_affine_planes(self):
        fan = a2_fan()
        prod = product_coloured_fan(fan, fan)
        assert prod.lattice.rank == 2
        assert [c.label for c in prod.lattice.colours] == ["1.a1", "2.a1"]
        assert [c.point for c in prod.lattice.colours] == [(1, 0), (0, 1)]
        maximal = prod.maximal()
        assert len(maximal) == 1
        assert maximal[0] == cc(2, [(1, 0), (0, 1)], {0, 1})
        assert validate_coloured_fan(prod).valid

    def test_cone_counts_multiply(self):
        fan = a2_fan()
        _, fans = sl2_u2_fans()
        for other in fans:
            prod = product_coloured_fan(fan, other)
            assert len(prod.cones) == len(fan.cones) * len(other.cones)
            assert validate_coloured_fan(prod).valid


def test_uncoloured_rays_of_a_cone_with_lineality_raise():
    lattice = build_coloured_lattice(sl_datum(3))
    half_plane = ColouredCone(Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)]), frozenset())
    with pytest.raises(NotPointedError):
        uncoloured_rays(lattice, half_plane)


def test_uncoloured_rays_match_ray_contains():
    """On random valid fans, with a zero colour point and a negative multiple of
    a ray generator added to each member's colours."""
    rng = random.Random(3)
    checked = 0
    for _ in range(40):
        fan, _ = random_valid_fan(rng)
        n = fan.lattice.rank
        for cc in fan.cones:
            extra = [(0,) * n] + [tuple(-2 * x for x in g) for g in cc.cone.generators[:1]]
            added = tuple(Colour(100 + k, f"x{k}", p) for k, p in enumerate(extra))
            lattice = ColouredLattice(n, fan.lattice.colours + added, 100 + len(added), 1)
            for colours in (cc.colours, cc.colours | {c.root for c in added}):
                probe = ColouredCone(cc.cone, frozenset(colours))
                assert uncoloured_rays(lattice, probe) == ray_contains_uncoloured_rays(lattice, probe)
                checked += bool(probe.colours)
    assert checked > 40


def test_maximal_is_computed_once_outside_equality(monkeypatch):
    """`maximal()` keeps the members no other member dominates; later calls
    reuse the first answer, each in a list of its own, and the cached value
    changes neither == nor hash."""
    rng = random.Random(11)
    for _ in range(10):
        fan, _ = random_valid_fan(rng)
        fan = ColouredFan(fan.lattice, fan.cones)
        expected = containment_maximal(fan)
        fresh = ColouredFan(fan.lattice, fan.cones)
        first = fan.maximal()
        assert first == expected
        first.clear()
        with monkeypatch.context() as m:
            m.setattr(horo, "coloured_faces", lambda *args: pytest.fail("coloured-face table recomputed"))
            m.setattr(Cone, "contains_cone", lambda self, other: pytest.fail("maximal cones recomputed"))
            assert fan.maximal() == expected
        assert fan == fresh and hash(fan) == hash(fresh)
