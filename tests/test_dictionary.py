"""Orbits, classification, local structure, morphisms, weight monoids."""

import itertools
import random

import pytest

from horofan import dictionary, horo, intlin
from horofan.dictionary import (
    CancellationToken,
    ConeNotInFanError,
    LatticeMismatchError,
    NotStronglyConvexError,
    affine_local_structure,
    classify_variety,
    closure_contains,
    decolouration,
    morphism_check,
    open_toroidal_subfan,
    orbit_closure,
    orbit_table,
    regularity_report,
    weight_monoid_generators,
)
from horofan.divisors import anticanonical, positivity_check
from horofan.horo import (
    ColouredCone,
    ColouredFan,
    HorosphericalDatum,
    build_coloured_lattice,
    close_under_coloured_faces,
    coloured_fan,
    coloured_lattice_map,
    product_coloured_fan,
    trivial_coloured_cone,
    validate_coloured_fan,
)
from horofan.intlin import IntMatrix, invariant_factors, saturate
from horofan.polyhedra import Cone, covered_by
from horofan.rootsys import RootDatum

from .factories import (
    RANK3_BASES,
    p1_power,
    prism_maximal,
    random_valid_fan,
    rank3_fan,
    record_row_cones,
    torus,
    torus3,
    torus_fan,
)
from .oracles import all_members_compatible, containment_maximal, quotient_weight_monoid
from .test_rank4_products import FACTORS, LINE, rank4_datum


def sl3_u3():
    return HorosphericalDatum(RootDatum.parse("A2"), frozenset(), IntMatrix.identity(2))


def cc(rank, gens, colours=()):
    return ColouredCone(Cone.from_generators(rank, gens), frozenset(colours))


def projective_sl3_fan():
    """The complete SL3/U3 fan with maximal cones on e1,e2 / e2,-e1-e2 / e1,-e1-e2."""
    datum = sl3_u3()
    lattice = build_coloured_lattice(datum)
    fan = coloured_fan(
        lattice,
        [
            cc(2, [(1, 0), (0, 1)], {0}),
            cc(2, [(0, 1), (-1, -1)]),
            cc(2, [(1, 0), (-1, -1)], {0}),
        ],
    )
    return fan, datum


def sl2_u2_plane_fan():
    datum = HorosphericalDatum(RootDatum.parse("A1"), frozenset(), IntMatrix.identity(1))
    lattice = build_coloured_lattice(datum)
    fan = ColouredFan(lattice, close_under_coloured_faces(lattice, [cc(1, [(1,)], {0})]))
    return fan, datum


class TestOrbitTable:
    def test_projective_sl3_dimensions(self):
        fan, datum = projective_sl3_fan()
        table = orbit_table(fan, datum)
        assert len(table) == 7
        dims = {}
        for rec in table:
            member = fan.cones[rec.cone_index]
            dims[(member.cone.generators, tuple(sorted(member.colours)))] = rec.dimension
        assert dims[(((0, 1), (1, 0)), (0,))] == 2
        assert dims[(((-1, -1), (0, 1)), ())] == 3
        assert dims[(((-1, -1), (1, 0)), (0,))] == 2
        assert dims[(((0, 1),), ())] == 4
        assert dims[(((1, 0),), (0,))] == 3
        assert dims[(((-1, -1),), ())] == 4
        assert dims[((), ())] == 5

    def test_trivial_fan_single_orbit(self):
        datum = sl3_u3()
        lattice = build_coloured_lattice(datum)
        fan = ColouredFan(lattice, (trivial_coloured_cone(lattice),))
        table = orbit_table(fan, datum)
        assert len(table) == 1
        assert table[0].dimension == 2 + 3  # rank(N) + dim G/B

    def test_colourless_quadrant_matches_toric(self):
        group = RootDatum.parse("", central_torus_rank=2)
        datum = HorosphericalDatum(group, frozenset(), IntMatrix.identity(2))
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(2, [(1, 0), (0, 1)])])
        dims = sorted(rec.dimension for rec in orbit_table(fan, datum))
        assert dims == [0, 1, 1, 2]

    def test_lattice_mismatch(self):
        fan, _ = projective_sl3_fan()
        other = HorosphericalDatum(
            RootDatum.parse("A2"), frozenset(), IntMatrix.from_columns([(1, 0), (1, 2)], rows=2)
        )
        with pytest.raises(LatticeMismatchError):
            orbit_table(fan, other)

    def test_closure_order_is_reverse_face_order(self):
        fan, datum = projective_sl3_fan()
        table = orbit_table(fan, datum)
        for a in table:
            for b in table:
                if closure_contains(fan, a.cone_index, b.cone_index):
                    assert a.dimension >= b.dimension

    def test_orbit_quotients_make_no_saturation(self, monkeypatch):
        # the projection is the kernel of each cone's generator rows; only
        # `quotient_coloured_lattice` tests outside input for saturation
        fan, datum = projective_sl3_fan()
        expected = orbit_table(fan, datum)
        closures = [orbit_closure(fan, i, datum) for i in range(len(fan.cones))]
        calls = []

        def counted(function):
            def wrapper(*args):
                calls.append(args)
                return function(*args)

            return wrapper

        monkeypatch.setattr(horo, "quotient_coloured_lattice", counted(horo.quotient_coloured_lattice))
        monkeypatch.setattr(intlin, "saturate", counted(saturate))
        assert orbit_table(fan, datum) == expected
        assert [orbit_closure(fan, i, datum) for i in range(len(fan.cones))] == closures
        assert calls == []

    def test_orbit_table_reads_the_source_lattice_off_the_datum(self, monkeypatch):
        # Counts, not timers: one lattice, for the fan check; the records'
        # quotient data are built with no lattice, and no source lattice is rebuilt
        fan, datum = p1_power(4)
        expected = orbit_table(fan, datum)
        calls = []

        def counted(d):
            calls.append(d)
            return build_coloured_lattice(d)

        for module in (horo, dictionary):
            monkeypatch.setattr(module, "build_coloured_lattice", counted)
        assert orbit_table(fan, datum) == expected
        assert len(fan.cones) == 81 and len(calls) == 1

    def test_orbit_datum_of_open_orbit_is_original(self):
        fan, datum = projective_sl3_fan()
        table = orbit_table(fan, datum)
        open_orbit = next(r for r in table if fan.cones[r.cone_index].dim() == 0)
        assert open_orbit.homogeneous_datum == datum


class TestOrbitClosure:
    def test_maximal_cone_gives_flag_variety(self):
        fan, datum = projective_sl3_fan()
        idx = fan.cones.index(cc(2, [(0, 1), (1, 0)], {0}))
        closure, cdatum = orbit_closure(fan, idx, datum)
        assert closure.lattice.rank == 0
        assert cdatum.parabolic == frozenset({0})
        assert cdatum.characters.cols == 0
        assert closure.cones == (trivial_coloured_cone(closure.lattice),)

    def test_ray_e2_gives_rank_one_fan_with_both_colours(self):
        fan, datum = projective_sl3_fan()
        idx = fan.cones.index(cc(2, [(0, 1)]))
        closure, cdatum = orbit_closure(fan, idx, datum)
        assert closure.lattice.rank == 1
        assert closure.lattice.point(0) == (1,)
        assert closure.lattice.point(1) == (0,)
        assert cdatum.parabolic == frozenset()
        # M' is the omega_1 axis of the character lattice
        assert cdatum.characters.columns() == [(1, 0)]
        assert validate_coloured_fan(closure).valid
        shapes = {(c.cone.generators, tuple(sorted(c.colours))) for c in closure.cones}
        assert shapes == {((), ()), (((1,),), (0,)), (((-1,),), ())}

    def test_coloured_ray_quotient(self):
        fan, datum = projective_sl3_fan()
        idx = fan.cones.index(cc(2, [(1, 0)], {0}))
        closure, cdatum = orbit_closure(fan, idx, datum)
        assert closure.lattice.rank == 1
        assert [c.root for c in closure.lattice.colours] == [1]
        assert cdatum.parabolic == frozenset({0})
        assert validate_coloured_fan(closure).valid

    def test_trivial_cone_returns_fan_itself(self):
        fan, datum = projective_sl3_fan()
        idx = fan.cones.index(trivial_coloured_cone(fan.lattice))
        closure, cdatum = orbit_closure(fan, idx, datum)
        assert set(closure.cones) == set(fan.cones)
        assert cdatum == datum

    def test_bad_index(self):
        fan, datum = projective_sl3_fan()
        with pytest.raises(ConeNotInFanError):
            orbit_closure(fan, 99, datum)

    def test_closure_contains_rejects_indices_outside_the_fan(self):
        fan, _ = sl2_u2_plane_fan()
        # negative indices must not wrap around to the last members
        for outer, inner in [(-1, 0), (0, -2), (len(fan.cones), 0), (0, len(fan.cones))]:
            with pytest.raises(ConeNotInFanError):
                closure_contains(fan, outer, inner)

    def test_closure_open_orbit_dimension_matches_table(self):
        fan, datum = projective_sl3_fan()
        table = orbit_table(fan, datum)
        for rec in table:
            closure, cdatum = orbit_closure(fan, rec.cone_index, datum)
            sub = orbit_table(closure, cdatum)
            open_rec = next(r for r in sub if closure.cones[r.cone_index].dim() == 0)
            assert open_rec.dimension == rec.dimension


class TestClassify:
    def test_affine_sl3_cone(self):
        datum = sl3_u3()
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(2, [(1, 0), (0, 1)], {0, 1})])
        rep = classify_variety(fan, datum)
        assert rep.is_simple and rep.is_affine
        assert not rep.is_toroidal and not rep.is_complete

    def test_projective_fan(self):
        fan, datum = projective_sl3_fan()
        rep = classify_variety(fan, datum)
        assert rep.is_complete and rep.is_projective
        assert not rep.is_simple and not rep.is_affine
        assert rep.is_smooth

    def test_class_group_fan_not_q_factorial(self):
        datum = sl3_u3()
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(
            lattice,
            [
                cc(2, [(1, 1), (1, -1)], {0}),
                cc(2, [(-1, 0), (1, 1)]),
                cc(2, [(-1, 0), (1, -1)]),
            ],
        )
        rep = classify_variety(fan, datum)
        assert rep.is_complete and rep.is_projective
        assert not rep.is_q_factorial and not rep.is_factorial
        # u_{a1} = e1 sits in the interior of Cone(e1+e2, e1-e2)
        top = next(r for r in regularity_report(fan, datum) if len(r.multiset) == 3)
        assert not top.simplicial
        assert sorted(top.multiset) == [(1, -1), (1, 0), (1, 1)]

    def test_blowup_cone_toroidal(self):
        datum = HorosphericalDatum(RootDatum.parse("A1"), frozenset(), IntMatrix.identity(1))
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(1, [(1,)])])
        rep = classify_variety(fan, datum)
        assert rep.is_toroidal and not rep.is_complete and rep.is_smooth

    def test_flag_variety_rank_zero(self):
        datum = HorosphericalDatum(RootDatum.parse("A1"), frozenset(), IntMatrix.zero(1, 0))
        lattice = build_coloured_lattice(datum)
        fan = ColouredFan(lattice, (trivial_coloured_cone(lattice),))
        rep = classify_variety(fan, datum)
        assert rep.is_complete and rep.is_projective and rep.is_smooth

    def test_implication_invariants_on_random_fans(self):
        rng = random.Random(3)
        for _ in range(40):
            fan, datum = random_valid_fan(rng)
            rep = classify_variety(fan, datum)
            assert not rep.is_affine or rep.is_simple
            assert not rep.is_regular or rep.is_simplicial
            assert not rep.is_smooth or rep.is_regular
            assert rep.is_factorial == rep.is_regular
            assert rep.is_q_factorial == rep.is_simplicial
            assert not rep.is_smooth or rep.is_factorial
            assert not rep.is_factorial or rep.is_q_factorial
            assert not rep.is_projective or rep.is_complete
            if rep.is_toroidal:
                assert rep.is_smooth == rep.is_regular

    @pytest.mark.parametrize("diagonals", list(itertools.product((0, 1), repeat=3)))
    def test_prism_fans_projective_unless_cyclic(self, diagonals):
        datum = torus3()
        fan = rank3_fan(prism_maximal(diagonals), datum)
        rep = classify_variety(fan, datum)
        assert rep.is_complete
        assert rep.is_projective == (diagonals not in ((0, 0, 0), (1, 1, 1)))
        assert positivity_check(anticanonical(fan, datum), fan, datum) == (True, True, False)

    def test_projectivity_builds_one_row_cone_on_the_distinct_wall_rows(self, monkeypatch):
        datum = torus3()
        fan = rank3_fan(RANK3_BASES["P1^3"], datum)
        built = record_row_cones(monkeypatch)
        assert classify_variety(fan, datum).is_projective
        # the 12 walls lie in 3 planes, one primitive gap row each, in the
        # rank-6 PLF lattice
        assert [(n, len(rows)) for n, rows in built] == [(6, 3)]


class TestRegularity:
    def test_double_colour_point_not_simplicial(self):
        datum = HorosphericalDatum(
            RootDatum.parse("A2"), frozenset(), IntMatrix.from_columns([(1, 1)], rows=2)
        )
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(1, [(1,)], {0, 1})])
        reg = {fan.cones[r.cone_index]: r for r in regularity_report(fan, datum)}
        top = reg[cc(1, [(1,)], {0, 1})]
        assert top.multiset == ((1,), (1,))
        assert not top.simplicial and not top.regular

    def test_single_colour_regular(self):
        datum = HorosphericalDatum(
            RootDatum.parse("A2"), frozenset(), IntMatrix.from_columns([(1, 1)], rows=2)
        )
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(1, [(1,)], {0})])
        top = next(
            r for r in regularity_report(fan, datum) if fan.cones[r.cone_index].colours
        )
        assert top.simplicial and top.regular

    def test_hermite_rule_matches_invariant_factors_on_random_fans(self):
        """Simplicial iff one invariant factor per vector, regular iff all of them are 1.

        The multisets include repeated and dependent vectors and the empty one.
        """
        rng = random.Random(17)
        verdicts = set()
        for _ in range(120):
            fan, datum = random_valid_fan(rng)
            for r in regularity_report(fan, datum):
                factors = invariant_factors(IntMatrix.from_columns(list(r.multiset), rows=fan.lattice.rank))
                assert r.simplicial == (len(factors) == len(r.multiset))
                assert r.regular == (r.simplicial and all(d == 1 for d in factors))
                verdicts.add((r.simplicial, r.regular, len(r.multiset) > 0))
        assert verdicts == {(False, False, True), (True, False, True), (True, True, True), (True, True, False)}

    def test_report_takes_no_smith_form(self, monkeypatch):
        rng = random.Random(19)
        fans = [random_valid_fan(rng) for _ in range(20)] + [(rank3_fan(RANK3_BASES["P3"], torus3()), torus3())]
        expected = [regularity_report(fan, datum) for fan, datum in fans]

        def refuse(*args):
            raise AssertionError("regularity_report took a Smith form")

        for module in (intlin, dictionary, horo):
            monkeypatch.setattr(module, "smith_normal_form", refuse, raising=False)
        assert [regularity_report(fan, datum) for fan, datum in fans] == expected

    def sl5_datum(self):
        group = RootDatum.parse("A4")
        # H(P_{a2,a4}): M is the full character lattice of the parabolic
        chars = IntMatrix.from_columns([(1, 0, 0, 0), (0, 0, 1, 0)], rows=4)
        return HorosphericalDatum(group, frozenset({1, 3}), chars)

    def test_sl5_smoothness_table(self):
        datum = self.sl5_datum()
        lattice = build_coloured_lattice(datum)
        assert lattice.point(0) == (1, 0) and lattice.point(2) == (0, 1)

        fan1 = coloured_fan(lattice, [cc(2, [(1, 0), (-1, 1)], {0, 2})])
        rep1 = classify_variety(fan1, datum)
        assert not rep1.is_smooth and not rep1.is_regular

        fan2 = coloured_fan(lattice, [cc(2, [(1, 0), (0, 1)], {0})])
        rep2 = classify_variety(fan2, datum)
        assert rep2.is_smooth

        fan3 = coloured_fan(lattice, [cc(2, [(1, 0), (0, 1)], {2})])
        rep3 = classify_variety(fan3, datum)
        assert rep3.is_regular and not rep3.is_smooth
        assert any("2 components" in note for note in rep3.diagnostics)


class TestMorphisms:
    def test_identity_compatible_and_proper(self):
        fan, datum = projective_sl3_fan()
        phi = coloured_lattice_map(datum, datum)
        assert morphism_check(phi, fan, fan) == (True, True)

    def test_compatibility_tries_the_maximal_target_members_only(self, monkeypatch):
        """Counts, not timers: every cone a containment test runs on is a maximal member,
        so no face cone of the target gets an inequality description."""
        fan, datum = projective_sl3_fan()
        phi = coloured_lattice_map(datum, datum)
        tested = []
        contains = Cone.contains

        def recording(cone, v):
            tested.append(cone)
            return contains(cone, v)

        monkeypatch.setattr(Cone, "contains", recording)
        assert morphism_check(phi, fan, fan) == (True, True)
        assert tested and set(tested) <= {cc.cone for cc in fan.maximal()}

    def test_incompatible_map_runs_the_source_covering(self):
        """The identity from the complete P1 fan to the fan of the ray (1): the ray (-1) maps into no
        target cone, and the preimage of the target support misses it, so neither holds."""
        datum = torus(1)
        lattice = build_coloured_lattice(datum)
        source = torus_fan([((1,),), ((-1,),)])
        target = coloured_fan(lattice, [cc(1, [(1,)])])
        assert morphism_check(coloured_lattice_map(datum, datum), source, target) == (False, False)

    def test_compatible_map_covers_each_preimage_once(self, monkeypatch):
        """Compatibility puts every source maximal cone in a preimage, so only the preimages are covered."""
        fan, datum = projective_sl3_fan()
        calls = []

        def counted(target, covers, cancelled=None):
            calls.append(target)
            return covered_by(target, covers, cancelled)

        monkeypatch.setattr(dictionary, "covered_by", counted)
        assert morphism_check(coloured_lattice_map(datum, datum), fan, fan) == (True, True)
        assert len(calls) == len(fan.maximal())

    @pytest.mark.parametrize("name", ["sl3", "sl2 plane", "(P1)^3", "A1^3 factor x P1"])
    def test_compatibility_over_maximal_members_matches_all_members(self, name):
        """The identity between every ordered pair of five fans on one lattice: the fan, its
        decolouration, its open toroidal subfan, the fan of its first maximal member and the
        fan of the others (the trivial fan for the plane); the all-member oracle tries every source member."""
        fan, datum = {
            "sl3": projective_sl3_fan,
            "sl2 plane": sl2_u2_plane_fan,
            "(P1)^3": lambda: (product_coloured_fan(p1_power(2)[0], LINE), torus(3)),
            "A1^3 factor x P1": lambda: (product_coloured_fan(FACTORS[1][1], LINE), rank4_datum(True)),
        }[name]()
        lattice, maximal = fan.lattice, fan.maximal()
        fans = [fan, decolouration(fan), open_toroidal_subfan(fan)]
        parts = (maximal[:1], maximal[1:] + [trivial_coloured_cone(lattice)])
        fans += [ColouredFan(lattice, close_under_coloured_faces(lattice, part)) for part in parts]
        assert all(validate_coloured_fan(f).valid for f in fans)
        phi = coloured_lattice_map(datum, datum)
        outcomes = []
        for source, target in itertools.product(fans, repeat=2):
            compatible, _ = morphism_check(phi, source, target)
            assert compatible == all_members_compatible(phi, source, target)
            outcomes.append(compatible)
        assert True in outcomes and False in outcomes

    def test_decolouration_map_compatible_and_proper(self):
        fan, datum = sl2_u2_plane_fan()
        phi = coloured_lattice_map(datum, datum)
        stripped = decolouration(fan)
        assert morphism_check(phi, stripped, fan) == (True, True)

    def test_plane_to_projective_line_not_compatible(self):
        fan, datum = sl2_u2_plane_fan()
        target_datum = HorosphericalDatum(
            RootDatum.parse("A1"), frozenset(), IntMatrix.zero(1, 0)
        )
        target_lattice = build_coloured_lattice(target_datum)
        target_fan = ColouredFan(target_lattice, (trivial_coloured_cone(target_lattice),))
        phi = coloured_lattice_map(datum, target_datum)
        compatible, proper = morphism_check(phi, fan, target_fan)
        assert not compatible
        assert not proper

    def test_lattice_mismatch(self):
        fan, datum = projective_sl3_fan()
        other_fan, _ = sl2_u2_plane_fan()
        phi = coloured_lattice_map(datum, datum)
        with pytest.raises(LatticeMismatchError):
            morphism_check(phi, other_fan, fan)

    def test_cancellation_token_interrupts(self):
        fan, datum = projective_sl3_fan()
        phi = coloured_lattice_map(datum, datum)
        token = CancellationToken()
        token.cancel()
        with pytest.raises(InterruptedError):
            morphism_check(phi, fan, fan, cancel=token)


class TestDecolouration:
    def test_strips_colours(self):
        fan, _ = sl2_u2_plane_fan()
        stripped = decolouration(fan)
        assert all(not c.colours for c in stripped.cones)
        assert {c.cone for c in stripped.cones} == {c.cone for c in fan.cones}

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            fan, _ = random_valid_fan(rng)
            once = decolouration(fan)
            assert decolouration(once) == once
            assert validate_coloured_fan(once).valid

    def test_open_toroidal_subfan_of_projective_fan(self):
        fan, _ = projective_sl3_fan()
        sub = open_toroidal_subfan(fan)
        shapes = {(c.cone.generators, tuple(sorted(c.colours))) for c in sub.cones}
        assert shapes == {((), ()), (((0, 1),), ()), (((-1, -1),), ())}
        assert validate_coloured_fan(sub).valid

    def test_open_toroidal_subfan_fixed_point_on_toroidal(self):
        rng = random.Random(7)
        for _ in range(20):
            fan, _ = random_valid_fan(rng)
            sub = open_toroidal_subfan(fan)
            assert sub.colour_set() == frozenset()
            assert set(sub.cones) <= set(fan.cones) | {trivial_coloured_cone(fan.lattice)}
            assert open_toroidal_subfan(sub) == sub


class TestAffineLocalStructure:
    def test_sl3_cone_with_one_colour(self):
        datum = sl3_u3()
        sigma = cc(2, [(1, 0), (0, 1)], {0})
        local = affine_local_structure(sigma, datum)
        assert local.parabolic_index == frozenset({0})
        assert local.levi_datum.group.components == (("A", 1),)
        assert local.levi_datum.group.central_torus_rank == 1
        assert local.levi_lattice.rank == 2
        assert [c.root for c in local.levi_lattice.colours] == [0]
        assert local.levi_lattice.point(0) == (1, 0)
        assert local.cone == cc(2, [(1, 0), (0, 1)], {0})

    def test_toroidal_cone_gives_torus(self):
        datum = sl3_u3()
        sigma = cc(2, [(0, 1)])
        local = affine_local_structure(sigma, datum)
        assert local.levi_datum.group.components == ()
        assert local.levi_datum.group.central_torus_rank == 2
        assert local.levi_lattice.colours == ()

    def test_full_colours_returns_whole_group(self):
        datum = sl3_u3()
        sigma = cc(2, [(1, 0), (0, 1)], {0, 1})
        local = affine_local_structure(sigma, datum)
        assert local.parabolic_index == frozenset({0, 1})
        assert local.levi_datum.group.components == (("A", 2),)
        assert local.levi_datum.group.central_torus_rank == 0

    def test_levi_model_is_affine(self):
        datum = sl3_u3()
        sigma = cc(2, [(1, 0), (0, 1)], {0})
        local = affine_local_structure(sigma, datum)
        z_fan = coloured_fan(local.levi_lattice, [local.cone])
        rep = classify_variety(z_fan, local.levi_datum)
        assert rep.is_affine

    def test_rejects_non_pointed(self):
        datum = sl3_u3()
        with pytest.raises(NotStronglyConvexError):
            affine_local_structure(cc(2, [(1, 0), (-1, 0)]), datum)

    def test_nontrivial_subdiagram_classification(self):
        group = RootDatum.parse("B4")
        chars = IntMatrix.from_columns([(0, 1, 0, 0), (0, 0, 0, 1)], rows=4)
        datum = HorosphericalDatum(group, frozenset({0}), chars)
        # q_index {a1, a3}: a1 from I, a3 a colour; both isolated A1 components
        lattice = build_coloured_lattice(datum)
        assert lattice.point(2) == (0, 0)  # a3 pairs to zero with both columns
        sigma = cc(2, [(1, 0), (0, 1)], set())
        local = affine_local_structure(sigma, datum)
        assert local.levi_datum.group.components == (("A", 1),)

    def test_c_chain_subdiagram(self):
        group = RootDatum.parse("C3")
        chars = IntMatrix.from_columns([(1, 0, 0)], rows=3)
        datum = HorosphericalDatum(group, frozenset({1, 2}), chars)
        sigma = cc(1, [(1,)], {0})
        local = affine_local_structure(sigma, datum)
        # q_index = {a1, a2, a3} is the whole C3 diagram
        assert local.levi_datum.group.components == (("C", 3),)


class TestWeightMonoid:
    def test_affine_sl3_quadrant(self):
        datum = sl3_u3()
        sigma = cc(2, [(1, 0), (0, 1)], {0, 1})
        assert weight_monoid_generators(sigma, datum) == [(0, 1), (1, 0)]

    def test_trivial_cone_rank_one(self):
        datum = HorosphericalDatum(RootDatum.parse("A1"), frozenset(), IntMatrix.identity(1))
        sigma = trivial_coloured_cone(build_coloured_lattice(datum))
        assert weight_monoid_generators(sigma, datum) == [(-1,), (1,)]

    def test_quadric_dual(self):
        datum = sl3_u3()
        sigma = cc(2, [(1, 0), (1, 2)])
        assert sorted(weight_monoid_generators(sigma, datum)) == [(0, 1), (1, 0), (2, -1)]

    def test_half_open_cone(self):
        # a ray in rank 2: the dual has lineality, generators must span the wall
        datum = sl3_u3()
        sigma = cc(2, [(0, 1)])
        gens = weight_monoid_generators(sigma, datum)
        assert (1, 0) in gens and (-1, 0) in gens
        assert all(g[1] >= 0 for g in gens)
        assert any(g[1] > 0 for g in gens)

    def test_matches_the_lineality_quotient_route(self):
        # seeded pointed cones in Z^3 and Z^4 of every dimension, from
        # combinations of random independent vectors so that the span can
        # have index > 1 over the lattice of the generators
        rng = random.Random(23)
        seen, dims, wide = set(), set(), 0
        while len(seen) < 40:
            n = rng.choice((3, 4))
            d = rng.randint(0, n)
            base = [tuple(rng.randint(-1, 1) * rng.choice((1, 2)) for _ in range(n)) for _ in range(d)]
            gens = [
                tuple(sum(c * b[i] for c, b in zip(cs, base)) for i in range(n))
                for cs in ([rng.randint(0, 1) * rng.choice((1, 2)) for _ in range(d)] for _ in range(d + 1))
            ]
            sigma = Cone.from_generators(n, gens)
            if not sigma.is_strongly_convex() or sigma in seen:
                continue
            seen.add(sigma)
            dims.add((n, sigma.dim()))
            if sigma.generators and invariant_factors(IntMatrix.from_columns(sigma.generators, rows=n))[-1] > 1:
                wide += 1
            torus = HorosphericalDatum(RootDatum.parse("", central_torus_rank=n), frozenset(), IntMatrix.identity(n))
            coloured = ColouredCone(sigma, frozenset())
            assert weight_monoid_generators(coloured, torus) == quotient_weight_monoid(sigma)
        assert dims == {(n, d) for n in (3, 4) for d in range(n + 1)}
        assert wide >= 5


class TestOrbitInvariants:
    def test_codimension_one_orbits_are_non_coloured_rays(self):
        rng = random.Random(11)
        for _ in range(30):
            fan, datum = random_valid_fan(rng)
            table = orbit_table(fan, datum)
            open_dim = max(r.dimension for r in table)
            codim_one = {
                r.cone_index for r in table if r.dimension == open_dim - 1
            }
            rays = {
                i
                for i, c in enumerate(fan.cones)
                if c.dim() == 1 and not c.colours
            }
            assert codim_one == rays

    def test_strict_dimension_monotonicity(self):
        rng = random.Random(13)
        for _ in range(30):
            fan, datum = random_valid_fan(rng)
            table = orbit_table(fan, datum)
            for a in table:
                for b in table:
                    if a.cone_index == b.cone_index:
                        continue
                    if closure_contains(fan, a.cone_index, b.cone_index):
                        assert a.dimension > b.dimension

    def test_exactly_maximal_cones_are_closed_orbits(self):
        fan, datum = projective_sl3_fan()
        maximal = set(containment_maximal(fan))
        for i, cone in enumerate(fan.cones):
            is_closed = all(
                not closure_contains(fan, i, j)
                for j in range(len(fan.cones))
                if j != i
            )
            assert is_closed == (cone in maximal)
