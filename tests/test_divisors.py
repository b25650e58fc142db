"""Class group, Cartier data, Picard group, positivity, anticanonical."""

import random
from collections import Counter

import pytest

from horofan import divisors, horo, polyhedra
from horofan.dictionary import classify_variety
from horofan.divisors import (
    BInvariantDivisor,
    NotCompleteError,
    anticanonical,
    cartier_data,
    class_group,
    invariant_ray_generators,
    make_divisor,
    picard_group,
    positivity_check,
    principal_divisor,
)
from horofan.horo import (
    ColouredCone,
    ColouredFan,
    HorosphericalDatum,
    build_coloured_lattice,
    coloured_fan,
    trivial_coloured_cone,
)
from horofan.intlin import AbelianGroup, IntMatrix, column_hermite, rank
from horofan.polyhedra import Cone, LatticeLiftError, fan_is_complete
from horofan.rootsys import RootDatum

from .factories import (
    RANK3_BASES,
    a1_cubed,
    random_rank3_coloured_fans,
    random_valid_fan,
    rank3_fan,
    torus,
    torus_fan,
)
from .oracles import determinant, stacked_picard_group


def cc(rank, gens, colours=()):
    return ColouredCone(Cone.from_generators(rank, gens), frozenset(colours))


def sl3_u3():
    return HorosphericalDatum(RootDatum.parse("A2"), frozenset(), IntMatrix.identity(2))


def class_group_fan():
    """The non-Q-factorial projective SL3/U3 fan used for Cl and Pic."""
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
    return fan, datum


class TestPrincipalDivisor:
    def test_first_relation(self):
        fan, _ = class_group_fan()
        d = principal_divisor((1, 0), fan)
        assert d.ray_coefficient((1, 1)) == 1
        assert d.ray_coefficient((-1, 0)) == -1
        assert d.ray_coefficient((1, -1)) == 1
        assert d.colour_coefficient(0) == 1
        assert d.colour_coefficient(1) == 0

    def test_second_relation(self):
        fan, _ = class_group_fan()
        d = principal_divisor((0, 1), fan)
        assert d.ray_coefficient((1, 1)) == 1
        assert d.ray_coefficient((-1, 0)) == 0
        assert d.ray_coefficient((1, -1)) == -1
        assert d.colour_coefficient(0) == 0
        assert d.colour_coefficient(1) == 1

    def test_zero_covector(self):
        fan, _ = class_group_fan()
        d = principal_divisor((0, 0), fan)
        assert all(a == 0 for _, a in d.ray_coeffs)
        assert all(a == 0 for _, a in d.colour_coeffs)


class TestClassGroup:
    def test_paper_fan_is_z3(self):
        fan, datum = class_group_fan()
        result = class_group(fan, datum)
        assert result.group == AbelianGroup(3, ())
        assert result.left_exact

    def test_named_generators_span(self):
        fan, datum = class_group_fan()
        result = class_group(fan, datum)
        classes = dict(result.generator_classes)
        chosen = [classes["D[1,1]"].free, classes["D_a1"].free, classes["D_a2"].free]
        m = IntMatrix.from_columns(chosen, rows=3)
        assert determinant(m) in (1, -1)

    def test_trivial_fan_over_torus(self):
        group = RootDatum.parse("", central_torus_rank=1)
        datum = HorosphericalDatum(group, frozenset(), IntMatrix.identity(1))
        lattice = build_coloured_lattice(datum)
        fan = ColouredFan(lattice, (trivial_coloured_cone(lattice),))
        result = class_group(fan, datum)
        assert result.group.is_trivial()
        assert not result.left_exact

    def test_projective_line_toric(self):
        group = RootDatum.parse("", central_torus_rank=1)
        datum = HorosphericalDatum(group, frozenset(), IntMatrix.identity(1))
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(1, [(1,)]), cc(1, [(-1,)])])
        assert class_group(fan, datum).group == AbelianGroup(1, ())

    def test_a1_singularity_has_torsion(self):
        datum = HorosphericalDatum(
            RootDatum.parse("A1"), frozenset(), IntMatrix.from_columns([(2,)], rows=1)
        )
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(1, [(1,)], {0})])
        assert class_group(fan, datum).group == AbelianGroup(0, (2,))

    def test_principal_divisor_class_is_zero(self):
        rng = random.Random(19)
        for _ in range(25):
            fan, datum = random_valid_fan(rng)
            result = class_group(fan, datum)
            for j in range(fan.lattice.rank):
                m = tuple(1 if t == j else 0 for t in range(fan.lattice.rank))
                coords = principal_divisor(m, fan).coordinates()
                cls = _project_class(result, coords)
                assert all(x == 0 for x in cls.free) and all(x == 0 for x in cls.torsion)

    def test_rank_formula(self):
        rng = random.Random(23)
        for _ in range(25):
            fan, datum = random_valid_fan(rng)
            result = class_group(fan, datum)
            gens = invariant_ray_generators(fan)
            height = len(gens) + len(fan.lattice.colours)
            cols = []
            for j in range(fan.lattice.rank):
                m = tuple(1 if t == j else 0 for t in range(fan.lattice.rank))
                cols.append(principal_divisor(m, fan).coordinates())
            p = IntMatrix.from_columns(cols, rows=height)
            assert result.group.free_rank == height - rank(p)


def _project_class(result, coords):
    """Combine generator classes linearly (classes form a homomorphism)."""
    names = [name for name, _ in result.generator_classes]
    classes = dict(result.generator_classes)
    free = None
    torsion = None
    group = result.group
    for name, c in zip(names, coords):
        cls = classes[name]
        if free is None:
            free = [0] * len(cls.free)
            torsion = [0] * len(cls.torsion)
        free = [f + c * x for f, x in zip(free, cls.free)]
        torsion = [t + c * x for t, x in zip(torsion, cls.torsion)]
    torsion = [t % d for t, d in zip(torsion, group.torsion)]

    class R:
        pass

    r = R()
    r.free = tuple(free or ())
    r.torsion = tuple(torsion or ())
    return r


class TestCartierData:
    def test_invariant_ray_divisor(self):
        fan, _ = class_group_fan()
        delta = make_divisor(fan, rays={(-1, 0): 1})
        data = cartier_data(delta, fan)
        assert data is not None
        by_cone = {fan.cones[i].cone.generators: m for i, m in data.pieces}
        assert by_cone[((1, -1), (1, 1))] == (0, 0)
        assert by_cone[((-1, 0), (1, 1))] == (-1, 1)
        assert by_cone[((-1, 0), (1, -1))] == (-1, -1)

    def test_ray_with_interior_colour_not_cartier(self):
        fan, _ = class_group_fan()
        delta = make_divisor(fan, rays={(1, 1): 1})
        assert cartier_data(delta, fan) is None

    def test_unused_colour_divisor_always_cartier(self):
        fan, _ = class_group_fan()
        delta = make_divisor(fan, colours={1: 7})
        data = cartier_data(delta, fan)
        assert data is not None
        assert all(m == (0, 0) for _, m in data.pieces)

    @pytest.mark.parametrize("coefficient", [1.5, 1.0, "1"])
    def test_coefficients_must_be_integers(self, coefficient):
        """A float coefficient would reach the floor divisions of the Cartier data, so it is refused."""
        fan, _ = class_group_fan()
        with pytest.raises(TypeError):
            make_divisor(fan, rays={(-1, 0): coefficient})
        with pytest.raises(TypeError):
            make_divisor(fan, colours={1: coefficient})
        assert make_divisor(fan, rays={(-1, 0): True}) == make_divisor(fan, rays={(-1, 0): 1})

    def test_principal_divisors_have_constant_data(self):
        rng = random.Random(29)
        for _ in range(25):
            fan, datum = random_valid_fan(rng)
            r = fan.lattice.rank
            m = tuple(rng.randint(-3, 3) for _ in range(r))
            data = cartier_data(principal_divisor(m, fan), fan)
            assert data is not None
            for idx, piece in data.pieces:
                cone = fan.cones[idx].cone
                # equal as linear functions on the cone (gauge-free comparison)
                for g in cone.generators:
                    assert sum(a * b for a, b in zip(piece, g)) == sum(
                        a * b for a, b in zip(m, g)
                    )

    def test_a_divisor_of_another_fan_is_read_by_ray(self):
        """The coefficients are read by ray, not by position in this fan's ray list, and a divisor
        whose rays are not exactly the fan's raises KeyError naming the rays on one side only."""
        a = torus_fan([((1, 0), (0, 1)), ((0, 1), (-1, -1)), ((-1, -1), (1, 0))])
        b = torus_fan([((1, 0), (-1, 1)), ((-1, 1), (0, -1)), ((0, -1), (1, 0))])
        delta = make_divisor(a, rays={(1, 0): 5, (0, 1): 7, (-1, -1): 11})
        with pytest.raises(KeyError, match=r"\(-1, 1\)"):
            cartier_data(delta, b)
        with pytest.raises(KeyError, match=r"\(-1, 1\)"):
            positivity_check(delta, b, torus(2))
        # a's rays with (-1, 0) between them: the subdivided fan's ray list puts (-1, 0) second
        finer = torus_fan([((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (-1, -1)), ((-1, -1), (1, 0))])
        wider = make_divisor(finer, rays={(1, 0): 5, (0, 1): 7, (-1, 0): 3, (-1, -1): 11})
        with pytest.raises(KeyError, match=r"rays \[\(-1, 0\)\]"):
            cartier_data(wider, a)
        with pytest.raises(KeyError, match=r"rays \[\(-1, 0\)\]"):
            positivity_check(wider, a, torus(2))
        # the same coefficients in another order read the same
        shuffled = BInvariantDivisor(delta.ray_coeffs[::-1], delta.colour_coeffs)
        assert cartier_data(delta, a) is not None
        assert cartier_data(shuffled, a) == cartier_data(delta, a)


class TestPicardGroup:
    def test_paper_fan(self):
        fan, datum = class_group_fan()
        result = picard_group(fan, datum)
        assert result.group == AbelianGroup(2, ())
        assert result.plf_mod_lf == AbelianGroup(1, ())
        assert result.report.rank_consistent

    def test_affine_variety_has_trivial_picard(self):
        datum = sl3_u3()
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(2, [(1, 0), (0, 1)], {0, 1})])
        result = picard_group(fan, datum)
        assert result.group.is_trivial()
        assert result.report.rank_consistent

    def test_simple_full_dimensional_cone(self):
        datum = sl3_u3()
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(2, [(1, 0), (0, 1)], {0})])
        result = picard_group(fan, datum)
        # Pic = Z(C \ F) = Z D_{a2}
        assert result.group == AbelianGroup(1, ())
        assert result.plf_mod_lf.is_trivial()
        assert result.report.rank_consistent

    def test_flag_variety_rank_zero(self):
        datum = HorosphericalDatum(RootDatum.parse("A2"), frozenset(), IntMatrix.zero(2, 0))
        lattice = build_coloured_lattice(datum)
        fan = ColouredFan(lattice, (trivial_coloured_cone(lattice),))
        result = picard_group(fan, datum)
        assert result.group == AbelianGroup(2, ())  # Pic(SL3/B3) = Z^2
        assert result.report.rank_consistent

    def test_rank_identity_and_freeness_on_random_fans(self):
        rng = random.Random(31)
        for _ in range(25):
            fan, datum = random_valid_fan(rng)
            result = picard_group(fan, datum)
            assert result.report.rank_consistent
            full_dim = any(c.dim() == fan.lattice.rank for c in fan.cones)
            if full_dim:
                assert result.group.torsion == ()
                assert (
                    result.group.free_rank
                    == result.report.unused_colour_count + result.plf_mod_lf.free_rank
                )

    def test_matches_the_stacked_cartier_route_on_random_fans(self):
        """Pic read off PLF + Z^U equals Pic from the stacked Cartier lattice,
        on rank 1-3 fans with and without unused colours.  Torsion in Pic is
        rare (about 1 fan in 150), so rank 1-2 fans are drawn until two have it."""
        rng = random.Random(43)
        fans = list(random_rank3_coloured_fans(rng, 6))
        with_unused = torsion = 0
        while (len(fans) < 80 or torsion < 2) and len(fans) < 2000:
            fans.append(random_valid_fan(rng))
            fan, datum = fans[-1]
            torsion += bool(picard_group(fan, datum).group.torsion)
        for fan, datum in fans:
            assert picard_group(fan, datum) == stacked_picard_group(fan)
            with_unused += bool(fan.lattice.colour_roots() - fan.colour_set())
        assert torsion == 2
        assert with_unused >= 20 and len(fans) - with_unused >= 20

    def test_runs_one_plf_pass_and_no_cartier_pass(self, monkeypatch):
        """Counts, not timers: on a fresh fan, classify, picard and two positivity checks
        share one PLF lattice and one wall table.  One kernel per non-unimodular
        maximal cone in `plf_lattice`, one for span-perp."""
        datum = a1_cubed()
        built = rank3_fan(RANK3_BASES["P2xP1"], datum, (0,))
        expected = picard_group(built, datum)
        fan = ColouredFan(built.lattice, built.cones)
        deltas = [anticanonical(fan, datum), make_divisor(fan, {g: 1 for g in invariant_ray_generators(fan)}, {})]
        positivity = [positivity_check(delta, built, datum) for delta in deltas]
        calls = Counter()

        def counted(module, name):
            function = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(horo, "plf_lattice")
        counted(horo, "complete_fan_walls")
        counted(polyhedra, "kernel_basis")
        counted(divisors, "kernel_basis")
        assert classify_variety(fan, datum).is_projective
        assert picard_group(fan, datum) == expected
        assert [positivity_check(delta, fan, datum) for delta in deltas] == positivity
        assert expected.report.unused_colour_count == 2
        unimodular = [
            c for c in fan.maximal()
            if column_hermite(IntMatrix.from_rows(list(c.cone.generators), cols=3)) == IntMatrix.identity(3)
        ]
        assert calls == Counter(
            plf_lattice=1, complete_fan_walls=1, kernel_basis=len(fan.maximal()) - len(unimodular) + 1
        )

    def test_failed_lift_raises_named_error(self, monkeypatch):
        # the theory guarantees these lifts; a failure must survive `python -O`
        fan, datum = class_group_fan()
        monkeypatch.setattr(divisors, "lattice_coordinates", lambda vectors, basis: [None for _ in vectors])
        with pytest.raises(LatticeLiftError):
            picard_group(fan, datum)


class TestPositivity:
    @pytest.mark.parametrize("a", [-1, 0, 1, 2])
    @pytest.mark.parametrize("b", [-1, 0, 1, 2])
    def test_paper_positivity_region(self, a, b):
        fan, datum = class_group_fan()
        delta = make_divisor(fan, rays={(-1, 0): a}, colours={1: b})
        cartier, bpf, ample = positivity_check(delta, fan, datum)
        assert cartier
        assert bpf == (a >= 0 and a <= b)
        assert ample == (a > 0 and a < b)

    def test_zero_divisor(self):
        fan, datum = class_group_fan()
        delta = make_divisor(fan)
        cartier, bpf, ample = positivity_check(delta, fan, datum)
        assert cartier and bpf and not ample

    def test_incomplete_fan_rejected(self):
        datum = sl3_u3()
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(2, [(1, 0), (0, 1)], {0})])
        with pytest.raises(NotCompleteError):
            positivity_check(make_divisor(fan), fan, datum)

    def test_ample_implies_bpf_implies_cartier_random(self):
        rng = random.Random(37)
        checked = 0
        while checked < 15:
            fan, datum = random_valid_fan(rng)
            if not fan_is_complete([cc.cone for cc in fan.maximal()]):
                continue
            checked += 1
            for _ in range(8):
                rays = {g: rng.randint(-2, 2) for g in invariant_ray_generators(fan)}
                colours = {c.root: rng.randint(-2, 2) for c in fan.lattice.colours}
                delta = make_divisor(fan, rays=rays, colours=colours)
                cartier, bpf, ample = positivity_check(delta, fan, datum)
                if ample:
                    assert bpf
                if bpf:
                    assert cartier


class TestProductOfLines:
    def octant_fan(self):
        group = RootDatum.parse("", central_torus_rank=3)
        datum = HorosphericalDatum(group, frozenset(), IntMatrix.identity(3))
        lattice = build_coloured_lattice(datum)
        octants = [
            cc(3, [(sx, 0, 0), (0, sy, 0), (0, 0, sz)])
            for sx in (1, -1)
            for sy in (1, -1)
            for sz in (1, -1)
        ]
        return coloured_fan(lattice, octants), datum

    def test_triple_product_of_lines(self):
        fan, datum = self.octant_fan()
        assert class_group(fan, datum).group == AbelianGroup(3, ())
        result = picard_group(fan, datum)
        assert result.group == AbelianGroup(3, ())
        assert result.report.rank_consistent


class TestQuadricConeSingularity:
    def fan(self):
        datum = HorosphericalDatum(
            RootDatum.parse("A1"), frozenset(), IntMatrix.from_columns([(2,)], rows=1)
        )
        lattice = build_coloured_lattice(datum)
        return coloured_fan(lattice, [cc(1, [(1,)], {0})]), datum

    def test_colour_divisor_cartier_only_with_even_coefficient(self):
        fan, _ = self.fan()
        assert cartier_data(make_divisor(fan, colours={0: 1}), fan) is None
        data = cartier_data(make_divisor(fan, colours={0: 2}), fan)
        assert data is not None and data.pieces[0][1] == (1,)

    def test_picard_trivial_but_class_group_has_torsion(self):
        fan, datum = self.fan()
        assert class_group(fan, datum).group == AbelianGroup(0, (2,))
        result = picard_group(fan, datum)
        assert result.group.is_trivial()
        assert result.report.rank_consistent


class TestAnticanonical:
    def test_paper_example(self):
        fan, datum = class_group_fan()
        k = anticanonical(fan, datum)
        assert k.ray_coefficient((1, 1)) == 1
        assert k.ray_coefficient((-1, 0)) == 1
        assert k.ray_coefficient((1, -1)) == 1
        assert k.colour_coefficient(0) == 2
        assert k.colour_coefficient(1) == 2

    def test_colourless_fan_is_sum_of_rays(self):
        group = RootDatum.parse("", central_torus_rank=2)
        datum = HorosphericalDatum(group, frozenset(), IntMatrix.identity(2))
        lattice = build_coloured_lattice(datum)
        fan = coloured_fan(lattice, [cc(2, [(1, 0), (0, 1)])])
        k = anticanonical(fan, datum)
        assert all(a == 1 for _, a in k.ray_coeffs)
        assert k.colour_coeffs == ()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sl_n_all_colour_coefficients_are_two(self, n):
        datum = HorosphericalDatum(
            RootDatum.parse(f"A{n - 1}"), frozenset(), IntMatrix.identity(n - 1)
        )
        lattice = build_coloured_lattice(datum)
        fan = ColouredFan(lattice, (trivial_coloured_cone(lattice),))
        k = anticanonical(fan, datum)
        assert all(a == 2 for _, a in k.colour_coeffs)

    def test_b3_parabolic_coefficients(self):
        # hand computation over the eight positive roots of B3 outside R_{a1}:
        # <., a2^vee> sums to 3 and <., a3^vee> sums to 2
        group = RootDatum.parse("B3")
        datum = HorosphericalDatum(
            group, frozenset({0}), IntMatrix.from_columns([(0, 1, 0), (0, 0, 1)], rows=3)
        )
        lattice = build_coloured_lattice(datum)
        fan = ColouredFan(lattice, (trivial_coloured_cone(lattice),))
        k = anticanonical(fan, datum)
        assert k.colour_coefficient(1) == 3
        assert k.colour_coefficient(2) == 2
