"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Each criterion prints a PASS line on success so a `pytest -s` (or the
captured output of a verbose run) shows one line per criterion.
"""

import itertools
import random

from horofan.dictionary import (
    classify_variety,
    closure_contains,
    decolouration,
    morphism_check,
    orbit_table,
    regularity_report,
    weight_monoid_generators,
)
from horofan.divisors import (
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
    close_under_coloured_faces,
    coloured_fan,
    coloured_faces,
    coloured_lattice_map,
    trivial_coloured_cone,
    validate_coloured_fan,
)
from horofan.intlin import (
    AbelianGroup,
    IntMatrix,
    hermite_normal_form,
    smith_normal_form,
)
from horofan.polyhedra import Cone, dual_cone, fan_is_complete, hilbert_basis
from horofan.rootsys import RootDatum

from .factories import random_valid_fan
from .oracles import brute_force_hilbert, determinant, is_unimodular, sl_colour_point_oracle


def report(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS - {text}")


def cc(rank, gens, colours=()):
    return ColouredCone(Cone.from_generators(rank, gens), frozenset(colours))


def sl3_u3():
    return HorosphericalDatum(RootDatum.parse("A2"), frozenset(), IntMatrix.identity(2))


def orbits_fan():
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


def class_group_fan():
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


def test_criterion_01_orbit_table():
    fan, datum = orbits_fan()
    table = orbit_table(fan, datum)
    assert len(table) == 7
    expected_dims = {
        (((0, 1), (1, 0)), (0,)): 2,
        (((-1, -1), (0, 1)), ()): 3,
        (((-1, -1), (1, 0)), (0,)): 2,
        (((0, 1),), ()): 4,
        (((1, 0),), (0,)): 3,
        (((-1, -1),), ()): 4,
        ((), ()): 5,
    }
    key = lambda i: (fan.cones[i].cone.generators, tuple(sorted(fan.cones[i].colours)))
    for rec in table:
        assert rec.dimension == expected_dims[key(rec.cone_index)]
    # closure partial order == reverse coloured-face inclusion, both checked
    # against the hand-derived face relation of this fan
    expected_closure = {
        ((), ()): set(expected_dims),
        (((0, 1),), ()): {(((0, 1),), ()), (((0, 1), (1, 0)), (0,)), (((-1, -1), (0, 1)), ())},
        (((1, 0),), (0,)): {(((1, 0),), (0,)), (((0, 1), (1, 0)), (0,)), (((-1, -1), (1, 0)), (0,))},
        (((-1, -1),), ()): {(((-1, -1),), ()), (((-1, -1), (0, 1)), ()), (((-1, -1), (1, 0)), (0,))},
        (((0, 1), (1, 0)), (0,)): {(((0, 1), (1, 0)), (0,))},
        (((-1, -1), (0, 1)), ()): {(((-1, -1), (0, 1)), ())},
        (((-1, -1), (1, 0)), (0,)): {(((-1, -1), (1, 0)), (0,))},
    }
    for i in range(7):
        for j in range(7):
            in_closure = closure_contains(fan, i, j)
            assert in_closure == (key(j) in expected_closure[key(i)])
            assert in_closure == (fan.cones[i] in coloured_faces(fan.lattice, fan.cones[j]))
    report(1, "7 orbits with dims (2,3,2,4,3,4,5) and reverse-face closure order")


def test_criterion_02_class_group():
    fan, datum = class_group_fan()
    # the two stated relation vectors, in the paper's divisor order
    order = [("ray", (1, 1)), ("ray", (-1, 0)), ("ray", (1, -1)), ("colour", 0), ("colour", 1)]

    def as_vector(div):
        return tuple(
            div.ray_coefficient(k) if kind == "ray" else div.colour_coefficient(k)
            for kind, k in order
        )

    assert as_vector(principal_divisor((1, 0), fan)) == (1, -1, 1, 1, 0)
    assert as_vector(principal_divisor((0, 1), fan)) == (1, 0, -1, 0, 1)
    result = class_group(fan, datum)
    assert result.group == AbelianGroup(3, ())
    assert result.left_exact
    classes = dict(result.generator_classes)
    generating = IntMatrix.from_columns(
        [classes["D[1,1]"].free, classes["D_a1"].free, classes["D_a2"].free], rows=3
    )
    assert determinant(generating) in (1, -1)
    report(2, "Cl = Z^3 with relation vectors (1,-1,1,1,0) and (1,0,-1,0,1)")


def test_criterion_03_picard_group():
    fan, datum = class_group_fan()
    result = picard_group(fan, datum)
    assert result.group == AbelianGroup(2, ())
    assert result.plf_mod_lf == AbelianGroup(1, ())
    assert result.report.rank_consistent
    report(3, "Pic = Z^2 and PLF/LF = Z")


def test_criterion_04_positivity_region():
    fan, datum = class_group_fan()
    for a in (-1, 0, 1, 2):
        for b in (-1, 0, 1, 2):
            delta = make_divisor(fan, rays={(-1, 0): a}, colours={1: b})
            cartier, bpf, ample = positivity_check(delta, fan, datum)
            assert cartier
            assert bpf == (a >= 0 and a <= b), (a, b)
            assert ample == (a > 0 and a < b), (a, b)
    report(4, "basepoint-free iff a>=0 and a<=b, ample iff a>0 and a<b, on all 16 points")


def test_criterion_05_smoothness_rows():
    group = RootDatum.parse("A4")
    datum = HorosphericalDatum(
        group, frozenset({1, 3}), IntMatrix.from_columns([(1, 0, 0, 0), (0, 0, 1, 0)], rows=4)
    )
    lattice = build_coloured_lattice(datum)
    rows = [
        (cc(2, [(1, 0), (-1, 1)], {0, 2}), False),
        (cc(2, [(1, 0), (0, 1)], {0}), True),
        (cc(2, [(1, 0), (0, 1)], {2}), False),
    ]
    verdicts = []
    reasons = []
    for sigma, _ in rows:
        fan = coloured_fan(lattice, [sigma])
        rep = classify_variety(fan, datum)
        verdicts.append(rep.is_smooth)
        top = next(r for r in regularity_report(fan, datum) if fan.cones[r.cone_index] == sigma)
        reasons.append(top.diagnostic)
    assert verdicts == [False, True, False]
    # the paper's reasons, matched to diagnostic clauses: row 1 fails regularity,
    # row 3 fails the "connected to two components" clause
    assert "not regular" in reasons[0] or "not simplicial" in reasons[0]
    assert "2 components" in reasons[2]
    report(5, "SL5 rows verdicts (not smooth, smooth, not smooth) with matching reasons")


def test_criterion_06_anticanonical():
    fan, datum = class_group_fan()
    k = anticanonical(fan, datum)
    assert [a for _, a in k.ray_coeffs] == [1, 1, 1]
    assert k.colour_coefficient(0) == 2 and k.colour_coefficient(1) == 2
    # exhaustive sweep: all Dynkin types of rank <= 4, all parabolic subsets;
    # anticanonical() asserts b_alpha >= 2 internally
    descriptors = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2"]
    swept = 0
    for descriptor in descriptors:
        group = RootDatum.parse(descriptor)
        simple = list(group.simple_roots())
        for r in range(len(simple) + 1):
            for parabolic in itertools.combinations(simple, r):
                chosen = frozenset(parabolic)
                columns = [
                    tuple(1 if t == a else 0 for t in range(group.character_rank))
                    for a in simple
                    if a not in chosen
                ]
                datum_i = HorosphericalDatum(
                    group, chosen, IntMatrix.from_columns(columns, rows=group.character_rank)
                )
                lattice = build_coloured_lattice(datum_i)
                fan_i = ColouredFan(lattice, (trivial_coloured_cone(lattice),))
                k_i = anticanonical(fan_i, datum_i)
                assert all(b >= 2 for _, b in k_i.colour_coeffs)
                swept += 1
    assert swept == sum(2 ** RootDatum.parse(d).simple_count for d in descriptors)
    report(6, f"-K matches the SL3 example; b_alpha >= 2 across {swept} (type, I) pairs")


def test_criterion_07_simpliciality():
    datum = HorosphericalDatum(
        RootDatum.parse("A2"), frozenset(), IntMatrix.from_columns([(1, 1)], rows=2)
    )
    lattice = build_coloured_lattice(datum)
    both = coloured_fan(lattice, [cc(1, [(1,)], {0, 1})])
    rep_both = classify_variety(both, datum)
    assert not rep_both.is_simplicial and not rep_both.is_q_factorial
    one = coloured_fan(lattice, [cc(1, [(1,)], {0})])
    rep_one = classify_variety(one, datum)
    assert rep_one.is_regular and rep_one.is_factorial
    report(7, "double colour point not simplicial; single colour regular")


def test_criterion_08_colour_points():
    for n in range(2, 7):
        datum = HorosphericalDatum(
            RootDatum.parse(f"A{n - 1}"), frozenset(), IntMatrix.identity(n - 1)
        )
        lattice = build_coloured_lattice(datum)
        for i, colour in enumerate(lattice.colours):
            expected = tuple(
                sl_colour_point_oracle(n, datum.characters.column(j))[i]
                for j in range(n - 1)
            )
            assert colour.point == expected
            assert colour.point == tuple(1 if t == i else 0 for t in range(n - 1))
    sl2 = HorosphericalDatum(
        RootDatum.parse("A1"), frozenset(), IntMatrix.from_columns([(2,)], rows=1)
    )
    assert build_coloured_lattice(sl2).point(0) == (2,)
    assert sl_colour_point_oracle(2, (2,)) == (2,)
    sl3 = HorosphericalDatum(
        RootDatum.parse("A2"), frozenset(), IntMatrix.from_columns([(1, 1)], rows=2)
    )
    lattice = build_coloured_lattice(sl3)
    assert lattice.point(0) == (1,) and lattice.point(1) == (1,)
    assert sl_colour_point_oracle(3, (1, 1)) == (1, 1)
    report(8, "colour points e_i (SL_n/U_n), 2e_1 (SL2, M=2Z), coincident e_1 (SL3 diagonal)")


def test_criterion_09_weight_monoid():
    datum = sl3_u3()
    sigma = cc(2, [(1, 0), (0, 1)], {0, 1})
    assert weight_monoid_generators(sigma, datum) == [(0, 1), (1, 0)]
    rng = random.Random(90)
    checked = 0
    while checked < 50:
        n = rng.choice([2, 3])
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = Cone.from_generators(n, gens)
        if not cone.is_strongly_convex() or cone.dim() == 0:
            continue
        checked += 1
        assert sorted(hilbert_basis(cone)) == sorted(brute_force_hilbert(cone))
    report(9, "weight monoid {e1, e2}; 50 random Hilbert bases match the box oracle")


def test_criterion_10_property_suites():
    rng = random.Random(100)
    # cone duality involution
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        cone = Cone.from_generators(n, gens)
        assert dual_cone(dual_cone(cone)) == cone
    # SNF / HNF algebraic identities
    for _ in range(40):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        u, d, v = smith_normal_form(m)
        assert is_unimodular(u) and is_unimodular(v) and u.mul(m).mul(v) == d
        diag = [x for x in d.diagonal() if x]
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        h, uu = hermite_normal_form(m)
        assert is_unimodular(uu) and uu.mul(m) == h
        assert hermite_normal_form(h)[0] == h
    # the five SL2/U2 coloured fans are valid
    sl2 = HorosphericalDatum(RootDatum.parse("A1"), frozenset(), IntMatrix.identity(1))
    lattice = build_coloured_lattice(sl2)
    shapes = [
        [cc(1, [(1,)], {0})],
        [cc(1, [(1,)])],
        [cc(1, [(-1,)])],
        [cc(1, [(1,)], {0}), cc(1, [(-1,)])],
        [cc(1, [(1,)]), cc(1, [(-1,)])],
    ]
    for shape in shapes:
        fan = ColouredFan(lattice, close_under_coloured_faces(lattice, shape))
        assert validate_coloured_fan(fan).valid
    # orbit-dimension strict monotonicity on 100 random valid fans
    for _ in range(100):
        fan, datum = random_valid_fan(rng)
        table = orbit_table(fan, datum)
        for a in table:
            for b in table:
                if a.cone_index != b.cone_index and closure_contains(
                    fan, a.cone_index, b.cone_index
                ):
                    assert a.dimension > b.dimension
    # ample => basepoint free => Cartier on random divisors over complete fans
    complete_checked = 0
    while complete_checked < 10:
        fan, datum = random_valid_fan(rng)
        if not fan_is_complete([cc.cone for cc in fan.maximal()]):
            continue
        complete_checked += 1
        for _ in range(5):
            delta = make_divisor(
                fan,
                rays={g: rng.randint(-2, 2) for g in invariant_ray_generators(fan)},
                colours={c.root: rng.randint(-2, 2) for c in fan.lattice.colours},
            )
            cartier, bpf, ample = positivity_check(delta, fan, datum)
            assert (not ample or bpf) and (not bpf or cartier)
            assert (cartier_data(delta, fan) is not None) == cartier
    # decolouration idempotence and properness of decolouration maps
    for _ in range(25):
        fan, datum = random_valid_fan(rng)
        stripped = decolouration(fan)
        assert decolouration(stripped) == stripped
        assert validate_coloured_fan(stripped).valid
        identity = coloured_lattice_map(datum, datum)
        assert morphism_check(identity, stripped, fan) == (True, True)
    report(10, "duality, normal forms, SL2/U2 fans, monotonicity, positivity chain, decolouration")
