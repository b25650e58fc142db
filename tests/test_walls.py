"""Wall-based projectivity and positivity against the all-pairs routes; per-cone divisor routes against the stacked ones."""

import itertools
import random
from collections import Counter

import pytest

from horofan import dictionary, divisors, horo, intlin, polyhedra, rootsys
from horofan.dictionary import classify_variety
from horofan.divisors import (
    anticanonical,
    cartier_data,
    invariant_ray_generators,
    make_divisor,
    picard_group,
    positivity_check,
)
from horofan.polyhedra import Cone, complete_fan_walls, facet_owners, plf_lattice, wall_gaps

from .factories import (
    FULTON,
    RANK3_BASES,
    a1_cubed,
    p1_power,
    prism_maximal,
    random_rank3_coloured_fans,
    random_valid_fan,
    rank3_fan,
    record_row_cones,
    stellar_subdivision,
    torus,
    torus3,
    torus_fan,
)
from .oracles import (
    all_pairs_plf_lp,
    always_kernel_plf_lattice,
    all_pairs_positivity,
    both_owners_positivity,
    gluing_rows,
    pairwise_gluing_rows,
    stacked_cartier_data,
    stacked_picard_group,
    stacked_plf_lattice,
    stacked_principal_matrix,
)


# (base, subdivision steps): each step star-subdivides the last maximal cone at
# weights . generators; weight 2 makes cones of determinant 2.  Larger fans are
# left out: the all-pairs LP takes 7 s on P2xP1 subdivided twice.
SUBDIVISIONS = [
    ("P1^3", [(1, 1, 1)]),
    ("P2xP1", [(1, 1, 2)]),
    ("P3", [(1, 1, 1)]),
    ("P3", [(1, 1, 1), (1, 1, 2)]),
]


def stellar_cases():
    """Each base as is over the torus, then star-subdivided with two colours."""
    for name, base in RANK3_BASES.items():
        yield name, base, torus3, ()
    for name, steps in SUBDIVISIONS:
        maximal = RANK3_BASES[name]
        for weights in steps:
            maximal = stellar_subdivision(maximal, len(maximal) - 1, weights)
        yield f"{name}+{len(steps)}", maximal, a1_cubed, (0, 1)


CASES = [
    (f"prism-{''.join(map(str, d))}", prism_maximal(d), torus3, ())
    for d in itertools.product((0, 1), repeat=3)
]
CASES += list(stellar_cases())
CASES += [("fulton", FULTON, torus3, ())]


def boundary_divisor(fan):
    """Every B-stable prime divisor with coefficient 1."""
    return make_divisor(
        fan,
        rays={g: 1 for g in invariant_ray_generators(fan)},
        colours={c.root: 1 for c in fan.lattice.colours},
    )


def assert_per_cone_routes_match_stacked_routes(fan, datum, deltas):
    """Cartier pieces, the PLF lattice and `picard_group` equal the stacked routes'.

    Each stacked Cartier route runs once without and once with gluing rows;
    Picard, which the library reads off the PLF lattice alone, is compared
    with the stacked Cartier lattice's (no gluing rows in the Cartier
    system, `gluing_rows` for PLFs) and with the route through gluing rows
    and `intersect` on every pair of maximal cones.
    """
    pieces = [cartier_data(delta, fan) for delta in deltas]
    for glue in (None, gluing_rows):
        assert pieces == stacked_cartier_data(deltas, fan, glue)
    plf = plf_lattice([cc.cone for cc in fan.maximal()])
    assert plf == stacked_plf_lattice(fan, gluing_rows) == stacked_plf_lattice(fan, pairwise_gluing_rows)
    picard = picard_group(fan, datum)
    assert picard == stacked_picard_group(fan) == stacked_picard_group(fan, gluing_rows, pairwise_gluing_rows)
    return pieces, picard


@pytest.mark.parametrize("label,maximal,make_datum,colours", CASES, ids=[c[0] for c in CASES])
def test_wall_routes_match_all_pairs_routes(label, maximal, make_datum, colours):
    datum = make_datum()
    fan = rank3_fan(maximal, datum, colours)
    report = classify_variety(fan, datum)
    assert report.is_complete
    assert report.is_projective == all_pairs_plf_lp(fan)
    deltas = [anticanonical(fan, datum), boundary_divisor(fan)]
    assert [positivity_check(delta, fan, datum) for delta in deltas] == [
        all_pairs_positivity(delta, fan) for delta in deltas
    ]
    assert_per_cone_routes_match_stacked_routes(fan, datum, deltas)


def test_fulton_fan_has_only_zero_wall_rows_and_builds_no_row_cone(monkeypatch):
    """Complete and not projective, decided before any double description: every wall row is zero."""
    datum = torus3()
    fan = rank3_fan(FULTON, datum)
    assert len(fan.maximal()) == 6 and all(len(cc.cone.generators) == 4 for cc in fan.maximal())
    built = record_row_cones(monkeypatch)
    report = classify_variety(fan, datum)
    assert report.is_complete and not report.is_projective
    assert built == []
    pic = picard_group(fan, datum).group
    assert pic.free_rank == 0 and not pic.torsion


# On a complete fan each member's gluing rows follow from the others', so
# these fans, whose two cones meet only in a ray, are where they all count.
RAY_JOINED = [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((-1, 0, 0), (0, -1, 0), (0, 0, 1))]


@pytest.mark.parametrize("make_datum,colours", [(torus3, ()), (a1_cubed, (2,))])
def test_gluing_on_incomplete_fan_matches_pairwise_intersections(make_datum, colours):
    datum = make_datum()
    fan = rank3_fan(RAY_JOINED, datum, colours)
    deltas = [anticanonical(fan, datum), boundary_divisor(fan)]
    _, picard = assert_per_cone_routes_match_stacked_routes(fan, datum, deltas)
    # two pieces glued on one ray, modulo linear functions: 6 - 1 - 3
    assert picard.plf_mod_lf.free_rank == 2


def random_divisor(rng, fan):
    rays = {g: rng.randint(-2, 2) for g in invariant_ray_generators(fan)}
    colours = {c.root: rng.randint(-2, 2) for c in fan.lattice.colours}
    return make_divisor(fan, rays, colours)


def test_cartier_system_needs_no_gluing_rows_on_random_fans():
    """Value rows alone pin every piece on every ray, so per-cone blocks give the stacked answers."""
    rng = random.Random(5)
    found = []
    for _ in range(100):
        fan, datum = random_valid_fan(rng)
        deltas = [boundary_divisor(fan), random_divisor(rng, fan)]
        pieces, _ = assert_per_cone_routes_match_stacked_routes(fan, datum, deltas)
        found += pieces
    # both Cartier and non-Cartier divisors occur
    assert {p is None for p in found} == {True, False}


def test_per_cone_routes_match_stacked_routes_on_random_rank3_fans():
    rng = random.Random(11)
    fans = list(random_rank3_coloured_fans(rng, 20))
    found = []
    for fan, datum in fans:
        deltas = [anticanonical(fan, datum), boundary_divisor(fan), random_divisor(rng, fan)]
        pieces, _ = assert_per_cone_routes_match_stacked_routes(fan, datum, deltas)
        found += pieces
    assert len(fans) >= 30
    assert sum(1 for fan, _ in fans if fan.colour_set()) >= 10
    assert {p is None for p in found} == {True, False}


def test_plf_lattice_skipping_unimodular_cones_matches_the_always_kernel_route():
    """The same rays and Hermite basis on the fans above and seeded rank-3 fans, with and without colours."""
    fans = [rank3_fan(maximal, make_datum(), colours) for _, maximal, make_datum, colours in CASES]
    fans += [rank3_fan(RAY_JOINED, torus3())]
    fans += [fan for fan, _ in random_rank3_coloured_fans(random.Random(17), 12)]
    unimodular = Counter()
    for fan in fans:
        maximal = [cc.cone for cc in fan.maximal()]
        assert plf_lattice(maximal) == always_kernel_plf_lattice(maximal)
        for c in maximal:
            rows = intlin.IntMatrix.from_rows(list(c.generators), cols=3)
            unimodular[intlin.column_hermite(rows) == intlin.IntMatrix.identity(len(c.generators))] += 1
    assert len(fans) >= 30 and unimodular[True] >= 50 and unimodular[False] >= 50


def test_one_gap_per_wall_matches_every_gap_of_both_owners():
    """`positivity_check` reads one gap per wall, the double loop over both owners reads them all."""
    rng = random.Random(29)
    fans = [(rank3_fan(maximal, make_datum(), colours), make_datum()) for _, maximal, make_datum, colours in CASES]
    fans += [
        (fan, datum)
        for fan, datum in random_rank3_coloured_fans(rng, 12)
        if complete_fan_walls([cc.cone for cc in fan.maximal()]) is not None
    ]
    outcomes = Counter()
    for fan, datum in fans:
        deltas = [anticanonical(fan, datum), boundary_divisor(fan)] + [random_divisor(rng, fan) for _ in range(3)]
        for delta in deltas:
            result = positivity_check(delta, fan, datum)
            assert result == both_owners_positivity(delta, fan)
            outcomes[result] += 1
    assert len(fans) >= 20
    assert set(outcomes) == {(False, False, False), (True, False, False), (True, True, False), (True, True, True)}


def test_positivity_reads_each_maximal_members_own_piece_when_a_member_repeats():
    """A repeated maximal member (an invalid fan) shifts no piece onto another member's walls."""
    p2 = [((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (-1, -1, 0)), ((-1, -1, 0), (1, 0, 0))]
    fan = rank3_fan([a + (c,) for a in p2 for c in ((0, 0, 1), (0, 0, -1))], torus3())
    repeated = horo.ColouredFan(fan.lattice, (fan.maximal()[0],) + fan.cones)
    assert not horo.validate_coloured_fan(repeated).valid
    assert len(cartier_data(boundary_divisor(repeated), repeated).pieces) == len(repeated.maximal()) == 6
    rng = random.Random(41)
    outcomes = Counter()
    for _ in range(12):
        delta = random_divisor(rng, repeated)
        result = positivity_check(delta, repeated, torus3())
        assert result == both_owners_positivity(delta, repeated)
        outcomes[result] += 1
    assert (True, True, True) in outcomes and len(outcomes) >= 2


def test_principal_matrix_is_the_ray_generators_and_colour_points():
    """The coefficient of div(f_m) on D is <m, u_D>: the rows of u_D equal the stacked `principal_divisor` columns."""
    rng = random.Random(31)
    fans = [rank3_fan(maximal, make_datum(), colours) for _, maximal, make_datum, colours in CASES]
    fans += [random_valid_fan(rng)[0] for _ in range(100)]
    for fan in fans:
        assert divisors._principal_matrix(fan) == stacked_principal_matrix(fan)
    assert sum(1 for fan in fans if fan.lattice.colours) >= 20


def test_wall_gaps_of_an_absolute_coordinate_on_p1_cubed():
    """|x_k| on (P1)^3 bends by 2 across the walls in the plane x_k = 0 and is linear across the others."""
    fan = rank3_fan(RANK3_BASES["P1^3"], torus3())
    maximal = [cc.cone for cc in fan.maximal()]
    walls = complete_fan_walls(maximal)
    axes = [next(t for t in range(3) if not any(g[t] for g in wall.generators)) for wall in walls]
    assert sorted(axes) == [0] * 4 + [1] * 4 + [2] * 4
    assert wall_gaps(walls, [[(2, -1, 3)]] * len(maximal)) == [(0,)] * 12
    for k in range(3):
        # the piece of |x_k| on an orthant is the sign of x_k there times e_k
        pieces = [tuple(sum(g[k] for g in sigma.generators) if t == k else 0 for t in range(3)) for sigma in maximal]
        negated = [tuple(-x for x in m) for m in pieces]
        gaps = wall_gaps(walls, list(zip(pieces, negated)))
        assert gaps == [(2, -2) if axis == k else (0, 0) for axis in axes]


def test_wall_code_takes_the_fans_maximal_cones_without_containment_scans(monkeypatch):
    """Counts, not timers: the wall code reads the coloured fan's own maximal cones and incidences."""
    datum = torus3()
    fan = rank3_fan(RANK3_BASES["P1^3"], datum)
    maximal = [cc.cone for cc in fan.maximal()]
    calls = Counter()

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    assert classify_variety(fan, datum).is_projective
    assert positivity_check(anticanonical(fan, datum), fan, datum) == (True, True, True)
    counted(Cone, "contains_cone")
    assert len(complete_fan_walls(maximal)) == 12
    assert plf_lattice(maximal)[1].cols == 6
    assert calls == Counter()


def test_divisor_and_wall_code_build_no_matrix_one_covector_per_cone_wide(monkeypatch):
    """Counts, not timers: on (P1)^3 no Smith form or kernel is wider than #rays + #colours + r.

    The stacked routes solved over all r*k = 24 piece coordinates here, and
    the Cartier lattice's kernel of [B | -A] was 30 columns wide.
    """
    datum = torus3()
    fan = rank3_fan(RANK3_BASES["P1^3"], datum)
    fan.maximal()
    widths = []
    for name in ("smith_normal_form", "echelon_triple"):
        function = getattr(intlin, name)

        # the width of m: `echelon_triple(rows, cols)` takes it as its second argument
        def wrapper(m, *args, _function=function, **kwargs):
            widths.append(args[0] if args else m.cols)
            return _function(m, *args, **kwargs)

        for module in (intlin, polyhedra, horo, rootsys, dictionary, divisors):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    assert classify_variety(fan, datum).is_projective
    assert picard_group(fan, datum).group.free_rank == 3
    assert positivity_check(anticanonical(fan, datum), fan, datum) == (True, True, True)
    assert widths
    assert max(widths) <= len(invariant_ray_generators(fan)) + len(fan.lattice.colours) + fan.lattice.rank == 9


def test_each_wall_record_carries_its_owners_and_a_generator_of_the_first_off_the_wall():
    """(i, j, u) per `facet_owners` wall: i < j own it, and u is a generator of sigma_i off the wall's hyperplane."""
    fans = [rank3_fan(maximal, make_datum(), colours) for _, maximal, make_datum, colours in CASES]
    fans += [fan for fan, _ in random_rank3_coloured_fans(random.Random(37), 8)]
    fans += [p1_power(4)[0]]
    checked = 0
    for fan in fans:
        maximal = [cc.cone for cc in fan.maximal()]
        walls = fan.walls()
        if walls is None:
            continue
        owners = facet_owners(maximal)
        assert list(walls) == list(owners)
        r = fan.lattice.rank
        for wall, (i, j, u) in walls.items():
            assert owners[wall] == [i, j] and i < j
            assert u in maximal[i].generators and u not in wall.generators
            assert intlin.rank(intlin.IntMatrix.from_rows(list(wall.generators) + [u], cols=r)) == r
            checked += 1
    assert checked >= 250


def test_classify_reads_every_plf_gap_in_one_wall_gaps_pass(monkeypatch):
    """Counts, not timers: on a fresh (P1)^4 one `wall_gaps` call gives the gaps of all 8 PLF basis vectors."""
    fan, datum = p1_power(4)
    calls = []

    def counted(walls, pieces):
        calls.append(len(pieces[0]))
        return wall_gaps(walls, pieces)

    monkeypatch.setattr(dictionary, "wall_gaps", counted)
    assert classify_variety(fan, datum).is_projective
    assert calls == [8]


def readme_fan() -> tuple[horo.ColouredFan, horo.HorosphericalDatum]:
    """The complete README fan over SL3/U: three cones, colour a1 on the one holding its point (1, 0)."""
    datum = horo.HorosphericalDatum(rootsys.RootDatum.parse("A2"), frozenset(), intlin.IntMatrix.identity(2))
    maximal = [([(1, 1), (1, -1)], {0}), ([(-1, 0), (1, 1)], set()), ([(-1, 0), (1, -1)], set())]
    cones = [horo.ColouredCone(Cone.from_generators(2, gens), frozenset(c)) for gens, c in maximal]
    return horo.coloured_fan(horo.build_coloured_lattice(datum), cones), datum


def rank4_product_factors() -> list[tuple[str, horo.ColouredFan, horo.ColouredFan, horo.HorosphericalDatum]]:
    """(name, factor, factor, datum) of P2 x P2 and P3 x P1 over the torus, and the README fan squared over A2 x A2."""
    p1 = torus_fan([((1,),), ((-1,),)])
    p2 = torus_fan(list(itertools.combinations([(1, 0), (0, 1), (-1, -1)], 2)))
    p3 = torus_fan(RANK3_BASES["P3"])
    readme, _ = readme_fan()
    a2_squared = horo.HorosphericalDatum(
        rootsys.RootDatum.parse("A2xA2"), frozenset(), intlin.IntMatrix.identity(4)
    )
    cases = [("P2xP2", p2, p2, torus(4)), ("P3xP1", p3, p1, torus(4))]
    return cases + [("README^2", readme, readme, a2_squared)]


def rank4_product_fans() -> list[tuple[str, horo.ColouredFan, horo.HorosphericalDatum]]:
    """P2 x P2 and P3 x P1 over the torus, and the README fan squared over A2 x A2, coloured on both factors."""
    return [(name, horo.product_coloured_fan(a, b), datum) for name, a, b, datum in rank4_product_factors()]


RANK4_PRODUCTS = rank4_product_fans()


@pytest.mark.parametrize("label,fan,datum", RANK4_PRODUCTS, ids=[case[0] for case in RANK4_PRODUCTS])
def test_wall_routes_match_all_pairs_routes_on_rank4_products(label, fan, datum):
    """Projectivity and the positivity of -K and of the boundary divisor at lattice rank 4, against the oracles."""
    assert horo.validate_coloured_fan(fan).valid and fan.lattice.rank == 4
    if label == "README^2":
        assert fan.colour_set() == {0, 2} and len(fan.lattice.colours) == 4
    report = classify_variety(fan, datum)
    assert report.is_complete
    assert report.is_projective == all_pairs_plf_lp(fan)
    deltas = [anticanonical(fan, datum), boundary_divisor(fan)]
    results = [positivity_check(delta, fan, datum) for delta in deltas]
    assert results == [both_owners_positivity(delta, fan) for delta in deltas]
    if not fan.lattice.colours:
        # on a toric variety -K is the boundary divisor, ample on P2 x P2 and P3 x P1
        assert results == [(True, True, True)] * 2
