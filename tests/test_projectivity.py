"""Projectivity as pointedness of the wall-row cone, against the wall-row LP, with its witness checked in integers."""

import itertools
import random

import pytest

from horofan.dictionary import _strictly_convex_plf_exists
from horofan.horo import product_coloured_fan
from horofan.polyhedra import dot, dual_generators

from .factories import (
    FULTON,
    RANK3_BASES,
    p1_power,
    prism_maximal,
    random_rank2_fan,
    random_rank3_coloured_fans,
    random_valid_fan,
    stellar_subdivision,
    torus_fan,
)
from .oracles import wall_row_lp, wall_rows


WEIGHTS = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))


def complete_rank2_fans(rng, count):
    """`count` seeded complete `random_rank2_fan`s of at least three cones, over the torus."""
    fans = []
    while len(fans) < count:
        maximal = random_rank2_fan(rng)
        if len(maximal) >= 3:
            fan = torus_fan(maximal)
            if fan.walls() is not None:
                fans.append(fan)
    return fans


@pytest.fixture(scope="module")
def complete_fans():
    """Seeded complete fans of lattice rank 1-5, about a quarter of them not projective.

    Rank 3: the prisms, `RANK3_BASES` and Fulton's fan; the prisms and
    `RANK3_BASES` star-subdivided at every cone, with four weights on the two
    cyclic prisms (which stay non-projective) and two on the others; and the
    complete `random_rank3_coloured_fans`.  Ranks 1 and 2: the complete
    `random_valid_fan`s and `random_rank2_fan`s.  Ranks 2-5: (P1)^2-(P1)^5,
    and products of P1, P2 and rank-2 fans with each other, with the prisms
    and with Fulton's fan.
    """
    prisms = [prism_maximal(d) for d in itertools.product((0, 1), repeat=3)]
    bases = prisms + list(RANK3_BASES.values())
    cyclic = (prisms[0], prisms[-1])
    rank3 = [torus_fan(m) for m in bases + [FULTON]]
    for base in bases:
        weights = WEIGHTS if base in cyclic else WEIGHTS[:2]
        rank3 += [torus_fan(stellar_subdivision(base, i, w)) for i, w in itertools.product(range(len(base)), weights)]
    rank3 += [fan for fan, _ in random_rank3_coloured_fans(random.Random(7), 60) if fan.walls() is not None]
    rng = random.Random(3)
    small = [fan for fan in (random_valid_fan(rng)[0] for _ in range(300)) if fan.walls() is not None]
    p1 = torus_fan([((1,),), ((-1,),)])
    p2 = torus_fan(list(itertools.combinations([(1, 0), (0, 1), (-1, -1)], 2)))
    rank2 = complete_rank2_fans(random.Random(5), 6)
    products = [product_coloured_fan(a, b) for a, b in itertools.combinations([p1, p2] + rank2[:3], 2)]
    # the eight prisms and Fulton's fan times P1, and two prisms, one cyclic, times P2
    products += [product_coloured_fan(fan, p1) for fan in rank3[:8] + rank3[11:12]]
    products += [product_coloured_fan(fan, p2) for fan in rank3[:2]]
    return rank3 + small + rank2 + [p1_power(n)[0] for n in range(2, 6)] + products


def test_projectivity_equals_the_wall_row_lp(complete_fans):
    ranks = {fan.lattice.rank for fan in complete_fans}
    verdicts = [_strictly_convex_plf_exists(fan) for fan in complete_fans]
    assert ranks == {1, 2, 3, 4, 5} and len(complete_fans) >= 300 and verdicts.count(False) >= 60
    assert verdicts == [wall_row_lp(fan) for fan in complete_fans]


def test_projective_fans_carry_the_dual_generator_sum_as_a_strictly_convex_plf(complete_fans):
    """On a pointed row cone the sum x of the generators of its dual has g.x > 0 on every wall row g."""
    projective = [fan for fan in complete_fans if _strictly_convex_plf_exists(fan)]
    assert len(projective) >= 200
    for fan in projective:
        b, rows = wall_rows(fan)
        x = [sum(column) for column in zip(*dual_generators(rows, b))] if rows else []
        assert all(dot(g, x) > 0 for g in rows)
