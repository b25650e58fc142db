"""Products of coloured fans, closed from their maximal members, against the all-pairs product.

`horo.product_coloured_fan` forms sigma_1 x sigma_2 for the maximal members
only and lets `coloured_fan` close and validate them; `oracles.all_pairs_product`
forms one cone per pair of members.  Their member sets agree on every product
the other tests build, on (P1)^n by repeated products and on the square of the
cube fan, and the closure makes one double-description pass per maximal member.
"""

import itertools
from collections import Counter

import pytest

from horofan import polyhedra
from horofan.horo import (
    ColouredCone,
    ColouredFan,
    build_coloured_lattice,
    close_under_coloured_faces,
    product_coloured_fan,
    validate_coloured_fan,
)
from horofan.polyhedra import Cone

from .factories import p1_power, torus, torus_fan
from .oracles import all_pairs_product
from .test_horo import product_factors as horo_factors
from .test_projectivity import product_factors as projectivity_factors
from .test_rank4_products import FACTORS, LINE
from .test_walls import rank4_product_factors

# the complete fan over the six faces of the cube [-1, 1]^3, four rays to a cone
CUBE = [tuple(v for v in itertools.product((1, -1), repeat=3) if v[k] == side) for k in range(3) for side in (1, -1)]


def factor_pairs() -> list[tuple[str, ColouredFan, ColouredFan]]:
    """(label, a, b) of every product the other test modules build, and of C x C for the cube fan C."""
    pairs = [(f"{label} x P1", factor, LINE) for label, factor, _ in FACTORS]
    pairs += [(name, a, b) for name, a, b, _ in rank4_product_factors()]
    pairs += [(f"projectivity {k}", a, b) for k, (a, b) in enumerate(projectivity_factors())]
    pairs += [(f"affine plane {k}", a, b) for k, (a, b) in enumerate(horo_factors())]
    cube = torus_fan(CUBE)
    return pairs + [("CxC", cube, cube)]


PAIRS = factor_pairs()


@pytest.mark.parametrize("label,a,b", PAIRS, ids=[pair[0] for pair in PAIRS])
def test_product_is_the_all_pairs_product_with_its_face_table(label, a, b):
    fan = product_coloured_fan(a, b)
    oracle = all_pairs_product(a, b)
    assert fan.lattice == oracle.lattice
    assert set(fan.cones) == set(oracle.cones) and len(fan.cones) == len(set(oracle.cones))
    assert "_face_table" in vars(fan)


def test_repeated_products_of_p1_are_the_torus_fans():
    fan = LINE
    for n in range(2, 6):
        oracle = all_pairs_product(fan, LINE)
        fan = product_coloured_fan(fan, LINE)
        assert set(fan.cones) == set(oracle.cones) == set(p1_power(n)[0].cones)
        assert fan.lattice == build_coloured_lattice(torus(n))


def test_cube_square_makes_one_pass_per_maximal_member(monkeypatch):
    """C x C has 36 maximal members; the all-pairs product made 728 passes, one per pair of its 27 members."""
    cube = torus_fan(CUBE)
    passes = Counter()
    dual_description = polyhedra._dual_description

    def counted(*args):
        passes["_dual_description"] += 1
        return dual_description(*args)

    monkeypatch.setattr(polyhedra, "_dual_description", counted)
    fan = product_coloured_fan(cube, cube)
    assert len(fan.maximal()) == 36
    assert passes["_dual_description"] <= 36


def test_factor_with_overlapping_maximal_members_raises():
    """The two cones overlap in their interiors, so no fan on them is valid; the all-pairs product was not checked."""
    lattice = build_coloured_lattice(torus(2))
    cones = [ColouredCone(Cone.from_generators(2, g), frozenset()) for g in [((1, 0), (0, 1)), ((1, -1), (1, 1))]]
    factor = ColouredFan(lattice, close_under_coloured_faces(lattice, cones))
    assert len(factor.maximal()) == 2
    assert not validate_coloured_fan(all_pairs_product(factor, LINE)).valid
    with pytest.raises(ValueError):
        product_coloured_fan(factor, LINE)
