"""Rank-4 coloured fans, products of complete rank-3 fans with the line, against the oracles.

The products are validated, tabulated and classified by the anchor, wall and
face-table routes, and the all-pairs oracles check each answer: on the
products, on each product with one member dropped, and on the projection of
each product onto its rank-3 factor.
"""

import random

import pytest

from horofan.dictionary import classify_variety, morphism_check
from horofan.horo import (
    ColouredFan,
    HorosphericalDatum,
    build_coloured_lattice,
    close_under_coloured_faces,
    coloured_lattice_map,
    product_coloured_fan,
    validate_coloured_fan,
)
from horofan.intlin import IntMatrix
from horofan.rootsys import RootDatum

from .factories import prism_maximal, random_rank3_coloured_fans, rank3_fan, torus3, torus_fan
from .oracles import all_members_compatible, all_pairs_validation, per_member_face_table, wall_row_lp
from .test_validation import face_table


def rank4_datum(coloured: bool) -> HorosphericalDatum:
    """The datum of a rank-3 factor over the torus or A1^3, times the rank-1 torus."""
    group = RootDatum.parse("A1xA1xA1" if coloured else "", central_torus_rank=1 if coloured else 4)
    return HorosphericalDatum(group, frozenset(), IntMatrix.identity(4))


def factors() -> list[tuple[str, ColouredFan, HorosphericalDatum]]:
    """Two complete seeded `random_rank3_coloured_fans`, one over the torus and one over A1^3 on
    other cones, and the prism with cyclic diagonals, which is not projective."""
    fans = [(fan, datum) for fan, datum in random_rank3_coloured_fans(random.Random(5), 4) if fan.walls() is not None]
    torus_factor = next((fan, datum) for fan, datum in fans if not fan.lattice.colours)
    coloured_factor = next(
        (fan, datum) for fan, datum in fans if fan.colour_set() and len(fan.cones) != len(torus_factor[0].cones)
    )
    prism = (rank3_fan(prism_maximal((0, 0, 0)), torus3()), torus3())
    return [("torus", *torus_factor), ("A1^3", *coloured_factor), ("prism", *prism)]


LINE = torus_fan([((1,),), ((-1,),)])
FACTORS = factors()


@pytest.mark.parametrize("label,factor,factor_datum", FACTORS, ids=[case[0] for case in FACTORS])
def test_rank4_products_match_the_all_pairs_oracles(label, factor, factor_datum):
    fan = product_coloured_fan(factor, LINE)
    datum = rank4_datum(bool(factor.lattice.colours))
    assert fan.lattice == build_coloured_lattice(datum) and fan.lattice.rank == 4
    report = validate_coloured_fan(fan)
    assert report.valid and report == all_pairs_validation(fan)
    assert face_table(fan) == per_member_face_table(fan)
    projective = classify_variety(fan, datum).is_projective
    assert projective == wall_row_lp(fan)
    # a product with P1 is projective iff its factor is, and the prism is not
    assert projective == classify_variety(factor, factor_datum).is_projective
    assert label != "prism" or not projective
    k = random.Random(label).randrange(len(fan.cones))
    broken = ColouredFan(fan.lattice, fan.cones[:k] + fan.cones[k + 1 :])
    assert validate_coloured_fan(broken) == all_pairs_validation(broken)


@pytest.mark.parametrize("label,factor,factor_datum", FACTORS, ids=[case[0] for case in FACTORS])
def test_compatibility_over_maximal_members_matches_all_members(label, factor, factor_datum):
    """The projection onto the rank-3 factor, to the factor and to the factor with a maximal cone dropped."""
    fan = product_coloured_fan(factor, LINE)
    source = rank4_datum(bool(factor.lattice.colours))
    # M_2, the first three characters of M_1 = Z^4, gives the projection onto the factor's lattice
    target = HorosphericalDatum(source.group, frozenset(), IntMatrix.from_columns(IntMatrix.identity(4).columns()[:3]))
    phi = coloured_lattice_map(source, target)
    assert phi.target == factor.lattice
    smaller = ColouredFan(factor.lattice, close_under_coloured_faces(factor.lattice, factor.maximal()[1:]))
    outcomes = []
    for target_fan in (factor, smaller):
        compatible, _ = morphism_check(phi, fan, target_fan)
        assert compatible == all_members_compatible(phi, fan, target_fan)
        outcomes.append(compatible)
    assert outcomes == [True, False]
