"""Orbit data shared per (annihilator, colour set) against the per-member route, and the counts of the shared table.

`orbit_table` builds one quotient datum per distinct pair of a span's
annihilator and a colour set, and `orbit_closure` one per call; both must
equal `oracles.per_member_quotient_data`, a fresh kernel and a checked
`HorosphericalDatum` per member, on the rank-3 fan shapes of the factories
over the torus and over A1^3, on seeded small fans over every datum of the
pool, on the rank-4 coloured products and on (P1)^6.
"""

import itertools
import random

import pytest

from horofan import dictionary, divisors, horo, intlin, polyhedra
from horofan.dictionary import orbit_closure, orbit_table
from horofan.horo import build_coloured_lattice, product_coloured_fan

from .factories import (
    FULTON,
    RANK3_BASES,
    a1_cubed,
    p1_power,
    prism_maximal,
    random_rank3_coloured_fans,
    random_valid_fan,
    rank3_fan,
    stellar_subdivision,
    torus3,
)
from .oracles import per_member_quotient_data
from .test_rank4_products import FACTORS, LINE, rank4_datum


def rank3_shapes() -> list:
    """(label, maximal cones) of every rank-3 base, the eight prisms, Fulton's fan and a weighted subdivision."""
    shapes = list(RANK3_BASES.items())
    shapes += [(f"prism{d}", prism_maximal(d)) for d in itertools.product((0, 1), repeat=3)]
    shapes += [("fulton", FULTON), ("P2xP1+1", stellar_subdivision(RANK3_BASES["P2xP1"], 5, (1, 2, 2)))]
    return shapes


def fans() -> list:
    """(label, fan, datum) of every case the oracle checks."""
    cases = []
    for label, maximal in rank3_shapes():
        cases.append((f"{label} over T3", rank3_fan(maximal, torus3()), torus3()))
        if all(len(gens) == 3 for gens in maximal):
            cases.append((f"{label} over A1^3", rank3_fan(maximal, a1_cubed(), (0, 1)), a1_cubed()))
    rng = random.Random(7)
    cases += [(f"random rank-3 {k}", fan, datum) for k, (fan, datum) in enumerate(random_rank3_coloured_fans(rng, 4))]
    cases += [(f"random small {k}", *random_valid_fan(rng)) for k in range(12)]
    for label, factor, _ in FACTORS:
        cases.append((f"{label} x P1", product_coloured_fan(factor, LINE), rank4_datum(bool(factor.lattice.colours))))
    return cases + [("(P1)^6", *p1_power(6))]


CASES = fans()


@pytest.mark.parametrize("label,fan,datum", CASES, ids=[case[0] for case in CASES])
def test_orbit_data_equal_the_per_member_route(label, fan, datum):
    expected = per_member_quotient_data(fan, datum)
    assert [record.homogeneous_datum for record in orbit_table(fan, datum)] == expected
    for index, quotient in enumerate(expected):
        closure, closure_datum = orbit_closure(fan, index, datum)
        assert closure_datum == quotient and closure.lattice == build_coloured_lattice(quotient)


def test_p1_power_8_shares_one_datum_per_span(monkeypatch):
    """Counts, not timers: (P1)^8 has 6 561 members on 256 spans, and the table builds one
    quotient datum per span, with no rank check and no quotient lattice."""
    fan, datum = p1_power(8)
    built, ranks = [], []
    quotient_datum, rank = dictionary._quotient_datum, intlin.rank

    def counted_datum(*args):
        built.append(args)
        return quotient_datum(*args)

    def counted_rank(m):
        ranks.append(m)
        return rank(m)

    monkeypatch.setattr(dictionary, "_quotient_datum", counted_datum)
    for module in (intlin, polyhedra, horo, dictionary, divisors):
        if getattr(module, "rank", None) is rank:
            monkeypatch.setattr(module, "rank", counted_rank)
    table = orbit_table(fan, datum)
    shared = {id(record.homogeneous_datum): record.homogeneous_datum for record in table}
    assert len(table) == 6561 and len(built) == len(shared) == 256 and ranks == []
    assert not any("_lattice" in vars(quotient) for quotient in shared.values())
