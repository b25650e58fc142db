"""Wall-based projectivity, positivity and Cartier gluing against the all-pairs routes."""

import itertools
import random
from collections import Counter

import pytest

from horofan import divisors
from horofan.dictionary import classify_variety
from horofan.divisors import (
    anticanonical,
    cartier_data,
    invariant_ray_generators,
    make_divisor,
    picard_group,
    positivity_check,
)
from horofan.horo import HorosphericalDatum
from horofan.intlin import IntMatrix
from horofan.polyhedra import Cone, PlainFan, complete_fan_walls, gluing_rows
from horofan.rootsys import RootDatum

from .factories import RANK3_BASES, prism_maximal, random_valid_fan, rank3_fan, stellar_subdivision, torus3
from .oracles import (
    all_pairs_plf_lp,
    all_pairs_positivity,
    cartier_system_with_gluing,
    pairwise_gluing_rows,
)


def a1_cubed() -> HorosphericalDatum:
    return HorosphericalDatum(RootDatum.parse("A1xA1xA1"), frozenset(), IntMatrix.identity(3))


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


def boundary_divisor(fan):
    """Every B-stable prime divisor with coefficient 1."""
    return make_divisor(
        fan,
        rays={g: 1 for g in invariant_ray_generators(fan)},
        colours={c.root: 1 for c in fan.lattice.colours},
    )


@pytest.mark.parametrize("label,maximal,make_datum,colours", CASES, ids=[c[0] for c in CASES])
def test_wall_routes_match_all_pairs_routes(label, maximal, make_datum, colours, monkeypatch):
    datum = make_datum()
    fan = rank3_fan(maximal, datum, colours)
    report = classify_variety(fan, datum)
    assert report.is_complete
    assert report.is_projective == all_pairs_plf_lp(fan)
    deltas = [anticanonical(fan, datum), boundary_divisor(fan)]
    positivity = [positivity_check(delta, fan, datum) for delta in deltas]
    pieces = [cartier_data(delta, fan) for delta in deltas]
    picard = picard_group(fan, datum)
    lattice = divisors._cartier_lattice(*divisors._cartier_system(fan)[:2])
    monkeypatch.setattr(divisors, "gluing_rows", pairwise_gluing_rows)
    monkeypatch.setattr(divisors, "_cartier_system", cartier_system_with_gluing)
    assert positivity == [all_pairs_positivity(delta, fan) for delta in deltas]
    assert pieces == [cartier_data(delta, fan) for delta in deltas]
    assert picard == picard_group(fan, datum)
    assert lattice == divisors._cartier_lattice(*cartier_system_with_gluing(fan)[:2])


# On a complete fan each member's gluing rows follow from the others', so
# these fans, whose two cones meet only in a ray, are where they all count.
RAY_JOINED = [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((-1, 0, 0), (0, -1, 0), (0, 0, 1))]


@pytest.mark.parametrize("make_datum,colours", [(torus3, ()), (a1_cubed, (2,))])
def test_gluing_on_incomplete_fan_matches_pairwise_intersections(make_datum, colours, monkeypatch):
    datum = make_datum()
    fan = rank3_fan(RAY_JOINED, datum, colours)
    deltas = [anticanonical(fan, datum), boundary_divisor(fan)]
    pieces = [cartier_data(delta, fan) for delta in deltas]
    picard = picard_group(fan, datum)
    lattice = divisors._cartier_lattice(*divisors._cartier_system(fan)[:2])
    monkeypatch.setattr(divisors, "gluing_rows", pairwise_gluing_rows)
    monkeypatch.setattr(divisors, "_cartier_system", cartier_system_with_gluing)
    assert pieces == [cartier_data(delta, fan) for delta in deltas]
    assert picard == picard_group(fan, datum)
    assert lattice == divisors._cartier_lattice(*cartier_system_with_gluing(fan)[:2])
    # two pieces glued on one ray, modulo linear functions: 6 - 1 - 3
    assert picard.plf_mod_lf.free_rank == 2


def test_cartier_system_needs_no_gluing_rows_on_random_fans(monkeypatch):
    """Value rows alone pin every piece on every ray, so gluing rows change no answer."""
    rng = random.Random(5)
    cases = []
    for _ in range(100):
        fan, _ = random_valid_fan(rng)
        rays = {g: rng.randint(-2, 2) for g in invariant_ray_generators(fan)}
        colours = {c.root: rng.randint(-2, 2) for c in fan.lattice.colours}
        deltas = [boundary_divisor(fan), make_divisor(fan, rays, colours)]
        a, b, _ = divisors._cartier_system(fan)
        cases.append((fan, deltas, [cartier_data(d, fan) for d in deltas], divisors._cartier_lattice(a, b)))
    monkeypatch.setattr(divisors, "_cartier_system", cartier_system_with_gluing)
    for fan, deltas, pieces, lattice in cases:
        assert pieces == [cartier_data(d, fan) for d in deltas]
        assert lattice == divisors._cartier_lattice(*cartier_system_with_gluing(fan)[:2])
    # both Cartier and non-Cartier divisors occur
    assert {p is None for _, _, pieces, _ in cases for p in pieces} == {True, False}


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

    counted(PlainFan, "maximal_cones")
    assert classify_variety(fan, datum).is_projective
    assert positivity_check(anticanonical(fan, datum), fan, datum) == (True, True, True)
    counted(Cone, "contains_cone")
    assert len(complete_fan_walls(maximal)) == 12
    assert gluing_rows(maximal, [cc.cone for cc in fan.cones]).rows > 0
    assert calls == Counter()
