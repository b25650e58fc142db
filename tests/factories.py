"""Generators for property tests: data, valid coloured fans, and rank-2 and rank-3 fans; a recorder of row cones."""

from __future__ import annotations

import itertools
import math
import random
import types

from horofan import cli, dictionary
from horofan.horo import (
    ColouredCone,
    ColouredFan,
    HorosphericalDatum,
    build_coloured_lattice,
    close_under_coloured_faces,
    coloured_fan,
    validate_coloured_fan,
)
from horofan.intlin import IntMatrix
from horofan.polyhedra import Cone, primitive
from horofan.rootsys import RootDatum

RANK1_GENS = [(1,), (-1,)]
RANK2_GENS = [
    (1, 0),
    (0, 1),
    (-1, 0),
    (0, -1),
    (1, 1),
    (1, -1),
    (-1, -1),
    (-1, 1),
    (1, 2),
    (2, 1),
]


def cold_parse(text: str) -> cli.InputDocument:
    """`cli.parse_input` on an emptied parse memo, so the document and its fan are built afresh, as in a new process."""
    cli._parsed.cache_clear()
    return cli.parse_input(text)


def datum_pool() -> list[HorosphericalDatum]:
    a1 = RootDatum.parse("A1")
    a2 = RootDatum.parse("A2")
    torus2 = RootDatum.parse("", central_torus_rank=2)
    return [
        HorosphericalDatum(a1, frozenset(), IntMatrix.identity(1)),
        HorosphericalDatum(a1, frozenset(), IntMatrix.from_columns([(2,)], rows=1)),
        HorosphericalDatum(a2, frozenset(), IntMatrix.identity(2)),
        HorosphericalDatum(a2, frozenset(), IntMatrix.from_columns([(1, 1)], rows=2)),
        HorosphericalDatum(a2, frozenset({0}), IntMatrix.from_columns([(0, 1)], rows=2)),
        HorosphericalDatum(torus2, frozenset(), IntMatrix.identity(2)),
    ]


def random_valid_fan(rng: random.Random) -> tuple[ColouredFan, HorosphericalDatum]:
    """A uniformly messy valid coloured fan over a small datum."""
    pool = datum_pool()
    while True:
        datum = rng.choice(pool)
        lattice = build_coloured_lattice(datum)
        gens = RANK1_GENS if lattice.rank == 1 else RANK2_GENS
        candidates = []
        for _ in range(rng.randint(1, 3)):
            picked = rng.sample(gens, rng.randint(1, min(lattice.rank, len(gens))))
            cone = Cone.from_generators(lattice.rank, picked)
            if not cone.is_strongly_convex():
                continue
            eligible = [
                c.root for c in lattice.colours if any(c.point) and cone.contains(c.point)
            ]
            colours = frozenset(r for r in eligible if rng.random() < 0.5)
            candidates.append(ColouredCone(cone, colours))
        if not candidates:
            continue
        fan = ColouredFan(lattice, close_under_coloured_faces(lattice, candidates))
        if validate_coloured_fan(fan).valid:
            return fan, datum


def random_rank2_fan(rng: random.Random) -> list[tuple]:
    """Maximal cones of a seeded rank-2 fan, complete or not.

    At least three directions of RANK2_GENS, in angular order; each two
    neighbours less than a half-turn apart span a cone.  With no gap of a
    half-turn or more and no cone dropped, the fan is complete; then 0-2
    cones are dropped.
    """
    picked = rng.sample(RANK2_GENS, rng.randint(3, len(RANK2_GENS)))
    rays = sorted(picked, key=lambda g: math.atan2(g[1], g[0]))
    pairs = zip(rays, rays[1:] + rays[:1])
    maximal = [(a, b) for a, b in pairs if a[0] * b[1] - a[1] * b[0] > 0]
    for _ in range(rng.randint(0, min(2, len(maximal) - 1))):
        del maximal[rng.randrange(len(maximal))]
    return maximal


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
RANK3_BASES = {
    "P1^3": list(itertools.product([E1, (-1, 0, 0)], [E2, (0, -1, 0)], [E3, (0, 0, -1)])),
    "P2xP1": [
        (a, b, c) for a, b in itertools.combinations([E1, E2, (-1, -1, 0)], 2) for c in (E3, (0, 0, -1))
    ],
    "P3": list(itertools.combinations([E1, E2, E3, (-1, -1, -1)], 3)),
}
# Fulton's non-projective complete fan (Introduction to Toric Varieties,
# ch. 3): the fan over the faces of the cube [-1, 1]^3 with the vertex
# (1, 1, 1) moved to (1, 2, 3).  Its maximal cones are not simplicial, and
# Pic = 0, so every PLF is linear and has gap 0 across every wall.
FULTON = [
    tuple(sorted((1, 2, 3) if v == (1, 1, 1) else v for v in itertools.product((1, -1), repeat=3) if v[k] == side))
    for k in range(3)
    for side in (1, -1)
]

PRISM_TOP = [(1, 0, 1), (0, 1, 1), (-1, -1, 1)]
PRISM_BOTTOM = [(1, 0, -1), (0, 1, -1), (-1, -1, -1)]


def a1_cubed() -> HorosphericalDatum:
    return HorosphericalDatum(RootDatum.parse("A1xA1xA1"), frozenset(), IntMatrix.identity(3))


def torus(n: int) -> HorosphericalDatum:
    return HorosphericalDatum(RootDatum.parse("", central_torus_rank=n), frozenset(), IntMatrix.identity(n))


def torus3() -> HorosphericalDatum:
    return torus(3)


def torus_fan(maximal: list[tuple]) -> ColouredFan:
    """The uncoloured fan of `maximal` over the torus of its rank; raises unless it is a valid coloured fan."""
    n = len(maximal[0][0])
    cones = [ColouredCone(Cone.from_generators(n, gens), frozenset()) for gens in maximal]
    return coloured_fan(build_coloured_lattice(torus(n)), cones)


def p1_power(n: int) -> tuple[ColouredFan, HorosphericalDatum]:
    """The fan of (P1)^n over the rank-n torus: the 2^n orthants and their faces."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return torus_fan(list(itertools.product(*[(e, tuple(-x for x in e)) for e in units]))), torus(n)


def prism_maximal(diagonals: tuple[int, int, int]) -> list[tuple]:
    """Maximal cones of the triangular-prism fan.

    The top and bottom triangles are cones; side quadrilateral s (over top
    edge s, s+1) is split along the diagonal from top s+1 to bottom s when
    diagonals[s] is 0, and from top s to bottom s+1 when it is 1.  Exactly
    the two cyclic choices, (0, 0, 0) and (1, 1, 1), admit no strictly convex
    piecewise linear function.
    """
    t, b = PRISM_TOP, PRISM_BOTTOM
    cones = [tuple(t), tuple(b)]
    for s, d in enumerate(diagonals):
        nxt = (s + 1) % 3
        if d == 0:
            cones += [(t[s], t[nxt], b[s]), (t[nxt], b[s], b[nxt])]
        else:
            cones += [(t[s], t[nxt], b[nxt]), (t[s], b[s], b[nxt])]
    return cones


def stellar_subdivision(maximal: list[tuple], index: int, weights: tuple[int, int, int]) -> list[tuple]:
    """Star-subdivide the simplicial cone maximal[index] at the primitive sum of weights[i] * g_i."""
    gens = maximal[index]
    v = primitive([sum(w * g[i] for w, g in zip(weights, gens)) for i in range(3)])
    rest = [c for i, c in enumerate(maximal) if i != index]
    return rest + [tuple(v if t == j else g for t, g in enumerate(gens)) for j in range(3)]


def random_rank3_fan(rng: random.Random) -> list[tuple]:
    """Maximal cones of a seeded rank-3 fan, complete or not.

    A base of RANK3_BASES or one of the eight prism fans, star-subdivided
    0-2 times at seeded cones with weights 1-2 (still complete and
    simplicial), with 0-2 maximal cones then dropped.
    """
    bases = list(RANK3_BASES.values()) + [prism_maximal(d) for d in itertools.product((0, 1), repeat=3)]
    maximal = list(rng.choice(bases))
    for _ in range(rng.randint(0, 2)):
        weights = tuple(rng.randint(1, 2) for _ in range(3))
        maximal = stellar_subdivision(maximal, rng.randrange(len(maximal)), weights)
    for _ in range(rng.randint(0, 2)):
        del maximal[rng.randrange(len(maximal))]
    return maximal


def rank3_cones(maximal: list[tuple], lattice, colours=()) -> list[ColouredCone]:
    """The cones of `maximal`; each root in `colours` colours every cone holding its point."""
    cones = []
    for gens in maximal:
        cone = Cone.from_generators(3, gens)
        cones.append(ColouredCone(cone, frozenset(r for r in colours if cone.contains(lattice.point(r)))))
    return cones


def rank3_fan(maximal: list[tuple], datum: HorosphericalDatum, colours=()) -> ColouredFan:
    """The fan of `maximal`, coloured by `rank3_cones`; raises unless it is a valid coloured fan."""
    lattice = build_coloured_lattice(datum)
    return coloured_fan(lattice, rank3_cones(maximal, lattice, colours))


def random_rank3_coloured_fans(rng, count):
    """`count` seeded `random_rank3_fan`s, over the torus and over A1^3 coloured by `rank3_cones`; valid ones only."""
    for _ in range(count):
        maximal = random_rank3_fan(rng)
        for make_datum, colours in ((torus3, ()), (a1_cubed, (0, 1))):
            datum = make_datum()
            lattice = build_coloured_lattice(datum)
            fan = ColouredFan(lattice, close_under_coloured_faces(lattice, rank3_cones(maximal, lattice, colours)))
            if validate_coloured_fan(fan).valid:
                yield fan, datum


def record_row_cones(monkeypatch) -> list[tuple[int, tuple]]:
    """From now on, record (ambient rank, generators) of every `Cone.from_generators` call in `dictionary`."""
    built = []

    def recording(ambient_rank, generators):
        gens = tuple(generators)
        built.append((ambient_rank, gens))
        return Cone.from_generators(ambient_rank, gens)

    monkeypatch.setattr(dictionary, "Cone", types.SimpleNamespace(from_generators=recording))
    return built
