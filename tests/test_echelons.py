"""One echelon per cone and per fan member: kept triples against fresh echelons, the earlier routes and call counts."""

import random
import sys
from collections import Counter

import pytest

from horofan import dictionary, divisors, horo, intlin, polyhedra
from horofan.dictionary import classify_variety, orbit_table, regularity_report
from horofan.divisors import anticanonical, cartier_data, picard_group, positivity_check
from horofan.horo import ColouredCone, ColouredFan, quotient_by_cone
from horofan.intlin import (
    IntMatrix,
    column_hermite,
    echelon_solutions,
    is_identity_echelon,
    kernel_and_complement,
    reduce_mod_hermite,
    solve_integer_affine,
)
from horofan.polyhedra import Cone

from .factories import (
    RANK3_BASES,
    a1_cubed,
    random_rank3_coloured_fans,
    random_valid_fan,
    rank3_fan,
    stellar_subdivision,
    torus3,
)
from .oracles import column_hermite_regularity, smith_solutions, solve_per_member_cartier_data
from .test_walls import CASES, boundary_divisor, random_divisor, rank4_product_fans


def frozen(triple):
    return tuple(tuple(part) for part in triple)


def echelon_samples(seed):
    """Seeded matrices of 0-5 rows in Z^0-Z^5: dense ones, and signed unit rows plus small multiples of earlier rows."""
    rng = random.Random(seed)
    for _ in range(150):
        k, n = rng.randint(0, 5), rng.randint(0, 5)
        if rng.random() < 0.5 or k > n:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        else:
            rows = []
            for i in rng.sample(range(n), k):
                row = [rng.choice((1, -1)) * int(j == i) for j in range(n)]
                for earlier in rows:
                    row = [x + rng.randint(-1, 1) * y for x, y in zip(row, earlier)]
                rows.append(row)
        yield IntMatrix.from_rows(rows, cols=n)


@pytest.mark.parametrize("seed", [61, 62])
def test_the_echelon_is_the_column_hermite_form_and_solves_like_the_smith_oracle(seed):
    rng = random.Random(seed)
    seen = Counter()
    for m in echelon_samples(seed):
        data = kernel_and_complement(m)
        h = column_hermite(m)
        assert data[0] == h.columns()
        simplicial = len(data[0]) == m.rows
        regular = is_identity_echelon(data[0], m.rows)
        assert (simplicial, regular) == (h.cols == m.rows, h == IntMatrix.identity(m.rows))
        seen[simplicial, regular] += 1
        vectors = [tuple(rng.randint(-4, 4) for _ in range(m.rows)) for _ in range(3)]
        vectors.append(m.apply([rng.randint(-2, 2) for _ in range(m.cols)]))
        particular, kernel = smith_solutions(m, vectors)
        # canonical: reduced modulo the column Hermite basis of the kernel
        hermite = column_hermite(IntMatrix.from_columns(kernel, rows=m.cols)).columns() if kernel else []
        expected = [None if y is None else reduce_mod_hermite([y], hermite)[0] for y in particular]
        assert [None if (s := solve_integer_affine(m, b)) is None else s[0] for b in vectors] == expected
        assert echelon_solutions(data, m.rows, vectors) == expected
        assert echelon_solutions(frozen(data), m.rows, vectors) == expected
    assert seen[True, True] >= 20 and seen[True, False] >= 10 and seen[False, False] >= 20


def member_fans():
    """The `test_walls` fans, seeded valid fans of rank 1-3, coloured ones included, and the rank-4 products."""
    fans = [(rank3_fan(maximal, make_datum(), colours), make_datum()) for _, maximal, make_datum, colours in CASES]
    rng = random.Random(71)
    fans += [random_valid_fan(rng) for _ in range(40)]
    fans += list(random_rank3_coloured_fans(random.Random(73), 8))
    fans += [(fan, datum) for _, fan, datum in rank4_product_fans()]
    return fans


def test_kept_echelons_equal_fresh_ones_and_the_earlier_routes_on_every_member():
    """Cone and member triples, regularity, Cartier pieces and quotients against fresh echelons and earlier routes."""
    rng = random.Random(79)
    seen = Counter()
    for fan, datum in member_fans():
        r = fan.lattice.rank
        assert r in (1, 2, 3, 4)
        expected = column_hermite_regularity(fan, datum)
        assert regularity_report(fan, datum) == expected
        for idx, cc in enumerate(fan.cones):
            seen["seeded"] += bool(cc.cone._echelon)
            fresh = kernel_and_complement(IntMatrix.from_rows(list(cc.cone.generators), cols=r))
            assert cc.cone.generator_echelon() == frozen(fresh)
            assert quotient_by_cone(datum, cc).projection == IntMatrix.from_rows(fresh[2], cols=r)
            multiset, data = fan.member_echelon(idx)
            assert multiset == expected[idx].multiset
            assert data == frozen(kernel_and_complement(IntMatrix.from_rows(multiset, cols=r)))
            seen["own multiset"] += multiset != cc.cone.generators
        seen.update(f"regular {x.regular}, simplicial {x.simplicial}" for x in expected)
        deltas = [boundary_divisor(fan), random_divisor(rng, fan), anticanonical(fan, datum)]
        pieces = [cartier_data(delta, fan) for delta in deltas]
        assert pieces == [solve_per_member_cartier_data(delta, fan) for delta in deltas]
        seen.update(f"cartier {p is not None}" for p in pieces)
    assert seen["own multiset"] >= 50 and seen["seeded"] >= 500
    assert min(seen["regular True, simplicial True"], seen["regular False, simplicial True"]) >= 50
    assert seen["regular False, simplicial False"] >= 20
    assert min(seen["cartier True"], seen["cartier False"]) >= 20


def record_calls(monkeypatch, names):
    """Record (caller, matrix) of each call of these `intlin` functions, through every module binding them.

    The matrix is the first argument, or for `echelon_triple` its rows and width.
    """
    calls = {name: [] for name in names}
    for name in names:
        function = getattr(intlin, name)

        def wrapper(*args, _function=function, _name=name, **kwargs):
            matrix = (tuple(map(tuple, args[0])), args[1]) if _name == "echelon_triple" else args[0]
            calls[_name].append((sys._getframe(1).f_code.co_name, matrix))
            return _function(*args, **kwargs)

        for module in (intlin, polyhedra, horo, dictionary, divisors):
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_fan_analysis_echelonises_each_member_once(monkeypatch):
    """Counts, not timers, on a fresh coloured rank-3 fan with non-unimodular maximal cones.

    Classification, regularity, Picard, the positivity of -K and of the
    boundary divisor and the orbit table, twice over.  `column_hermite` runs
    only in `plf_lattice`, once per non-unimodular maximal cone, and no
    system is solved through `solve_integer_affine`.  The first pass makes
    at most one echelon (`echelon_triple`) per member and per member whose
    multiset is not its cone's generators, plus one per double-description
    pass, one per non-unimodular maximal cone in `plf_lattice` and two in
    `picard_group`, and no matrix is echelonised twice.  The second pass
    echelonises no cone or member again.
    """
    datum = a1_cubed()
    fan = rank3_fan(stellar_subdivision(RANK3_BASES["P2xP1"], 5, (1, 2, 2)), datum, (0, 1))
    unimodular = [
        column_hermite(IntMatrix.from_rows(list(cc.cone.generators), cols=3)) == IntMatrix.identity(3)
        for cc in fan.maximal()
    ]
    assert fan.colour_set() == {0, 1} and unimodular.count(False) >= 1
    calls = record_calls(monkeypatch, ["column_hermite", "echelon_triple", "solve_integer_affine"])
    passes = []
    dual_description = polyhedra._dual_description

    def counted(*args):
        passes.append(1)
        return dual_description(*args)

    monkeypatch.setattr(polyhedra, "_dual_description", counted)
    echelons = []
    for _ in range(2):
        classify_variety(fan, datum)
        regularity_report(fan, datum)
        picard_group(fan, datum)
        for delta in (anticanonical(fan, datum), boundary_divisor(fan)):
            positivity_check(delta, fan, datum)
        orbit_table(fan, datum)
        echelons.append((list(calls["echelon_triple"]), len(passes)))
    (first, first_passes), (both, all_passes) = echelons
    own = sum(fan.member_echelon(idx)[0] != cc.cone.generators for idx, cc in enumerate(fan.cones))
    assert own >= 1
    assert len(first) <= len(fan.cones) + own + first_passes + unimodular.count(False) + 2
    assert len({m for _, m in first}) == len(first)
    again = Counter(caller for caller, _ in both[len(first) :])
    assert again["_echelon_of_rows"] == all_passes - first_passes
    assert [caller for caller, _ in calls["column_hermite"]] == ["plf_lattice"] * unimodular.count(False)
    assert calls["solve_integer_affine"] == []


def every_cache_filled(fan, datum):
    """The fan after filling its face table, walls, PLF lattice, incidence tables, cone echelons and member echelons."""
    fan.star(fan.cones[0])
    fan.walls()
    fan.plf_lattice()
    classify_variety(fan, datum)
    for cc in fan.cones:
        cc.cone.incidences
        cc.cone.generator_echelon()
    return fan


@pytest.mark.parametrize("make_datum,colours", [(torus3, ()), (a1_cubed, (0, 1))])
def test_caches_stay_out_of_equality_hash_and_repr(make_datum, colours):
    datum = make_datum()
    maximal = stellar_subdivision(RANK3_BASES["P3"], 3, (1, 1, 2))
    filled = every_cache_filled(rank3_fan(maximal, datum, colours), datum)
    assert len(filled._multisets) == len(filled.cones) and filled._face_table and filled._walls
    bare = ColouredFan(
        filled.lattice,
        tuple(ColouredCone(Cone(cc.cone.ambient_rank, cc.cone.generators), cc.colours) for cc in filled.cones),
    )
    assert not bare._multisets and not any(cc.cone._echelon or cc.cone._normals for cc in bare.cones)
    assert filled == bare and hash(filled) == hash(bare) and repr(filled) == repr(bare)
    for kept, plain in zip(filled.cones, bare.cones):
        assert kept == plain and hash(kept) == hash(plain) and repr(kept) == repr(plain)
    triples = [cc.cone.generator_echelon() for cc in filled.cones]
    triples += [data for _, data in filled._multisets.values()]
    assert all(isinstance(m, tuple) for m, _ in filled._multisets.values())
    for triple in triples:
        assert isinstance(triple, tuple) and len(triple) == 3
        assert all(isinstance(part, tuple) and all(isinstance(row, tuple) for row in part) for part in triple)


def test_from_generators_keeps_the_pass_echelon_only_when_it_ran_on_the_canonical_generators():
    canonical = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    kept = Cone.from_generators(3, canonical)
    assert kept._echelon == [frozen(kernel_and_complement(IntMatrix.from_rows(canonical, cols=3)))]
    for gens in (canonical[::-1], canonical + [(1, 1, 0)], [(0, 0, 2), (0, 1, 0), (1, 0, 0)]):
        cone = Cone.from_generators(3, gens)
        assert cone.generators == kept.generators and not cone._echelon
        assert cone.generator_echelon() == kept.generator_echelon()


def test_quotient_by_cone_rejects_a_cone_of_another_rank():
    datum = a1_cubed()
    cones = [Cone.from_generators(2, [(1, 0)]), Cone.from_generators(4, [(0, 0, 0, 1)]), Cone.zero(2), Cone.zero(0)]
    for cone in cones:
        with pytest.raises(ValueError):
            quotient_by_cone(datum, ColouredCone(cone, frozenset()))
