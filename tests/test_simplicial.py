"""Cones on independent generators: the Boolean face lattice, canonicalisation with no
extremality scan and unimodular Hilbert bases, against the oracles.

Seeded simplicial cones of rank 1-6 (full- and lower-dimensional, with non-primitive
and permuted inputs), cones whose faces mix simplicial and non-simplicial ones, and
images of coordinate cones under seeded unimodular matrices.
"""

import itertools
import random
from collections import Counter

from horofan import intlin, polyhedra
from horofan.intlin import IntMatrix
from horofan.polyhedra import Cone, _keep, dot, faces, hilbert_basis, primitive

from .oracles import brute_force_hilbert, dot_product_incidences, frozenset_faces

# brute_force_hilbert is quadratic in the lattice points of its box
BOX_LIMIT = 400


def independent_vectors(rng: random.Random, n: int, k: int) -> list[tuple[int, ...]]:
    """k independent vectors in Z^n with small entries, some scaled by 2 or 3, in seeded order."""
    while True:
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if intlin.rank(IntMatrix.from_rows(vecs, cols=n)) == k:
            return [tuple(c * x for x in v) for c, v in zip(rng.choices((1, 1, 2, 3), k=k), vecs)]


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A seeded n x n integer matrix of determinant +/-1: a signed permutation after a few shears."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            for row in a:
                row[i] += c * row[j]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * x for x in a[perm[i]]] for i in range(n)]


def box_size(cone: Cone) -> int:
    """The number of lattice points in the box `brute_force_hilbert` scans."""
    size = 1
    for i in range(cone.ambient_rank):
        size *= sum(abs(g[i]) for g in cone.generators) + 1
    return size


def assert_faces_match(sigma: Cone) -> list[Cone]:
    walked, expected = faces(sigma), frozenset_faces(sigma)
    assert walked == expected
    assert [f.dim() for f in walked] == [f.dim() for f in expected]
    return walked


def test_faces_of_seeded_simplicial_cones_are_the_generator_subsets():
    """Rank 1-6, full- and lower-dimensional: the 2^k faces, each with its dimension, as the oracle walks them."""
    rng = random.Random(41)
    kinds = Counter()
    for n in range(1, 7):
        for k in range(1, n + 1):
            for _ in range(6 if n < 6 else 3):
                gens = independent_vectors(rng, n, k)
                sigma = Cone.from_generators(n, gens)
                assert sigma.generators == tuple(sorted({primitive(g) for g in gens}))
                walked = assert_faces_match(sigma)
                assert len(walked) == 2**k
                assert all(f.dim() == len(f.generators) for f in walked)
                kinds["full" if k == n else "lower"] += 1
    assert kinds["full"] >= 30 and kinds["lower"] >= 60


def sphere_cones(rng: random.Random, count: int) -> list[Cone]:
    """Cones on 6 lattice points of the sphere |x|^2 = 9 at height 2 in Z^5, spanning it."""
    points = [x + (2,) for x in itertools.product(range(-3, 4), repeat=4) if dot(x, x) == 9]
    out = []
    while len(out) < count:
        gens = rng.sample(points, 6)
        if intlin.rank(IntMatrix.from_rows(gens, cols=5)) == 5:
            out.append(Cone.from_generators(5, gens))
    return out


def test_faces_mixing_simplicial_and_non_simplicial_faces_match_the_oracle():
    """A cone over a square pyramid (a square facet, triangular ones) and cones on 6 sphere points in Z^5."""
    pyramid = Cone.from_generators(4, [(1, 1, 0, 1), (1, -1, 0, 1), (-1, 1, 0, 1), (-1, -1, 0, 1), (0, 0, 1, 1)])
    kinds = Counter()
    for sigma in [pyramid] + sphere_cones(random.Random(43), 20):
        for f in assert_faces_match(sigma):
            kinds["simplicial" if f.dim() == len(f.generators) else "other"] += 1
    # each cone is a non-simplicial face of itself, and so is the pyramid's square facet
    assert kinds["other"] > 22 and kinds["simplicial"] >= 500
    assert len(faces(pyramid)) == 1 + 5 + 8 + 5 + 1


def test_faces_of_a_simplicial_cone_without_a_table_run_no_double_description(monkeypatch):
    """`faces` reads no incidence table on a simplicial cone, so a cone built from its canonical
    generators and dimension, as `faces` builds its faces, and each of its faces take no pass."""
    rng = random.Random(47)
    calls = Counter()
    describe = Cone._describe

    def counted(self):
        calls["_describe"] += 1
        return describe(self)

    for n in range(1, 6):
        for k in range(1, n + 1):
            gens = tuple(sorted({primitive(g) for g in independent_vectors(rng, n, k)}))
            sigma = _keep(Cone(n, gens), _dim=k)
            monkeypatch.setattr(Cone, "_describe", counted)
            walked = faces(sigma)
            below = [faces(f) for f in walked]
            monkeypatch.undo()
            assert calls == Counter() and "incidences" not in vars(sigma)
            assert walked == frozenset_faces(Cone(n, gens))
            assert [len(b) for b in below] == [2 ** len(f.generators) for f in walked]


def test_independent_inputs_give_the_dot_product_table():
    """`from_generators` on independent, non-primitive, permuted inputs seeds the dot-product table."""
    rng = random.Random(53)
    for n in range(1, 6):
        for k in range(1, n + 1):
            for _ in range(8):
                gens = independent_vectors(rng, n, k)
                sigma = Cone.from_generators(n, gens)
                assert "incidences" in vars(sigma)
                assert sigma.incidences == dot_product_incidences(sigma)


def count_smith_forms(monkeypatch) -> Counter:
    calls = Counter()
    smith = polyhedra.smith_normal_form

    def counted(m):
        calls["smith_normal_form"] += 1
        return smith(m)

    monkeypatch.setattr(polyhedra, "smith_normal_form", counted)
    return calls


def test_unimodular_hilbert_bases_are_the_generators_with_no_smith_form(monkeypatch):
    """On 225 images of coordinate cones under seeded unimodular matrices, k <= n <= 5, the Hilbert
    basis is the sorted generators, with no Smith form, and the box oracle's where its box is small."""
    rng = random.Random(59)
    cones = []
    for n in range(1, 6):
        for k in range(1, n + 1):
            for _ in range(15):
                columns = list(zip(*unimodular(rng, n)))[:k]
                rng.shuffle(columns)
                cones.append(Cone.from_generators(n, columns))
    calls = count_smith_forms(monkeypatch)
    bases = [hilbert_basis(c) for c in cones]
    monkeypatch.undo()
    assert calls == Counter()
    checked = 0
    for cone, basis in zip(cones, bases):
        assert basis == sorted(cone.generators) and len(basis) == cone.dim()
        if box_size(cone) <= BOX_LIMIT:
            assert basis == sorted(brute_force_hilbert(cone))
            checked += 1
    assert len(cones) == 225 and checked >= 100


def test_non_unimodular_simplicial_hilbert_bases_match_the_box_oracle():
    """Images of coordinate cones under a seeded unimodular matrix times a triangular one of determinant
    2 or 3, whose primitive generators still span a sublattice of index > 1: more than the generators."""
    rng = random.Random(61)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        u = unimodular(rng, n)
        t = [[rng.randint(0, 1) if j > i else int(i == j) for j in range(k)] for i in range(k)]
        i = rng.randrange(k)
        t[i][i] = rng.choice((2, 3))
        gens = [tuple(sum(u[r][m] * t[m][j] for m in range(k)) for r in range(n)) for j in range(k)]
        cone = Cone.from_generators(n, gens)
        index = intlin.invariant_factors(IntMatrix.from_columns(cone.generators, rows=n))[-1]
        if cone.dim() != k or index == 1 or box_size(cone) > BOX_LIMIT:
            continue
        basis = hilbert_basis(cone)
        assert basis == sorted(brute_force_hilbert(cone))
        assert basis != sorted(cone.generators)
        checked += 1
