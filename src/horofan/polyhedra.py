"""Rational polyhedral cones, all exact.

A cone is stored by canonical primitive generators and its inequality
description (its dual generators).  Cones may be non-pointed and
non-full-dimensional: the inequality description then carries the span
equalities as +/- pairs, and the generator description carries a lineality
basis as +/- pairs.  One duality engine, `dual_generators`, splits off the
span with one integer echelon (`intlin.echelon_triple`, on the plain rows)
and finds facets by incremental double description, in integers throughout;
its seed rays come from a triangular solve, with no kernel per ray.  A
pointed cone is canonicalised with one pass of it, on its sorted distinct
primitive inputs: the pass gives the normals and each facet's zero set over
the inputs, and an input is extreme exactly when no other input lies on all
the facets through it, since the smallest face through it is then a ray.
The extreme inputs are the canonical generators; independent inputs are all
extreme, with no scan.  A cone with lineality is the dual of its dual, a
second pass over the normals; no workload builds one.  A `Cone` is its
ambient rank and canonical generators; what they determine is a
`cached_property`, which a builder that knows it already stores through
`_keep`.  So each cone has one incidence table, `Cone.incidences`: each
normal with its zero set over the canonical generators, read off the masks
of a double-description pass, the canonicalising one for a pointed cone and
one on its own canonical generators on first use for any other, a
`dual_cone` included, so no cone borrows another's table; and one echelon,
`Cone.generator_echelon`: the `intlin.echelon_triple` of its generator
rows, kept from the pass when every input is extreme, so that the pass ran
on the canonical generators, and made on first use otherwise.  Orbit
quotients, weight monoids, PLF and Cartier pieces and the unimodular test
of `plf_lattice` all read it.  The
+/- span equalities are exactly the normals whose zero set holds every
generator, since a lifted facet is reduced modulo the perp lattice and
never vanishes on the whole span; the others are the proper facets.
`faces`, `facet_owners`, `hilbert_basis` and `Cone.smallest_face` (behind
`is_face_of` and `horo`'s coloured faces) read that table, the only copy of
the normals; a cone is pointed iff no generator's negative is also a
generator.  Faces, built from generator subsets, take their dimensions from
the graded face lattice, walked on bit masks over the generators, and their
inequalities on first use.  The walk's step, `_facet_masks`, gives the
facets of one face, its maximal proper cuts by the cone's facets (Kaibel
and Pfetsch's vertex-facet incidence step): `faces` lists the faces with
it, and `horo` walks a fan's Hasse diagram with it.  A face on independent
generators is simplicial and its face lattice Boolean, so the step drops
one generator at a time below it and reads no table.  Hilbert bases stay in
Z^n: for the n x d
matrix B of d independent generators, the torsion of Z^n / B*Z^d is exactly
(span ∩ Z^n) / B*Z^d, so a Smith form of B lists the span's points in B's
half-open parallelepiped, with no span coordinates and no box; a unimodular
simplicial cone, whose generators extend to a basis, needs none and is its
own Hilbert basis.  Fan-level code takes the maximal cones a fan already
holds and reads owners off incidences, with no containment scan:
`facet_owners` lists the walls (facets with their owning cones) and
`complete_fan_walls` decides completeness from them and picks each wall's
u; `wall_gaps` reads the gaps of many PLFs at u in one pass, the rule
behind projectivity and positivity.  `plf_lattice` gives the piecewise
linear functions in ray coordinates by intersecting per-cone lattices one
maximal cone at a time, never stacking one covector per cone.  It is all
the divisor code needs: the Cartier lattice is PLF + Z^U, with U the
colours no cone uses (see `divisors.picard_group`).  A `horo.ColouredFan`
computes its wall table and PLF lattice once, from its maximal members.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence, TypeVar

from .intlin import (
    IntMatrix,
    column_hermite,
    echelon_triple,
    is_identity_echelon,
    kernel_basis,
    rank,
    reduce_mod_hermite,
    smith_normal_form,
)

Vector = tuple[int, ...]
T = TypeVar("T")
# the (echelon, complement, kernel) triple of `intlin.echelon_triple`, as tuples
Echelon = tuple[tuple[Vector, ...], tuple[Vector, ...], tuple[Vector, ...]]


class NotPointedError(ValueError):
    """Raised when an operation requires a strongly convex cone."""


class LatticeLiftError(ArithmeticError):
    """A vector has no integer preimage where lattice theory guarantees one."""


def primitive(v: Sequence[int]) -> Vector:
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _lifts(functionals: Sequence[Vector], complement: Sequence[Vector], perp: Sequence[Vector]) -> list[Vector]:
    """Each functional on a span lifted to Z^n, canonical modulo the span's annihilator L, in order.

    `complement` and `perp` are the last two parts of `intlin.echelon_triple`:
    a functional h in span coordinates lifts to h*complement, and `perp` is
    the basis of L in column Hermite form.
    """
    columns = list(zip(*complement))
    return reduce_mod_hermite([tuple(dot(h, column) for column in columns) for h in functionals], perp)


def _join_lineality(
    functionals: Sequence[Vector], complement: Sequence[Vector], perp: Sequence[Vector]
) -> list[Vector]:
    """The `_lifts` of functionals on a span, with +/- the basis of its annihilator; sorted."""
    return sorted(set(_lifts(functionals, complement, perp)) | set(perp) | {tuple(-x for x in b) for b in perp})


def _triangular_solve(rows: Sequence[Sequence[int]], j: int) -> Vector:
    """The primitive positive multiple of x with rows*x = e_j, for a lower-triangular `rows` with positive diagonal.

    The inverse of a lower-triangular matrix is lower-triangular, so x is
    zero above row j and the substitution starts there.  Fraction-free
    forward substitution: x stays integral with rows*x = D*e_j on the rows
    solved so far, and x and D are scaled up whenever the next diagonal entry
    does not divide its right-hand side.  D stays positive.
    """
    x = [0] * j
    scale = 1
    for i in range(j, len(rows)):
        row = rows[i]
        rest = scale * (i == j) - sum(row[k] * x[k] for k in range(j, i))
        f = row[i] // gcd(row[i], rest)
        if f > 1:
            x = [f * y for y in x]
            scale *= f
            rest *= f
        x.append(rest // row[i])
    return primitive(x)


def _pivot_triangle(echelon: Sequence[Vector]) -> tuple[list[int], list[Vector]]:
    """The pivot columns of a row Hermite form, and those columns as the rows of a matrix.

    Row i of the form vanishes before its pivot, and pivots increase, so
    column j of row i is zero for i > j: the matrix is lower-triangular with
    the positive pivots on its diagonal.
    """
    seeds = [next(j for j, x in enumerate(row) if x) for row in echelon]
    return seeds, [tuple(row[s] for row in echelon) for s in seeds]


def _dual_extreme_rays(echelon: Sequence[Vector]) -> list[tuple[Vector, int]]:
    """Primitive extreme rays of {x in R^d : <a, x> >= 0 for every column a of `echelon`}, with their zero sets.

    Incremental double description (Fukuda and Prodon, "Double description
    method revisited", 1996), for the d rows of a row Hermite form whose
    columns span R^d.  The columns at the d pivots form a lower-triangular
    matrix A with positive diagonal; they cut out a simplicial cone whose ray
    j solves A*x = e_j (`_triangular_solve`).  Each further column a keeps the
    rays r with <a, r> >= 0 and joins each pair r+, r- on opposite sides of
    it by <a, r+> r- - <a, r-> r+, if the pair is adjacent: no third ray
    vanishes on every constraint that both vanish on.  The cone stays
    pointed, where this test is exact.  A ray's zero set is a bit mask over
    the column indices, and it is exact: a joined ray is positive wherever
    either parent is.
    """
    coords = list(zip(*echelon))
    d = len(echelon)
    seeds, triangle = _pivot_triangle(echelon)
    seed_bits = sum(1 << s for s in seeds)
    rays = [
        (_triangular_solve(triangle, j), seed_bits & ~(1 << s))
        for j, s in enumerate(seeds)
    ]
    for i, a in enumerate(coords):
        if (seed_bits >> i) & 1:
            continue
        bit = 1 << i
        kept, pos, neg = [], [], []
        for r, z in rays:
            t = dot(a, r)
            if t > 0:
                kept.append((r, z))
                pos.append((r, z, t))
            elif t < 0:
                neg.append((r, z, t))
            else:
                kept.append((r, z | bit))
        if neg:
            masks = [z for _, z in rays]
            for p, zp, tp in pos:
                for q, zq, tq in neg:
                    common = zp & zq
                    if common.bit_count() < d - 2:
                        continue
                    # p, q and any third ray whose zero set holds `common`
                    if sum(1 for z in masks if z & common == common) > 2:
                        continue
                    kept.append((primitive([tp * y - tq * x for x, y in zip(p, q)]), common | bit))
        rays = kept
    return rays


def _dual_description(vecs: Sequence[Vector], n: int) -> tuple[list[Vector], list[int], Echelon]:
    """`dual_generators` of distinct nonzero vectors, each one's zero set over them as a bit mask, and their echelon.

    The facets are the extreme rays found in span coordinates; their lifts,
    and the +/- basis of `perp`, are the dual generators.  The lifts agree
    with the rays on the span, so a ray's mask is its lift's zero set, and
    the `perp` pairs vanish on every vector: their mask has every bit.  A
    lift is never a `perp` vector, since it is not zero on the span.  The
    masks come in the order of the sorted dual generators.  The echelon is
    `intlin.echelon_triple` of the vectors; its first part has as many rows
    as their rank.
    """
    data = echelon_triple(vecs, n)
    echelon, complement, perp = data
    rays = _dual_extreme_rays(echelon)
    every = (1 << len(vecs)) - 1
    masks = dict(zip(_lifts([r for r, _ in rays], complement, perp), [z for _, z in rays]))
    for b in perp:
        masks[b] = masks[tuple(-x for x in b)] = every
    normals = sorted(masks)
    return normals, [masks[h] for h in normals], data


def dual_generators(vectors: Sequence[Vector], n: int) -> list[Vector]:
    """Canonical generators of {m : <m, v> >= 0 for all v in vectors} in Z^n.

    The dual of Cone(V) is generated by the returned vectors, which also
    serve as an exact inequality description of Cone(V).  One echelon of
    [V^T | I] gives the dual's lineality lattice `perp` in Hermite form, span
    coordinates of V, and the lift of functionals on the span to Z^n
    (`intlin.echelon_triple`); the facets are found in span coordinates by
    double description, lifted, and reduced modulo `perp`.  With no nonzero
    vector the span is 0 and the answer is +/- the unit vectors.
    """
    return _dual_description(list(dict.fromkeys(tuple(v) for v in vectors if any(v))), n)[0]


def _extreme_generators(masks: Sequence[int], gens: Sequence[Vector]) -> dict[Vector, int]:
    """The distinct primitive generators of a pointed cone that span its extreme rays, each with its index.

    `masks` are the normals' zero sets over the generators.  The smallest
    face through g is cut out by the facets through g and is generated by the
    generators on all of them; it is a ray, so g is extreme, iff no other
    generator lies on all of them.
    """
    through = [sum(1 << k for k, z in enumerate(masks) if z >> i & 1) for i in range(len(gens))]
    return {
        g: i
        for i, (g, t) in enumerate(zip(gens, through))
        if not any(u & t == t for j, u in enumerate(through) if j != i)
    }


def _keep(obj: T, **values: object) -> T:
    """obj, with values its builder knows stored for its `cached_property`s; a stored value stays, a None is skipped."""
    kept = vars(obj)
    for name, value in values.items():
        if value is not None:
            kept.setdefault(name, value)
    return obj


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone in canonical form: an ambient rank and the canonical generators.

    Equal cones (as subsets of R^n) have equal generator tuples; equality and
    hashing are therefore structural.  The dimension, one incidence table and
    one echelon are `cached_property`s outside both, so `dataclasses.replace`
    derives them afresh; `from_generators` and `faces` store what they know
    through `_keep`.  The table `incidences` pairs each normal with its
    zero set over the generators and is the only copy of the normals.  A
    normal whose zero set holds every generator is a span equality, any
    other cuts out a proper facet.  It is read off a double-description
    pass on the cone's own generators: `from_generators`'s on a pointed
    cone, else one on first use.  The echelon
    `generator_echelon` is the `intlin.echelon_triple` of the generator
    rows, which answers the lattice questions on the span: its kernel is
    the annihilator of the span (orbit quotients), it solves for pieces on
    the cone (PLF and Cartier data), and it is the identity exactly when
    the generators extend to a basis (unimodular cones).  The cone is
    pointed iff no generator's negative is also a generator: with lineality
    L the generators hold +/- a basis of L, and a pointed cone cannot hold
    both g and -g.
    """

    ambient_rank: int
    generators: tuple[Vector, ...]

    @staticmethod
    def from_generators(ambient_rank: int, generators: Iterable[Sequence[int]]) -> "Cone":
        """The cone on the generators, canonicalised with one double-description pass when it is pointed.

        The pass gives the normals and each facet's zero set over the
        generators; the generators on every facet span the lineality L.  The
        pass runs on the sorted distinct primitive inputs.  A pointed cone's
        canonical generators are its extreme ones, and its incidence table is
        read off the pass: a normal vanishes on a canonical generator exactly
        when its mask has that generator's bit, so the table takes no dot
        product.  A cone with lineality is the dual of its dual,
        `dual_generators` of the normals, and reads its table off one pass
        on first use; no workload builds one.  Independent inputs, as many
        as the rank of the pass's echelon, span a simplicial pointed cone
        whose every generator is extreme, with no extremality scan.  When
        every input is extreme, the pass ran on exactly the canonical
        generators, in order, so its echelon is the cone's
        `generator_echelon` and is kept.
        """
        gens = [tuple(int(x) for x in g) for g in generators]
        if any(len(g) != ambient_rank for g in gens):
            raise ValueError("generator has wrong dimension")
        vecs = sorted({primitive(g) for g in gens if any(g)})
        if not vecs:
            return _keep(Cone(ambient_rank, ()), _dim=0)
        normals, masks, data = _dual_description(vecs, ambient_rank)
        independent = len(data[0]) == len(vecs)
        if not independent and any(all(z >> i & 1 for z in masks) for i in range(len(vecs))):
            canonical, table = dual_generators(normals, ambient_rank), None
        else:
            extreme = {g: i for i, g in enumerate(vecs)} if independent else _extreme_generators(masks, vecs)
            canonical = sorted(extreme)
            table = tuple((h, frozenset(c for c in canonical if z >> extreme[c] & 1)) for h, z in zip(normals, masks))
        kept = data if canonical == vecs else None
        return _keep(Cone(ambient_rank, tuple(canonical)), _dim=len(data[0]), _echelon=kept, incidences=table)

    @staticmethod
    def from_inequalities(ambient_rank: int, normals: Iterable[Sequence[int]]) -> "Cone":
        # dual_generators already returns the canonical generator tuple
        hs = [tuple(int(x) for x in h) for h in normals]
        if any(len(h) != ambient_rank for h in hs):
            raise ValueError("normal has wrong dimension")
        return Cone(ambient_rank, tuple(dual_generators(hs, ambient_rank)))

    @staticmethod
    def zero(ambient_rank: int) -> "Cone":
        return Cone(ambient_rank, ())

    def facet_normals(self) -> tuple[Vector, ...]:
        """Inequality description: the cone is exactly {u : <h, u> >= 0 for all h}, the normals of `incidences`."""
        return tuple(h for h, _ in self.incidences)

    def _describe(self) -> tuple[tuple[Vector, frozenset[Vector]], ...]:
        """The incidence table read off one double-description pass on the generators, keeping its dimension and echelon.

        The pass runs on the canonical generators, so its dual generators are
        the cone's normals, its masks their zero sets, and its echelon the
        cone's `generator_echelon`.
        """
        gens = self.generators
        normals, masks, data = _dual_description(gens, self.ambient_rank)
        _keep(self, _dim=len(data[0]), _echelon=data)
        return tuple((h, frozenset(g for i, g in enumerate(gens) if z >> i & 1)) for h, z in zip(normals, masks))

    def _check_point(self, p: Sequence[int]) -> None:
        if len(p) != self.ambient_rank:
            raise ValueError(f"point of length {len(p)} for a cone of ambient rank {self.ambient_rank}")

    def contains(self, v: Sequence[int]) -> bool:
        """Whether v lies in the cone; a ValueError when v's length is not the ambient rank."""
        self._check_point(v)
        return all(dot(h, v) >= 0 for h, _ in self.incidences)

    def smallest_face(self, p: Sequence[int]) -> Optional[tuple[Vector, ...]]:
        """The generators of the smallest face through p, in order, or None when p lies outside the cone.

        The normals vanishing at p cut it out: its generators are those in
        all their zero sets.  A p whose length is not the ambient rank is a
        ValueError.
        """
        self._check_point(p)
        values = [(dot(h, p), z) for h, z in self.incidences]
        if any(v < 0 for v, _ in values):
            return None
        inside = frozenset(self.generators).intersection(*(z for v, z in values if not v))
        return tuple(g for g in self.generators if g in inside)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(g) for g in other.generators) if other.generators else True

    def dim(self) -> int:
        return self._dim

    @cached_property
    def _dim(self) -> int:
        return rank(IntMatrix.from_rows(list(self.generators), cols=self.ambient_rank))

    def generator_echelon(self) -> Echelon:
        """`intlin.echelon_triple` of the generator rows, as tuples: (echelon, complement, kernel), once per cone."""
        return self._echelon

    @cached_property
    def _echelon(self) -> Echelon:
        return echelon_triple(self.generators, self.ambient_rank)

    @cached_property
    def incidences(self) -> tuple[tuple[Vector, frozenset[Vector]], ...]:
        """Each normal, in order, with its zero set over the generators: the cone's incidence table, once per cone.

        `from_generators` keeps it on a pointed cone from its pass; any other
        cone reads it off one pass on its own generators on first use
        (`_describe`).
        """
        return self._describe()

    def is_strongly_convex(self) -> bool:
        """Whether the cone is pointed: no generator's negative is also a generator.

        A cone of known dimension with as many generators is simplicial, and
        independent generators hold no such pair.
        """
        if vars(self).get("_dim") == len(self.generators):
            return True
        gens = set(self.generators)
        return not any(tuple(-x for x in g) in gens for g in gens)

    def rays(self) -> list["Cone"]:
        """The one-dimensional faces: the cones on the canonical generators of a strongly convex cone."""
        if not self.is_strongly_convex():
            raise NotPointedError("only a strongly convex cone is generated by its rays")
        return [Cone(self.ambient_rank, (g,)) for g in self.generators]

    def relative_interior_point(self) -> Vector:
        """An integer point in the relative interior (the generator sum)."""
        if not self.generators:
            return (0,) * self.ambient_rank
        return tuple(sum(g[i] for g in self.generators) for i in range(self.ambient_rank))


def dual_cone(sigma: Cone) -> Cone:
    """The dual cone {m : <m, u> >= 0 for all u in sigma}.

    Its canonical generators are sigma's normals, already sorted and
    distinct, and its normals are sigma's generators: both descriptions are
    `dual_generators` of the other.  Like any cone not built by
    `from_generators`, it reads its incidence table off one pass on its own
    generators on first use.
    """
    return Cone(sigma.ambient_rank, sigma.facet_normals())


def _facet_cuts(sigma: Cone, bits: Sequence[int]) -> list[int]:
    """sigma's proper facets as masks, generator i of sigma standing for bits[i]; none for a simplicial sigma.

    The masks are the zero sets of sigma's incidence table that do not hold
    every generator.  A simplicial sigma has simplicial faces only, whose
    facets `_facet_masks` finds with no cut, so its table is not read.
    """
    gens = sigma.generators
    if len(gens) == sigma.dim():
        return []
    bit = dict(zip(gens, bits))
    full = sum(bits)
    return [m for m in (sum(bit[g] for g in z) for _, z in sigma.incidences) if m != full]


def _facet_masks(s: int, dim: int, bits: Sequence[int], cuts: Sequence[int]) -> list[int]:
    """The facets of the face on mask s, of dimension dim, of a cone with these generator bits and `_facet_cuts`.

    A face with as many generators as its dimension is simplicial, its
    generators independent, and its face lattice Boolean: its facets drop
    one generator each, with no cut.  A cone with lineality has more
    generators than its dimension (its generators hold +/- pairs), and so
    has every face of it.  The facets of any other face are its maximal
    proper cuts s ∩ f by the cone's facets f (every face is an intersection
    of facets, so a facet of s lies in a proper cut, which is a face of s).
    The cuts are taken in decreasing popcount, and one is a facet iff no
    facet taken before it holds it, since a strictly larger cut has more
    bits.  This is the vertex-facet incidence step of Kaibel and Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", Comput. Geom. 23 (2002).
    """
    if s.bit_count() == dim:
        return [s ^ b for b in bits if s & b]
    below = {s & f for f in cuts}
    below.discard(s)
    kept: list[int] = []
    for t in sorted(below, key=int.bit_count, reverse=True):
        for u in kept:
            if t & u == t:
                break
        else:
            kept.append(t)
    return kept


def faces(sigma: Cone) -> list[Cone]:
    """All faces of sigma (including sigma and its minimal face), by dimension.

    Each face is built from its incidence subset of sigma's generators, which
    is already its canonical generator tuple.  The faces are listed one
    dimension at a time from sigma down, on bit masks over sigma's
    generators: every face but sigma is a facet of a face one dimension
    higher (the face lattice is graded), found by `_facet_masks`, so each
    face's dimension comes from the face it was found under, with no rank
    computation.  Only cuts read sigma's incidence table, so the faces of a
    simplicial cone, made by `faces` itself or not, take no
    double-description pass.
    """
    gens = sigma.generators
    bits = [1 << i for i in range(len(gens))]
    cuts = _facet_cuts(sigma, bits)
    full = (1 << len(gens)) - 1
    d = sigma.dim()
    dims = {full: d}
    level = [full]
    while level:
        below = []
        for s in level:
            for t in _facet_masks(s, d, bits, cuts):
                if t not in dims:
                    dims[t] = d - 1
                    below.append(t)
        level, d = below, d - 1
    out = [
        sigma if s == full else _keep(Cone(sigma.ambient_rank, tuple(g for g, b in zip(gens, bits) if b & s)), _dim=d)
        for s, d in dims.items()
    ]
    return sorted(out, key=lambda c: (c.dim(), c.generators))


def is_face_of(tau: Cone, sigma: Cone) -> bool:
    """Whether tau = sigma ∩ m⊥ for some m in the dual cone of sigma: the smallest face through tau's generator sum."""
    if tau.ambient_rank != sigma.ambient_rank:
        return False
    return sigma.smallest_face(tau.relative_interior_point()) == tau.generators


def intersect(a: Cone, b: Cone) -> Cone:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("cones live in different ambient ranks")
    return Cone.from_inequalities(a.ambient_rank, list(a.facet_normals()) + list(b.facet_normals()))


def _parallelepiped_points(b: IntMatrix) -> list[Vector]:
    """The integer points b*t with every 0 <= t_i < 1, for an n x d matrix b; none if its rank is below d.

    With U*b*V = D, the torsion Z/d_1 x ... x Z/d_d of Z^n / b*Z^d is
    (span ∩ Z^n) / b*Z^d, and its class k holds U^-1 * (k, 0) = b*t for
    t = V * D^-1 * k, taken mod 1.  Scaled by e = d_d, which every d_i
    divides, e*t = V * (k_i * e / d_i) mod e is integral.
    """
    _, d, v = smith_normal_form(b)
    diag = d.diagonal()
    if 0 in diag:
        return []
    e = diag[-1]
    v_rows, b_rows = v.row_list(), b.row_list()
    points = []
    for k in itertools.product(*(range(di) for di in diag)):
        y = [ki * (e // di) for ki, di in zip(k, diag)]
        et = [dot(row, y) % e for row in v_rows]
        points.append(tuple(dot(row, et) // e for row in b_rows))
    return points


def hilbert_basis(sigma: Cone) -> list[Vector]:
    """Minimal generating set of the monoid sigma ∩ Z^n for pointed sigma, sorted.

    Every irreducible element is a generator or lies in the half-open
    fundamental parallelepiped of a simplicial subcone spanned by d = dim
    sigma generators (Caratheodory covers the cone).  For the n x d matrix B
    of those generators, the torsion of Z^n / B*Z^d is exactly
    (span ∩ Z^n) / B*Z^d, so a Smith form of B gives one point per class, in
    Z^n, with no span coordinates and no box scan.  The candidates are then
    reduced to the irreducible elements against the normals of sigma's
    proper facets, read off its incidence table.  A simplicial sigma whose
    generators extend to a basis of Z^n, read off its `generator_echelon`
    as in `plf_lattice`, has sigma ∩ Z^n = ⊕ N*g_i: its Hilbert basis is
    its generators, with no candidates.
    """
    if not sigma.is_strongly_convex():
        raise NotPointedError("Hilbert basis requires a strongly convex cone")
    k = len(sigma.generators)
    if k == sigma.dim() and is_identity_echelon(sigma.generator_echelon()[0], k):
        return sorted(sigma.generators)
    n = sigma.ambient_rank
    candidates: set[Vector] = set(sigma.generators)
    for subset in itertools.combinations(sigma.generators, sigma.dim()):
        candidates.update(_parallelepiped_points(IntMatrix.from_columns(subset, rows=n)))
    candidates.discard((0,) * n)
    # the span equalities vanish on every generator, so on the span, where all candidates lie
    full = frozenset(sigma.generators)
    facets = [h for h, z in sigma.incidences if z != full]

    def in_monoid(v: Sequence[int]) -> bool:
        return all(dot(h, v) >= 0 for h in facets)

    def reducible(h: Vector) -> bool:
        # h = c + (h - c) with both parts nonzero points of the cone
        return any(c != h and in_monoid([x - y for x, y in zip(h, c)]) for c in candidates)

    return sorted(h for h in candidates if not reducible(h))


def facet_owners(maximal: Sequence[Cone]) -> dict[Cone, list[int]]:
    """Each facet of a cone in `maximal`, with the indices of the cones in `maximal` having it as a facet.

    The facets of a cone are the incidence sets of its normals that are not
    zero on all of it, taken in generator order; each cone's index is
    appended to its facets as they are listed.  In a fan whose maximal cones
    are full-dimensional, a maximal cone containing a facet of another meets
    it in that facet, which is then a facet of both: the owners are exactly
    the cones containing the facet.  On a complete fan every facet has
    exactly two owners, so the table is the fan's wall list.
    """
    owners: dict[tuple[Vector, ...], list[int]] = {}
    for i, c in enumerate(maximal):
        full = frozenset(c.generators)
        facets = {tuple(g for g in c.generators if g in z) for _, z in c.incidences if z != full}
        for f in sorted(facets):
            owners.setdefault(f, []).append(i)
    return {Cone(maximal[o[0]].ambient_rank, f): o for f, o in owners.items()}


def fan_is_complete(maximal: Sequence[Cone]) -> bool:
    """Whether the fan with these maximal cones is complete, by facet pairing (see `complete_fan_walls`)."""
    return complete_fan_walls(maximal) is not None


def complete_fan_walls(maximal: Sequence[Cone]) -> Optional[dict[Cone, tuple[int, int, Vector]]]:
    """Each wall of a complete fan with its owners i < j in `maximal` and u, else None if the fan is not complete.

    A fan is complete iff it has a maximal cone, all maximal cones are
    full-dimensional and every facet of a maximal cone lies in exactly two of
    them (so the facets are walls).  Proof of "if": a point of the support
    in the relative interior of a facet has a neighbourhood covered by its
    two owners, which lie on opposite sides of it, and a point inside a
    maximal cone is interior; so the boundary of the support lies in the
    union Z of the faces of dimension <= n - 2.  Z lies in finitely many
    subspaces of codimension 2, so R^n minus Z is connected; the support
    minus Z is open and closed in it and not empty, so it is all of R^n
    minus Z, and the support, being closed, is R^n.  In rank 0 the
    zero cone has no facets, so its table is {}.  Completeness is what lets
    convexity of a piecewise linear function be read off its walls alone
    (Cox-Little-Schenck, Toric Varieties, 6.1).  Walls come in `facet_owners`
    order; u is the first generator of sigma_i off the wall.  Pieces m_i, m_j
    agreeing on the wall's rays, which span its hyperplane, differ by a
    multiple of its normal, so the gap <m_i - m_j, u> of `wall_gaps` has the
    sign of <m_i - m_j, v> and <m_j - m_i, w> for every generator v of
    sigma_i and w of sigma_j off the wall.
    """
    if not maximal or any(c.dim() < c.ambient_rank for c in maximal):
        return None
    owners = facet_owners(maximal)
    if any(len(o) != 2 for o in owners.values()):
        return None
    return {
        wall: (i, j, next(g for g in maximal[i].generators if g not in wall.generators))
        for wall, (i, j) in owners.items()
    }


def wall_gaps(walls: dict[Cone, tuple[int, int, Vector]], pieces: Sequence[Sequence[Sequence[int]]]) -> list[Vector]:
    """For each wall (i, j, u) of a `complete_fan_walls` table, in order, the gaps <m_i - m_j, u> of several PLFs.

    `pieces[i]` lists the pieces on sigma_i of several functions, in one
    order.  On a complete fan a function is convex iff its gaps are all >= 0,
    strictly convex iff all > 0 (Cox-Little-Schenck, Toric Varieties, 6.1).
    """
    return [tuple(dot(mi, u) - dot(mj, u) for mi, mj in zip(pieces[i], pieces[j])) for i, j, u in walls.values()]


def plf_lattice(maximal: Sequence[Cone]) -> tuple[list[Vector], IntMatrix]:
    """The sorted rays of a fan's maximal cones, and the column Hermite basis of its PLFs in Z^rays.

    A piecewise linear function is fixed by its values v_u on the rays,
    since every maximal cone is spanned by its rays; v is one exactly when
    each maximal cone sigma has an m_sigma in Z^r with <m_sigma, u> = v_u on
    its generators u (Cox-Little-Schenck, Toric Varieties, 4.2).  Two maximal
    cones meet in a face of both, whose rays are rays of both, so the pieces
    agree where they meet.  Starting from Z^rays the cones are intersected
    in one at a time: with the current basis Lambda, the kernel of
    [Lambda_rows(sigma) | -G_sigma], G_sigma the generators of sigma as rows,
    holds the pairs (y, m) with G_sigma m = (Lambda y) on sigma's rays, and
    the vectors Lambda y span the smaller lattice.  No matrix is wider than
    #rays + r.  A unimodular cone, whose k generator rows have column
    Hermite form identity(k), is skipped: G_sigma maps Z^r onto Z^k, so any
    values on its rays come from some m_sigma and the lattice is unchanged,
    and so is its Hermite basis, which is canonical.  The test reads the
    cone's `generator_echelon`, whose echelon is that Hermite form.
    """
    rays = sorted({g for c in maximal for g in c.generators})
    index = {u: t for t, u in enumerate(rays)}
    r = maximal[0].ambient_rank if maximal else 0
    basis = IntMatrix.identity(len(rays))
    for c in maximal:
        if is_identity_echelon(c.generator_echelon()[0], len(c.generators)):
            continue
        block = [list(basis.row(index[u])) + [-x for x in u] for u in c.generators]
        kernel = kernel_basis(IntMatrix.from_rows(block, cols=basis.cols + r))
        basis = column_hermite(IntMatrix.from_columns([basis.apply(y[: basis.cols]) for y in kernel], rows=len(rays)))
    return rays, basis


def covered_by(target: Cone, covers: Sequence[Cone], cancelled=None) -> bool:
    """Exact test for target ⊆ union(covers), by facet splitting.

    A work list holds pieces of the target, each with the index k of the
    next cover to try.  A piece inside one of covers[k:] is done; with no
    cover left it is not covered.  Otherwise the part of the piece outside
    covers[k] is split off along that cover's facets, and its full-dimensional
    pieces go on with k + 1.  A cover that meets the piece in lower
    dimension is passed over, since splitting along it would only fragment
    the piece.  The list is kept on the heap, so no number of covers
    exhausts the interpreter's stack.
    """
    work = [(target, 0)]
    while work:
        if cancelled is not None and cancelled():
            raise InterruptedError("polyhedral covering check cancelled")
        piece, k = work.pop()
        if any(c.contains_cone(piece) for c in covers[k:]):
            continue
        if k == len(covers):
            return False
        cover = covers[k]
        if intersect(piece, cover).dim() < piece.dim():
            work.append((piece, k + 1))
            continue
        pieces = []
        region = piece
        for h in cover.facet_normals():
            if all(dot(h, g) >= 0 for g in region.generators):
                continue
            outside = Cone.from_inequalities(piece.ambient_rank, [*region.facet_normals(), tuple(-x for x in h)])
            if outside.dim() == piece.dim():
                pieces.append((outside, k + 1))
            region = Cone.from_inequalities(piece.ambient_rank, [*region.facet_normals(), h])
        work.extend(reversed(pieces))  # popped in splitting order
    return True
