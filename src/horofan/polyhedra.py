"""Rational polyhedral cones and plain fans, all exact.

A cone is stored by canonical primitive generators and its inequality
description (its dual generators); one duality engine, `dual_generators`,
yields both when a cone is canonicalised (the cone is the dual of its dual),
and faces, built from generator subsets, get their inequalities on first use.
Cones may be non-pointed and non-full-dimensional: the inequality description
then carries the span equalities as +/- pairs, and the generator description
carries a lineality basis as +/- pairs.  The engine splits off the span with
one integer echelon and finds facets by incremental double description, in
integers throughout.  Hilbert bases enumerate the group Z^d / B*Z^d of each
simplicial basis B, not a box.  Fans say where their walls are
(`facet_owners`) and how piecewise linear functions glue across their members
(`gluing_rows`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .intlin import (
    IntMatrix,
    kernel_and_complement,
    kernel_basis,
    lattice_coordinates,
    rank,
    reduce_mod_hermite,
    saturate,
    smith_normal_form,
    vector_gcd,
)

Vector = tuple[int, ...]


class NotPointedError(ValueError):
    """Raised when an operation requires a strongly convex cone."""


class LatticeLiftError(ArithmeticError):
    """A vector has no integer preimage where lattice theory guarantees one."""


def primitive(v: Sequence[int]) -> Vector:
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _unit_vectors(n: int) -> list[Vector]:
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _in_coordinates(vectors: Sequence[Vector], basis: IntMatrix) -> list[Vector]:
    coords = lattice_coordinates(vectors, basis)
    if None in coords:
        raise ValueError("vector outside the saturated span lattice")
    return coords


def _join_lineality(vectors: Sequence[Vector], lattice: list[Vector]) -> list[Vector]:
    """Sorted canonical representatives of `vectors` modulo the lattice L, and +/- the basis of L.

    `lattice` is a basis of L in column Hermite form, as `kernel_basis` returns it.
    """
    out = set(reduce_mod_hermite(vectors, lattice))
    return sorted(out | set(lattice) | {tuple(-x for x in b) for b in lattice})


def _dual_extreme_rays(coords: Sequence[Vector], seeds: Sequence[int], d: int) -> list[Vector]:
    """Primitive extreme rays of {x in R^d : <a, x> >= 0 for all a in coords}, sorted.

    Incremental double description (Fukuda and Prodon, "Double description
    method revisited", 1996).  The d linearly independent constraints
    coords[j], j in `seeds`, cut out a simplicial cone whose rays are their d
    rank-one kernels.  Each further constraint a keeps the rays r with
    <a, r> >= 0 and joins each pair r+, r- on opposite sides of it by
    <a, r+> r- - <a, r-> r+, if the pair is adjacent: no third ray vanishes on
    every constraint that both vanish on.  The cone stays pointed, where this
    test is exact.  A ray's zero set is a bit mask over constraint indices.
    """
    rays: list[tuple[Vector, int]] = []
    seed_bits = sum(1 << j for j in seeds)
    for j in seeds:
        (r,) = kernel_basis(IntMatrix.from_rows([coords[s] for s in seeds if s != j], cols=d))
        rays.append((r if dot(coords[j], r) > 0 else tuple(-x for x in r), seed_bits & ~(1 << j)))
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
    return sorted(r for r, _ in rays)


def dual_generators(vectors: Sequence[Vector], n: int) -> list[Vector]:
    """Canonical generators of {m : <m, v> >= 0 for all v in vectors} in Z^n.

    This single engine converts generator descriptions to inequality
    descriptions and back: the dual of Cone(V) is generated by the returned
    vectors, which also serve as an exact inequality description of Cone(V).
    One echelon of [V^T | I] gives the dual's lineality lattice `perp` in
    Hermite form, span coordinates of V, and the lift of functionals on the
    span to Z^n (`kernel_and_complement`); the facets are found in span
    coordinates by double description, lifted, and reduced modulo `perp`.
    """
    vecs = list(dict.fromkeys(tuple(v) for v in vectors if any(v)))
    if not vecs:
        return sorted(u for e in _unit_vectors(n) for u in (e, tuple(-x for x in e)))
    echelon, complement, perp = kernel_and_complement(IntMatrix.from_rows(vecs, cols=n))
    d = len(echelon)
    seeds = [next(j for j, x in enumerate(row) if x) for row in echelon]
    facets = _dual_extreme_rays(list(zip(*echelon)), seeds, d)
    columns = list(zip(*complement))
    return _join_lineality([tuple(dot(h, column) for column in columns) for h in facets], perp)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone in canonical form.

    Equal cones (as subsets of R^n) have equal generator tuples; equality and
    hashing are therefore structural.  `from_generators` stores the normals
    it computes in a write-once slot outside both; other cones fill it on use.
    """

    ambient_rank: int
    generators: tuple[Vector, ...]
    _normals: list = field(default_factory=list, compare=False, repr=False, hash=False)

    @staticmethod
    def from_generators(ambient_rank: int, generators: Iterable[Sequence[int]]) -> "Cone":
        gens = [tuple(int(x) for x in g) for g in generators]
        if any(len(g) != ambient_rank for g in gens):
            raise ValueError("generator has wrong dimension")
        gens = [g for g in gens if any(g)]
        if not gens:
            return Cone(ambient_rank, ())
        # the dual of the dual is the cone, and dual_generators answers canonically
        normals = tuple(dual_generators(gens, ambient_rank))
        return Cone(ambient_rank, tuple(dual_generators(normals, ambient_rank)), [normals])

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
        """Inequality description: the cone is exactly {u : <h, u> >= 0 for all h}."""
        if not self._normals:
            self._normals.append(tuple(dual_generators(self.generators, self.ambient_rank)))
        return self._normals[0]

    def contains(self, v: Sequence[int]) -> bool:
        return all(dot(h, v) >= 0 for h in self.facet_normals())

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(g) for g in other.generators) if other.generators else True

    def dim(self) -> int:
        return self._dim

    @cached_property
    def _dim(self) -> int:
        if not self.generators:
            return 0
        return rank(IntMatrix.from_rows(list(self.generators), cols=self.ambient_rank))

    def lineality_basis(self) -> list[Vector]:
        return kernel_basis(IntMatrix.from_rows(list(self.facet_normals()), cols=self.ambient_rank))

    def is_strongly_convex(self) -> bool:
        return not self.lineality_basis()

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


def _through_lineality_quotient(gens: Sequence[Vector], lin: list[Vector], n: int, pointed) -> list[Vector]:
    """Answer for a cone with lineality lattice L from its pointed quotient.

    `lin` is the basis of L in column Hermite form that `Cone.lineality_basis`
    returns.  `pointed(images, d)` gets the nonzero images of `gens` in
    Z^n / L = Z^d; its vectors are lifted to canonical representatives modulo
    L and joined by the +/- basis of L.
    """
    q = IntMatrix.from_rows(kernel_basis(IntMatrix.from_rows(lin, cols=n)), cols=n)
    images = [w for w in (q.apply(g) for g in gens) if any(w)]
    # the rows of q span a saturated lattice, so q is onto and every vector lifts
    lifts = lattice_coordinates(pointed(images, q.rows) if images else [], q)
    if None in lifts:
        raise LatticeLiftError("a matrix with saturated rows maps onto")
    return _join_lineality(lifts, lin)


def dual_cone(sigma: Cone) -> Cone:
    """The dual cone {m : <m, u> >= 0 for all u in sigma}.

    Its canonical generators are sigma's normals and its normals are sigma's
    generators: both descriptions are `dual_generators` of the other.
    """
    return Cone(sigma.ambient_rank, sigma.facet_normals(), [sigma.generators])


def faces(sigma: Cone) -> list[Cone]:
    """All faces of sigma (including sigma and its minimal face), by dimension.

    Each face is built from its incidence subset of sigma's generators, which
    is already its canonical generator tuple.
    """
    gens = sigma.generators
    full = frozenset(gens)
    facet_sets: list[frozenset[Vector]] = []
    for h in sigma.facet_normals():
        on = frozenset(g for g in gens if dot(h, g) == 0)
        if on != full:
            facet_sets.append(on)
    collected = {full}
    frontier = {full}
    while frontier:
        nxt = set()
        for s in frontier:
            for f in facet_sets:
                t = s & f
                if t not in collected:
                    collected.add(t)
                    nxt.add(t)
        frontier = nxt
    out = [sigma if s == full else Cone(sigma.ambient_rank, tuple(sorted(s))) for s in collected]
    return sorted(out, key=lambda c: (c.dim(), c.generators))


def is_face_of(tau: Cone, sigma: Cone) -> bool:
    """Whether tau = sigma ∩ m⊥ for some m in the dual cone of sigma."""
    if tau.ambient_rank != sigma.ambient_rank:
        return False
    if not sigma.contains_cone(tau):
        return False
    point = tau.relative_interior_point()
    active = [h for h in sigma.facet_normals() if dot(h, point) == 0]
    smallest = tuple(g for g in sigma.generators if all(dot(h, g) == 0 for h in active))
    return smallest == tau.generators


def intersect(a: Cone, b: Cone) -> Cone:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("cones live in different ambient ranks")
    return Cone.from_inequalities(a.ambient_rank, list(a.facet_normals()) + list(b.facet_normals()))


def is_strongly_convex(sigma: Cone) -> bool:
    return sigma.is_strongly_convex()


def cone_dim(sigma: Cone) -> int:
    return sigma.dim()


def _parallelepiped_points(b: IntMatrix) -> list[Vector]:
    """The |det b| integer points b*t with every 0 <= t_i < 1; none if b is singular.

    With U*b*V = D, class k of Z^n / b*Z^n = Z/d_1 x ... x Z/d_n holds U^-1 * k,
    whose coordinates b^-1 * U^-1 * k = V * D^-1 * k are taken mod 1.  Scaled by
    e = d_n, which every d_i divides, e*t = V * (k_i * e / d_i) mod e is integral.
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
    """Minimal generating set of the monoid sigma ∩ Z^n for pointed sigma.

    Every irreducible element is a generator or lies in the half-open
    fundamental parallelepiped of a simplicial subcone spanned by generators
    (Caratheodory covers the cone): one point per class of Z^d / B*Z^d for
    the basis B, enumerated through its Smith form, with no box scan.  The
    candidates are then reduced to the irreducible elements.
    """
    if not sigma.is_strongly_convex():
        raise NotPointedError("Hilbert basis requires a strongly convex cone")
    if not sigma.generators:
        return []
    n = sigma.ambient_rank
    span = saturate(IntMatrix.from_columns(sigma.generators, rows=n))
    d = span.cols
    coords = _in_coordinates(sigma.generators, span)
    normals = dual_generators(coords, d)
    candidates: set[Vector] = set(coords)
    for subset in itertools.combinations(coords, d):
        candidates.update(_parallelepiped_points(IntMatrix.from_columns(subset, rows=d)))
    candidates.discard((0,) * d)

    def in_monoid(v: Sequence[int]) -> bool:
        return all(dot(h, v) >= 0 for h in normals)

    def reducible(h: Vector) -> bool:
        # h = c + (h - c) with both parts nonzero points of the cone
        return any(c != h and in_monoid([x - y for x, y in zip(h, c)]) for c in candidates)

    return sorted(span.apply(h) for h in candidates if not reducible(h))


@dataclass(frozen=True)
class PlainFan:
    """Finite face-closed collection of strongly convex cones."""

    ambient_rank: int
    cones: tuple[Cone, ...]

    @staticmethod
    def from_cones(ambient_rank: int, cones: Iterable[Cone]) -> "PlainFan":
        return PlainFan(ambient_rank, tuple(sorted(set(cones), key=lambda c: (c.dim(), c.generators))))

    def maximal_cones(self) -> list[Cone]:
        return [c for c in self.cones if not any(o != c and o.contains_cone(c) for o in self.cones)]


def support_contains(fan: PlainFan, u: Sequence[int]) -> bool:
    return any(c.contains(u) for c in fan.cones)


def facet_owners(maximal: Sequence[Cone]) -> dict[Cone, list[int]]:
    """Each facet of a cone in `maximal`, with the indices of the cones in `maximal` containing it.

    On a complete fan every facet has exactly two owners, so the table is the
    fan's wall list.  The facets of a cone are the incidence sets of its
    normals that are not zero on all of it, taken in generator order.
    """
    facets: dict[Cone, None] = {}
    for c in maximal:
        incidences = {tuple(g for g in c.generators if dot(h, g) == 0) for h in c.facet_normals()}
        facets.update(dict.fromkeys(Cone(c.ambient_rank, f) for f in sorted(incidences - {c.generators})))
    return {f: [i for i, c in enumerate(maximal) if c.contains_cone(f)] for f in facets}


def fan_is_complete(fan: PlainFan) -> bool:
    """Exact completeness check by facet pairing (see `complete_fan_walls`)."""
    return complete_fan_walls(fan) is not None


def complete_fan_walls(fan: PlainFan) -> Optional[tuple[list[Cone], dict[Cone, list[int]]]]:
    """The maximal cones and their `facet_owners` table if the fan is complete, else None.

    A fan is complete iff all maximal cones are full-dimensional, every facet
    of a maximal cone lies in exactly two maximal cones (so the facets are
    walls), and the wall graph is connected.  Rank 0 is trivially complete.
    Completeness is what lets convexity of a piecewise linear function be
    read off its walls alone (Cox-Little-Schenck, Toric Varieties, 6.1).
    """
    n = fan.ambient_rank
    maximal = fan.maximal_cones()
    if n == 0:
        return (maximal, {}) if maximal else None
    if not maximal or any(c.dim() < n for c in maximal):
        return None
    owners = facet_owners(maximal)
    if any(len(o) != 2 for o in owners.values()):
        return None
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(maximal))}
    for a, b in owners.values():
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop()
        for nxt in adjacency[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return (maximal, owners) if len(seen) == len(maximal) else None


def gluing_rows(maximal: Sequence[Cone], members: Iterable[Cone]) -> IntMatrix:
    """Rows over the stacked covectors (m_0, ..., m_{k-1}) of `maximal` that glue them on `members`.

    For each member tau the cones of `maximal` containing tau are chained,
    and each consecutive pair (a, b) gets the row <m_a - m_b, u> = 0 for every
    generator u of tau.  In a fan sigma_i ∩ sigma_j is a member, and its
    generators are generators of every member containing it, so these rows
    span the lattice of the rows of every pair sigma_i, sigma_j on the
    generators of sigma_i ∩ sigma_j.  Their integer kernel is the lattice of
    piecewise linear functions on the fan, linear functions included.
    """
    r = maximal[0].ambient_rank if maximal else 0
    rows = []
    for tau in members:
        owners = [i for i, c in enumerate(maximal) if c.contains_cone(tau)]
        for a, b in zip(owners, owners[1:]):
            for u in tau.generators:
                row = [0] * (r * len(maximal))
                row[a * r : (a + 1) * r] = u
                row[b * r : (b + 1) * r] = [-x for x in u]
                rows.append(row)
    return IntMatrix.from_rows(rows, cols=r * len(maximal))


def covered_by(target: Cone, covers: Sequence[Cone], cancelled=None) -> bool:
    """Exact test for target ⊆ union(covers), by recursive facet splitting."""
    if cancelled is not None and cancelled():
        raise InterruptedError("polyhedral covering check cancelled")
    if not target.generators:
        # the zero cone lies in every cone
        return bool(covers)
    for c in covers:
        if c.contains_cone(target):
            return True
    if not covers:
        return False
    first, rest = covers[0], covers[1:]
    if intersect(target, first).dim() < target.dim():
        return covered_by(target, rest, cancelled)
    pieces = []
    region = target
    for h in first.facet_normals():
        if all(dot(h, g) >= 0 for g in region.generators):
            continue
        neg = tuple(-x for x in h)
        outside = intersect(region, Cone.from_inequalities(target.ambient_rank, [neg]))
        if outside.dim() == target.dim():
            pieces.append(outside)
        region = intersect(region, Cone.from_inequalities(target.ambient_rank, [h]))
    return all(covered_by(p, rest, cancelled) for p in pieces)
