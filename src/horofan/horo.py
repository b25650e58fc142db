"""Coloured lattices, coloured cones, and coloured fans.

A horospherical homogeneous space is presented by a pair (I, M): a parabolic
subset I of the simple roots and a sublattice M of the character lattice of
the maximal torus, given by an explicit ordered basis.  Characters live in
the coordinates (fundamental weights per simple component) + (standard basis
of the central torus character lattice), where pairing a character against a
simple coroot just reads off a coordinate.

The coloured lattice N is the dual of M in the dual basis; the colour point
of a colour alpha in S \\ I is the functional m -> <m, alpha^vee>, i.e. the
alpha-row of the basis matrix of M.  This coroot-restriction rule is the
unique linear rule reproducing the primary lattice, where the colour points
are part of a Z-basis; the tests pin it against an independently coded
pairing oracle and every stated small-group value.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .intlin import (
    IntMatrix,
    column_hermite,
    echelon_triple,
    kernel_basis,
    lattice_coordinates,
    rank,
)
from .polyhedra import (
    Cone,
    Echelon,
    NotPointedError,
    complete_fan_walls,
    dot,
    faces,
    intersect,
    plf_lattice,
    primitive,
)
from .rootsys import RootDatum

Vector = tuple[int, ...]


class InvalidDatumError(ValueError):
    """The pair (I, M) does not present a horospherical subgroup."""


class NotSaturatedError(ValueError):
    """A coloured sublattice must be saturated."""


class ColourOutsideSublatticeError(ValueError):
    """A removed colour's point must lie in the sublattice being collapsed."""


class NotASubdatumError(ValueError):
    """Lattice maps need I_1 <= I_2 and M_2 <= M_1 (i.e. H_1 <= H_2)."""


class GroupMismatchError(ValueError):
    """Both data must present subgroups of the same reductive group."""


class ColourPointMismatchError(ArithmeticError):
    """A constructed lattice or map does not reproduce the colour points it must."""


class LatticeMismatchError(ValueError):
    """Fan and datum (or map and fans) do not share a coloured lattice."""


@dataclass(frozen=True)
class HorosphericalDatum:
    """Pair (I, M) presenting a horospherical homogeneous space G/H.

    `characters` has one row per character coordinate of the maximal torus and
    one column per basis element of M.  Every column must pair to zero with
    every simple root in `parabolic` (characters of P_I), and the columns must
    be linearly independent.
    """

    group: RootDatum
    parabolic: frozenset[int]
    characters: IntMatrix

    def __post_init__(self) -> None:
        if not self.parabolic <= set(self.group.simple_roots()):
            raise InvalidDatumError("parabolic set contains unknown simple roots")
        if self.characters.rows != self.group.character_rank:
            raise InvalidDatumError(
                f"character vectors must have length {self.group.character_rank}, "
                f"got {self.characters.rows}"
            )
        if rank(self.characters) != self.characters.cols:
            raise InvalidDatumError("character basis columns are linearly dependent")
        for alpha in sorted(self.parabolic):
            row = self.characters.row(alpha)
            if any(row):
                raise InvalidDatumError(
                    f"character basis pairs nonzero with {self.group.label(alpha)} in I"
                )

    @property
    def lattice_rank(self) -> int:
        return self.characters.cols

    def colour_roots(self) -> list[int]:
        return [a for a in self.group.simple_roots() if a not in self.parabolic]


@dataclass(frozen=True)
class Colour:
    """A universal colour: its defining simple root, display label, and point."""

    root: int
    label: str
    point: Vector


@dataclass(frozen=True)
class ColouredLattice:
    """Lattice N with its universal colour set and colour-point map."""

    rank: int
    colours: tuple[Colour, ...]
    simple_count: int
    component_count: int

    def colour_by_root(self, root: int) -> Colour:
        for c in self.colours:
            if c.root == root:
                return c
        raise KeyError(f"no colour with simple root index {root}")

    def colour_roots(self) -> frozenset[int]:
        return frozenset(c.root for c in self.colours)

    def point(self, root: int) -> Vector:
        return self.colour_by_root(root).point

    def labels(self) -> dict[int, str]:
        return {c.root: c.label for c in self.colours}


@dataclass(frozen=True)
class ColouredCone:
    """Pair (cone, colour subset); colours are stored by simple-root index.

    Its list of coloured faces is kept on it on first use, outside ==, hash
    and repr (`coloured_faces`).
    """

    cone: Cone
    colours: frozenset[int]

    def dim(self) -> int:
        return self.cone.dim()


def coloured_cone_key(cc: ColouredCone) -> tuple:
    """Canonical member order of coloured fans: small cones first."""
    return (cc.dim(), cc.cone.generators, sorted(cc.colours))


def _number(slot: dict, pool: list, cc: ColouredCone) -> int:
    """cc's index in `pool`, appending it when `slot` has no equal one: one hash."""
    k = slot.setdefault(cc, len(pool))
    if k == len(pool):
        pool.append(cc)
    return k


@dataclass(frozen=True)
class ColouredFan:
    """Finite collection of strongly convex coloured cones on a coloured lattice.

    What depends on the members alone is computed once per fan, outside ==
    and hash: the coloured-face table behind `star` and `maximal`, and, from
    the cones of the maximal members, the wall table (`walls`) and the PLF
    lattice (`plf_lattice`).  Each member's multiset and its echelon
    (`member_echelon`) are made on first use and kept the same way.  The
    table runs over member indices: the members are numbered once, by first
    occurrence (`_numbering`), and each coloured face is mapped to its
    member's index with one hash.  The face lists come from `coloured_faces`,
    which each member keeps, so a fan whose members were listed before (by
    the closure or the CLI) walks no face lattice again.
    """

    lattice: ColouredLattice
    cones: tuple[ColouredCone, ...]
    _multisets: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def colour_set(self) -> frozenset[int]:
        out: set[int] = set()
        for cc in self.cones:
            out |= cc.colours
        return frozenset(out)

    def maximal(self) -> list[ColouredCone]:
        """The members whose star is themselves alone, in member order: the closed orbits.

        So a member is maximal when it is a coloured face of no other member,
        and of itself (which fails only if a colour point lies outside its
        cone).  In a valid fan a member contained in another is their
        intersection, hence a coloured face of it, so these are the members
        no other member contains.  It reads the face table, so on a fan whose
        maximal members keep their coloured faces, as `coloured_fan` and the
        CLI leave them, no face lattice is walked.  The rule raises wherever
        `coloured_faces` does, for example KeyError on an unknown colour index.
        """
        return [self.cones[k] for k in self._anchors]

    def star(self, cc: ColouredCone) -> tuple[ColouredCone, ...]:
        """The members that the member cc is a coloured face of, in member order."""
        return tuple(self.cones[k] for k in self._face_table[1][self._numbering[0][cc]])

    def walls(self) -> Optional[dict[Cone, tuple[int, int, Vector]]]:
        """The `polyhedra.complete_fan_walls` table of the maximal members' cones, None if the fan is not complete.

        Each wall maps to (i, j, u): its owners i < j in `maximal()` and u, picked once per fan.
        """
        return None if self._walls is None else dict(self._walls)

    def plf_lattice(self) -> tuple[list[Vector], IntMatrix]:
        """The `polyhedra.plf_lattice` of the maximal members' cones: the sorted rays and the PLF basis in Z^rays."""
        rays, basis = self._plf_lattice
        return list(rays), basis

    def member_echelon(self, index: int) -> tuple[tuple[Vector, ...], Echelon]:
        """Member `index`'s multiset, with the `intlin.echelon_triple` of its rows, as tuples.

        The multiset is the member's uncoloured ray generators
        (`uncoloured_rays`), then its colour points by root.  Regularity
        and Cartier data both read it.  When it is the cone's generator
        tuple, as on every uncoloured member, the cone's own
        `generator_echelon` is the triple.  Made once per member, on first
        use; it raises wherever `uncoloured_rays` does.
        """
        if index not in self._multisets:
            cc = self.cones[index]
            points = tuple(self.lattice.point(r) for r in sorted(cc.colours))
            multiset = tuple(uncoloured_rays(self.lattice, cc)) + points
            if multiset == cc.cone.generators:
                data = cc.cone.generator_echelon()
            else:
                data = echelon_triple(multiset, self.lattice.rank)
            self._multisets[index] = (multiset, data)
        return self._multisets[index]

    @cached_property
    def _numbering(self) -> tuple[dict, list[int], list[ColouredCone]]:
        """(slot, first, pool): the members numbered once.

        `pool` is the members, then the coloured faces the face table lists
        that are no member; `slot` maps each to its index in the pool, a
        member to its first occurrence, and `first[i]` is that index for
        member i.  One hash per member and per listed face.
        """
        slot: dict[ColouredCone, int] = {}
        first = [slot.setdefault(cc, k) for k, cc in enumerate(self.cones)]
        return slot, first, list(self.cones)

    @cached_property
    def _face_table(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """(lists, stars) over member indices: each member's coloured faces as pool indices, and its star.

        Both are keyed by first occurrences (`_numbering`), and a star lists
        the first occurrences of the members above, in member order.
        Computed once per fan, outside == and hash.  `coloured_faces` runs
        only on the members that are a coloured face of no larger member.
        When a member f equals an entry of a member sigma's list, colours
        included, f is a face of sigma, so its faces are the faces of sigma
        inside f: the entries of sigma's list whose generators lie in f's,
        already in the (dim, generators) order of `faces`, read as bit masks
        over sigma's generators.  Their colours
        agree too: f's colours are sigma's colours with points in f, so for
        a face g of f, sigma's colours with points in g are f's.  So the
        members are walked from the largest dimension down, and each member
        already listed under one walked before filters that member's list.
        The stars are then read in member order.  This raises wherever
        `coloured_faces` does.
        """
        slot, first, pool = self._numbering
        members = list(dict.fromkeys(first))
        lists: dict[int, list[int]] = {}
        # a listed face: its list, as (pool index, generator mask over the list's top cone) pairs, and its own mask
        cover: dict[int, tuple[list[tuple[int, int]], int]] = {}
        for k in sorted(members, key=lambda k: -self.cones[k].dim()):
            if k in cover:
                above, inside = cover[k]
                listed = [(j, m) for j, m in above if m & inside == m]
            else:
                bit = {g: 1 << i for i, g in enumerate(self.cones[k].cone.generators)}
                listed = [
                    (_number(slot, pool, f), sum(bit[g] for g in f.cone.generators))
                    for f in coloured_faces(self.lattice, self.cones[k])
                ]
            lists[k] = [j for j, _ in listed]
            for j, m in listed:
                cover[j] = listed, m
        n = len(self.cones)
        stars: dict[int, list[int]] = {k: [] for k in members}
        for k in members:
            for j in lists[k]:
                if j < n:
                    stars[j].append(k)
        return lists, stars

    def _missing(self) -> list[tuple[ColouredCone, ColouredCone]]:
        """The (member, coloured face) pairs whose face is no member, in member order, repeated members included."""
        lists = self._face_table[0]
        first, pool, n = self._numbering[1], self._numbering[2], len(self.cones)
        return [(self.cones[i], pool[j]) for i, k in enumerate(first) for j in lists[k] if j >= n]

    def _faces_of(self) -> dict[ColouredCone, frozenset[ColouredCone]]:
        """Each member's set of coloured faces."""
        lists, pool = self._face_table[0], self._numbering[2]
        return {self.cones[k]: frozenset(pool[j] for j in faces_of_k) for k, faces_of_k in lists.items()}

    @cached_property
    def _anchors(self) -> tuple[int, ...]:
        """The first occurrences of the maximal members, in member order."""
        return tuple(k for k, above in self._face_table[1].items() if above == [k])

    @cached_property
    def _walls(self) -> Optional[dict[Cone, tuple[int, int, Vector]]]:
        return complete_fan_walls([self.cones[k].cone for k in self._anchors])

    @cached_property
    def _plf_lattice(self) -> tuple[list[Vector], IntMatrix]:
        return plf_lattice([self.cones[k].cone for k in self._anchors])

    def non_coloured_rays(self) -> list[ColouredCone]:
        return [cc for cc in self.cones if cc.dim() == 1 and not cc.colours]

    def describe(self, cc: ColouredCone) -> str:
        labels = self.lattice.labels()
        cols = ", ".join(labels.get(r, f"root{r}") for r in sorted(cc.colours))
        gens = ", ".join(str(list(g)) for g in cc.cone.generators) or "0"
        return f"(Cone[{gens}], {{{cols}}})"


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class ColouredLatticeMap:
    """Lattice map associated to an inclusion of horospherical subgroups."""

    source: ColouredLattice
    target: ColouredLattice
    matrix: IntMatrix
    dominantly_mapped: frozenset[int]

    def apply(self, v: Sequence[int]) -> Vector:
        return self.matrix.apply(v)


def build_coloured_lattice(datum: HorosphericalDatum) -> ColouredLattice:
    """Coloured lattice of G/H_(I,M): N = dual of M, colour points by coroot pairing."""
    colours = tuple(
        Colour(root=a, label=datum.group.label(a), point=datum.characters.row(a))
        for a in datum.colour_roots()
    )
    return ColouredLattice(
        rank=datum.lattice_rank,
        colours=colours,
        simple_count=datum.group.simple_count,
        component_count=len(datum.group.components),
    )


def _require_lattice(fan: ColouredFan, datum: HorosphericalDatum) -> None:
    if fan.lattice != build_coloured_lattice(datum):
        raise LatticeMismatchError("fan is not defined on the datum's coloured lattice")


def trivial_coloured_cone(lattice: ColouredLattice) -> ColouredCone:
    return ColouredCone(Cone.zero(lattice.rank), frozenset())


def _face_colours(lattice: ColouredLattice, cc: ColouredCone, face_cones: list[Cone]) -> list[frozenset[int]]:
    """For each face tau of cc's cone, the colours of cc whose points lie in tau.

    A point p of sigma lies in a face tau exactly when tau holds the smallest
    face of sigma through p, whose generators `Cone.smallest_face` reads off
    sigma's incidence table, the rule `polyhedra.is_face_of` reads too.  A
    face's generators are some of sigma's (as `faces` gives them), so p lies
    in tau exactly when tau's generators hold those.  No face needs an
    inequality description of its own, and with no colour point in sigma no
    face is tested.
    """
    faces_through = {r: cc.cone.smallest_face(lattice.point(r)) for r in cc.colours}
    smallest = {r: frozenset(g) for r, g in faces_through.items() if g is not None}
    if not smallest:
        return [frozenset()] * len(face_cones)
    return [frozenset(r for r, g in smallest.items() if g.issubset(f.generators)) for f in face_cones]


def coloured_faces(lattice: ColouredLattice, cc: ColouredCone) -> list[ColouredCone]:
    """All coloured faces: each face tau gets the colours of cc landing in tau.

    The list depends on cc and on its colour points alone, so it is kept on
    cc with the points it read, set on first use outside ==, hash and repr,
    as `Cone` keeps its incidences.  A later call reading the same points
    returns a copy of it; other points, from another lattice, recompute it.
    """
    points = [lattice.point(r) for r in sorted(cc.colours)]
    kept = vars(cc).get("_faces")
    if kept is None or kept[0] != points:
        face_cones = faces(cc.cone)
        kept = points, [ColouredCone(f, c) for f, c in zip(face_cones, _face_colours(lattice, cc, face_cones))]
        object.__setattr__(cc, "_faces", kept)
    return list(kept[1])


def uncoloured_rays(lattice: ColouredLattice, cc: ColouredCone) -> list[Vector]:
    """Generators of the rays of cc that carry none of its colour points.

    A pointed cone's rays are spanned by its canonical generators, and a
    nonzero point lies on the ray of u exactly when its primitive vector is u.
    """
    if not cc.cone.is_strongly_convex():
        raise NotPointedError("only a strongly convex cone is generated by its rays")
    on_rays = {primitive(p) for p in map(lattice.point, cc.colours) if any(p)}
    return [g for g in cc.cone.generators if g not in on_rays]


def _normal_sum_through(sigma: Cone, shared: frozenset[Vector]) -> Vector:
    """The sum of sigma's normals whose zero set holds `shared`, read off its incidence table."""
    through = [h for h, z in sigma.incidences if z >= shared]
    return tuple(sum(h[i] for h in through) for i in range(sigma.ambient_rank))


def _separates(m: Vector, generators: Sequence[Vector], shared: frozenset[Vector], sign: int) -> bool:
    """Whether sign * m is >= 0 on the generators and vanishes on exactly the shared ones."""
    for g in generators:
        value = sign * dot(m, g)
        if value < 0 or (value == 0) != (g in shared):
            return False
    return True


def _separated_meet(s: Cone, t: Cone) -> Optional[Cone]:
    """s ∩ t, certified by a separating functional from the incidence tables, or None when no candidate certifies it.

    G is the set of canonical generators the two pointed cones share.  If
    some m is >= 0 on s, <= 0 on t, and vanishes on exactly G among the
    generators of each, then s ∩ t = cone(G), a face of both (the separation
    lemma, Cox-Little-Schenck, Toric Varieties, 1.2.13): s ∩ t lies in m⊥,
    and s ∩ m⊥ and t ∩ m⊥ are the faces on G.  A face of a pointed cone has
    the cone's generators in it as its canonical generators.  The candidates
    are m_s, the sum of s's normals whose zero set holds G, then -m_t, then
    a*m_s - b*m_t for a, b in 1..3.  Only dot products are taken.  Both
    cones must be pointed and of one ambient rank, as every member is once
    `validate_coloured_fan` reaches the meets.
    """
    shared = frozenset(s.generators).intersection(t.generators)
    m_s, m_t = _normal_sum_through(s, shared), _normal_sum_through(t, shared)
    candidates = itertools.chain(
        [m_s, tuple(-y for y in m_t)],
        (tuple(a * x - b * y for x, y in zip(m_s, m_t)) for a, b in itertools.product((1, 2, 3), repeat=2)),
    )
    for m in candidates:
        if _separates(m, s.generators, shared, 1) and _separates(m, t.generators, shared, -1):
            return Cone(s.ambient_rank, tuple(sorted(shared)))
    return None


def _meet_in_coloured_face(faces_of: dict, a: ColouredCone, b: ColouredCone) -> bool:
    """Whether a ∩ b is a coloured face of both members, read off their lists of coloured faces in the face table.

    The meet's cone comes from `_separated_meet` when a separating functional
    certifies it, else from `intersect`, a double description; its colours
    are the colours both members carry.
    """
    cone = _separated_meet(a.cone, b.cone)
    meet = ColouredCone(intersect(a.cone, b.cone) if cone is None else cone, a.colours & b.colours)
    return meet in faces_of[a] and meet in faces_of[b]


def close_under_coloured_faces(
    lattice: ColouredLattice, cones: Iterable[ColouredCone]
) -> tuple[ColouredCone, ...]:
    """Face closure, deduped and canonically ordered (small cones first).

    The input cones are kept as members verbatim; for a valid coloured cone
    the face with the full underlying cone is the cone itself, so this only
    differs when the input is invalid, which validation will then flag.
    Cones and faces are deduped as they come, one hash each, keeping the
    first of equal ones, so each input cone stays a member with the
    coloured faces it keeps (`coloured_faces`), which the face table of a
    fan on the members reads.
    """
    members = dict.fromkeys(f for cc in cones for f in [cc, *coloured_faces(lattice, cc)])
    return tuple(sorted(members, key=coloured_cone_key))


def coloured_fan(lattice: ColouredLattice, cones: Iterable[ColouredCone]) -> ColouredFan:
    """Build a fan from maximal cones by coloured-face closure, then validate.

    The face table reads the coloured faces that the closure left on each
    input cone, so each input cone's face lattice is walked once.
    """
    fan = ColouredFan(lattice, close_under_coloured_faces(lattice, cones))
    report = validate_coloured_fan(fan)
    if not report.valid:
        raise ValueError("not a coloured fan: " + "; ".join(report.violations))
    return fan


def _walls_decide(fan: ColouredFan) -> bool:
    """The wall route of `validate_coloured_fan`: a wall table, owners on opposite sides, one point covered once.

    The second owner of each wall must have a generator strictly on the far
    side of the first owner's normal there, and the generator sum of the
    first anchor must lie in no other anchor.
    """
    walls = fan._walls
    if walls is None:
        return False
    anchors = [fan.cones[k].cone for k in fan._anchors]
    for wall, (i, j, _) in walls.items():
        h = next(h for h, z in anchors[i].incidences if z.issuperset(wall.generators))
        if not any(dot(h, w) < 0 for w in anchors[j].generators):
            return False
    point = anchors[0].relative_interior_point()
    return not any(c.contains(point) for c in anchors[1:])


def validate_coloured_fan(fan: ColouredFan) -> ValidationReport:
    """Check every coloured-fan axiom; violations are reported, not raised.

    Colour points.  A member equal, colours included, to an entry of a list
    of the face table needs no containment test: `_face_colours` puts a
    colour on a face only when its point lies in the face, so every colour
    point of the member lies in its cone.  The table is read only when
    every member has the lattice's rank and only known colours; otherwise,
    and for every member in no list, the test is its cone's `contains`.

    Meets.  Any two members must meet in a coloured face of both, but that
    is tested directly only on pairs of anchors, `fan.maximal()` (the
    members whose star is themselves alone), and on pairs the anchors do
    not settle.  A pair (a, b) is settled when a is a coloured face of an
    anchor s, b one of an anchor t, and s = t or s and t meet in a coloured
    face phi of both.  Then a ∩ b = (a ∩ phi) ∩ (b ∩ phi), an intersection
    of faces of phi, so it is a face of phi and hence of a and of b (faces
    of faces and intersections of faces are faces: Cox-Little-Schenck,
    Toric Varieties, 1.2).  A colour of a whose point lies in a ∩ b is a
    colour of s with its point in phi, hence a colour of phi and of t,
    hence of b; so the colours match too.  Once every colour point lies in
    its cone, each member a lies under an anchor, a member s of largest
    dimension in a's star: s's star lies in a's (a coloured face of a
    coloured face is one), and a member of it as large as s has s's cone,
    so it is s.  So when every anchor pair meets and nothing else is wrong,
    every pair is settled.

    Wall route.  When nothing else is wrong and `_walls_decide` holds, every
    anchor pair meets in a coloured face of both, and validation returns
    with no meet.  This is the pseudomanifold-plus-one-point
    characterisation of subdivisions (De Loera, Rambau and Santos,
    Triangulations, ch. 4), for pointed cones of any shape.  Proof.  The
    anchors are pointed, full-dimensional and distinct, every facet F of
    one is a facet of exactly one other, and the two lie on opposite sides
    of F's hyperplane.  Let Z be the union of the faces of dimension
    <= n - 2 of all anchors and of the meets of two anchor facets in
    different hyperplanes, a finite union of polyhedra of codimension 2;
    R^n minus Z is connected, and two points off the anchor boundaries are
    joined by a path off Z that crosses the boundaries finitely often.
    (1) The covering degree, the number of anchors holding a point off the
    boundaries, is the same on both sides of each crossing y: every anchor
    facet through y lies in one hyperplane, an anchor with y on its
    boundary has one facet through y, and each such facet has one owner on
    each side, while anchors with y inside count on both sides.  So the
    degree is constant off the boundaries.  (2) The generator sum of the first anchor lies
    inside it and in no other anchor, so the degree is 1: the anchors cover
    R^n and their interiors are disjoint.  (3) Then a point y in the
    relative interior of a facet F lies only in F's two owners, which
    cover a ball around y: a third anchor through y would have interior
    points in that ball.  Take any point x and a ball around x that meets
    only the anchors and facets holding x.  Two anchors holding x are
    joined by a path in the ball off Z, so by a chain of anchors, each
    sharing a facet through x with the next.  The two owners of a facet F
    through x have one face with x in its relative interior, the face of F
    that has x there, since the faces of F are the faces of either owner
    inside F.  So all anchors holding x have one such face G(x).  For
    anchors s, t and x in the relative interior of s ∩ t, s ∩ t lies in
    G(x), a face of both (a face holding an interior point of a segment of
    s holds the segment), and G(x) lies in s ∩ t: the meet is a common
    face, with no T-junction.
    (4) Colours: the coloured faces of s and of t on G = s ∩ t are both
    members, since no face is missing, and no two members share a cone, so
    they carry one colour set C.  C lies in the colours of both, and a
    colour r of both has its point in s and in t, so in G, so in C: the
    meet s ∩ t with the common colours is a coloured face of both.  The
    walls are the `_walls` table that `classify_variety` and
    `positivity_check` read, so the route costs one dot-product check per
    wall and one containment test per anchor.

    Otherwise the anchor table is filled: C(k, 2) meets for k anchors.  A
    meet is certified by a separating functional read off the two incidence
    tables (`_separated_meet`) and computed by a double description only
    when no candidate certifies it; a certificate fixes the meet exactly,
    so every answer is the same either way.  The face lists come from
    `_face_table`, one `coloured_faces` call per member that is a coloured
    face of no larger member.  If an anchor pair fails or anything else is
    wrong, validation walks the pairs, and an invalid fan reports the same
    violations, in the same order, as testing every pair.
    """
    violations: list[str] = []
    lattice = fan.lattice
    known_roots = lattice.colour_roots()
    if not fan.cones:
        violations.append("fan has no coloured cones (the trivial coloured cone is required)")
    first, n = fan._numbering[1], len(fan.cones)
    in_lists = set()
    if all(cc.cone.ambient_rank == lattice.rank and cc.colours <= known_roots for cc in fan.cones):
        in_lists = {j for faces_of_k in fan._face_table[0].values() for j in faces_of_k if j < n}
    for i, cc in enumerate(fan.cones):
        if cc.cone.ambient_rank != lattice.rank:
            violations.append(f"{fan.describe(cc)}: ambient rank differs from the lattice rank")
            continue
        if not cc.cone.is_strongly_convex():
            violations.append(f"{fan.describe(cc)}: underlying cone is not strongly convex")
        for r in sorted(cc.colours):
            if r not in known_roots:
                violations.append(f"{fan.describe(cc)}: unknown colour index {r}")
                continue
            point = lattice.point(r)
            if not any(point):
                violations.append(
                    f"{fan.describe(cc)}: colour {lattice.labels()[r]} has zero colour point"
                )
            elif first[i] not in in_lists and not cc.cone.contains(point):
                violations.append(
                    f"{fan.describe(cc)}: colour point {list(point)} of "
                    f"{lattice.labels()[r]} lies outside the cone"
                )
    if violations:
        return ValidationReport(False, tuple(violations))
    underlying: dict[tuple, list[ColouredCone]] = {}
    for cc in fan.cones:
        underlying.setdefault(cc.cone.generators, []).append(cc)
    for gens, ccs in underlying.items():
        if len(ccs) > 1:
            violations.append(
                f"{len(ccs)} coloured cones share the underlying cone "
                f"{[list(g) for g in gens]}"
            )
    for cc, f in fan._missing():
        violations.append(f"{fan.describe(cc)}: coloured face {fan.describe(f)} is missing from the fan")
    if not violations and _walls_decide(fan):
        return ValidationReport(True, ())
    faces_of = fan._faces_of()
    anchors = fan._anchors
    slot = {k: p for p, k in enumerate(anchors)}
    met = [[True] * len(anchors) for _ in anchors]
    for (p, s), (q, t) in itertools.combinations(enumerate(anchors), 2):
        met[p][q] = met[q][p] = _meet_in_coloured_face(faces_of, fan.cones[s], fan.cones[t])
    if not violations and all(map(all, met)):
        return ValidationReport(True, ())
    tops = {k: [slot[s] for s in above if s in slot] for k, above in fan._face_table[1].items()}
    for i, a in enumerate(fan.cones):
        for j in range(i + 1, n):
            b = fan.cones[j]
            if any(met[s][t] for s in tops[first[i]] for t in tops[first[j]]):
                continue
            # two anchors that get here failed in the table already
            if (first[i] in slot and first[j] in slot) or not _meet_in_coloured_face(faces_of, a, b):
                violations.append(
                    f"intersection of {fan.describe(a)} and {fan.describe(b)} "
                    "is not a coloured face of both"
                )
    return ValidationReport(not violations, tuple(violations))


@dataclass(frozen=True)
class QuotientResult:
    lattice: ColouredLattice
    datum: HorosphericalDatum
    projection: IntMatrix  # the quotient map N -> N/N'


def quotient_coloured_lattice(
    datum: HorosphericalDatum,
    sublattice: IntMatrix,
    removed_colours: Iterable[int],
) -> QuotientResult:
    """Quotient of N by a saturated coloured sublattice N'.

    The universal colours of N/N' are C \\ C' with projected colour points;
    the returned datum has I' = I + C' and M' = (N/N')^vee embedded back into
    the character lattice via M.
    """
    r = datum.lattice_rank
    if sublattice.rows != r:
        raise ValueError("sublattice basis has wrong ambient rank")
    # the annihilator's kernel is the saturation of N'
    perp = kernel_basis(sublattice.transpose())
    saturation = kernel_basis(IntMatrix.from_rows(perp, cols=r))
    if IntMatrix.from_columns(saturation, rows=r) != column_hermite(sublattice):
        raise NotSaturatedError("sublattice is not saturated in N")
    return _quotient_by_projection(datum, perp, removed_colours)


def quotient_by_cone(datum: HorosphericalDatum, cc: ColouredCone) -> QuotientResult:
    """`quotient_coloured_lattice` by the span of cc's cone, removing cc's colours.

    The projection's rows are the kernel of the cone's `generator_echelon`,
    the kernel basis of its generator rows: the annihilator of the span in
    column Hermite form, which is what `quotient_coloured_lattice` takes from
    the saturated span.  So the span is never saturated, and the saturation
    check, which guards outside input, is not needed.  The cone's echelon is
    made once per cone, so `orbit_table` and `orbit_closure` echelonise no
    cone twice.  A cone of another ambient rank than the datum's lattice is
    a ValueError.
    """
    if cc.cone.ambient_rank != datum.lattice_rank:
        raise ValueError(f"cone has ambient rank {cc.cone.ambient_rank}, not the lattice rank {datum.lattice_rank}")
    return _quotient_by_projection(datum, cc.cone.generator_echelon()[2], cc.colours)


def _quotient_by_projection(
    datum: HorosphericalDatum,
    projection_rows: Sequence[Vector],
    removed_colours: Iterable[int],
) -> QuotientResult:
    """The quotient of N by the saturated N' whose annihilator has the basis `projection_rows`, N read off the datum.

    The projected colour points and the new character matrix, whose row i
    is the projection of the old row i, are dot products over tuples, with
    no matrix product.
    """
    roots = datum.colour_roots()
    removed = frozenset(removed_colours)
    if not removed.issubset(roots):
        raise ValueError("removed colours must be universal colours of N")
    projection = IntMatrix.from_rows(projection_rows, cols=datum.lattice_rank)
    characters = datum.characters
    points = {a: tuple(dot(characters.row(a), p) for p in projection_rows) for a in roots}
    # N' is saturated, so a point lies in N' exactly when the projection kills it
    for r in sorted(removed):
        if any(points[r]):
            raise ColourOutsideSublatticeError(
                f"colour point of {datum.group.label(r)} lies outside the sublattice"
            )
    # rows read off the entries, so a rank-0 lattice walks none, however large the torus
    rows = zip(*[iter(characters.entries)] * characters.cols)
    new_datum = HorosphericalDatum(
        group=datum.group,
        parabolic=frozenset(datum.parabolic | removed),
        characters=IntMatrix(
            characters.rows, len(projection_rows), tuple(dot(row, p) for row in rows for p in projection_rows)
        ),
    )
    new_lattice = build_coloured_lattice(new_datum)
    # the construction must reproduce the projected colour points exactly
    for c in new_lattice.colours:
        if c.point != points[c.root]:
            raise ColourPointMismatchError(f"quotient colour point of {c.label} is not the projected one")
    return QuotientResult(new_lattice, new_datum, projection)


def coloured_lattice_map(
    source: HorosphericalDatum, target: HorosphericalDatum
) -> ColouredLatticeMap:
    """Map of coloured lattices dual to M_2 -> M_1, for H_1 <= H_2."""
    if source.group != target.group:
        raise GroupMismatchError("coloured lattice maps need a common group")
    if not source.parabolic <= target.parabolic:
        raise NotASubdatumError("need I_1 <= I_2")
    # M_2 = M_1 * A; the map of coloured lattices is A^T, whose rows are A's columns
    coefficients = lattice_coordinates(target.characters.columns(), source.characters)
    if None in coefficients:
        raise NotASubdatumError("need M_2 <= M_1 inside the character lattice")
    phi = IntMatrix.from_rows(coefficients, cols=source.characters.cols)
    source_lattice = build_coloured_lattice(source)
    target_lattice = build_coloured_lattice(target)
    dominant = frozenset(target.parabolic - source.parabolic)
    for c in source_lattice.colours:
        image = phi.apply(c.point)
        if c.root in dominant:
            if any(image):
                raise ColourPointMismatchError(f"dominant colour {c.label} must map to zero")
        elif image != target_lattice.point(c.root):
            raise ColourPointMismatchError(f"colour {c.label} must map to its own colour point")
    return ColouredLatticeMap(source_lattice, target_lattice, phi, dominant)


def homogeneous_spaces_isomorphic(a: HorosphericalDatum, b: HorosphericalDatum) -> bool:
    """G-equivariant isomorphism test for G/H_1 and G/H_2.

    G/H is fixed by the parabolic set I and by the sublattice M of X(T), so
    the spaces are isomorphic iff the parabolic sets agree and the character
    matrices span one lattice (equal column Hermite forms).  The colour
    points alone would not do: they miss the central torus, on which the
    coroots vanish.
    """
    if a.group != b.group:
        raise GroupMismatchError("uniqueness comparison needs a common group")
    return a.parabolic == b.parabolic and column_hermite(a.characters) == column_hermite(b.characters)


_LABEL = re.compile(r"^(?:(\d+)\.)?a(\d+)$")


def _relabel(label: str, component_offset: int, total_components: int) -> str:
    m = _LABEL.match(label)
    if not m:
        raise ValueError(f"unrecognized colour label {label!r}")
    ordinal = int(m.group(1) or 1) + component_offset
    return f"a{m.group(2)}" if total_components <= 1 else f"{ordinal}.a{m.group(2)}"


def product_coloured_lattice(a: ColouredLattice, b: ColouredLattice) -> ColouredLattice:
    total = a.component_count + b.component_count
    colours = [
        Colour(c.root, _relabel(c.label, 0, total), c.point + (0,) * b.rank) for c in a.colours
    ] + [
        Colour(
            c.root + a.simple_count,
            _relabel(c.label, a.component_count, total),
            (0,) * a.rank + c.point,
        )
        for c in b.colours
    ]
    return ColouredLattice(
        rank=a.rank + b.rank,
        colours=tuple(colours),
        simple_count=a.simple_count + b.simple_count,
        component_count=total,
    )


def product_coloured_fan(a: ColouredFan, b: ColouredFan) -> ColouredFan:
    """Componentwise product: cones sigma_1 x sigma_2 with colours F_1 + F_2."""
    lattice = product_coloured_lattice(a.lattice, b.lattice)
    cones = []
    for ca in a.cones:
        for cb in b.cones:
            gens = [g + (0,) * b.lattice.rank for g in ca.cone.generators] + [
                (0,) * a.lattice.rank + g for g in cb.cone.generators
            ]
            colours = frozenset(ca.colours) | frozenset(r + a.lattice.simple_count for r in cb.colours)
            cones.append(ColouredCone(Cone.from_generators(lattice.rank, gens), colours))
    return ColouredFan(lattice, tuple(cones))
