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

A coloured fan is a set of coloured cones closed under taking coloured
faces, and a set is closed under coloured faces exactly when it is closed
under coloured facets, since a coloured face of a coloured face is one.  So
a fan is kept as its Hasse diagram: each member keeps only its coloured
facets, its covers.  One builder, `ColouredFan._face_table`, finds them by
walks down the face lattices of the maximal members on generator masks
(`_walk_down`, on the vertex-facet incidence step `polyhedra._facet_masks`
of Kaibel and Pfetsch), numbering each coloured face once whichever member
it lies under.  The face closure of some coloured cones is that table for
the fan on them, renumbered into member order, and `coloured_fan` keeps it.
Stars, face lists and regularity are read off the covers, by walks up or
down, only when asked; a missing coloured facet is a face the walk finds
that is no member.  What a datum, cone or fan determines is a
`cached_property` of it, outside ==, hash and repr.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_
from typing import Iterable, Optional, Sequence

from .intlin import (
    IntMatrix,
    column_hermite,
    echelon_triple,
    is_identity_echelon,
    kernel_basis,
    lattice_coordinates,
    rank,
)
from .polyhedra import (
    Cone,
    Echelon,
    NotPointedError,
    _dual_description,
    _facet_cuts,
    _facet_masks,
    _keep,
    complete_fan_walls,
    dot,
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

    @cached_property
    def _lattice(self) -> "ColouredLattice":
        """The coloured lattice (`build_coloured_lattice`), once per datum, outside ==, hash and repr."""
        colours = tuple(Colour(a, self.group.label(a), self.characters.row(a)) for a in self.colour_roots())
        return ColouredLattice(self.lattice_rank, colours, self.group.simple_count, len(self.group.components))

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
    """Pair (cone, colour subset); colours are stored by simple-root index."""

    cone: Cone
    colours: frozenset[int]

    def dim(self) -> int:
        return self.cone.dim()


def coloured_cone_key(cc: ColouredCone) -> tuple:
    """Canonical member order of coloured fans: small cones first."""
    return (cc.dim(), cc.cone.generators, sorted(cc.colours))


@dataclass(frozen=True)
class ColouredFan:
    """Finite collection of strongly convex coloured cones on a coloured lattice: the lattice and the members.

    What the members determine is a `cached_property`, outside == and hash,
    so `dataclasses.replace` derives it afresh: the fan's Hasse diagram
    (`_face_table`), each member with its coloured facets, from which face
    lists, stars and regularity flags (`_regularity`) are read when asked;
    from the cones of the maximal members, the wall table (`walls`) and the
    PLF lattice (`plf_lattice`); the multiset and echelon of each member
    asked for (`member_echelon`); and the validation report
    (`validate_coloured_fan`).
    """

    lattice: ColouredLattice
    cones: tuple[ColouredCone, ...]

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
        no other member contains.  They are read off the face table: the
        members no member lists as a coloured facet, strays aside.  The rule
        raises wherever `coloured_faces` does, for example KeyError on an
        unknown colour index.
        """
        return [self.cones[k] for k in self._anchors]

    def star(self, cc: ColouredCone) -> tuple[ColouredCone, ...]:
        """The members that the member cc is a coloured face of, in member order: a walk up the covers."""
        return tuple(self.cones[k] for k in self._above(self._index[cc]))

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
            multiset = _multiset(self.lattice, cc)
            if multiset == cc.cone.generators:
                data = cc.cone.generator_echelon()
            else:
                data = echelon_triple(multiset, self.lattice.rank)
            self._multisets[index] = (multiset, data)
        return self._multisets[index]

    @cached_property
    def _multisets(self) -> dict[int, tuple[tuple[Vector, ...], Echelon]]:
        """The `member_echelon` of each member asked for so far, by index."""
        return {}

    @cached_property
    def _face_table(self) -> tuple[list[int], list[ColouredCone], list[Optional[list[int]]], frozenset[int]]:
        """(first, pool, down, strays): the fan's Hasse diagram over member indices, made once per fan.

        `first[i]` is the index of the first member equal to member i.
        `pool` is the members, then the coloured faces of members that are
        no member (missing faces).  `down[k]` lists the coloured facets of a
        first occurrence or missing face k as pool indices (None for a
        repeated member), and k's coloured faces are k and all it reaches
        down.  A stray member, one some colour point of which lies outside
        its cone, is no coloured face of itself: its coloured faces are its
        full coloured face, `down[k] == [j]`, and all below it.  Members are
        told apart by their generator masks and colours, and `_walk_down`
        walks from each, largest first, that no walk before reached (a
        coloured face of a coloured face is one); `coloured_fan` keeps the
        table of its closure.  This raises wherever `coloured_faces` does.
        """
        bit_of: dict[Vector, int] = {}
        slots: dict[int, dict] = {}
        first = []
        for k, cc in enumerate(self.cones):
            mask = sum(bit_of.setdefault(g, 1 << len(bit_of)) for g in cc.cone.generators)
            first.append(slots.setdefault(cc.cone.ambient_rank, {}).setdefault((mask, cc.colours), k))
        pool, down = list(self.cones), [None] * len(self.cones)
        strays = set()
        for k in sorted(dict.fromkeys(first), key=lambda k: -self.cones[k].dim()):
            if down[k] is None:
                top = _walk_down(self.lattice, self.cones[k], slots, pool, down, bit_of)
                if top != k:
                    strays.add(k)
                    down[k] = [top]
        return first, pool, down, frozenset(strays)

    @cached_property
    def _index(self) -> dict[ColouredCone, int]:
        """Each member's first index, one hash per member."""
        index: dict[ColouredCone, int] = {}
        for k, cc in enumerate(self.cones):
            index.setdefault(cc, k)
        return index

    @cached_property
    def _up(self) -> list[list[int]]:
        """The covers reversed: for each pool index, the pool indices listing it as a coloured facet."""
        down = self._face_table[2]
        up: list[list[int]] = [[] for _ in down]
        for k, facets in enumerate(down):
            for j in facets or ():
                up[j].append(k)
        return up

    def _below(self, k: int) -> dict[int, None]:
        """The pool indices of the coloured faces of first occurrence k: a walk down the covers."""
        _, _, down, strays = self._face_table
        return _reach(down, down[k], {} if k in strays else {k: None})

    def _above(self, k: int) -> list[int]:
        """The first occurrences whose coloured faces hold first occurrence k, in member order: a walk up the covers."""
        seen = _reach(self._up, self._up[k], {} if k in self._face_table[3] else {k: None})
        return sorted(j for j in seen if j < len(self.cones))

    def _missing(self) -> list[tuple[ColouredCone, ColouredCone]]:
        """The (member, coloured face) pairs whose face is no member, in member order, repeated members included.

        A member's missing faces come in the order of `coloured_faces`: by dimension, then generators.
        """
        first, pool, _, _ = self._face_table
        n = len(self.cones)
        if len(pool) == n:
            return []
        lists: dict[int, list[int]] = {}
        for k in dict.fromkeys(first):
            lists[k] = sorted((j for j in self._below(k) if j >= n), key=lambda j: coloured_cone_key(pool[j]))
        return [(cc, pool[j]) for cc, k in zip(self.cones, first) for j in lists[k]]

    def _faces_of(self) -> dict[ColouredCone, frozenset[ColouredCone]]:
        """Each member's set of coloured faces."""
        first, pool = self._face_table[:2]
        return {self.cones[k]: frozenset(pool[j] for j in self._below(k)) for k in dict.fromkeys(first)}

    @cached_property
    def _anchors(self) -> tuple[int, ...]:
        """The first occurrences of the maximal members, in member order: covered by no member, and no stray."""
        first, _, down, strays = self._face_table
        covered = {j for facets in down if facets for j in facets}
        return tuple(k for k in dict.fromkeys(first) if k not in covered and k not in strays)

    @cached_property
    def _regularity(self) -> dict[int, tuple[tuple[Vector, ...], bool, bool]]:
        """(multiset, simplicial, regular) of each first occurrence, read down the covers, made once per fan.

        A coloured face's multiset is a sub-multiset of the multiset of every
        coloured cone above it: a ray of the face carries a colour of the face
        iff it carries one of the cone above, since a colour point on the ray
        lies in the face, and the face's colours are the colours above whose
        points lie in it.  A sub-multiset of a linearly independent multiset
        is independent, and one of a multiset that extends to a Z-basis
        extends to one too.  So a face of a regular member is simplicial and
        regular, with no echelon.  The members are taken from the largest
        dimension down, each marked regular when a member it is a coloured
        facet of is (a member under a missing face reads its own echelon); the
        others read `member_echelon`: simplicial iff its echelon has a row per
        vector, regular iff it is the identity (`intlin.is_identity_echelon`).
        """
        first, _, down, _ = self._face_table
        regular_below: set[int] = set()
        flags = {}
        for k in sorted(dict.fromkeys(first), key=lambda k: -self.cones[k].dim()):
            if k in regular_below:
                flags[k] = (_multiset(self.lattice, self.cones[k]), True, True)
            else:
                multiset, (echelon, _, _) = self.member_echelon(k)
                flags[k] = (multiset, len(echelon) == len(multiset), is_identity_echelon(echelon, len(multiset)))
            if flags[k][2]:
                regular_below.update(down[k])
        return flags

    @cached_property
    def _walls(self) -> Optional[dict[Cone, tuple[int, int, Vector]]]:
        return complete_fan_walls([self.cones[k].cone for k in self._anchors])

    @cached_property
    def _plf_lattice(self) -> tuple[list[Vector], IntMatrix]:
        return plf_lattice([self.cones[k].cone for k in self._anchors])

    @cached_property
    def _validation(self) -> "ValidationReport":
        """The `validate_coloured_fan` report, made once per fan."""
        return _check_axioms(self)

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
    """Coloured lattice of G/H_(I,M): N = dual of M, colour points by coroot pairing.

    It depends on the datum alone, so it is made once per datum, on first
    use (`HorosphericalDatum._lattice`): one lattice per datum, which
    `_require_lattice` compares by identity first.
    """
    return datum._lattice


def _require_lattice(fan: ColouredFan, datum: HorosphericalDatum) -> None:
    lattice = build_coloured_lattice(datum)
    if fan.lattice is not lattice and fan.lattice != lattice:
        raise LatticeMismatchError("fan is not defined on the datum's coloured lattice")


def trivial_coloured_cone(lattice: ColouredLattice) -> ColouredCone:
    return ColouredCone(Cone.zero(lattice.rank), frozenset())


def coloured_faces(lattice: ColouredLattice, cc: ColouredCone) -> list[ColouredCone]:
    """All coloured faces, by dimension, then generators: each face tau gets the colours of cc landing in tau.

    They are the coloured faces one `_walk_down` from cc numbers.
    """
    pool: list[ColouredCone] = []
    _walk_down(lattice, cc, {}, pool, [], {})
    return sorted(pool, key=lambda f: (f.dim(), f.cone.generators))


def uncoloured_rays(lattice: ColouredLattice, cc: ColouredCone) -> list[Vector]:
    """Generators of the rays of cc that carry none of its colour points.

    A pointed cone's rays are spanned by its canonical generators, and a
    nonzero point lies on the ray of u exactly when its primitive vector is u.
    """
    if not cc.cone.is_strongly_convex():
        raise NotPointedError("only a strongly convex cone is generated by its rays")
    on_rays = {primitive(p) for p in map(lattice.point, cc.colours) if any(p)}
    return [g for g in cc.cone.generators if g not in on_rays]


def _multiset(lattice: ColouredLattice, cc: ColouredCone) -> tuple[Vector, ...]:
    """cc's uncoloured ray generators (`uncoloured_rays`), then its colour points by root."""
    return tuple(uncoloured_rays(lattice, cc)) + tuple(lattice.point(r) for r in sorted(cc.colours))


def _reach(edges: list, start: Iterable[int], seen: dict[int, None]) -> dict[int, None]:
    """`seen`, with every index reached from `start` along `edges`, transitively, added in the order reached."""
    stack = list(start)
    while stack:
        j = stack.pop()
        if j not in seen:
            seen[j] = None
            stack += edges[j]
    return seen


def _walk_down(
    lattice: ColouredLattice, cc: ColouredCone, slots: dict, pool: list, down: list, bit_of: dict
) -> int:
    """Number the coloured faces of cc not numbered yet, each with its coloured facets; return the full face's number.

    Faces are generator masks, each generator standing for its bit in
    `bit_of` (new generators take the next bit), so a face has one mask
    whichever cone it is found under.  `slots[r]` maps (mask, colours) to a
    number for the cones of ambient rank r, `pool` holds the coloured cone
    of each number and `down` its coloured facets (None until walked).  The
    facets of a face come from `polyhedra._facet_masks` and take the
    colours of cc whose points lie in them: a point lies in a face exactly
    when the face's mask holds that of the smallest face of cc's cone
    through it (`Cone.smallest_face`, the rule `polyhedra.is_face_of` reads
    too), so no face needs an inequality description of its own.  These are the
    facets' colours under every member the face is a coloured face of, so
    the walk goes on below a face only when it is new, and each coloured
    face is built once: one `Cone` of its generators, its dimension that of
    the face above less one.  The full face is cc itself when every colour
    point of cc lies in its cone, else cc's cone with the colours that do.
    """
    sigma = cc.cone
    gens = sigma.generators
    bits = [bit_of.setdefault(g, 1 << len(bit_of)) for g in gens]
    bit = dict(zip(gens, bits))
    through = []
    for r in sorted(cc.colours):
        face = sigma.smallest_face(lattice.point(r))
        if face is not None:
            through.append((r, sum(bit[g] for g in face)))
    slot = slots.setdefault(sigma.ambient_rank, {})
    full, colours = sum(bits), frozenset(r for r, _ in through)
    top = slot.get((full, colours))
    if top is None:
        top = slot[full, colours] = len(pool)
        pool.append(cc if colours == cc.colours else ColouredCone(sigma, colours))
        down.append(None)
    if down[top] is not None:
        return top
    cuts = _facet_cuts(sigma, bits)
    d = sigma.dim()
    level = [(full, top)]
    while level:
        below = []
        for s, k in level:
            facets = []
            for t in _facet_masks(s, d, bits, cuts):
                key = t, frozenset(r for r, m in through if t & m == m) if through else colours
                j = slot.get(key)
                if j is None:
                    j = slot[key] = len(pool)
                    cone = _keep(Cone(sigma.ambient_rank, tuple(g for g, b in zip(gens, bits) if t & b)), _dim=d - 1)
                    pool.append(ColouredCone(cone, key[1]))
                    down.append(None)
                if down[j] is None:
                    down[j] = []
                    below.append((t, j))
                facets.append(j)
            down[k] = facets
        level, d = below, d - 1
    return top


def _closure(lattice: ColouredLattice, cones: Iterable[ColouredCone]) -> tuple[tuple[ColouredCone, ...], tuple]:
    """`close_under_coloured_faces`, with the face table of the fan on its members (`ColouredFan._face_table`).

    The table of the fan on the input cones numbers each distinct input,
    strays included, then the coloured faces that are no input: the members,
    renumbered into member order.  `coloured_cone_key` ties only zero cones
    of different ambient ranks, which come in the order that walks down the
    covers from the inputs, in input order, reach them.
    """
    first, pool, down, strays = ColouredFan(lattice, tuple(cones))._face_table
    # `_reach` walks from the last start first, so the inputs are walked in input order
    reached = _reach(down, first[::-1], {})
    order = sorted(reached, key=lambda k: coloured_cone_key(pool[k]))
    number = {k: p for p, k in enumerate(order)}
    members = tuple(pool[k] for k in order)
    down = [[number[j] for j in down[k]] for k in order]
    return members, (list(range(len(members))), list(members), down, frozenset(map(number.get, strays)))


def close_under_coloured_faces(
    lattice: ColouredLattice, cones: Iterable[ColouredCone]
) -> tuple[ColouredCone, ...]:
    """Face closure, deduped and canonically ordered (small cones first).

    The input cones are kept as members verbatim; for a valid coloured cone
    the face with the full underlying cone is the cone itself, so this only
    differs when the input is invalid, which validation will then flag.  Of
    equal cones and faces the first is kept.  The coloured faces are those
    of the fan on the input cones, each built once (`_closure`).
    """
    return _closure(lattice, cones)[0]


def coloured_fan(lattice: ColouredLattice, cones: Iterable[ColouredCone]) -> ColouredFan:
    """Build a fan from maximal cones by coloured-face closure, then validate.

    The fan keeps the face table of its closure, so each coloured face is
    built once and no face lattice is walked again.
    """
    members, table = _closure(lattice, cones)
    fan = _keep(ColouredFan(lattice, members), _face_table=table)
    report = validate_coloured_fan(fan)
    if not report.valid:
        raise ValueError("not a coloured fan: " + "; ".join(report.violations))
    return fan


def _meet_in_coloured_face(faces_of: dict, a: ColouredCone, b: ColouredCone) -> bool:
    """Whether a ∩ b, with the colours both carry, is a coloured face of both members: one exact rule in three steps.

    a and b are pointed and of one ambient rank, as every member is once
    `validate_coloured_fan` reaches the meets; G is the set of canonical
    generators they share.  (1) A common face of a and b is cone(G): a face
    of a pointed cone has the cone's generators in it as its canonical
    generators, so those of a common face are shared, and every shared one
    lies in it.  So if (cone(G), the colours of both) is missing from either
    list of coloured faces, the answer is no.  (2) Otherwise cone(G) is a
    face of both, the meet of the facets through it, so m_a, the sum of a's
    normals whose zero set holds G (read off a's own incidence table; the
    +/- span equalities cancel), is >= 0 on a and a ∩ m_a⊥ = cone(G).  If
    m_a is <= 0 on every generator of b, then a ∩ b lies in a ∩ m_a⊥, and
    the answer is yes.  m_b is tried on a's generators the same way.  (3)
    Otherwise one double-description pass (`polyhedra._dual_description`)
    runs on the distinct vectors of a's generators and the negatives of
    b's, which generate C = a - b.  The inputs on every facet of C span its
    lineality L, and ±G are 2|G| of them; the answer is whether no other
    input is.  If a ∩ b = cone(G) is a face of both, the separation lemma
    (Cox-Little-Schenck, Toric Varieties, 1.2.13) gives an m >= 0 on a and
    <= 0 on b with a ∩ m⊥ = cone(G) = b ∩ m⊥.  m lies in the dual of C, so
    it vanishes on L, and an input in L is ± a generator in cone(G), which
    is in G.  Conversely, a point m of the relative interior of C's dual
    vanishes on C exactly on L (Gordan's theorem, Schrijver, Theory of
    Linear and Integer Programming, 7.8).  If only ±G lie in L, m is > 0 on
    a's generators outside G and < 0 on b's, so a ∩ b lies in m⊥, which
    meets a in cone(G).  Each step is exact, so every answer is the same
    whichever step gives it.
    """
    sigma, tau = a.cone, b.cone
    shared = frozenset(sigma.generators).intersection(tau.generators)
    meet = ColouredCone(Cone(sigma.ambient_rank, tuple(sorted(shared))), a.colours & b.colours)
    if meet not in faces_of[a] or meet not in faces_of[b]:
        return False
    for one, other in ((sigma, tau), (tau, sigma)):
        through = [h for h, z in one.incidences if z >= shared]
        m = tuple(sum(h[i] for h in through) for i in range(one.ambient_rank))
        if all(dot(m, g) <= 0 for g in other.generators):
            return True
    vecs = list(dict.fromkeys(sigma.generators + tuple(tuple(-x for x in g) for g in tau.generators)))
    masks = _dual_description(vecs, sigma.ambient_rank)[1]
    return reduce(and_, masks, (1 << len(vecs)) - 1).bit_count() == 2 * len(shared)


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

    The axioms are a fact about the members, so the report is made once per
    fan and kept on it (`ColouredFan._validation`): validating a fan again,
    as every CLI command on a kept document does, does no work.

    Colour points.  A member that the face table does not mark a stray is a
    coloured face of itself and needs no containment test: the walk
    (`_walk_down`) puts a colour on a face only when its point lies in the
    face, so every colour point of the member lies in its cone.  The table
    is read only when every member has the lattice's rank and only known
    colours; otherwise, and for every stray, the test is its cone's
    `contains`.

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
    so it is s.  So when every anchor pair meets, every pair is settled,
    whatever else is wrong.

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

    Otherwise C(k, 2) meets are tested, one per pair of the k anchors, each
    decided by `_meet_in_coloured_face`, one exact rule: the two face lists
    reject, a normal sum read off a member's own incidence table accepts,
    and one double-description pass settles the rest.  Missing coloured
    facets decide closure; the face lists are read down the covers of
    `_face_table` only when validation reaches the meets.  If no anchor
    pair fails, no pair of members fails.  Otherwise each member goes to
    its first anchor, the first in member order of the anchors above its
    first occurrence, and the pairs drawn from the two groups of a failed
    anchor pair are walked, in pair order.  A pair under one anchor, or
    under two that meet, is settled and skipped; a failed anchor pair is
    reported without a second test, and any other pair is tested.  A failing pair is unsettled,
    so its two first anchors differ and their pair failed: an invalid fan
    reports the same violations, in the same order, as testing every pair.
    Each member there reads its own table: a parsed member keeps the one
    its `Cone.from_generators` pass made, and any other cone makes its own
    on first use.
    """
    return fan._validation


def _check_axioms(fan: ColouredFan) -> ValidationReport:
    """The report of `validate_coloured_fan`, worked out afresh."""
    violations: list[str] = []
    lattice = fan.lattice
    known_roots = lattice.colour_roots()
    if not fan.cones:
        violations.append("fan has no coloured cones (the trivial coloured cone is required)")
    inside = set()
    if all(cc.cone.ambient_rank == lattice.rank and cc.colours <= known_roots for cc in fan.cones):
        strays = fan._face_table[3]
        inside = {i for i, k in enumerate(fan._face_table[0]) if k not in strays}
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
            elif i not in inside and not cc.cone.contains(point):
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
    faces_of, cones = fan._faces_of(), fan.cones
    pairs = itertools.combinations(fan._anchors, 2)
    failed = {(s, t) for s, t in pairs if not _meet_in_coloured_face(faces_of, cones[s], cones[t])}
    if failed:
        # each member under its first anchor: an unsettled pair lies under two anchors of a failed pair
        anchors, group = set(fan._anchors), {}
        tops = [[s for s in fan._above(k) if s in anchors] for k in fan._face_table[0]]
        for i, above in enumerate(tops):
            group.setdefault(above[0], []).append(i)
        candidates = sorted((min(i, j), max(i, j)) for s, t in failed for i in group[s] for j in group[t])
        for i, j in candidates:
            # settled: under one anchor, or under two that meet; a failed anchor pair is not tested again
            settled = any((a, b) not in failed and (b, a) not in failed for a in tops[i] for b in tops[j])
            if not settled and ((i, j) in failed or not _meet_in_coloured_face(faces_of, cones[i], cones[j])):
                a, b = fan.describe(cones[i]), fan.describe(cones[j])
                violations.append(f"intersection of {a} and {b} is not a coloured face of both")
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
    made once per cone.  The quotient datum depends on the annihilator and
    cc's colours alone: `orbit_table` builds one per distinct pair, shared by
    its members, and this route gives that datum with its lattice and
    projection.  A cone of another ambient rank than the datum's lattice is
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

    The datum is `_quotient_datum`'s; the lattice is the new datum's, whose
    colour points are the projected ones, so they are not compared again.
    """
    new_datum = _quotient_datum(datum, projection_rows, removed_colours)
    projection = IntMatrix.from_rows(projection_rows, cols=datum.lattice_rank)
    return QuotientResult(build_coloured_lattice(new_datum), new_datum, projection)


def _quotient_datum(
    datum: HorosphericalDatum,
    projection_rows: Sequence[Vector],
    removed_colours: Iterable[int],
) -> HorosphericalDatum:
    """The datum (I + C', M') of N / N' with the colours C' removed, N' saturated with annihilator basis `projection_rows`.

    Row i of the new character matrix is the projection of the old row i,
    dot products over tuples with no matrix product; its row a is the
    projected colour point of a.  The datum skips
    `HorosphericalDatum.__post_init__`: once C' is checked to be colours of
    N, every check there holds by construction.  I + C' lies in the simple
    roots, the row count is the old one, the rows of I stay zero, and the
    columns are independent, an injective character matrix times the
    transpose of the independent rows of a kernel basis.
    """
    removed = frozenset(removed_colours)
    if not removed.issubset(datum.colour_roots()):
        raise ValueError("removed colours must be universal colours of N")
    characters = datum.characters
    # rows read off the entries, so a rank-0 lattice walks none, however large the torus
    rows = zip(*[iter(characters.entries)] * characters.cols)
    projected = [tuple(dot(row, p) for p in projection_rows) for row in rows]
    # N' is saturated, so a point lies in N' exactly when the projection kills it;
    # on a rank-0 lattice no row was walked, and every colour point is zero
    for r in sorted(removed):
        if projected and any(projected[r]):
            raise ColourOutsideSublatticeError(
                f"colour point of {datum.group.label(r)} lies outside the sublattice"
            )
    quotient = object.__new__(HorosphericalDatum)
    vars(quotient).update(
        group=datum.group,
        parabolic=frozenset(datum.parabolic | removed),
        characters=IntMatrix(characters.rows, len(projection_rows), tuple(x for row in projected for x in row)),
    )
    return quotient


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
    """Componentwise product of two coloured fans: cones sigma_1 x sigma_2 with colours F_1 + F_2.

    Only the products of maximal members are formed; `coloured_fan` closes
    them under coloured faces and validates, so the members come in its
    canonical order (`coloured_cone_key`), not in pair order, and the fan
    keeps the face table of its closure.  Each factor must be a coloured fan,
    as its maximal members then determine it; a product that fails
    validation raises ValueError.
    """
    lattice = product_coloured_lattice(a.lattice, b.lattice)
    cones = []
    for ca in a.maximal():
        for cb in b.maximal():
            gens = [g + (0,) * b.lattice.rank for g in ca.cone.generators] + [
                (0,) * a.lattice.rank + g for g in cb.cone.generators
            ]
            colours = frozenset(ca.colours) | frozenset(r + a.lattice.simple_count for r in cb.colours)
            cones.append(ColouredCone(Cone.from_generators(lattice.rank, gens), colours))
    return coloured_fan(lattice, cones)
