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
    kernel_basis,
    lattice_coordinates,
    rank,
)
from .polyhedra import (
    Cone,
    Echelon,
    NotPointedError,
    _echelon_of_rows,
    complete_fan_walls,
    dot,
    faces,
    intersect,
    is_face_of,
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
    """Finite collection of strongly convex coloured cones on a coloured lattice.

    What depends on the members alone is computed once per fan, outside ==
    and hash: the coloured-face table behind `star` and `maximal`, and, from
    the cones of the maximal members, the wall table (`walls`) and the PLF
    lattice (`plf_lattice`).  Each member's multiset and its echelon
    (`member_echelon`) are made on first use and kept the same way.
    `_listed` holds coloured-face lists already made for some members
    (`coloured_fan` passes its closure's), which the face table reads
    instead of running `coloured_faces` again.
    """

    lattice: ColouredLattice
    cones: tuple[ColouredCone, ...]
    _listed: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
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
        no other member contains.  The rule raises wherever `coloured_faces`
        does, for example KeyError on an unknown colour index.
        """
        return list(self._maximal)

    def star(self, cc: ColouredCone) -> tuple[ColouredCone, ...]:
        """The members that the member cc is a coloured face of, in member order."""
        return self._face_table[0][cc]

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
        """Member `index`'s multiset, with the `intlin.kernel_and_complement` triple of its rows, as tuples.

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
                data = _echelon_of_rows(multiset, self.lattice.rank)
            self._multisets[index] = (multiset, data)
        return self._multisets[index]

    @cached_property
    def _face_table(self) -> tuple[dict, tuple, dict]:
        """Each member's star, the (member, face) pairs whose face is no member, and each member's coloured faces.

        Computed once per fan, outside == and hash.  `coloured_faces` runs
        only on the members that are a coloured face of no larger member
        and have no list in `_listed`.
        When a member f equals an entry of a member sigma's list, colours
        included, f is a face of sigma, so its faces are the faces of sigma
        inside f: the entries of sigma's list whose generators lie in f's,
        already in the (dim, generators) order of `faces`.  Their colours
        agree too: f's colours are sigma's colours with points in f, so for
        a face g of f, sigma's colours with points in g are f's.  So the
        members are walked from the largest dimension down, and each member
        already listed under one walked before filters that member's list.
        The star and the missing faces are then read in member order.  This
        raises wherever `coloured_faces` does.
        """
        lists: dict[ColouredCone, list[ColouredCone]] = {}
        cover: dict[ColouredCone, list[ColouredCone]] = {}
        for sigma in sorted(self.cones, key=lambda cc: -cc.dim()):
            if sigma in lists:
                continue
            if sigma in cover:
                inside = frozenset(sigma.cone.generators)
                listed = [f for f in cover[sigma] if inside.issuperset(f.cone.generators)]
            elif sigma in self._listed:
                listed = self._listed[sigma]
            else:
                listed = coloured_faces(self.lattice, sigma)
            lists[sigma] = listed
            for f in listed:
                cover[f] = listed
        star: dict[ColouredCone, dict[ColouredCone, None]] = {cc: {} for cc in self.cones}
        missing = []
        for sigma in self.cones:
            for f in lists[sigma]:
                if f in star:
                    star[f][sigma] = None
                else:
                    missing.append((sigma, f))
        faces_of = {cc: frozenset(lists[cc]) for cc in self.cones}
        return {cc: tuple(above) for cc, above in star.items()}, tuple(missing), faces_of

    @cached_property
    def _maximal(self) -> tuple[ColouredCone, ...]:
        return tuple(cc for cc, above in self._face_table[0].items() if above == (cc,))

    @cached_property
    def _walls(self) -> Optional[dict[Cone, tuple[int, int, Vector]]]:
        return complete_fan_walls([cc.cone for cc in self._maximal])

    @cached_property
    def _plf_lattice(self) -> tuple[list[Vector], IntMatrix]:
        return plf_lattice([cc.cone for cc in self._maximal])

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


def trivial_coloured_cone(lattice: ColouredLattice) -> ColouredCone:
    return ColouredCone(Cone.zero(lattice.rank), frozenset())


def _face_colours(lattice: ColouredLattice, cc: ColouredCone, face_cones: list[Cone]) -> list[frozenset[int]]:
    """For each face tau of cc's cone, the colours of cc whose points lie in tau.

    A face tau is sigma cut by the hyperplanes of sigma's normals that vanish
    on tau's generators, so a point of sigma lies in tau exactly when each of
    those normals vanishes on it.  A face's generators are some of sigma's
    (as `faces` and `is_face_of` give them), so a normal vanishes on tau
    exactly when its zero set in sigma's incidence table holds tau's
    generators.  No face needs an inequality description of its own.
    """
    table = cc.cone.incidences
    zeros = {}
    for r in cc.colours:
        values = [dot(h, lattice.point(r)) for h, _ in table]
        if all(v >= 0 for v in values):
            zeros[r] = {k for k, v in enumerate(values) if v == 0}
    out = []
    for f in face_cones:
        active = {k for k, (_, z) in enumerate(table) if z.issuperset(f.generators)}
        out.append(frozenset(r for r, z in zeros.items() if active <= z))
    return out


def coloured_faces(lattice: ColouredLattice, cc: ColouredCone) -> list[ColouredCone]:
    """All coloured faces: each face tau gets the colours of cc landing in tau."""
    face_cones = faces(cc.cone)
    return [ColouredCone(f, c) for f, c in zip(face_cones, _face_colours(lattice, cc, face_cones))]


def uncoloured_rays(lattice: ColouredLattice, cc: ColouredCone) -> list[Vector]:
    """Generators of the rays of cc that carry none of its colour points.

    A pointed cone's rays are spanned by its canonical generators, and a
    nonzero point lies on the ray of u exactly when its primitive vector is u.
    """
    if not cc.cone.is_strongly_convex():
        raise NotPointedError("only a strongly convex cone is generated by its rays")
    on_rays = {primitive(p) for p in map(lattice.point, cc.colours) if any(p)}
    return [g for g in cc.cone.generators if g not in on_rays]


def coloured_intersection(a: ColouredCone, b: ColouredCone) -> ColouredCone:
    return ColouredCone(intersect(a.cone, b.cone), a.colours & b.colours)


def is_coloured_face(lattice: ColouredLattice, tau: ColouredCone, sigma: ColouredCone) -> bool:
    return is_face_of(tau.cone, sigma.cone) and _face_colours(lattice, sigma, [tau.cone]) == [tau.colours]


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
    meet = coloured_intersection(a, b) if cone is None else ColouredCone(cone, a.colours & b.colours)
    return meet in faces_of[a] and meet in faces_of[b]


def close_under_coloured_faces(
    lattice: ColouredLattice, cones: Iterable[ColouredCone]
) -> tuple[ColouredCone, ...]:
    """Face closure, deduped and canonically ordered (small cones first).

    The input cones are kept as members verbatim; for a valid coloured cone
    the face with the full underlying cone is the cone itself, so this only
    differs when the input is invalid, which validation will then flag.
    """
    return _closure(lattice, cones)[0]


def _closure(
    lattice: ColouredLattice, cones: Iterable[ColouredCone]
) -> tuple[tuple[ColouredCone, ...], dict[ColouredCone, list[ColouredCone]]]:
    """`close_under_coloured_faces`, and the coloured faces of each input cone."""
    listed: dict[ColouredCone, list[ColouredCone]] = {}
    seen: set[ColouredCone] = set()
    for cc in cones:
        if cc not in listed:
            listed[cc] = coloured_faces(lattice, cc)
        seen.add(cc)
        seen.update(listed[cc])
    return tuple(sorted(seen, key=coloured_cone_key)), listed


def coloured_fan(lattice: ColouredLattice, cones: Iterable[ColouredCone]) -> ColouredFan:
    """Build a fan from maximal cones by coloured-face closure, then validate.

    The face table reads the closure's coloured-face lists, so each input
    cone runs `coloured_faces` once.
    """
    members, listed = _closure(lattice, cones)
    fan = ColouredFan(lattice, members, listed)
    report = validate_coloured_fan(fan)
    if not report.valid:
        raise ValueError("not a coloured fan: " + "; ".join(report.violations))
    return fan


def validate_coloured_fan(fan: ColouredFan) -> ValidationReport:
    """Check every coloured-fan axiom; violations are reported, not raised.

    Any two members must meet in a coloured face of both, but that is tested
    directly only on pairs of anchors, `fan.maximal()` (the members whose
    star is themselves alone), and on pairs the anchors do not settle.  A
    pair (a, b) is settled when a is a coloured face of an anchor s, b one
    of an anchor t, and s = t or s and t meet in a coloured face phi of
    both.  Then a ∩ b = (a ∩ phi) ∩ (b ∩ phi), an intersection of faces of
    phi, so it is a face of phi and hence of a and of b (faces of faces and
    intersections of faces are faces: Cox-Little-Schenck, Toric Varieties,
    1.2).  A colour of a whose point lies in a ∩ b is a colour of s with
    its point in phi, hence a colour of phi and of t, hence of b; so the
    colours match too.  Once every colour point lies in its cone, each
    member a lies under an anchor, a member s of largest dimension in a's
    star: s's star lies in a's (a coloured face of a coloured face is one),
    and a member of it as large as s has s's cone, so it is s.  So when
    every anchor pair meets and nothing else is wrong, every pair is
    settled and validation returns after the anchor table: C(k, 2)
    meets for k anchors.  A meet is certified by a separating functional
    read off the two incidence tables (`_separated_meet`) and computed by a
    double description only when no candidate certifies it; a certificate
    fixes the meet exactly, so every answer is the same either way.  The
    face lists come from `_face_table`, one `coloured_faces` pass per
    member that is a coloured face of no larger member.  Otherwise it walks
    the pairs, and an invalid fan reports the same violations, in the same
    order, as testing every pair.
    """
    violations: list[str] = []
    lattice = fan.lattice
    known_roots = lattice.colour_roots()
    if not fan.cones:
        violations.append("fan has no coloured cones (the trivial coloured cone is required)")
    for cc in fan.cones:
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
            elif not cc.cone.contains(point):
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
    star, missing, faces_of = fan._face_table
    for cc, f in missing:
        violations.append(f"{fan.describe(cc)}: coloured face {fan.describe(f)} is missing from the fan")
    anchors = fan.maximal()
    slot = {cc: k for k, cc in enumerate(anchors)}
    met = [[True] * len(anchors) for _ in anchors]
    for (k, s), (l, t) in itertools.combinations(enumerate(anchors), 2):
        met[k][l] = met[l][k] = _meet_in_coloured_face(faces_of, s, t)
    if not violations and all(map(all, met)):
        return ValidationReport(True, ())
    tops = {cc: [slot[s] for s in above if s in slot] for cc, above in star.items()}
    for i, a in enumerate(fan.cones):
        for b in fan.cones[i + 1 :]:
            if any(met[s][t] for s in tops[a] for t in tops[b]):
                continue
            # two anchors that get here failed in the table already
            if (a in slot and b in slot) or not _meet_in_coloured_face(faces_of, a, b):
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
    """The quotient of N by the saturated N' whose annihilator has the basis `projection_rows`, N read off the datum."""
    removed = frozenset(removed_colours)
    if not removed.issubset(datum.colour_roots()):
        raise ValueError("removed colours must be universal colours of N")
    projection = IntMatrix.from_rows(projection_rows, cols=datum.lattice_rank)
    # N' is saturated, so a point lies in N' exactly when the projection kills it
    for r in sorted(removed):
        if any(projection.apply(datum.characters.row(r))):
            raise ColourOutsideSublatticeError(
                f"colour point of {datum.group.label(r)} lies outside the sublattice"
            )
    new_characters = datum.characters.mul(projection.transpose())
    new_datum = HorosphericalDatum(
        group=datum.group,
        parabolic=frozenset(datum.parabolic | removed),
        characters=new_characters,
    )
    new_lattice = build_coloured_lattice(new_datum)
    # the construction must reproduce the projected colour points exactly
    for c in new_lattice.colours:
        if c.point != projection.apply(datum.characters.row(c.root)):
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
