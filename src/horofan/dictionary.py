"""The dictionary between coloured fans and geometry.

Orbits and their closures, variety-level properties (simple, affine,
complete, toroidal, projective), per-cone regularity and smoothness,
morphism compatibility and properness, decolouration, affine local
structure, and weight monoids.  Everything consumes a validated
ColouredFan together with the HorosphericalDatum presenting its lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .intlin import IntMatrix, echelon_solutions
from .polyhedra import (
    Cone,
    LatticeLiftError,
    _join_lineality,
    covered_by,
    dual_cone,
    hilbert_basis,
    primitive,
    wall_gaps,
)
from .horo import (
    ColouredCone,
    ColouredFan,
    ColouredLattice,
    ColouredLatticeMap,
    ColourPointMismatchError,
    HorosphericalDatum,
    LatticeMismatchError,
    _quotient_datum,
    _require_lattice,
    build_coloured_lattice,
    coloured_cone_key,
    quotient_by_cone,
    trivial_coloured_cone,
)
from .rootsys import RootDatum, colour_smoothness_check, connected_components, flag_dimension

Vector = tuple[int, ...]


class ConeNotInFanError(IndexError):
    """A cone index does not name a member of the fan."""


class NotStronglyConvexError(ValueError):
    """The operation needs a strongly convex coloured cone."""


class CancellationToken:
    """Cooperative cancellation for the long-running polyhedral checks."""

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    def cancelled(self) -> bool:
        return self._cancelled


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit of the variety: its coloured cone and homogeneous datum."""

    cone_index: int
    dimension: int
    homogeneous_datum: HorosphericalDatum


def orbit_table(fan: ColouredFan, datum: HorosphericalDatum) -> list[OrbitRecord]:
    """One record per coloured cone; dimension by the orbit formula.

    dim O(sigma^c) = rank(N) - dim(sigma) + dim(G/P_{I + F(sigma^c)}).
    The orbit's datum is that of N / span(sigma) with sigma's colours
    removed, so it depends on the span's annihilator, the kernel of the
    cone's `generator_echelon`, and on F(sigma^c) alone: orbits share one
    quotient datum per distinct pair, built with no lattice, projection
    matrix or rank check (`horo._quotient_datum`).  Members share few colour
    sets, so each distinct F(sigma^c) takes one `flag_dimension`.
    """
    _require_lattice(fan, datum)
    flags: dict[frozenset[int], int] = {}
    quotients: dict[tuple, HorosphericalDatum] = {}
    records = []
    for idx, cc in enumerate(fan.cones):
        if cc.colours not in flags:
            flags[cc.colours] = flag_dimension(datum.group, datum.parabolic | cc.colours)
        key = (cc.cone.generator_echelon()[2], cc.colours)
        if key not in quotients:
            quotients[key] = _quotient_datum(datum, *key)
        dim = fan.lattice.rank - cc.dim() + flags[cc.colours]
        records.append(OrbitRecord(idx, dim, quotients[key]))
    return records


def _member(fan: ColouredFan, index: int) -> ColouredCone:
    """The member of the fan with this index; a negative index does not wrap around."""
    if not 0 <= index < len(fan.cones):
        raise ConeNotInFanError(f"no coloured cone with index {index}")
    return fan.cones[index]


def closure_contains(fan: ColouredFan, outer: int, inner: int) -> bool:
    """Whether the closure of orbit `outer` contains orbit `inner`.

    By the orbit correspondence this holds iff the outer coloured cone is a
    coloured face of the inner one, that is, iff the inner one is in the
    outer one's star.
    """
    return _member(fan, inner) in fan.star(_member(fan, outer))


def orbit_closure(
    fan: ColouredFan, index: int, datum: HorosphericalDatum
) -> tuple[ColouredFan, HorosphericalDatum]:
    """Coloured fan of an orbit closure, on the quotient coloured lattice."""
    _require_lattice(fan, datum)
    tau = _member(fan, index)
    quotient = quotient_by_cone(datum, tau)
    cones = []
    # in a valid fan the members containing tau are those it is a coloured face of
    for cc in fan.star(tau):
        image = Cone.from_generators(
            quotient.lattice.rank, [quotient.projection.apply(g) for g in cc.cone.generators]
        )
        cones.append(ColouredCone(image, frozenset(cc.colours - tau.colours)))
    ordered = tuple(sorted(set(cones), key=coloured_cone_key))
    return ColouredFan(quotient.lattice, ordered), quotient.datum


@dataclass(frozen=True)
class ConeRegularity:
    """Multiset analysis of one coloured cone."""

    cone_index: int
    multiset: tuple[Vector, ...]
    simplicial: bool
    regular: bool
    smooth: bool
    diagnostic: str


def regularity_report(fan: ColouredFan, datum: HorosphericalDatum) -> list[ConeRegularity]:
    """Per-cone multiset of non-coloured ray generators and colour points.

    Simplicial: the multiset is linearly independent.  Regular: it extends to
    a Z-basis of N.  Smooth: regular plus the Dynkin-diagram condition on the
    cone's colours.  The column Hermite form H of x -> (<v_i, x>)_i answers
    both for k vectors v_i: simplicial iff H has k columns, and regular iff
    the map is onto Z^k, that is iff H is the k x k identity.  H is the
    echelon of the member's `ColouredFan.member_echelon`.  The flags are read
    down the fan's covers and kept per fan (`ColouredFan._regularity`): a
    coloured face of a regular member is simplicial and regular, with no
    echelon, since its multiset is a sub-multiset of the member's.  So on
    (P1)^n only the 2^n maximal members are echelonised, and no member is
    echelonised again, however often the report runs.  Members share few
    colour sets, so each distinct one takes one Dynkin check.
    """
    _require_lattice(fan, datum)
    first, flags = fan._face_table[0], fan._regularity
    dynkin: dict[frozenset[int], tuple[bool, str]] = {}
    out = []
    for idx, cc in enumerate(fan.cones):
        multiset, simplicial, regular = flags[first[idx]]
        if cc.colours not in dynkin:
            dynkin[cc.colours] = colour_smoothness_check(datum.group, datum.parabolic, cc.colours)
        dynkin_ok, dynkin_why = dynkin[cc.colours]
        smooth = regular and dynkin_ok
        if not simplicial:
            why = "multiset is linearly dependent (not simplicial)"
        elif not regular:
            why = "multiset does not extend to a Z-basis (not regular)"
        elif not dynkin_ok:
            why = dynkin_why
        else:
            why = "regular, and the colours satisfy the Dynkin condition"
        out.append(ConeRegularity(idx, multiset, simplicial, regular, smooth, why))
    return out


@dataclass(frozen=True)
class PropertyReport:
    is_simple: bool
    is_affine: bool
    is_complete: bool
    is_toroidal: bool
    is_projective: bool
    is_simplicial: bool
    is_regular: bool
    is_factorial: bool
    is_q_factorial: bool
    is_smooth: bool
    diagnostics: tuple[str, ...]


def classify_variety(fan: ColouredFan, datum: HorosphericalDatum) -> PropertyReport:
    """Variety-level property suite for the horospherical variety of the fan.

    Projective: complete, with a pointed cone of wall rows (`_strictly_convex_plf_exists`).
    """
    _require_lattice(fan, datum)
    notes = []
    maximal = fan.maximal()
    simple = len(maximal) == 1
    universal = fan.lattice.colour_roots()
    fan_colours = fan.colour_set()
    affine = simple and fan_colours == universal
    if simple and not affine:
        missing = ", ".join(fan.lattice.labels()[r] for r in sorted(universal - fan_colours))
        notes.append(f"simple but not affine: colours {missing} unused")
    toroidal = fan_colours == frozenset()
    complete = fan.walls() is not None
    projective = complete and _strictly_convex_plf_exists(fan)
    if complete and not projective:
        notes.append("complete but admits no strictly convex piecewise linear function")
    regs = regularity_report(fan, datum)
    simplicial = all(r.simplicial for r in regs)
    regular = all(r.regular for r in regs)
    smooth = all(r.smooth for r in regs)
    for r in regs:
        if not r.smooth:
            notes.append(f"cone {r.cone_index}: {r.diagnostic}")
    return PropertyReport(
        is_simple=simple,
        is_affine=affine,
        is_complete=complete,
        is_toroidal=toroidal,
        is_projective=projective,
        is_simplicial=simplicial,
        is_regular=regular,
        is_factorial=regular,
        is_q_factorial=simplicial,
        is_smooth=smooth,
        diagnostics=tuple(notes),
    )


def _strictly_convex_plf_exists(fan: ColouredFan) -> bool:
    """Whether a complete fan carries a strictly convex PLF, by Gordan's theorem.

    A PLF is strictly convex iff every one of its `polyhedra.wall_gaps` is
    > 0.  In the basis of the fan's PLF lattice (`ColouredFan.plf_lattice`)
    the gap across a wall is g.x for the wall's row g, the gaps of the basis
    PLFs there, which one `wall_gaps` pass over `fan.walls()` reads for
    every wall; each basis PLF has its piece on sigma, read off its values
    on sigma's rays, solved on sigma's `generator_echelon`.  Since g.x > 0
    is unchanged when g is repeated or scaled by a positive number, each row
    is made primitive and only its first occurrence, in wall order, is kept.  A zero row means that wall's
    gap is 0 for every PLF, so no PLF is strictly convex and no cone is
    built.  Otherwise, by Gordan's theorem (Schrijver, Theory of Linear and
    Integer Programming, 7.8), some x has g.x > 0 for every row g iff no
    y >= 0, y != 0 has sum y_g g = 0, that is, iff the cone the rows
    generate in Z^b, b the rank of the PLF lattice, is pointed.  Linear
    functions have zero gap on every wall, so they do not enter.
    """
    rays, basis = fan.plf_lattice()
    at = {u: t for t, u in enumerate(rays)}
    plfs = basis.columns()
    pieces = []
    for sigma in [cc.cone for cc in fan.maximal()]:
        values = [tuple(v[at[u]] for u in sigma.generators) for v in plfs]
        ms = echelon_solutions(sigma.generator_echelon(), len(sigma.generators), values)
        if None in ms:
            raise LatticeLiftError("a piecewise linear function is linear on each maximal cone")
        pieces.append(ms)
    rows: dict[Vector, None] = {}
    for row in wall_gaps(fan.walls(), pieces):
        if not any(row):
            return False
        rows.setdefault(primitive(row))
    return Cone.from_generators(len(plfs), rows).is_strongly_convex()


def morphism_check(
    phi: ColouredLatticeMap,
    source_fan: ColouredFan,
    target_fan: ColouredFan,
    cancel: Optional[CancellationToken] = None,
) -> tuple[bool, bool]:
    """(compatible, proper) for a coloured lattice map between two fans.

    Compatible: every source coloured cone maps into some maximal target
    coloured cone with its non-dominantly-mapped colours.  On valid fans
    (`cli.execute` validates both first) it is enough to test the maximal
    source members against the maximal target members: a member tau is a
    coloured face of a maximal sigma, so tau ⊆ sigma and colours(tau) ⊆
    colours(sigma), and the image and colours of tau lie in those of sigma;
    on the target side, any member sigma maps into lies in a maximal one.
    Proper: the preimage of the target support equals the source support,
    decided by exact polyhedral covering both ways; a compatible map
    already puts the source in the preimage.
    """
    if phi.source != source_fan.lattice or phi.target != target_fan.lattice:
        raise LatticeMismatchError("map endpoints do not match the fans' lattices")
    target_max = target_fan.maximal()

    def hit(cc: ColouredCone) -> bool:
        images = [phi.apply(g) for g in cc.cone.generators]
        needed = cc.colours - phi.dominantly_mapped
        return any(needed <= t.colours and all(t.cone.contains(v) for v in images) for t in target_max)

    compatible = all(map(hit, source_fan.maximal()))
    token = cancel.cancelled if cancel is not None else None
    source_max = [cc.cone for cc in source_fan.maximal()]
    preimages = []
    pullback = phi.matrix.transpose()
    for cc in target_max:
        pulled = [pullback.apply(h) for h in cc.cone.facet_normals()]
        preimages.append(Cone.from_inequalities(source_fan.lattice.rank, pulled))
    # a compatible map sends each source maximal cone into some target maximal t, so into phi^-1(t)
    proper = all(covered_by(p, source_max, token) for p in preimages) and (
        compatible or all(covered_by(s, preimages, token) for s in source_max)
    )
    return compatible, proper


def decolouration(fan: ColouredFan) -> ColouredFan:
    """The same underlying fan with every colour set erased."""
    stripped = {ColouredCone(cc.cone, frozenset()) for cc in fan.cones}
    ordered = tuple(sorted(stripped, key=coloured_cone_key))
    return ColouredFan(fan.lattice, ordered)


def open_toroidal_subfan(fan: ColouredFan) -> ColouredFan:
    """Sub-coloured fan of the trivial cone and the non-coloured rays."""
    keep = [trivial_coloured_cone(fan.lattice)] + fan.non_coloured_rays()
    ordered = tuple(sorted(set(keep), key=coloured_cone_key))
    return ColouredFan(fan.lattice, ordered)


@dataclass(frozen=True)
class LocalStructure:
    """Affine local model of a simple horospherical variety.

    `parabolic_index` is I + F(sigma^c) in the original group's indices;
    `levi_datum` presents the Levi homogeneous space on the same lattice;
    `root_map` sends original simple-root indices into the Levi's.
    """

    parabolic_index: frozenset[int]
    levi_datum: HorosphericalDatum
    levi_lattice: ColouredLattice
    cone: ColouredCone
    root_map: dict[int, int]


def _classify_subdiagram(group: RootDatum, nodes: list[int]) -> tuple[str, int, list[int]]:
    """Identify a connected induced subdiagram as (letter, rank, Bourbaki order).

    A candidate diagram's nodes are placed one at a time, each on the first
    unused node whose Cartan entries with those placed so far agree, so the
    first full match is the first matching permutation of `nodes`.
    """
    size = len(nodes)
    ours = [[group.cartan_entry(a, b) for b in nodes] for a in nodes]

    def extend(target: tuple[tuple[int, ...], ...], chosen: list[int]) -> Optional[list[int]]:
        k = len(chosen)
        if k == size:
            return chosen
        for i in range(size):
            if i not in chosen and all(
                target[k][l] == ours[i][j] and target[l][k] == ours[j][i] for l, j in enumerate(chosen + [i])
            ):
                found = extend(target, chosen + [i])
                if found is not None:
                    return found
        return None

    for letter in "ABCDEFG":
        try:
            target = RootDatum.parse(f"{letter}{size}")
        except ValueError:
            continue
        order = extend(target.cartan(0), [])
        if order is not None:
            return letter, size, [nodes[i] for i in order]
    raise AssertionError("induced subdiagram of a Dynkin diagram must be a Dynkin diagram")


def affine_local_structure(
    sigma: ColouredCone, datum: HorosphericalDatum
) -> LocalStructure:
    """Levi slice of the simple variety of sigma: an affine model on the same N.

    The Levi group is the sub-root-datum on Q = I + F(sigma^c) with the
    central torus enlarged so the character rank is unchanged; the original
    character coordinates are reused, with fundamental-weight coordinates
    outside Q demoted to torus coordinates.
    """
    if not sigma.cone.is_strongly_convex():
        raise NotStronglyConvexError("affine local structure needs a strongly convex cone")
    group = datum.group
    q_index = frozenset(datum.parabolic | sigma.colours)
    components = [_classify_subdiagram(group, sorted(comp)) for comp in connected_components(group, q_index)]
    components.sort(key=lambda item: min(item[2]))
    levi_group = RootDatum(
        components=tuple((letter, size) for letter, size, _ in components),
        central_torus_rank=group.character_rank - len(q_index),
    )
    root_map: dict[int, int] = {}
    new_row_order: list[int] = []
    position = 0
    for _, _, order in components:
        for old in order:
            root_map[old] = position
            position += 1
            new_row_order.append(old)
    demoted = [i for i in range(group.simple_count) if i not in q_index]
    new_row_order.extend(demoted)
    new_row_order.extend(range(group.simple_count, group.character_rank))
    rows = [list(datum.characters.row(i)) for i in new_row_order]
    levi_datum = HorosphericalDatum(
        group=levi_group,
        parabolic=frozenset(root_map[i] for i in datum.parabolic),
        characters=IntMatrix.from_rows(rows, cols=datum.characters.cols),
    )
    levi_lattice = build_coloured_lattice(levi_datum)
    if levi_lattice.rank != datum.lattice_rank or any(
        levi_lattice.point(root_map[r]) != datum.characters.row(r) for r in sigma.colours
    ):
        raise ColourPointMismatchError("the Levi datum must keep the lattice rank and the colour points of sigma")
    z_cone = ColouredCone(sigma.cone, frozenset(root_map[r] for r in sigma.colours))
    return LocalStructure(q_index, levi_datum, levi_lattice, z_cone, root_map)


def weight_monoid_generators(sigma: ColouredCone, datum: HorosphericalDatum) -> list[Vector]:
    """Minimal generators of the weight monoid sigma^vee ∩ N^vee.

    The echelon of sigma's generators (`Cone.generator_echelon`) gives their
    coordinates in the saturated span L of sigma, the lift of functionals on
    L to N^vee, and the lineality lattice L-perp of sigma^vee.  The pointed
    quotient sigma^vee / L-perp is the dual of sigma inside L; its Hilbert
    basis is lifted through the complement, reduced modulo L-perp and joined
    by the +/- basis of L-perp, as `dual_generators` does for facets.  The
    zero cone and full-dimensional sigma take the same path.
    """
    if not sigma.cone.is_strongly_convex():
        raise NotStronglyConvexError("weight monoids are computed for strongly convex cones")
    echelon, complement, perp = sigma.cone.generator_echelon()
    pointed = dual_cone(Cone.from_generators(len(echelon), list(zip(*echelon))))
    return _join_lineality(hilbert_basis(pointed), complement, perp)
