"""Divisor theory on horospherical varieties.

B^- -invariant Weil divisors are integer coefficient vectors on the
non-coloured rays and the universal colours.  Cartier divisors are piecewise
linear data: one covector per maximal coloured cone, required to lie in the
dual lattice exactly and to agree on shared faces.  Each maximal cone's
covector is solved on its own, from its values on the cone's non-coloured
rays and colour points, which imply the agreement.  The class group is the
cokernel of the principal divisors, and the Picard group that of the linear
functions in the Cartier lattice PLF + Z^U: PLF the piecewise linear
functions in ray coordinates (`polyhedra.plf_lattice`), U the colours no
cone uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .intlin import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    echelon_solutions,
    kernel_basis,
    lattice_coordinates,
    rank,
    smith_normal_form,
)
from .polyhedra import LatticeLiftError, dot, wall_gaps
from .horo import ColouredFan, HorosphericalDatum, _require_lattice
from .rootsys import _root_supported_on, pairing, positive_roots

Vector = tuple[int, ...]


class NotCompleteError(ValueError):
    """Positivity criteria assume a complete fan."""


class AnticanonicalCoefficientError(ArithmeticError):
    """A colour coefficient of -K_X came out below 2, which root theory rules out."""


@dataclass(frozen=True)
class BInvariantDivisor:
    """Integer coefficients on the non-coloured rays and on every colour.

    Entries follow the fan's canonical ray order (sorted primitive
    generators) and the lattice's colour order; build through `make_divisor`
    or `principal_divisor` to keep that alignment.
    """

    ray_coeffs: tuple[tuple[Vector, int], ...]
    colour_coeffs: tuple[tuple[int, int], ...]

    def ray_coefficient(self, generator: Vector) -> int:
        for g, a in self.ray_coeffs:
            if g == generator:
                return a
        raise KeyError(f"no invariant ray with generator {generator}")

    def colour_coefficient(self, root: int) -> int:
        for r, a in self.colour_coeffs:
            if r == root:
                return a
        raise KeyError(f"no colour with root index {root}")

    def coordinates(self) -> Vector:
        return tuple(a for _, a in self.ray_coeffs) + tuple(a for _, a in self.colour_coeffs)


def invariant_ray_generators(fan: ColouredFan) -> list[Vector]:
    """Primitive generators of the non-coloured rays, in canonical order."""
    return sorted(cc.cone.generators[0] for cc in fan.non_coloured_rays())


def make_divisor(
    fan: ColouredFan,
    rays: Optional[dict[Vector, int]] = None,
    colours: Optional[dict[int, int]] = None,
) -> BInvariantDivisor:
    rays = dict(rays or {})
    colours = dict(colours or {})
    gens = invariant_ray_generators(fan)
    roots = [c.root for c in fan.lattice.colours]
    unknown_rays = set(rays) - set(gens)
    unknown_colours = set(colours) - set(roots)
    if unknown_rays:
        raise KeyError(f"not non-coloured rays of the fan: {sorted(unknown_rays)}")
    if unknown_colours:
        raise KeyError(f"not universal colours: {sorted(unknown_colours)}")
    return BInvariantDivisor(
        ray_coeffs=tuple((g, rays.get(g, 0)) for g in gens),
        colour_coeffs=tuple((r, colours.get(r, 0)) for r in roots),
    )


def principal_divisor(m: Sequence[int], fan: ColouredFan) -> BInvariantDivisor:
    """div(f_m): coefficient <m, u_D> on every B^- -invariant prime divisor."""
    if len(m) != fan.lattice.rank:
        raise ValueError("covector has wrong rank")
    return BInvariantDivisor(
        ray_coeffs=tuple((g, dot(m, g)) for g in invariant_ray_generators(fan)),
        colour_coeffs=tuple((c.root, dot(m, c.point)) for c in fan.lattice.colours),
    )


@dataclass(frozen=True)
class DivisorClass:
    """A class in the cokernel presentation: free part plus torsion residues."""

    free: Vector
    torsion: Vector


@dataclass(frozen=True)
class ClassGroupResult:
    group: AbelianGroup
    generator_classes: tuple[tuple[str, DivisorClass], ...]
    left_exact: bool


def _principal_matrix(fan: ColouredFan) -> IntMatrix:
    """Columns: principal divisors of the dual basis covectors.

    The coefficient of div(f_m) on D is <m, u_D>, so the rows are the ray
    generators followed by the colour points.
    """
    points = invariant_ray_generators(fan) + [c.point for c in fan.lattice.colours]
    return IntMatrix.from_rows(points, cols=fan.lattice.rank)


def _divisor_names(fan: ColouredFan) -> list[str]:
    names = [f"D[{','.join(map(str, g))}]" for g in invariant_ray_generators(fan)]
    names += [f"D_{c.label}" for c in fan.lattice.colours]
    return names


def class_group(fan: ColouredFan, datum: HorosphericalDatum) -> ClassGroupResult:
    """Cl(X) as the cokernel of the principal-divisor map N^vee -> Div_{B^-}."""
    _require_lattice(fan, datum)
    p = _principal_matrix(fan)
    u, d, _ = smith_normal_form(p)
    n = min(d.rows, d.cols)
    diag = [d.at(i, i) for i in range(n)] + [0] * (d.rows - n)
    free_rows = [i for i in range(d.rows) if diag[i] == 0]
    torsion_rows = [i for i in range(d.rows) if diag[i] > 1]
    group = AbelianGroup(len(free_rows), tuple(diag[i] for i in torsion_rows))
    classes = []
    for idx, name in enumerate(_divisor_names(fan)):
        y = u.column(idx)
        classes.append(
            (
                name,
                DivisorClass(
                    free=tuple(y[i] for i in free_rows),
                    torsion=tuple(y[i] % diag[i] for i in torsion_rows),
                ),
            )
        )
    left_exact = d.rows - len(free_rows) == fan.lattice.rank  # rank(p): nonzero diagonal entries
    return ClassGroupResult(group, tuple(classes), left_exact)


@dataclass(frozen=True)
class CartierData:
    """Piecewise linear data: one covector per maximal coloured cone."""

    pieces: tuple[tuple[int, Vector], ...]  # (index into fan.cones, covector)

    def covector(self, cone_index: int) -> Vector:
        for idx, m in self.pieces:
            if idx == cone_index:
                return m
        raise KeyError(f"no maximal cone with index {cone_index}")

    def value(self, fan: ColouredFan, point: Vector) -> int:
        for idx, m in self.pieces:
            if fan.cones[idx].cone.contains(point):
                return dot(m, point)
        raise ValueError(f"point {point} lies outside the fan's support")


def cartier_data(delta: BInvariantDivisor, fan: ColouredFan) -> Optional[CartierData]:
    """Solve for piecewise linear data of delta; None when delta is not Cartier.

    A piece m_sigma of a Cartier divisor takes the value delta_c at each of
    sigma's non-coloured rays and colour points.  That pins it on every ray
    of sigma: a coloured ray by the colour point on it, a positive multiple
    c*u of its generator u.  In a valid fan a ray carries the same colours in
    every member containing it, so two pieces on a shared ray get the same
    value rows, and c*<m_a - m_b, u> = 0 holds for every solution.  Rows
    gluing the pieces on shared faces are therefore implied, and each
    maximal cone's piece is solved on its own.  Covectors are required to
    lie in N^vee exactly.  The points, sigma's multiset in
    `ColouredFan.member_echelon`, span sigma, so the piece is unique modulo
    sigma-perp, the kernel of their rows, and `intlin.echelon_solutions`
    returns its canonical representative, the one `solve_integer_affine`
    gives, from the member's kept echelon.  So each maximal member is
    echelonised once per fan, however many divisors are solved on it.
    """
    d = delta.coordinates()
    gens = invariant_ray_generators(fan)
    ray_at = {g: t for t, g in enumerate(gens)}
    colour_at = {c.root: len(gens) + t for t, c in enumerate(fan.lattice.colours)}
    pieces = []
    for idx in fan._anchors:
        colours = sorted(fan.cones[idx].colours)
        multiset, data = fan.member_echelon(idx)
        rays = multiset[: len(multiset) - len(colours)]
        values = [d[ray_at[g]] for g in rays] + [d[colour_at[root]] for root in colours]
        (solution,) = echelon_solutions(data, len(multiset), [values])
        if solution is None:
            return None
        pieces.append((idx, solution))
    return CartierData(tuple(pieces))


@dataclass(frozen=True)
class ExactSequenceReport:
    """Consistency data for the Picard exact sequence."""

    span_perp_rank: int
    unused_colour_count: int
    span_perp_image_rank: int
    plf_rank: int
    pic_rank: int
    rank_consistent: bool


@dataclass(frozen=True)
class PicardResult:
    group: AbelianGroup
    plf_mod_lf: AbelianGroup
    report: ExactSequenceReport


def picard_group(fan: ColouredFan, datum: HorosphericalDatum) -> PicardResult:
    """Pic(X) and PLF/LF, plus the exact-sequence consistency report.

    A Cartier divisor's pieces m_sigma fix its values on every ray of the
    maximal cones (see `cartier_data`), and its coefficient on a colour
    alpha of F(Sigma^c) is <m_sigma, rho(alpha)>.  So Cartier = PLF + Z^U,
    with PLF in Z^rays (`ColouredFan.plf_lattice`) and U the colours no cone
    uses, and div(m) goes to ((<m, u>)_u, (<m, rho(alpha)>)_{alpha in U}):
    Pic and PLF/LF are the cokernels of M there and in PLF alone.  The
    extension of the Picard-group theorem is then re-verified at the level
    of free ranks.
    """
    _require_lattice(fan, datum)
    r = fan.lattice.rank
    rays, plf = fan.plf_lattice()
    linear = lattice_coordinates([tuple(u[j] for u in rays) for j in range(r)], plf)
    if None in linear:
        raise LatticeLiftError("linear functions are piecewise linear")
    plf_mod_lf = cokernel(IntMatrix.from_columns(linear, rows=plf.cols))
    unused = sorted(fan.lattice.colour_roots() - fan.colour_set())
    points = [fan.lattice.point(root) for root in unused]
    principal = [x + tuple(p[j] for p in points) for j, x in enumerate(linear)]
    pic = cokernel(IntMatrix.from_columns(principal, rows=plf.cols + len(unused)))

    span_perp = kernel_basis(IntMatrix.from_rows(rays, cols=r))
    image_rows = [[dot(m, p) for p in points] for m in span_perp]
    span_perp_image_rank = (
        rank(IntMatrix.from_rows(image_rows, cols=len(unused))) if image_rows else 0
    )
    report = ExactSequenceReport(
        span_perp_rank=len(span_perp),
        unused_colour_count=len(unused),
        span_perp_image_rank=span_perp_image_rank,
        plf_rank=plf_mod_lf.free_rank,
        pic_rank=pic.free_rank,
        rank_consistent=pic.free_rank
        == len(unused) - span_perp_image_rank + plf_mod_lf.free_rank,
    )
    return PicardResult(pic, plf_mod_lf, report)


def positivity_check(
    delta: BInvariantDivisor, fan: ColouredFan, datum: HorosphericalDatum
) -> tuple[bool, bool, bool]:
    """(cartier, basepoint_free, ample) for a divisor on a complete fan.

    The associated piecewise linear function is convex (strictly convex)
    iff every gap of `polyhedra.wall_gaps` is >= 0 (> 0).  Colours outside
    F(Sigma^c) must satisfy phi(u_alpha) <= a_alpha (strictly for ample).
    """
    _require_lattice(fan, datum)
    walls = fan.walls()
    if walls is None:
        raise NotCompleteError("positivity criteria require a complete fan")
    data = cartier_data(delta, fan)
    if data is None:
        return False, False, False
    # the pieces come in `fan.maximal()` order
    gaps = [g[0] for g in wall_gaps(walls, [(m,) for _, m in data.pieces])]
    bpf = all(gap >= 0 for gap in gaps)
    ample = all(gap > 0 for gap in gaps)
    for root in sorted(fan.lattice.colour_roots() - fan.colour_set()):
        point = fan.lattice.point(root)
        value = data.value(fan, point)
        bound = delta.colour_coefficient(root)
        if value > bound:
            bpf = False
        if value >= bound:
            ample = False
    return True, bpf, ample


def anticanonical(fan: ColouredFan, datum: HorosphericalDatum) -> BInvariantDivisor:
    """-K_X: every invariant ray with coefficient 1, colours with b_alpha.

    b_alpha sums the coroot pairings of the positive roots outside R_I and is
    always at least 2.  Pairing is linear in the root and zero across
    components, so the roots outside R_I are summed per component first and
    each colour takes one `pairing`, with its component's sum.
    """
    _require_lattice(fan, datum)
    group = datum.group
    sums = [[0] * size for _, size in group.components]
    for gamma in positive_roots(group):
        if not _root_supported_on(group, gamma, datum.parabolic):
            ci, coords = gamma
            sums[ci] = [s + x for s, x in zip(sums[ci], coords)]
    colour_coeffs = []
    for colour in fan.lattice.colours:
        ci, _ = group.component_of(colour.root)
        b = pairing(group, (ci, tuple(sums[ci])), colour.root)
        if b < 2:
            raise AnticanonicalCoefficientError("anticanonical colour coefficients are at least 2")
        colour_coeffs.append((colour.root, b))
    return BInvariantDivisor(
        ray_coeffs=tuple((g, 1) for g in invariant_ray_generators(fan)),
        colour_coeffs=tuple(colour_coeffs),
    )
