"""Divisor theory on horospherical varieties.

B^- -invariant Weil divisors are integer coefficient vectors on the
non-coloured rays and the universal colours.  Cartier divisors are piecewise
linear data: one covector per maximal coloured cone, required to lie in the
dual lattice exactly and to agree on shared faces.  Each maximal cone's
covector is solved on its own, from its values on the cone's non-coloured
rays and colour points, which imply the agreement.  The Cartier lattice and
the lattice of piecewise linear functions (in ray coordinates) are
intersections of such per-cone lattices (`polyhedra.glued_lattice`); the
class and Picard groups are cokernels of the principal divisors and of the
linear functions in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .intlin import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    kernel_basis,
    lattice_coordinates,
    rank,
    reduce_mod_lattice,
    smith_normal_form,
    solve_integer_affine,
)
from .polyhedra import LatticeLiftError, complete_fan_walls, dot, glued_lattice, plf_lattice, wall_gaps
from .horo import ColouredFan, HorosphericalDatum, uncoloured_rays
from .rootsys import _root_supported_on, pairing, positive_roots
from .dictionary import _require_lattice

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
        basis_vector = tuple(1 if t == idx else 0 for t in range(d.rows))
        y = u.apply(basis_vector)
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


def _maximal_indices(fan: ColouredFan) -> list[int]:
    maximal = set(fan.maximal())
    return [i for i, cc in enumerate(fan.cones) if cc in maximal]


def _value_points(fan: ColouredFan) -> tuple[list[int], list[list[tuple[int, Vector]]]]:
    """The maximal cones' indices, and for each the (divisor coordinate, point) pairs that pin its piece.

    A piece m_sigma of a Cartier divisor d takes the value d_c at each of
    sigma's non-coloured rays and colour points.  That pins it on every ray
    of sigma: a coloured ray by the colour point on it, a positive multiple
    c*u of its generator u.  In a valid fan a ray carries the same colours in
    every member containing it, so two pieces on a shared ray get the same
    value rows, and c*<m_a - m_b, u> = 0 holds for every solution.  Rows
    gluing the pieces on shared faces are therefore implied, and each
    cone's piece is solved on its own.  The points span sigma, so the piece
    is unique modulo sigma-perp.
    """
    gens = invariant_ray_generators(fan)
    ray_at = {g: t for t, g in enumerate(gens)}
    colour_at = {c.root: len(gens) + t for t, c in enumerate(fan.lattice.colours)}
    max_idx = _maximal_indices(fan)
    points = []
    for idx in max_idx:
        cc = fan.cones[idx]
        points.append(
            [(ray_at[g], g) for g in uncoloured_rays(fan.lattice, cc)]
            + [(colour_at[root], fan.lattice.point(root)) for root in sorted(cc.colours)]
        )
    return max_idx, points


def cartier_data(delta: BInvariantDivisor, fan: ColouredFan) -> Optional[CartierData]:
    """Solve for piecewise linear data of delta; None when delta is not Cartier.

    Each maximal cone's piece solves its own `_value_points` block.
    Covectors are required to lie in N^vee exactly.  On cones of non-full
    dimension the representative is canonicalized modulo sigma-perp, the
    kernel of the block.
    """
    d = delta.coordinates()
    r = fan.lattice.rank
    max_idx, points = _value_points(fan)
    pieces = []
    for idx, pairs in zip(max_idx, points):
        block = IntMatrix.from_rows([p for _, p in pairs], cols=r)
        solution = solve_integer_affine(block, [d[c] for c, _ in pairs])
        if solution is None:
            return None
        m, perp = solution
        if perp:
            (m,) = reduce_mod_lattice([m], IntMatrix.from_columns(perp, rows=r))
        pieces.append((idx, tuple(m)))
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

    Pic is computed directly as (Cartier invariant divisors)/(principal
    divisors), the Cartier lattice being glued from the `_value_points`
    blocks.  PLF/LF is the lattice of piecewise linear functions in Z^rays
    (`polyhedra.plf_lattice`) modulo the image of M, m -> (<m, u>)_u.  The
    extension of the Picard-group theorem is then re-verified at the level
    of free ranks.
    """
    _require_lattice(fan, datum)
    r = fan.lattice.rank
    width = len(invariant_ray_generators(fan)) + len(fan.lattice.colours)
    cartier = glued_lattice(_value_points(fan)[1], width, r)
    principal = _principal_matrix(fan)
    coeff_cols = lattice_coordinates(principal.columns(), cartier)
    if None in coeff_cols:
        raise LatticeLiftError("principal divisors are always Cartier")
    pic = cokernel(IntMatrix.from_columns(coeff_cols, rows=cartier.cols))

    rays, plf = plf_lattice([cc.cone for cc in fan.maximal()])
    linear = lattice_coordinates([tuple(u[j] for u in rays) for j in range(r)], plf)
    if None in linear:
        raise LatticeLiftError("linear functions are piecewise linear")
    plf_mod_lf = cokernel(IntMatrix.from_columns(linear, rows=plf.cols))

    span_perp = kernel_basis(IntMatrix.from_rows(rays, cols=r))
    unused = sorted(fan.lattice.colour_roots() - fan.colour_set())
    image_rows = [[dot(m, fan.lattice.point(root)) for root in unused] for m in span_perp]
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
    maximal = [cc.cone for cc in fan.maximal()]
    owners = complete_fan_walls(maximal)
    if owners is None:
        raise NotCompleteError("positivity criteria require a complete fan")
    data = cartier_data(delta, fan)
    if data is None:
        return False, False, False
    piece = {fan.cones[idx].cone: m for idx, m in data.pieces}
    gaps = wall_gaps(maximal, owners, [piece[sigma] for sigma in maximal])
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
    always at least 2.
    """
    _require_lattice(fan, datum)
    group = datum.group
    outside = [
        gamma
        for gamma in positive_roots(group)
        if not _root_supported_on(group, gamma, datum.parabolic)
    ]
    colour_coeffs = []
    for colour in fan.lattice.colours:
        b = sum(pairing(group, gamma, colour.root) for gamma in outside)
        if b < 2:
            raise AnticanonicalCoefficientError("anticanonical colour coefficients are at least 2")
        colour_coeffs.append((colour.root, b))
    return BInvariantDivisor(
        ray_coeffs=tuple((g, 1) for g in invariant_ray_generators(fan)),
        colour_coeffs=tuple(colour_coeffs),
    )
