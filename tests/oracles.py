"""Independent oracles, coded against different realizations than the package.

The colour-point oracle for SL_n works in the epsilon-coordinate model of the
A-series root system (characters as integer vectors in Z^n, coroot pairing as
a coordinate difference) and never touches a Cartan matrix, so it shares no
code path with the coroot-restriction rule it checks.  The Hilbert-basis
oracle enumerates lattice points in a box and reduces by pairwise
subtraction, independent of the parallelepiped method.

`subset_scan_dual_generators` is the package's earlier cone-duality engine:
it splits off the span with two kernels and a Smith form, finds the facets
of the full-dimensional cone by testing every (d-1)-subset of generators, and
lifts them through a second Smith form, so it shares neither the echelon
split nor the double description of `polyhedra.dual_generators`.

The all-pairs oracles are the package's earlier fan-level routes, kept to
check the wall-based and anchor-based ones: a dense projectivity LP over
every m_sigma with rows for every pair of maximal cones, a positivity loop
over every ordered pair, gluing rows from `intersect` on every pair, the
Cartier system with those gluing rows, and coloured-fan validation that
intersects every pair of members and reads each face's colours with the
face's own inequalities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from horofan.divisors import _cartier_system, cartier_data
from horofan.horo import ColouredCone, ValidationReport, coloured_intersection
from horofan.intlin import IntMatrix, kernel_basis, lattice_coordinates, reduce_mod_lattice
from horofan.polyhedra import LatticeLiftError, dot, faces, gluing_rows, intersect, is_face_of, primitive
from horofan.ratlp import maximize


def brute_force_hilbert(cone) -> list[tuple[int, ...]]:
    """Box-enumeration Hilbert basis: indecomposable lattice points of the cone
    inside the bounding box of the generator parallelepiped."""
    n = cone.ambient_rank
    lo = [min(0, sum(min(0, g[i]) for g in cone.generators)) for i in range(n)]
    hi = [sum(max(0, g[i]) for g in cone.generators) for i in range(n)]
    pts = [
        p
        for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if any(p) and cone.contains(p)
    ]
    ptset = set(pts)
    out = []
    for p in pts:
        decomposable = any(
            tuple(a - b for a, b in zip(p, q)) in ptset and q != p for q in pts
        )
        if not decomposable:
            out.append(p)
    return out


def _subset_scan_facet_normals(vectors, d):
    """Primitive facet normals of a cone spanning R^d, given generators."""
    normals = set()
    vecs = list(dict.fromkeys(vectors))
    for subset in itertools.combinations(vecs, d - 1):
        # a (d-1) x d matrix has a rank-one kernel exactly when its rank is d-1
        ker = kernel_basis(IntMatrix.from_rows(list(subset), cols=d))
        if len(ker) != 1:
            continue
        h = primitive(ker[0])
        vals = [dot(h, v) for v in vecs]
        if all(x >= 0 for x in vals):
            normals.add(h)
        elif all(x <= 0 for x in vals):
            normals.add(tuple(-x for x in h))
    return sorted(normals)


def _lift_and_join(vectors, m, lattice):
    """Sorted preimages under m, canonical modulo the lattice L with basis `lattice`, and +/- that basis.

    The rows of m span a saturated lattice, so m is onto and every vector lifts.
    """
    lifts = lattice_coordinates(vectors, m)
    if None in lifts:
        raise LatticeLiftError("a matrix with saturated rows maps onto")
    modulo = IntMatrix.from_columns(lattice, rows=m.cols)
    out = set(reduce_mod_lattice(lifts, modulo))
    return sorted(out | set(lattice) | {tuple(-x for x in b) for b in lattice})


def subset_scan_dual_generators(vectors, n):
    """Canonical generators of {m : <m, v> >= 0 for all v in vectors} in Z^n, by subset scan."""
    vecs = [tuple(v) for v in vectors if any(v)]
    if not vecs:
        units = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        return sorted(u for e in units for u in (e, tuple(-x for x in e)))
    # the dual's lineality lattice, and from it the saturated span (as `saturate` does)
    perp = kernel_basis(IntMatrix.from_rows(vecs, cols=n))
    span = IntMatrix.from_columns(kernel_basis(IntMatrix.from_rows(perp, cols=n)), rows=n)
    d = span.cols
    coords = lattice_coordinates(vecs, span)
    if None in coords:
        raise ValueError("vector outside the saturated span lattice")
    facets = _subset_scan_facet_normals(coords, d) if d > 0 else []
    return _lift_and_join(facets, span.transpose(), perp)


def sl_colour_point_oracle(n: int, column: tuple[int, ...]) -> tuple[int, ...]:
    """Colour point of one character-basis vector for SL_n.

    `column` holds fundamental-weight coordinates c_1..c_{n-1}.  Each omega_j
    lifts to e_1 + ... + e_j in the Z^n model (the central correction is
    constant across coordinates and cancels), so the character is
    lam_i = sum_{j >= i} c_j and its pairing with alpha_i^vee = e_i - e_{i+1}
    is lam_i - lam_{i+1}.
    """
    assert len(column) == n - 1
    lam = [sum(column[j] for j in range(i, n - 1)) for i in range(n)]
    return tuple(lam[i] - lam[i + 1] for i in range(n - 1))


def fraction_solve(matrix: list[list[int]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact dense Gaussian elimination (square nonsingular systems only)."""
    m = [[Fraction(x) for x in row] + [rhs[i]] for i, row in enumerate(matrix)]
    n = len(m)
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def inverse_cartan_pairing_oracle(group, column: tuple[int, ...], alpha: int) -> int:
    """Pairing <m, alpha^vee> routed through simple-root coordinates.

    Writes the component slice of the character in the simple-root basis by
    exact inversion of the Cartan matrix, then pairs the resulting root-cone
    vector with the coroot row.  Independent of the row-extraction rule used
    by the package.
    """
    ci, node = group.component_of(alpha)
    offset = group.global_index(ci, 0)
    rank_c = group.components[ci][1]
    cartan = group.cartan(ci)
    coords = [Fraction(column[offset + k]) for k in range(rank_c)]
    q = fraction_solve(cartan, coords)
    value = sum(q[k] * cartan[node][k] for k in range(rank_c))
    assert value.denominator == 1
    return int(value)


def all_pairs_plf_lp(fan) -> bool:
    """Strictly convex PLF by the dense LP: split coordinates of every m_sigma, then eps.

    Equalities glue every pair of maximal cones on the generators of their
    intersection; <m_i - m_j, u> >= eps for every ordered pair and every
    generator u of sigma_i outside sigma_j; eps <= 1.
    """
    maximal = [cc.cone for cc in fan.maximal()]
    k = len(maximal)
    r = fan.lattice.rank
    if k <= 1:
        return True
    nvars = 2 * k * r + 1
    eps_col = nvars - 1

    def coeff_row(pairs):
        # pairs: list of (cone index, coordinate index, coefficient)
        row = [Fraction(0)] * nvars
        for ci, xi, c in pairs:
            base = 2 * (ci * r + xi)
            row[base] += Fraction(c)
            row[base + 1] -= Fraction(c)
        return row

    a_ub, b_ub = [], []
    for i, j in itertools.combinations(range(k), 2):
        for u in intersect(maximal[i], maximal[j]).generators:
            row = coeff_row([(i, t, u[t]) for t in range(r)] + [(j, t, -u[t]) for t in range(r)])
            a_ub += [row, [-x for x in row]]
            b_ub += [Fraction(0), Fraction(0)]
    for i, j in itertools.permutations(range(k), 2):
        for u in maximal[i].generators:
            if maximal[j].contains(u):
                continue
            row = coeff_row([(i, t, -u[t]) for t in range(r)] + [(j, t, u[t]) for t in range(r)])
            row[eps_col] = Fraction(1)
            a_ub.append(row)
            b_ub.append(Fraction(0))
    cap = [Fraction(0)] * nvars
    cap[eps_col] = Fraction(1)
    result = maximize(cap, a_ub + [cap], b_ub + [Fraction(1)])
    return result.status == "optimal" and result.value > 0


def pairwise_gluing_rows(maximal, members) -> IntMatrix:
    """`polyhedra.gluing_rows` by `intersect` on every pair of maximal cones; `members` is unused."""
    r = maximal[0].ambient_rank if maximal else 0
    width = r * len(maximal)
    rows = []
    for i, j in itertools.combinations(range(len(maximal)), 2):
        for u in intersect(maximal[i], maximal[j]).generators:
            row = [0] * width
            row[i * r : (i + 1) * r] = list(u)
            for t in range(r):
                row[j * r + t] -= u[t]
            rows.append(row)
    return IntMatrix.from_rows(rows, cols=width)


def all_pairs_positivity(delta, fan) -> tuple[bool, bool, bool]:
    """(cartier, basepoint_free, ample) with convexity tested on every ordered pair of maximal cones."""
    data = cartier_data(delta, fan)
    if data is None:
        return False, False, False
    max_idx = [idx for idx, _ in data.pieces]
    convex = True
    strictly = True
    for i, j in itertools.permutations(max_idx, 2):
        mi, mj = data.covector(i), data.covector(j)
        other = fan.cones[j].cone
        for u in fan.cones[i].cone.generators:
            gap = dot(mi, u) - dot(mj, u)
            if gap < 0:
                convex = False
            if not other.contains(u) and gap <= 0:
                strictly = False
    bpf, ample = convex, convex and strictly
    for root in sorted(fan.lattice.colour_roots() - fan.colour_set()):
        value = data.value(fan, fan.lattice.point(root))
        bound = delta.colour_coefficient(root)
        if value > bound:
            bpf = False
        if value >= bound:
            ample = False
    return True, bpf, ample


def cartier_system_with_gluing(fan):
    """`divisors._cartier_system` plus `gluing_rows` on every member, with zero right-hand side."""
    a, b, max_idx = _cartier_system(fan)
    glue = gluing_rows([fan.cones[i].cone for i in max_idx], [cc.cone for cc in fan.cones]).row_list()
    a = IntMatrix.from_rows(a.row_list() + glue, cols=a.cols)
    b = IntMatrix.from_rows(b.row_list() + [[0] * b.cols for _ in glue], cols=b.cols)
    return a, b, max_idx


def contains_rule_coloured_faces(lattice, cc) -> list:
    """`horo.coloured_faces` with each face's colours read by the face's own `contains`."""
    return [
        ColouredCone(f, frozenset(r for r in cc.colours if f.contains(lattice.point(r))))
        for f in faces(cc.cone)
    ]


def contains_rule_is_coloured_face(lattice, tau, sigma) -> bool:
    """`horo.is_coloured_face` with the colours of tau read by tau's own `contains`."""
    if not is_face_of(tau.cone, sigma.cone):
        return False
    return frozenset(r for r in sigma.colours if tau.cone.contains(lattice.point(r))) == tau.colours


def ray_contains_uncoloured_rays(lattice, cc) -> list:
    """`horo.uncoloured_rays` with each colour point tested by the ray's own `contains`."""
    points = [lattice.point(r) for r in cc.colours]
    return [
        ray.generators[0] for ray in cc.cone.rays() if not any(ray.contains(p) for p in points if any(p))
    ]


def all_pairs_validation(fan) -> ValidationReport:
    """`horo.validate_coloured_fan` testing every pair of members, with the `contains_rule_*` face tests."""
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
    underlying: dict[tuple, list] = {}
    for cc in fan.cones:
        underlying.setdefault(cc.cone.generators, []).append(cc)
    for gens, ccs in underlying.items():
        if len(ccs) > 1:
            violations.append(
                f"{len(ccs)} coloured cones share the underlying cone "
                f"{[list(g) for g in gens]}"
            )
    members = set(fan.cones)
    for cc in fan.cones:
        for f in contains_rule_coloured_faces(lattice, cc):
            if f not in members:
                violations.append(
                    f"{fan.describe(cc)}: coloured face {fan.describe(f)} is missing from the fan"
                )
    for i, a in enumerate(fan.cones):
        for b in fan.cones[i + 1 :]:
            meet = coloured_intersection(a, b)
            if not all(contains_rule_is_coloured_face(lattice, meet, c) for c in (a, b)):
                violations.append(
                    f"intersection of {fan.describe(a)} and {fan.describe(b)} "
                    "is not a coloured face of both"
                )
    return ValidationReport(not violations, tuple(violations))
