"""Independent oracles, coded against different realizations than the package.

The colour-point oracle for SL_n works in the epsilon-coordinate model of the
A-series root system (characters as integer vectors in Z^n, coroot pairing as
a coordinate difference) and never touches a Cartan matrix, so it shares no
code path with the coroot-restriction rule it checks.  The Hilbert-basis
oracle enumerates lattice points in a box and reduces by pairwise
subtraction, independent of the parallelepiped method.

`smith_solutions` is the package's earlier integer solver: one Smith form of
m answers m*x = b for a batch of right-hand sides b.  The oracles below
solve and lift through it (`smith_coordinates`), so they share no echelon
with `intlin.lattice_coordinates`.  `determinant`, by Bareiss elimination,
and `is_unimodular` are the package's earlier unimodularity test, kept as an
independent check on the Smith and Hermite transforms, where the package
reads unimodularity off a kept echelon (`intlin.is_identity_echelon`).

`subset_scan_dual_generators` is the package's earlier cone-duality engine:
it splits off the span with two kernels and a Smith form, finds the facets
of the full-dimensional cone by testing every (d-1)-subset of generators, and
lifts them through a second Smith form, so it shares neither the echelon
split nor the double description of `polyhedra.dual_generators`.

`dual_of_dual_generators` is the package's earlier canonicalisation: the
cone is the dual of its dual, so it runs `polyhedra.dual_generators` twice,
where `Cone.from_generators` reads the generators off the incidences of one
pass.

`quotient_weight_monoid` is the package's earlier weight-monoid route: the
Hilbert basis of the dual cone, or, when the dual has lineality, of its image
in the quotient by the lineality lattice, lifted back through a Smith form of
the quotient map.  It shares no echelon split with
`dictionary.weight_monoid_generators`.

The all-pairs oracles are the package's earlier fan-level routes, kept to
check the wall-based and anchor-based ones: a dense projectivity LP over
every m_sigma with rows for every pair of maximal cones, a positivity loop
over every ordered pair, a positivity loop over every generator of both
owners of each wall, gluing rows from `intersect` on every pair, and
coloured-fan validation that intersects every pair of members by double
description (`intersect`) and reads each face's colours with the face's
own inequalities.  `all_members_compatible` is the earlier compatibility
loop of `dictionary.morphism_check`, which tries every source member
against every target member where the package tries the maximal ones of
each.  `all_pairs_product` is the earlier `horo.product_coloured_fan`:
one canonicalised cone per pair of members, faces included, in pair order
and unvalidated, where the package closes the products of maximal members
by `coloured_fan`.  The old maximal-cone
rule scans every pair of members with `contains_cone`, and the anchor
oracle tests every pair with `contains_rule_is_coloured_face`; both check
the one coloured-face table of `ColouredFan`.

`fraction_maximize` is the package's earlier `ratlp.maximize`, a Bland
simplex on a `Fraction` tableau, kept as the reference for the integer one.
`wall_row_lp` is the package's earlier projectivity test: the distinct
primitive wall rows of `wall_rows`, decided by an LP on `ratlp.maximize`,
where `dictionary._strictly_convex_plf_exists` asks whether the cone they
generate is pointed.

`dense_positive_roots` is the package's earlier reflection closure, which
pairs with every entry of a Cartan row and applies every reflection, so it
closes up the negative roots too, where `rootsys._positive_roots` takes only
the reflections that raise a positive root, read off each row's nonzero
entries.  `per_root_anticanonical_colours` is the earlier loop of
`divisors.anticanonical`, one `pairing` per root outside R_I and colour,
where the package sums the roots first.

`column_hermite_regularity` and `solve_per_member_cartier_data` are the
package's earlier per-member routes: a column Hermite form of each member's
multiset, and one `solve_integer_affine` on it per maximal member and
divisor, made afresh on every call, where `dictionary.regularity_report` and
`divisors.cartier_data` read the echelon `ColouredFan.member_echelon` keeps.

`frozenset_faces` is the package's earlier `polyhedra.faces`, which walks the
face lattice on frozensets of generators, where `faces` walks it on bit masks.
`dot_product_incidences` is the incidence rule every cone used before
`Cone.from_generators` read the table of a pointed cone off its pass: the
zero set of each normal of `dual_generators`, by dot products with every
generator.

`always_kernel_plf_lattice` is the package's earlier `polyhedra.plf_lattice`,
which runs a kernel for every maximal cone, unimodular or not.
`per_member_face_table` is the earlier face table, one `coloured_faces`
pass per member, where `ColouredFan._face_table` keeps each member's
coloured facets and reads face lists and stars off them.

`stacked_principal_matrix` is the package's earlier principal-divisor
matrix, one `principal_divisor` column per dual basis covector, where
`divisors._principal_matrix` stacks the ray generators and colour points as
rows.  `chord_checked_chain_from` and `rank_list_classify_subdiagram` are the
package's earlier Dynkin routes: a path walk that then checks every pair of
nodes for chords, and a subdiagram classifier with its own list of valid
ranks per letter.

The stacked oracles are the package's earlier divisor routes, kept to check
the per-cone ones: one system over the stacked covectors (m_0, ..., m_{k-1})
of all k maximal cones, solved with one global Smith form (Cartier data),
the projection of the kernel of [B | -A] (the Cartier lattice), and the
integer kernel of the gluing rows over all r*k piece coordinates, reduced by
the gauge tuples sigma-perp and the linear functions (PLF/LF).

`per_member_quotient_data` is the package's earlier orbit route: for every
member, a fresh kernel of its generator rows, the projected characters as a
matrix product, and the quotient datum through the checked public
constructor `HorosphericalDatum(...)`, where `dictionary.orbit_table` builds
one unchecked datum per distinct (annihilator, colour set) and lets members
share it.

`text_mode_read` is the package's earlier `cli._read`, which opens the file
in text mode with universal newlines, where `_read` makes one binary read,
one UTF-8 decode and then reads CR LF and a lone CR as LF.
`full_combination_echelonise` is the earlier `intlin._echelonise`, which
rebuilds both rows of every gcd step, where `_echelonise` keeps the pivot
row when the step leaves it unchanged and skips the multiplication by 1.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

from horofan.cli import ParseError
from horofan.dictionary import ConeRegularity
from horofan.divisors import (
    CartierData,
    ExactSequenceReport,
    PicardResult,
    _principal_matrix,
    cartier_data,
    invariant_ray_generators,
    principal_divisor,
)
from horofan.horo import (
    ColouredCone,
    ColouredFan,
    HorosphericalDatum,
    ValidationReport,
    _require_lattice,
    coloured_faces,
    product_coloured_lattice,
    uncoloured_rays,
)
from horofan.intlin import (
    IntMatrix,
    _xgcd,
    cokernel,
    column_hermite,
    kernel_basis,
    lattice_coordinates,
    rank,
    reduce_mod_hermite,
    smith_normal_form,
    solve_integer_affine,
)
from horofan.polyhedra import (
    Cone,
    LatticeLiftError,
    _keep,
    complete_fan_walls,
    dot,
    dual_cone,
    dual_generators,
    faces,
    hilbert_basis,
    intersect,
    is_face_of,
    primitive,
    wall_gaps,
)
from horofan.ratlp import LpResult, maximize
from horofan.rootsys import RootDatum, _root_supported_on, colour_smoothness_check, pairing, positive_roots


def smith_solutions(m: IntMatrix, vectors) -> tuple[list, list[tuple[int, ...]]]:
    """One particular solution of m*x = b per b (None if there is none), and a kernel basis.

    The package's earlier solver.  With U*m*V = D and r nonzero invariant
    factors, b is solvable exactly when (U*b)_i is divisible by d_i for i < r
    and zero for i >= r; then x = V*y with y_i = (U*b)_i / d_i for i < r and
    0 after.
    """
    u, d, v = smith_normal_form(m)
    diag = [e for e in d.diagonal() if e != 0]
    r = len(diag)
    solutions = []
    for b in vectors:
        if len(b) != m.rows:
            raise ValueError("right-hand side has wrong length")
        ub = u.apply(b)
        if any(ub[r:]) or any(c % e for c, e in zip(ub, diag)):
            solutions.append(None)
        else:
            solutions.append(v.apply([c // e for c, e in zip(ub, diag)] + [0] * (m.cols - r)))
    return solutions, [v.column(j) for j in range(r, m.cols)]


def smith_coordinates(vectors, basis: IntMatrix) -> list:
    """`intlin.lattice_coordinates` through one Smith form of basis."""
    return smith_solutions(basis, vectors)[0] if vectors else []


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
    lifts = smith_coordinates(vectors, m)
    if None in lifts:
        raise LatticeLiftError("a matrix with saturated rows maps onto")
    modulo = IntMatrix.from_columns(lattice, rows=m.cols)
    out = set(reduce_mod_hermite(lifts, column_hermite(modulo).columns()))
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
    coords = smith_coordinates(vecs, span)
    if None in coords:
        raise ValueError("vector outside the saturated span lattice")
    facets = _subset_scan_facet_normals(coords, d) if d > 0 else []
    return _lift_and_join(facets, span.transpose(), perp)


def dual_of_dual_generators(n, generators) -> tuple[tuple[int, ...], ...]:
    """Canonical generators of the cone on `generators` in Z^n, as `dual_generators` of its normals."""
    gens = [tuple(g) for g in generators if any(g)]
    return tuple(dual_generators(dual_generators(gens, n), n)) if gens else ()


def quotient_weight_monoid(cone) -> list[tuple[int, ...]]:
    """Minimal generators of the monoid dual(cone) ∩ Z^n, through the lineality quotient of the dual.

    The dual's lineality lattice L is the kernel of the cone's generators.
    The rows of q, a kernel basis of L, map Z^n onto Z^n / L; the images of
    the dual's generators span a pointed cone, whose Hilbert basis lifts
    through a Smith form of q and joins the +/- basis of L.
    """
    dual = dual_cone(cone)
    n = cone.ambient_rank
    lin = kernel_basis(IntMatrix.from_rows(list(cone.generators), cols=n))
    if not lin:
        return hilbert_basis(dual)
    q = IntMatrix.from_rows(kernel_basis(IntMatrix.from_rows(lin, cols=n)), cols=n)
    images = [w for w in (q.apply(g) for g in dual.generators) if any(w)]
    return _lift_and_join(hilbert_basis(Cone.from_generators(q.rows, images)) if images else [], q, lin)


def stacked_principal_matrix(fan) -> IntMatrix:
    """Columns: principal divisors of the dual basis covectors, one `principal_divisor` call each."""
    r = fan.lattice.rank
    cols = []
    for j in range(r):
        m = tuple(1 if t == j else 0 for t in range(r))
        cols.append(principal_divisor(m, fan).coordinates())
    gens = invariant_ray_generators(fan)
    height = len(gens) + len(fan.lattice.colours)
    return IntMatrix.from_columns(cols, rows=height)


def chord_checked_chain_from(datum, nodes, start):
    """Order nodes as a path starting at start, or None if not a path; every pair is checked for chords."""
    order = [start]
    seen = {start}
    while len(order) < len(nodes):
        nxt = [n for n in nodes if n not in seen and datum.adjacent(order[-1], n)]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
        seen.add(nxt[0])
    # reject branch vertices: every consecutive pair adjacent, nothing else
    for a, b in itertools.combinations(range(len(order)), 2):
        if datum.adjacent(order[a], order[b]) != (b == a + 1):
            return None
    return order


def rank_list_classify_subdiagram(group, nodes):
    """Identify a connected induced subdiagram as (letter, rank, Bourbaki order), trying only the valid ranks per letter."""
    size = len(nodes)
    candidates = ["A"]
    if size >= 2:
        candidates += ["B", "C", "G"] if size == 2 else ["B", "C"]
    if size >= 3:
        candidates.append("D")
    if size == 4:
        candidates.append("F")
    if size in (6, 7, 8):
        candidates.append("E")
    # each Cartan entry read once, so that the scan of E8's 8! orders stays short
    ours = {(a, b): group.cartan_entry(a, b) for a in nodes for b in nodes}
    for letter in candidates:
        try:
            target = RootDatum.parse(f"{letter}{size}").cartan(0)
        except ValueError:
            continue
        for perm in itertools.permutations(nodes):
            ok = all(
                target[k][l] == ours[perm[k], perm[l]]
                for k in range(size)
                for l in range(size)
            )
            if ok:
                return letter, size, list(perm)
    raise AssertionError("induced subdiagram of a Dynkin diagram must be a Dynkin diagram")


def dense_positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots by reflection closure, pairing with every entry of a Cartan row."""
    rank = len(cartan)
    simples = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        new = set()
        for gamma in frontier:
            for i in range(rank):
                pair = sum(gamma[j] * cartan[i][j] for j in range(rank))
                reflected = tuple(gamma[j] - (pair if j == i else 0) for j in range(rank))
                if reflected not in roots:
                    new.add(reflected)
        roots |= new
        frontier = new
    positive = [r for r in roots if all(x >= 0 for x in r)]
    positive.sort(key=lambda r: (sum(r), r))
    return positive


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


def fraction_maximize(c, a_ub, b_ub) -> LpResult:
    """The package's earlier `ratlp.maximize`: the same Bland simplex on a `Fraction` tableau.

    Every pivot divides the pivot row by the pivot and subtracts multiples of
    it from the other rows, in rationals, where `ratlp.maximize` keeps an
    integer tableau over one common denominator.
    """
    n = len(c)
    m = len(a_ub)
    if any(len(row) != n for row in a_ub) or len(b_ub) != m:
        raise ValueError("inconsistent LP dimensions")
    if any(b < 0 for b in b_ub):
        raise ValueError("this solver requires b >= 0 (slack basis start)")
    width = n + m + 1
    tab = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(b_ub[i])] for i, row in enumerate(a_ub)]
    obj = [-Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width - 1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return LpResult("unbounded", None, None)
        pivot = tab[leave][enter]
        tab[leave] = [x / pivot for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][width - 1]
    return LpResult("optimal", obj[width - 1], tuple(x))


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


def wall_rows(fan) -> tuple[int, list[tuple[int, ...]]]:
    """The rank b of the fan's PLF lattice, and each wall's gap row in PLF-lattice coordinates.

    Nonzero rows are made primitive, and each distinct row is kept once, in
    wall order, as `dictionary._strictly_convex_plf_exists` keeps them.
    """
    r = fan.lattice.rank
    rays, basis = fan.plf_lattice()
    at = {u: t for t, u in enumerate(rays)}
    plfs = basis.columns()
    pieces = []
    for sigma in [cc.cone for cc in fan.maximal()]:
        values = [tuple(v[at[u]] for u in sigma.generators) for v in plfs]
        ms = lattice_coordinates(values, IntMatrix.from_rows(sigma.generators, cols=r))
        if None in ms:
            raise LatticeLiftError("a piecewise linear function is linear on each maximal cone")
        pieces.append(ms)
    rows = wall_gaps(fan.walls(), pieces)
    return len(plfs), list(dict.fromkeys(primitive(row) if any(row) else row for row in rows))


def wall_row_lp(fan) -> bool:
    """Strictly convex PLF on a complete fan by the LP on its distinct wall rows.

    A zero row answers False with no LP.  Otherwise the variables are x, split
    +/-, and a slack eps capped at 1, and each row g gives "g.x >= eps"; a
    strictly convex PLF exists iff the optimum is positive.
    """
    b, rows = wall_rows(fan)
    if not all(any(row) for row in rows):
        return False
    # -g.x + eps <= 0 for each distinct row g
    a_ub = [[x for g in row for x in (-g, g)] + [1] for row in rows]
    cap = [0] * (2 * b) + [1]
    result = maximize(cap, a_ub + [cap], [0] * len(a_ub) + [1])
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


def both_owners_positivity(delta, fan) -> tuple[bool, bool, bool]:
    """(cartier, basepoint_free, ample) with every gap of both owners of each wall tested, on a complete fan."""
    maximal = [cc.cone for cc in fan.maximal()]
    data = cartier_data(delta, fan)
    if data is None:
        return False, False, False
    piece = {fan.cones[idx].cone: m for idx, m in data.pieces}
    convex = True
    strictly = True
    for wall, (first, second, _) in complete_fan_walls(maximal).items():
        for i, j in ((first, second), (second, first)):
            mi, mj = piece[maximal[i]], piece[maximal[j]]
            for u in maximal[i].generators:
                if u in wall.generators:
                    continue
                gap = dot(mi, u) - dot(mj, u)
                convex = convex and gap >= 0
                strictly = strictly and gap > 0
    bpf, ample = convex, convex and strictly
    for root in sorted(fan.lattice.colour_roots() - fan.colour_set()):
        value = data.value(fan, fan.lattice.point(root))
        bound = delta.colour_coefficient(root)
        if value > bound:
            bpf = False
        if value >= bound:
            ample = False
    return True, bpf, ample


def gluing_rows(maximal, members) -> IntMatrix:
    """Rows over the stacked covectors (m_0, ..., m_{k-1}) of `maximal` that glue them on `members`.

    For each member tau the cones of `maximal` whose generators include
    tau's are chained, and each consecutive pair (a, b) gets the row
    <m_a - m_b, u> = 0 for every generator u of tau.  Their integer kernel is
    the lattice of piecewise linear functions on the fan in stacked form.
    """
    r = maximal[0].ambient_rank if maximal else 0
    gens = [set(c.generators) for c in maximal]
    rows = []
    for tau in members:
        owners = [i for i, g in enumerate(gens) if g.issuperset(tau.generators)]
        for a, b in zip(owners, owners[1:]):
            for u in tau.generators:
                row = [0] * (r * len(maximal))
                row[a * r : (a + 1) * r] = u
                row[b * r : (b + 1) * r] = [-x for x in u]
                rows.append(row)
    return IntMatrix.from_rows(rows, cols=r * len(maximal))


def _maximal_members(fan):
    """Indices into fan.cones of the maximal cones, and those cones."""
    maximal = set(fan.maximal())
    max_idx = [i for i, cc in enumerate(fan.cones) if cc in maximal]
    return max_idx, [fan.cones[i].cone for i in max_idx]


def stacked_cartier_system(fan, glue=None):
    """Rows of (A, B) with A.(stacked m_sigma) = B.(divisor coordinates), and the maximal indices.

    Value rows pin each piece on its non-coloured rays and colour points;
    `glue(maximal, members)`, if given, adds its gluing rows with zero
    right-hand side.
    """
    r = fan.lattice.rank
    max_idx, maximal = _maximal_members(fan)
    gens = invariant_ray_generators(fan)
    roots = [c.root for c in fan.lattice.colours]
    width_x = r * len(max_idx)
    width_d = len(gens) + len(roots)
    a_rows, b_rows = [], []

    def value_row(slot, vector, coord):
        row = [0] * width_x
        row[slot * r : (slot + 1) * r] = list(vector)
        a_rows.append(row)
        b_rows.append([int(t == coord) for t in range(width_d)])

    for slot, idx in enumerate(max_idx):
        cc = fan.cones[idx]
        for g in uncoloured_rays(fan.lattice, cc):
            value_row(slot, g, gens.index(g))
        for root in sorted(cc.colours):
            value_row(slot, fan.lattice.point(root), len(gens) + roots.index(root))
    if glue is not None:
        for row in glue(maximal, [cc.cone for cc in fan.cones]).row_list():
            a_rows.append(row)
            b_rows.append([0] * width_d)
    return IntMatrix.from_rows(a_rows, cols=width_x), IntMatrix.from_rows(b_rows, cols=width_d), max_idx


def stacked_cartier_data(deltas, fan, glue=None) -> list:
    """`divisors.cartier_data` of each divisor, by one Smith form of the whole stacked system."""
    a, b, max_idx = stacked_cartier_system(fan, glue)
    r = fan.lattice.rank
    out = []
    for x in smith_coordinates([b.apply(delta.coordinates()) for delta in deltas], a):
        if x is None:
            out.append(None)
            continue
        pieces = []
        for slot, idx in enumerate(max_idx):
            m = x[slot * r : (slot + 1) * r]
            perp = kernel_basis(IntMatrix.from_rows([list(g) for g in fan.cones[idx].cone.generators], cols=r))
            if perp:
                (m,) = reduce_mod_hermite([m], column_hermite(IntMatrix.from_columns(perp, rows=r)).columns())
            pieces.append((idx, tuple(m)))
        out.append(CartierData(tuple(pieces)))
    return out


def stacked_cartier_lattice(fan, glue=None) -> IntMatrix:
    """Column Hermite basis of the Cartier divisors: the d-part of the kernel of [B | -A]."""
    a, b, _ = stacked_cartier_system(fan, glue)
    columns = b.columns() + [tuple(-x for x in col) for col in a.columns()]
    kernel = kernel_basis(IntMatrix.from_columns(columns, rows=a.rows))
    projected = [v[: b.cols] for v in kernel if any(v[: b.cols])]
    if not projected:
        return IntMatrix.zero(b.cols, 0)
    return column_hermite(IntMatrix.from_columns(projected, rows=b.cols))


def stacked_plf_lattice(fan, glue) -> tuple[list, IntMatrix]:
    """`polyhedra.plf_lattice`: the kernel of `glue` over stacked pieces, read on the sorted rays."""
    r = fan.lattice.rank
    _, maximal = _maximal_members(fan)
    rays = sorted({g for c in maximal for g in c.generators})
    owner = {u: next(i for i, c in enumerate(maximal) if u in c.generators) for u in rays}
    kernel = kernel_basis(glue(maximal, [cc.cone for cc in fan.cones]))
    values = [tuple(dot(x[owner[u] * r : (owner[u] + 1) * r], u) for u in rays) for x in kernel]
    return rays, column_hermite(IntMatrix.from_columns(values, rows=len(rays)))


def stacked_picard_group(fan, cartier_glue=None, plf_glue=gluing_rows):
    """`divisors.picard_group` with the stacked Cartier lattice and stacked PLF/LF.

    PLF/LF is the kernel of `plf_glue` modulo the gauge tuples (sigma-perp in
    one slot) and the linear functions (one m in every slot); the report
    reads span-perp off every member's generators.
    """
    r = fan.lattice.rank
    cartier = stacked_cartier_lattice(fan, cartier_glue)
    coeff_cols = smith_coordinates(_principal_matrix(fan).columns(), cartier)
    if None in coeff_cols:
        raise LatticeLiftError("principal divisors are always Cartier")
    pic = cokernel(IntMatrix.from_columns(coeff_cols, rows=cartier.cols))
    _, maximal = _maximal_members(fan)
    width = r * len(maximal)
    plf_basis = kernel_basis(plf_glue(maximal, [cc.cone for cc in fan.cones]))
    plf_matrix = IntMatrix.from_columns(plf_basis, rows=width) if plf_basis else IntMatrix.zero(width, 0)
    reducers = []
    for slot, cone in enumerate(maximal):
        for v in kernel_basis(IntMatrix.from_rows([list(g) for g in cone.generators], cols=r)):
            vec = [0] * width
            vec[slot * r : (slot + 1) * r] = list(v)
            reducers.append(tuple(vec))
    for j in range(r):
        reducers.append(tuple(int(t % r == j) for t in range(width)))
    coords_cols = smith_coordinates(reducers, plf_matrix)
    if None in coords_cols:
        raise LatticeLiftError("gauge and linear tuples satisfy compatibility")
    plf_mod_lf = cokernel(IntMatrix.from_columns(coords_cols, rows=plf_matrix.cols))
    support_gens = [list(g) for cc in fan.cones for g in cc.cone.generators]
    span_perp = kernel_basis(IntMatrix.from_rows(support_gens, cols=r))
    unused = sorted(fan.lattice.colour_roots() - fan.colour_set())
    image_rows = [[dot(m, fan.lattice.point(root)) for root in unused] for m in span_perp]
    image_rank = rank(IntMatrix.from_rows(image_rows, cols=len(unused))) if image_rows else 0
    report = ExactSequenceReport(
        span_perp_rank=len(span_perp),
        unused_colour_count=len(unused),
        span_perp_image_rank=image_rank,
        plf_rank=plf_mod_lf.free_rank,
        pic_rank=pic.free_rank,
        rank_consistent=pic.free_rank == len(unused) - image_rank + plf_mod_lf.free_rank,
    )
    return PicardResult(pic, plf_mod_lf, report)


def contains_rule_coloured_faces(lattice, cc) -> list:
    """`horo.coloured_faces` with each face's colours read by the face's own `contains`."""
    return [
        ColouredCone(f, frozenset(r for r in cc.colours if f.contains(lattice.point(r))))
        for f in faces(cc.cone)
    ]


def contains_rule_is_coloured_face(lattice, tau, sigma) -> bool:
    """Whether tau is a coloured face of sigma, with the colours of tau read by tau's own `contains`."""
    if not is_face_of(tau.cone, sigma.cone):
        return False
    return frozenset(r for r in sigma.colours if tau.cone.contains(lattice.point(r))) == tau.colours


def containment_maximal(fan) -> list:
    """The old `ColouredFan.maximal()`: members no other member contains with a superset of its colours."""
    return [
        cc
        for cc in fan.cones
        if not any(o != cc and o.cone.contains_cone(cc.cone) and cc.colours <= o.colours for o in fan.cones)
    ]


def contains_rule_anchors(fan) -> list:
    """The distinct members that are a coloured face of themselves and of no other member."""
    members = list(dict.fromkeys(fan.cones))
    return [
        a for a in members if [b for b in members if contains_rule_is_coloured_face(fan.lattice, a, b)] == [a]
    ]


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
            meet = ColouredCone(intersect(a.cone, b.cone), a.colours & b.colours)
            if not all(contains_rule_is_coloured_face(lattice, meet, c) for c in (a, b)):
                violations.append(
                    f"intersection of {fan.describe(a)} and {fan.describe(b)} "
                    "is not a coloured face of both"
                )
    return ValidationReport(not violations, tuple(violations))


def always_kernel_plf_lattice(maximal) -> tuple[list, IntMatrix]:
    """`polyhedra.plf_lattice` with one kernel per maximal cone, unimodular cones included."""
    rays = sorted({g for c in maximal for g in c.generators})
    index = {u: t for t, u in enumerate(rays)}
    r = maximal[0].ambient_rank if maximal else 0
    basis = IntMatrix.identity(len(rays))
    for c in maximal:
        block = [list(basis.row(index[u])) + [-x for x in u] for u in c.generators]
        kernel = kernel_basis(IntMatrix.from_rows(block, cols=basis.cols + r))
        basis = column_hermite(IntMatrix.from_columns([basis.apply(y[: basis.cols]) for y in kernel], rows=len(rays)))
    return rays, basis


def frozenset_faces(sigma) -> list:
    """`polyhedra.faces` walking the face lattice on frozensets of generators, cut by `dot_product_incidences`."""
    full = frozenset(sigma.generators)
    facet_sets = [z for _, z in dot_product_incidences(sigma) if z != full]
    dims = {full: sigma.dim()}
    level = [full]
    while level:
        below = []
        for s in level:
            cuts = {s & f for f in facet_sets} - {s}
            for t in cuts:
                if t not in dims and not any(t < u for u in cuts):
                    dims[t] = dims[s] - 1
                    below.append(t)
        level = below
    out = [sigma if s == full else _keep(Cone(sigma.ambient_rank, tuple(sorted(s))), _dim=d) for s, d in dims.items()]
    return sorted(out, key=lambda c: (c.dim(), c.generators))


def dot_product_incidences(sigma) -> tuple:
    """The incidence table of sigma: each normal of `dual_generators` with its zero set, by dot products."""
    normals = dual_generators(sigma.generators, sigma.ambient_rank)
    return tuple((h, frozenset(g for g in sigma.generators if dot(h, g) == 0)) for h in normals)


def per_member_face_table(fan) -> tuple[dict, tuple, dict]:
    """`ColouredFan._face_table` with one `coloured_faces` pass per member, in member order.

    Each pass runs on a fresh copy of the member, so it reads no list kept on the member.
    """
    star = {cc: {} for cc in fan.cones}
    missing = []
    faces_of = {}
    for sigma in fan.cones:
        listed = coloured_faces(fan.lattice, ColouredCone(sigma.cone, sigma.colours))
        faces_of[sigma] = frozenset(listed)
        for f in listed:
            if f in star:
                star[f][sigma] = None
            else:
                missing.append((sigma, f))
    return {cc: tuple(above) for cc, above in star.items()}, tuple(missing), faces_of


def per_root_anticanonical_colours(fan, datum) -> tuple[tuple[int, int], ...]:
    """The colour coefficients of `divisors.anticanonical`, one `pairing` per root outside R_I and colour."""
    group = datum.group
    outside = [gamma for gamma in positive_roots(group) if not _root_supported_on(group, gamma, datum.parabolic)]
    return tuple(
        (colour.root, sum(pairing(group, gamma, colour.root) for gamma in outside)) for colour in fan.lattice.colours
    )


def column_hermite_regularity(fan, datum) -> list[ConeRegularity]:
    """`dictionary.regularity_report` by one column Hermite form per member, made afresh on every call."""
    _require_lattice(fan, datum)
    out = []
    for idx, cc in enumerate(fan.cones):
        colour_points = tuple(fan.lattice.point(r) for r in sorted(cc.colours))
        multiset = tuple(uncoloured_rays(fan.lattice, cc)) + colour_points
        h = column_hermite(IntMatrix.from_rows(multiset, cols=fan.lattice.rank))
        simplicial = h.cols == len(multiset)
        regular = h == IntMatrix.identity(len(multiset))
        dynkin_ok, dynkin_why = colour_smoothness_check(
            datum.group, datum.parabolic, cc.colours
        )
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


def solve_per_member_cartier_data(delta, fan):
    """`divisors.cartier_data` with one `solve_integer_affine` per maximal member, on a block built afresh."""
    d = delta.coordinates()
    r = fan.lattice.rank
    gens = invariant_ray_generators(fan)
    ray_at = {g: t for t, g in enumerate(gens)}
    colour_at = {c.root: len(gens) + t for t, c in enumerate(fan.lattice.colours)}
    pieces = []
    for idx in fan._anchors:
        cc = fan.cones[idx]
        pairs = [(ray_at[g], g) for g in uncoloured_rays(fan.lattice, cc)]
        pairs += [(colour_at[root], fan.lattice.point(root)) for root in sorted(cc.colours)]
        block = IntMatrix.from_rows([p for _, p in pairs], cols=r)
        solution = solve_integer_affine(block, [d[c] for c, _ in pairs])
        if solution is None:
            return None
        pieces.append((idx, solution[0]))
    return CartierData(tuple(pieces))


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.row_list()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and determinant(m) in (1, -1)


def all_members_compatible(phi, source_fan, target_fan) -> bool:
    """The compatibility half of `dictionary.morphism_check`, trying every source member against every target member."""
    for cc in source_fan.cones:
        images = [phi.apply(g) for g in cc.cone.generators]
        needed = cc.colours - phi.dominantly_mapped
        if not any(
            needed <= target.colours and all(target.cone.contains(v) for v in images) for target in target_fan.cones
        ):
            return False
    return True


def per_member_quotient_data(fan, datum) -> list:
    """The homogeneous datum of each member's orbit, N / span(sigma) with sigma's colours removed, one checked datum per member."""
    r = datum.lattice_rank
    out = []
    for cc in fan.cones:
        projection = IntMatrix.from_rows(kernel_basis(IntMatrix.from_rows(list(cc.cone.generators), cols=r)), cols=r)
        characters = datum.characters @ projection.transpose()
        out.append(HorosphericalDatum(datum.group, frozenset(datum.parabolic | cc.colours), characters))
    return out


def all_pairs_product(a, b) -> ColouredFan:
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


def text_mode_read(path: str, field: str) -> str:
    """The text of a document file, or of stdin for -; bytes that are not UTF-8 are a ParseError at `field`."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(field, f"not UTF-8 text: byte 0x{byte:02x} at position {exc.start} ({exc.reason})") from None


def full_combination_echelonise(a: list[list[int]], cols: int) -> int:
    """Bring the row list `a` to row Hermite form in its first `cols` columns.

    Works in place and returns the pivot count.  Rows are combined whole, so
    any columns past `cols` carry the row transform along.
    """
    piv_row = 0
    for col in range(cols):
        if piv_row == len(a):
            break
        # gcd out the entries of this column at and below piv_row
        for first in range(piv_row, len(a)):
            if a[first][col]:
                break
        else:
            continue
        if first != piv_row:
            a[piv_row], a[first] = a[first], a[piv_row]
        for i in range(piv_row + 1, len(a)):
            b = a[i][col]
            if b == 0:
                continue
            top = a[piv_row][col]
            g, x, y = _xgcd(top, b)
            r, s = -(b // g), top // g
            ri, rj = a[piv_row], a[i]
            a[piv_row] = [x * e + y * f for e, f in zip(ri, rj)]
            a[i] = [r * e + s * f for e, f in zip(ri, rj)]
        if a[piv_row][col] < 0:
            a[piv_row] = [-e for e in a[piv_row]]
        d = a[piv_row][col]
        pivot = a[piv_row]
        for i in range(piv_row):
            q = a[i][col] // d
            if q:
                a[i] = [e - q * f for e, f in zip(a[i], pivot)]
        piv_row += 1
    return piv_row
