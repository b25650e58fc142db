"""Output checks coded apart from horofan.

Every routine here uses its own arithmetic (Python integers and
`fractions.Fraction`), never horofan's, so that a wrong answer from the
program cannot be confirmed by the same code that produced it.  Each check
returns a list of error strings; an empty list means the answer passed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------- arithmetic


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(len(a))]


def fraction_rank(rows) -> int:
    """Rank over Q by Gauss elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    width = len(m[0]) if m else 0
    for col in range(width):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def fraction_det(rows) -> int:
    """Determinant of a square integer matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return int(det)


def invariant_factors(rows) -> tuple[int, list[int]]:
    """(rank, nonzero invariant factors) from gcds of k x k minors.

    d_k = gcd of all k x k minors; the invariant factors are d_k / d_(k-1).
    Fine for the few-column matrices the benchmark checks.
    """
    r = fraction_rank(rows)
    height = len(rows)
    width = len(rows[0]) if rows else 0
    d_prev, factors = 1, []
    for k in range(1, r + 1):
        g = 0
        for ri in itertools.combinations(range(height), k):
            for ci in itertools.combinations(range(width), k):
                g = gcd(g, fraction_det([[rows[i][j] for j in ci] for i in ri]))
        factors.append(g // d_prev)
        d_prev = g
    return r, factors


def cokernel_of_rows(rows) -> tuple[int, list[int]]:
    """(free rank, torsion) of Z^len(rows) modulo the column image of `rows`."""
    if not rows:
        return 0, []
    r, factors = invariant_factors(rows)
    return len(rows) - r, [f for f in factors if f > 1]


def cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def facet_normals_3d(gens) -> list[tuple[int, ...]]:
    """Inward facet normals of a full-dimensional pointed cone in Z^3."""
    out = set()
    for a, b in itertools.combinations(gens, 2):
        h = cross3(a, b)
        if not any(h):
            continue
        vals = [dot(h, g) for g in gens]
        if all(v >= 0 for v in vals):
            out.add(h)
        elif all(v <= 0 for v in vals):
            out.add(tuple(-x for x in h))
    return sorted(out)


def box_hilbert_basis(gens) -> list[tuple[int, ...]]:
    """Hilbert basis of a full-dimensional pointed rank-3 cone by box scan.

    Every Hilbert basis element lies in a fundamental parallelepiped of a
    simplicial subcone, hence in the box spanned by the generator sums.  A
    point p is reducible iff p - h lies in the cone for some basis element h
    of smaller degree, so scanning the box in degree order and testing each
    point against the basis found so far is exact.
    """
    normals = facet_normals_3d(gens)
    lo = [sum(min(0, g[i]) for g in gens) for i in range(3)]
    hi = [sum(max(0, g[i]) for g in gens) for i in range(3)]
    points = [
        p
        for p in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if any(p) and all(dot(h, p) >= 0 for h in normals)
    ]
    # the sum of the facet normals is positive on every nonzero point
    w = tuple(sum(h[i] for h in normals) for i in range(3))
    points.sort(key=lambda p: dot(w, p))
    basis = []
    for p in points:
        wp = dot(w, p)
        if not any(
            dot(w, h) < wp and all(dot(n, p) >= dot(n, h) for n in normals) for h in basis
        ):
            basis.append(p)
    return sorted(basis)


def simplicial_contains(gens, point) -> bool:
    """Whether `point` lies in the cone spanned by linearly independent gens (full rank)."""
    n = len(point)
    det = fraction_det([list(g) for g in gens])
    for i in range(n):
        replaced = [list(point) if j == i else list(g) for j, g in enumerate(gens)]
        if Fraction(fraction_det(replaced), det) < 0:
            return False
    return True


# ---------------------------------------------------------------- cone-kernels


def check_normal_forms(rows, snf, hnf, kernel, rank, solution, rhs) -> list[str]:
    errors = []
    u, d, v = (m.row_list() for m in snf)
    if mat_mul(mat_mul(u, rows), v) != d:
        errors.append("SNF: U*A*V != D")
    if abs(fraction_det(u)) != 1 or abs(fraction_det(v)) != 1:
        errors.append("SNF: U or V is not unimodular")
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    if any(d[i][j] for i in range(len(d)) for j in range(len(d[0])) if i != j):
        errors.append("SNF: D is not diagonal")
    if any(x < 0 for x in diag):
        errors.append("SNF: negative diagonal entry")
    nonzero = [x for x in diag if x]
    if nonzero != diag[: len(nonzero)] or any(b % a for a, b in zip(nonzero, nonzero[1:])):
        errors.append("SNF: diagonal is not a divisibility chain")
    h, hu = (m.row_list() for m in hnf)
    if mat_mul(hu, rows) != h:
        errors.append("HNF: H != U*A")
    if abs(fraction_det(hu)) != 1:
        errors.append("HNF: U is not unimodular")
    last_pivot = -1
    for i, row in enumerate(h):
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            if any(any(r) for r in h[i:]):
                errors.append("HNF: zero row above a nonzero row")
            break
        if lead <= last_pivot or row[lead] <= 0:
            errors.append("HNF: not in echelon form with positive pivots")
            break
        if any(not 0 <= h[k][lead] < row[lead] for k in range(i)):
            errors.append("HNF: entry above a pivot is not reduced")
            break
        last_pivot = lead
    own_rank = fraction_rank(rows)
    if rank != own_rank:
        errors.append(f"rank {rank} != {own_rank}")
    width = len(rows[0])
    if len(kernel) + own_rank != width:
        errors.append("rank + nullity != columns")
    if any(any(dot(row, k) for row in rows) for k in kernel):
        errors.append("kernel vector not annihilated")
    if kernel and fraction_rank(kernel) != len(kernel):
        errors.append("kernel basis is linearly dependent")
    if solution is None or [dot(row, solution[0]) for row in rows] != list(rhs):
        errors.append("solve_integer_affine: A*x != b")
    return errors


def extreme_rays(normals, n: int) -> set[tuple[int, ...]]:
    """Primitive extreme rays of the pointed cone {x : <h, x> >= 0 for h in normals}.

    A ray is cut out by n - 1 independent normals; its direction is the
    vector of signed maximal minors of those rows.
    """
    rays = set()
    for rows in itertools.combinations(normals, n - 1):
        r = [(-1) ** j * fraction_det([row[:j] + row[j + 1:] for row in map(list, rows)]) for j in range(n)]
        if not any(r):
            continue
        for v in (r, [-x for x in r]):
            if all(dot(h, v) >= 0 for h in normals):
                g = 0
                for x in v:
                    g = gcd(g, x)
                rays.add(tuple(x // g for x in v))
    return rays


def check_cone(dim, gens, canonical, dual_gens, face_list) -> list[str]:
    """Duality and face counts of a full-dimensional pointed cone."""
    errors = []
    if any(dot(m, g) < 0 for m in dual_gens for g in gens):
        errors.append("a dual generator is negative on a generator")
    if extreme_rays(dual_gens, dim) != set(canonical):
        errors.append("dual of the dual is not the cone")
    counts = {}
    for f in face_list:
        k = fraction_rank(f) if f else 0
        counts[k] = counts.get(k, 0) + 1
    if sum((-1) ** k * c for k, c in counts.items()) != 0:
        errors.append(f"Euler relation fails on face counts {sorted(counts.items())}")
    if counts.get(dim, 0) != 1 or counts.get(0, 0) != 1:
        errors.append("face list lacks the cone or its apex")
    return errors


def check_hilbert(gens, basis, expected=None) -> list[str]:
    want = sorted(expected) if expected is not None else box_hilbert_basis(gens)
    got = sorted(tuple(v) for v in basis)
    return [] if got == want else [f"Hilbert basis {got} != {want}"]


# ---------------------------------------------------------------- fan-rank3


def check_fan_analysis(spec, results) -> list[str]:
    """Known answers for a complete simplicial rank-3 fan built by stellar subdivision."""
    errors = []
    maximal = spec["maximal"]
    toroidal = not any(spec["colours"])
    unimodular = all(abs(fraction_det(c)) == 1 for c in maximal)
    rays = sorted({g for c in maximal for g in c})
    edges = {frozenset(p) for c in maximal for p in itertools.combinations(c, 2)}
    members = 1 + len(rays) + len(edges) + len(maximal)
    rep = results.get("classify")
    if rep is not None:
        if not (rep.is_complete and rep.is_projective):
            errors.append("stellar subdivision of a projective fan not reported complete and projective")
        if toroidal and rep.is_smooth != unimodular:
            errors.append(f"toroidal smoothness {rep.is_smooth} != unimodularity {unimodular}")
    points = spec["points"]
    used = {p for cols in spec["colours"] for p in (points[r] for r in cols)}
    coloured_rays = {g for g in rays for p in used if cross3(g, p) == (0, 0, 0) and dot(g, p) > 0}
    rows = [list(g) for g in rays if g not in coloured_rays] + [list(points[r]) for r in sorted(points)]
    free, torsion = cokernel_of_rows(rows)
    cl = results.get("class-group")
    if cl is not None and (cl.group.free_rank, list(cl.group.torsion)) != (free, torsion):
        errors.append(f"Cl = {cl.group} but own cokernel gives free {free} torsion {torsion}")
    pic = results.get("picard")
    if pic is not None and cl is not None and toroidal and unimodular and pic.group != cl.group:
        errors.append(f"smooth toroidal fan with Pic {pic.group} != Cl {cl.group}")
    for key in ("positivity", "positivity-boundary"):
        pos = results.get(key)
        if pos is not None and rep is not None and rep.is_smooth and not pos[0]:
            errors.append(f"{key}: a divisor is not Cartier on a smooth variety")
    for key in ("orbits", "regularity"):
        rows_out = results.get(key)
        if rows_out is not None and len(rows_out) != members:
            errors.append(f"{key}: {len(rows_out)} rows for {members} fan members")
    return errors


# ---------------------------------------------------------------- cli-docs


SENTINEL = "---JSON---"


def json_block(stdout: str):
    import json

    head, sep, tail = stdout.partition(SENTINEL + "\n")
    if not sep:
        raise ValueError("no JSON sentinel in output")
    return json.loads(tail)


def check_cli(invocation, code, stdout, reparse) -> list[str]:
    """Exit code, JSON block and command-specific answers of one CLI call.

    `reparse(text)` parses and re-serialises a document with the program, for
    the decolour / orbit-closure round trip.
    """
    errors = []
    if code != invocation["expect_code"]:
        errors.append(f"exit code {code} != predicted {invocation['expect_code']}")
    try:
        payload = json_block(stdout)
    except ValueError as exc:
        return errors + [f"JSON block does not parse: {exc}"]
    command = invocation["argv"][0]
    if code != 0:
        return errors
    if command in ("decolour", "orbit-closure"):
        block = stdout.partition(SENTINEL + "\n")[2].rstrip("\n")
        if reparse(block) != block:
            errors.append(f"{command} output does not re-serialise to itself")
    elif command == "morphism":
        if not (payload.get("compatible") and payload.get("proper")):
            errors.append("identity morphism is not compatible and proper")
    elif command == "class-group":
        expected = invocation["expect_free_rank"]
        if payload["class_group"]["free_rank"] != expected:
            errors.append(f"Cl free rank {payload['class_group']['free_rank']} != {expected}")
    return errors
