"""Exact integer linear algebra over arbitrary-precision integers.

Normal forms (Smith, Hermite), integer kernels and solving, lattice
saturation, and finitely generated abelian groups presented by invariant
factors.  Everything here is pure and exact: no floating point, no modular
shortcuts.  Matrices are immutable and row-major; empty matrices (0 rows or
0 columns) are legal everywhere.

One row-echelon routine, `_echelonise`, answers the lattice questions: the
Hermite form and its transform (`hermite_normal_form`), ranks, column bases
(`column_hermite`), unimodular equivalence, and kernels.
`echelon_triple` echelonises [m^T | I], built straight from the rows of m:
the rows whose left block vanished are the kernel (`kernel_basis`), and the
others coordinatise the saturated row span of m and lift functionals on it,
which is all that cone duality and weight monoids need.  The same echelon solves m*x = b for a
whole batch of right-hand sides b (`echelon_solutions`, from an echelon
already made; `lattice_coordinates` and `solve_integer_affine` make one):
reducing (-b, 0) modulo its rows (`reduce_mod_hermite`) leaves zero on the
left exactly when b is solvable, and on the right the canonical solution,
reduced modulo the kernel's Hermite basis.  This gives Cartier data, PLF
pieces and lattice maps.  The echelon's first part, `echelon`, is also the
column Hermite form of m, so the k rows of m are independent iff it has k
rows and extend to a basis iff it is the identity (`is_identity_echelon`).  Cones and coloured-fan members
keep the echelon of their rows and answer all of this from it.  The Smith
form is computed only where its diagonal or its transforms are the answer:
invariant factors and cokernels (class and Picard groups), and the torsion
of Z^n / B*Z^d that gives Hilbert basis candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Optional, Sequence

Vector = tuple[int, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order.

    `from_rows` and `from_columns` take entries through `operator.index`:
    ints and bools are read exactly, and a float, Fraction or str raises
    TypeError rather than being truncated.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            return IntMatrix(0, 0 if cols is None else cols, ())
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != c:
            raise ValueError(f"rows have {c} entries, not cols={cols}")
        return IntMatrix(r, c, tuple(index(x) for row in rows for x in row))

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if len(columns) == 0:
            return IntMatrix(0 if rows is None else rows, 0, ())
        r = len(columns[0])
        if any(len(col) != r for col in columns):
            raise ValueError("ragged columns")
        if rows is not None and rows != r:
            raise ValueError(f"columns have {r} entries, not rows={rows}")
        return IntMatrix(r, len(columns), tuple(index(columns[j][i]) for i in range(r) for j in range(len(columns))))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        rows = [self.row(i) for i in range(self.rows)]
        return IntMatrix(self.cols, self.rows, tuple(x for column in zip(*rows) for x in column))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        if not other.cols:
            return IntMatrix(self.rows, 0, ())
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(self.row(i), v)) for i in range(self.rows))

    def is_diagonal(self) -> bool:
        return all(self.at(i, j) == 0 for i in range(self.rows) for j in range(self.cols) if i != j)

    def diagonal(self) -> Vector:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^free_rank x Z/d_1 x ... x Z/d_k.

    The invariant factors satisfy d_1 | d_2 | ... | d_k with every d_i >= 2.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _beside_identity(m: IntMatrix) -> list[list[int]]:
    """The rows of [m | I]: row operations on them record their transform in I."""
    return [list(m.row(i)) + [int(i == j) for j in range(m.rows)] for i in range(m.rows)]


def _echelonise(a: list[list[int]], cols: int) -> int:
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
            if (x, y) != (1, 0):
                a[piv_row] = [x * e + y * f for e, f in zip(ri, rj)]
            a[i] = [r * e + f for e, f in zip(ri, rj)] if s == 1 else [r * e + s * f for e, f in zip(ri, rj)]
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


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Canonical row-style Hermite normal form.

    Returns (H, U) with H = U*m, U unimodular, H in row echelon form with
    positive pivots and every entry above a pivot reduced into [0, pivot).
    H is the unique such representative of the left-GL_n(Z) orbit of m.
    """
    a = _beside_identity(m)
    _echelonise(a, m.cols)
    h = IntMatrix.from_rows([row[: m.cols] for row in a], cols=m.cols)
    u = IntMatrix.from_rows([row[m.cols :] for row in a], cols=m.rows)
    return h, u


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (U, D, V) with U*m*V = D.

    U and V are unimodular and D is diagonal with a divisibility chain
    d_1 | d_2 | ... on its nonnegative diagonal.
    """
    rows, cols = m.rows, m.cols
    # the block matrix [[m, I], [I, 0]]: whole-row operations on the first
    # `rows` rows carry U along, whole-column operations on the first `cols`
    # columns carry V along
    a = _beside_identity(m) + [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]

    def row_step(t: int) -> bool:
        changed = False
        for i in range(t + 1, rows):
            top, b = a[t][t], a[i][t]
            if b == 0:
                continue
            if b % top == 0:
                q = b // top
                a[i] = [e - q * f for e, f in zip(a[i], a[t])]
            else:
                g, x, y = _xgcd(top, b)
                r, s = -(b // g), top // g
                rt, ri = a[t], a[i]
                a[t] = [x * e + y * f for e, f in zip(rt, ri)]
                a[i] = [r * e + s * f for e, f in zip(rt, ri)]
                changed = True
        return changed

    def col_step(t: int) -> bool:
        changed = False
        for j in range(t + 1, cols):
            top, b = a[t][t], a[t][j]
            if b == 0:
                continue
            if b % top == 0:
                q = b // top
                for row in a:
                    row[j] -= q * row[t]
            else:
                g, x, y = _xgcd(top, b)
                r, s = -(b // g), top // g
                for row in a:
                    e, f = row[t], row[j]
                    row[t], row[j] = x * e + y * f, r * e + s * f
                changed = True
        return changed

    for t in range(min(rows, cols)):
        # move a smallest nonzero entry of the trailing block to (t, t)
        entries = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            changed = row_step(t)
            if col_step(t) or changed:
                continue
            # row and column are clear; enforce divisibility of the trailing block
            offender = next(
                (i for i in range(t + 1, rows) if any(a[i][j] % a[t][t] for j in range(t + 1, cols))), None
            )
            if offender is None:
                break
            a[t] = [e + f for e, f in zip(a[t], a[offender])]
        if a[t][t] < 0:
            a[t] = [-e for e in a[t]]
    u = IntMatrix.from_rows([row[cols:] for row in a[:rows]], cols=rows)
    d = IntMatrix.from_rows([row[:cols] for row in a[:rows]], cols=cols)
    v = IntMatrix.from_rows([row[:cols] for row in a[rows:]], cols=cols)
    return u, d, v


def rank(m: IntMatrix) -> int:
    return _echelonise(m.row_list(), m.cols) if m.cols else 0


def invariant_factors(m: IntMatrix) -> Vector:
    _, d, _ = smith_normal_form(m)
    return tuple(x for x in d.diagonal() if x != 0)


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Presentation of Z^rows / (column image of m) by invariant factors."""
    facs = invariant_factors(m)
    return AbelianGroup(free_rank=m.rows - len(facs), torsion=tuple(d for d in facs if d > 1))


def echelon_triple(rows: Sequence[Sequence[int]], cols: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...], tuple[Vector, ...]]:
    """(echelon, complement, kernel) of the matrix m with these rows in Z^cols, as tuples: the one elimination behind them all.

    Echelonising [m^T | I] over all its columns leaves [U*m^T | U] with U
    unimodular; it is built straight from the rows, row i of [m^T | I] being
    the i-th entries of the rows followed by the unit vector e_i.  The rows
    whose left block vanished come last; their right blocks `kernel` span
    {x in Z^cols : m*x = 0} and, echelonised too, are its column Hermite
    form.  The first r = rank(m) rows give `echelon`, the row Hermite form of
    m^T, and `complement`, the r x cols block C with C*m^T = echelon.  C maps
    the saturated row span L of m isomorphically onto Z^r, so column j of
    `echelon` holds the coordinates of row j of m in L, a functional h on L
    (in these coordinates) lifts to h*C on Z^cols, and the echelon's pivot
    columns index r independent rows of m.  The rows of `echelon` are exactly
    the columns of `column_hermite(m)`: the first len(rows) columns are
    echelonised by the steps `column_hermite` takes on m^T alone, and the
    later columns only add to earlier rows multiples of rows whose left block
    is zero.
    """
    if any(len(row) != cols for row in rows):
        raise ValueError(f"rows must have {cols} entries")
    k = len(rows)
    a = [[row[i] for row in rows] + [int(i == j) for j in range(cols)] for i in range(cols)]
    _echelonise(a, k + cols)
    r = next((i for i, row in enumerate(a) if not any(row[:k])), len(a))
    return tuple(tuple(row[:k]) for row in a[:r]), tuple(tuple(row[k:]) for row in a[:r]), tuple(tuple(row[k:]) for row in a[r:])


def is_identity_echelon(echelon: Sequence[Vector], k: int) -> bool:
    """Whether the `echelon_triple` echelon of k rows v_i is the k x k identity.

    It is the column Hermite form of x -> (<v_i, x>)_i, so this holds iff
    that map is onto Z^k: the v_i are independent (k echelon rows) and
    extend to a basis.
    """
    return list(echelon) == [tuple(int(i == j) for j in range(k)) for i in range(k)]


def kernel_basis(m: IntMatrix) -> list[Vector]:
    """Canonical basis of {x in Z^cols : m*x = 0} (a saturated sublattice), in column Hermite form."""
    return list(echelon_triple(m.row_list(), m.cols)[2])


def echelon_solutions(
    data: tuple[Sequence[Vector], Sequence[Vector], Sequence[Vector]], rows: int, vectors: Sequence[Sequence[int]]
) -> list[Optional[Vector]]:
    """The canonical solution of m*x = b per b, None if there is none, from the `echelon_triple` triple of m.

    m has `rows` rows; `data` is (echelon, complement, kernel).  The rows
    [U*m^T | U] of the echelon form a Hermite basis of the lattice of pairs
    (m*y, y), the kernel rows with their zero left blocks last.  Reducing
    (-b, 0) modulo it leaves (-b - m*y, -y): b is solvable exactly when the
    left block is zero, and then x = -y solves m*x = b and is already
    reduced modulo the kernel's Hermite basis.  So one echelon, made once per
    matrix, answers every right-hand side.
    """
    if any(len(b) != rows for b in vectors):
        raise ValueError("right-hand side has wrong length")
    echelon, complement, kernel = data
    cols = len(complement) + len(kernel)
    basis = [e + c for e, c in zip(echelon, complement)] + [(0,) * rows + k for k in kernel]
    reduced = reduce_mod_hermite([tuple(-x for x in b) + (0,) * cols for b in vectors], basis)
    return [None if any(w[:rows]) else w[rows:] for w in reduced]


def solve_integer_affine(m: IntMatrix, b: Sequence[int]) -> Optional[tuple[Vector, list[Vector]]]:
    """Solve m*x = b over Z.

    Returns (x, `kernel_basis(m)`), or None when no integer solution exists.
    x is the canonical solution: every solution reduces to it modulo the
    kernel's Hermite basis (`reduce_mod_hermite`).  Unsolvability is a value,
    not an error.  It is `echelon_solutions` on one echelon of m.
    """
    data = echelon_triple(m.row_list(), m.cols)
    (x,) = echelon_solutions(data, m.rows, [b])
    return None if x is None else (x, list(data[2]))


def column_hermite(m: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form (canonical basis of the column lattice).

    Zero columns are dropped, so the result's columns are a basis.
    """
    a = m.transpose().row_list()
    r = _echelonise(a, m.rows)
    return IntMatrix.from_columns(a[:r], rows=m.rows)


def saturate(m: IntMatrix) -> IntMatrix:
    """Saturation Span_Q(columns) ∩ Z^rows, returned as a canonical basis matrix: the kernel of the annihilator."""
    perp = kernel_basis(m.transpose())
    return IntMatrix.from_columns(kernel_basis(IntMatrix.from_rows(perp, cols=m.rows)), rows=m.rows)


def left_unimodular_equivalent(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether U*a = b for some unimodular U (equal canonical Hermite forms)."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return False
    ra, rb = a.row_list(), b.row_list()
    _echelonise(ra, a.cols)
    _echelonise(rb, b.cols)
    return ra == rb


def lattice_coordinates(vectors: Sequence[Sequence[int]], basis: IntMatrix) -> list[Optional[Vector]]:
    """Coordinates of each vector in the column lattice of basis, None where it is outside.

    One echelon of basis serves the whole batch (`echelon_solutions`);
    where the columns are dependent, the coordinates are the canonical
    solution of `solve_integer_affine`.
    """
    return echelon_solutions(echelon_triple(basis.row_list(), basis.cols), basis.rows, vectors) if vectors else []


def reduce_mod_hermite(vectors: Sequence[Sequence[int]], hermite: Sequence[Vector]) -> list[Vector]:
    """Canonical representative of each vector modulo a lattice whose basis is in column Hermite form.

    `kernel_basis` and `column_hermite(...).columns()` return such bases.
    Each vector's entry at each pivot, taken in order, is brought into
    [0, pivot); later basis vectors vanish there, so the result is canonical.
    """
    pivots = [(next(i for i, x in enumerate(col) if x != 0), col) for col in hermite]
    out = []
    for v in vectors:
        w = list(v)
        for p, col in pivots:
            q = w[p] // col[p]
            if q:
                w = [x - q * c for x, c in zip(w, col)]
        out.append(tuple(w))
    return out

