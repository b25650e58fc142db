"""Exact-arithmetic identities for the integer linear algebra layer."""

import random

import pytest

from horofan.intlin import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    column_hermite,
    hermite_normal_form,
    invariant_factors,
    echelon_triple,
    kernel_basis,
    lattice_coordinates,
    left_unimodular_equivalent,
    rank,
    reduce_mod_hermite,
    saturate,
    smith_normal_form,
    solve_integer_affine,
)

from .oracles import determinant, is_unimodular, smith_solutions


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols)


def lattice_samples(seed, count=80):
    """Matrices up to 5 x 5 with entries up to +/-40, empty shapes included;
    about a third get a last row dependent on the first two, so ranks drop."""
    rng = random.Random(seed)
    out = [IntMatrix.zero(0, 0), IntMatrix.zero(0, 3), IntMatrix.zero(3, 0), IntMatrix.zero(2, 4)]
    for _ in range(count):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        hi = rng.choice([2, 6, 40])
        a = [[rng.randint(-hi, hi) for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and rng.random() < 0.35:
            k = rng.randint(-3, 3)
            a[-1] = [x + k * y for x, y in zip(a[0], a[1])]
        out.append(IntMatrix.from_rows(a, cols=cols))
    return out


def kernel_via_smith(m):
    """The Smith route: columns of V past the rank, put in column Hermite form."""
    _, d, v = smith_normal_form(m)
    r = sum(1 for x in d.diagonal() if x != 0)
    cols = [v.column(j) for j in range(r, m.cols)]
    return column_hermite(IntMatrix.from_columns(cols, rows=m.cols)).columns() if cols else []


def assert_snf_contract(m):
    u, d, v = smith_normal_form(m)
    assert is_unimodular(u)
    assert is_unimodular(v)
    assert u.mul(m).mul(v) == d
    assert d.is_diagonal()
    diag = [x for x in d.diagonal() if x != 0]
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


class TestMatrixShape:
    def test_from_rows_rejects_a_column_count_the_rows_do_not_have(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2]], cols=3)
        assert IntMatrix.from_rows([[1, 2]], cols=2) == IntMatrix.from_rows([[1, 2]])
        assert IntMatrix.from_rows([], cols=3) == IntMatrix.zero(0, 3)

    def test_from_columns_rejects_a_row_count_the_columns_do_not_have(self):
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1, 2)], rows=3)
        assert IntMatrix.from_columns([(1, 2)], rows=2) == IntMatrix.from_rows([[1], [2]])
        assert IntMatrix.from_columns([], rows=3) == IntMatrix.zero(3, 0)


class TestSmithNormalForm:
    def test_diag_2_3_gives_1_6(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        _, d, _ = smith_normal_form(m)
        assert d.diagonal() == (1, 6)
        assert_snf_contract(m)

    def test_identity_fixed(self):
        m = IntMatrix.identity(3)
        _, d, _ = smith_normal_form(m)
        assert d == m

    def test_class_group_relation_matrix(self):
        # invariant factors (1, 1), so the 5-dim cokernel of the transpose has rank 3
        m = IntMatrix.from_rows([[1, -1, 1, 1, 0], [1, 0, -1, 0, 1]])
        assert invariant_factors(m) == (1, 1)
        assert cokernel(m.transpose()) == AbelianGroup(3, ())

    @pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4)])
    def test_contract_on_random_matrices(self, rows, cols):
        rng = random.Random(1000 + rows * 10 + cols)
        for _ in range(25):
            assert_snf_contract(random_matrix(rng, rows, cols))


class TestHermiteNormalForm:
    def test_one_by_one(self):
        h, _ = hermite_normal_form(IntMatrix.from_rows([[2]]))
        assert h == IntMatrix.from_rows([[2]])

    def test_row_swap(self):
        h, u = hermite_normal_form(IntMatrix.from_rows([[0, 1], [1, 0]]))
        assert h == IntMatrix.identity(2)
        assert is_unimodular(u)

    def test_two_by_two_canonical(self):
        # hand reduction: swap, clear below, then reduce the entry above the
        # pivot 2 into [0, 2), giving [[1, 1], [0, 2]]
        m = IntMatrix.from_rows([[2, 4], [1, 3]])
        h, u = hermite_normal_form(m)
        assert h == IntMatrix.from_rows([[1, 1], [0, 2]])
        assert u.mul(m) == h
        assert is_unimodular(u)

    def test_idempotent_and_reduced(self):
        rng = random.Random(7)
        samples = [random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(100)]
        for m in samples + lattice_samples(8):
            h, u = hermite_normal_form(m)
            assert is_unimodular(u)
            assert u.mul(m) == h
            h2, _ = hermite_normal_form(h)
            assert h2 == h
            # canonical shape: positive pivots, zeros below, [0, pivot) above
            pivots = []
            for i in range(h.rows):
                row = h.row(i)
                nz = [j for j in range(h.cols) if row[j] != 0]
                if nz:
                    pivots.append((i, nz[0]))
            for i, j in pivots:
                p = h.at(i, j)
                assert p > 0
                assert all(h.at(k, j) == 0 for k in range(i + 1, h.rows))
                assert all(0 <= h.at(k, j) < p for k in range(i))


class TestLeftUnimodularEquivalent:
    def test_reflexive(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert left_unimodular_equivalent(m, m)

    def test_scaling_not_equivalent(self):
        assert not left_unimodular_equivalent(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[2]]))

    def test_column_swap_equivalent(self):
        a = IntMatrix.from_columns([(1, 0), (0, 1)])
        b = IntMatrix.from_columns([(0, 1), (1, 0)])
        assert left_unimodular_equivalent(a, b)

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(11)
        mats = [random_matrix(rng, 3, 2, -3, 3) for _ in range(12)]
        umod = IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [1, 1, 1]])
        assert is_unimodular(umod)
        for m in mats:
            assert left_unimodular_equivalent(m, umod.mul(m))
            assert left_unimodular_equivalent(umod.mul(m), m)
        for a in mats:
            for b in mats:
                for c in mats:
                    if left_unimodular_equivalent(a, b) and left_unimodular_equivalent(b, c):
                        assert left_unimodular_equivalent(a, c)


class TestCokernel:
    def test_nothing_quotiented(self):
        assert cokernel(IntMatrix.zero(3, 0)) == AbelianGroup(3, ())

    def test_z_mod_2(self):
        assert cokernel(IntMatrix.from_rows([[2]])) == AbelianGroup(0, (2,))

    def test_free_rank_formula(self):
        rng = random.Random(23)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
            assert cokernel(m).free_rank == m.rows - rank(m)

    def test_str(self):
        assert str(AbelianGroup(3, ())) == "Z^3"
        assert str(AbelianGroup(0, ())) == "0"
        assert str(AbelianGroup(1, (2, 4))) == "Z x Z/2 x Z/4"


class TestSolveIntegerAffine:
    def test_sum_equation(self):
        sol = solve_integer_affine(IntMatrix.from_rows([[1, 1]]), (1,))
        assert sol is not None
        x, ker = sol
        assert x[0] + x[1] == 1
        assert len(ker) == 1
        assert ker[0][0] + ker[0][1] == 0 and ker[0] != (0, 0)

    def test_parity_obstruction(self):
        assert solve_integer_affine(IntMatrix.from_rows([[2]]), (1,)) is None

    def test_identity(self):
        sol = solve_integer_affine(IntMatrix.identity(2), (3, 4))
        assert sol == ((3, 4), [])

    def test_random_consistency(self):
        rng = random.Random(31)
        for _ in range(80):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -4, 4)
            target = tuple(rng.randint(-3, 3) for _ in range(m.cols))
            b = m.apply(target)
            sol = solve_integer_affine(m, b)
            assert sol is not None
            x, ker = sol
            assert m.apply(x) == b
            for k in ker:
                assert m.apply(k) == (0,) * m.rows

    @pytest.mark.parametrize("seed", [91, 92])
    def test_lattice_coordinates_solve_exactly_the_lattice_members(self, seed):
        rng = random.Random(seed)
        for m in lattice_samples(seed):
            members = [m.apply([rng.randint(-5, 5) for _ in range(m.cols)]) for _ in range(3)]
            others = [tuple(rng.randint(-9, 9) for _ in range(m.rows)) for _ in range(3)]
            vectors = members + others
            reduced = reduce_mod_hermite(vectors, column_hermite(m).columns())
            for v, x, rep in zip(vectors, lattice_coordinates(vectors, m), reduced):
                if any(rep):
                    assert x is None
                else:
                    assert x is not None and m.apply(x) == v

    @pytest.mark.parametrize("seed", [93, 94, 95])
    def test_canonical_solutions_match_the_smith_oracle(self, seed):
        rng = random.Random(seed)
        for m in lattice_samples(seed):
            members = [m.apply([rng.randint(-5, 5) for _ in range(m.cols)]) for _ in range(3)]
            others = [tuple(rng.randint(-9, 9) for _ in range(m.rows)) for _ in range(3)]
            vectors = members + others
            expected, _ = smith_solutions(m, vectors)
            kernel = kernel_basis(m)
            solutions = [solve_integer_affine(m, b) for b in vectors]
            for b, y, sol in zip(vectors, expected, solutions):
                assert (sol is None) == (y is None)
                if sol is None:
                    continue
                x, k = sol
                assert m.apply(x) == b
                assert k == kernel
                # canonical: fixed by the reduction, and the oracle's solution reduces to it
                assert reduce_mod_hermite([x, y], kernel) == [x, x]
            assert lattice_coordinates(vectors, m) == [None if sol is None else sol[0] for sol in solutions]
            if not kernel:
                assert lattice_coordinates(vectors, m) == expected

    def test_rejects_a_right_hand_side_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            solve_integer_affine(IntMatrix.identity(2), (1,))


class TestSaturate:
    def test_doubled_generator(self):
        s = saturate(IntMatrix.from_columns([(2, 0)], rows=2))
        assert s.columns() == [(1, 0)]

    def test_index_two_sublattice(self):
        s = saturate(IntMatrix.from_columns([(1, 1), (1, -1)], rows=2))
        assert sorted(s.columns()) == [(0, 1), (1, 0)]

    def test_already_saturated(self):
        s = saturate(IntMatrix.from_columns([(1, 0)], rows=2))
        assert s.columns() == [(1, 0)]

    def test_idempotent_and_contains_input(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 4)
            k = rng.randint(0, n)
            m = random_matrix(rng, n, k, -4, 4)
            s = saturate(m)
            assert saturate(s) == s
            assert rank(s) == rank(m)
            assert None not in lattice_coordinates(m.columns(), s)


class TestKernelAndReduction:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(53)
        samples = [random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(60)]
        for m in samples + lattice_samples(54):
            ker = kernel_basis(m)
            assert len(ker) == m.cols - rank(m)
            for v in ker:
                assert m.apply(v) == (0,) * m.rows

    @pytest.mark.parametrize("seed", [81, 82, 83])
    def test_kernel_matches_smith_route(self, seed):
        for m in lattice_samples(seed):
            assert kernel_basis(m) == kernel_via_smith(m)

    def test_kernel_is_fixed_by_column_hermite(self):
        for m in lattice_samples(84):
            ker = kernel_basis(m)
            if ker:
                assert column_hermite(IntMatrix.from_columns(ker, rows=m.cols)).columns() == ker

    def test_rank_counts_nonzero_hermite_rows(self):
        for m in lattice_samples(85):
            h, _ = hermite_normal_form(m)
            assert rank(m) == sum(1 for i in range(h.rows) if any(h.row(i)))

    @pytest.mark.parametrize("seed", [86, 87])
    def test_complement_coordinatises_the_row_span(self, seed):
        rng = random.Random(seed)
        for m in lattice_samples(seed):
            echelon, complement, kernel = echelon_triple(m.row_list(), m.cols)
            assert list(kernel) == kernel_basis(m)
            assert len(echelon) == rank(m)
            # [complement; kernel] is a unimodular basis of Z^cols
            assert is_unimodular(IntMatrix.from_rows(complement + kernel, cols=m.cols))
            # entry (i, j) of the echelon is <complement_i, row j of m>
            c = IntMatrix.from_rows(complement, cols=m.cols)
            assert echelon == tuple(tuple(sum(a * b for a, b in zip(ci, m.row(j))) for j in range(m.rows)) for ci in complement)
            h, _ = hermite_normal_form(m.transpose())
            assert echelon == tuple(h.row(i) for i in range(len(echelon)))
            # a functional given in coordinates lifts to h * complement
            f = [rng.randint(-5, 5) for _ in echelon]
            lift = tuple(sum(x * row[i] for x, row in zip(f, complement)) for i in range(m.cols))
            for j in range(m.rows):
                assert sum(a * b for a, b in zip(lift, m.row(j))) == sum(a * b for a, b in zip(f, c.apply(m.row(j))))

    def test_reduce_mod_hermite_agrees_on_kernel_bases(self):
        """Every vector of a coset of the kernel reduces to one representative in that coset."""
        rng = random.Random(88)
        for m in lattice_samples(88):
            kernel = kernel_basis(m)
            for _ in range(4):
                v = tuple(rng.randint(-20, 20) for _ in range(m.cols))
                coefficients = [rng.randint(-4, 4) for _ in kernel]
                shifted = tuple(x + sum(c * k[i] for c, k in zip(coefficients, kernel)) for i, x in enumerate(v))
                (rep,) = reduce_mod_hermite([v], kernel)
                assert reduce_mod_hermite([shifted, rep], kernel) == [rep, rep]
                assert m.apply(rep) == m.apply(v)

    def test_reduce_mod_hermite_canonical(self):
        basis = column_hermite(IntMatrix.from_columns([(2, 0), (0, 3)], rows=2)).columns()
        reduced = reduce_mod_hermite([(5, 7), (-1, -1), (5 + 4, 7 - 9)], basis)
        assert reduced[:2] == [(1, 1), (1, 2)]
        # coset-invariant
        assert reduced[2] == reduced[0]

    def test_column_hermite_is_basis_of_same_lattice(self):
        rng = random.Random(61)
        for _ in range(40):
            m = random_matrix(rng, 3, rng.randint(0, 4), -4, 4)
            h = column_hermite(m)
            assert rank(h) == h.cols == rank(m)
            assert None not in lattice_coordinates(m.columns(), h)
            assert None not in lattice_coordinates(h.columns(), m)


def test_determinant_matches_cofactor_expansion_small():
    rng = random.Random(71)

    def cof(rows):
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cof(minor)
        return total

    for _ in range(50):
        n = rng.randint(0, 4)
        m = random_matrix(rng, n, n)
        assert determinant(m) == cof(m.row_list())
