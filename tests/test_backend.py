"""Exact matrices, instantiation, elimination, truncated-derivative instances."""

import random
import time
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from opkit.errors import InputError, ResourceLimitError
from opkit.backend import (_ONE, _ZERO, AffineSolutionSet, Matrix,
                           OperatorInstance, _integer_form, _rref,
                           _sparse_rref, affine_sets_equal, block_span,
                           graded_monomials, instantiate, kernel_basis,
                           make_truncated_derivative_instance, range_member,
                           solve_affine, span_basis)
from opkit.poly import Polynomial, parse_polynomial, product

from conftest import (BIG_DENOMINATORS, block_diagonal, diagonal,
                      distinct_fractions, entry, has_canonical_fields, hstack,
                      in_span, invert, random_polynomial, random_vector,
                      spans_equal)


def P(text, variables=("x",)):
    return parse_polynomial(text, list(variables))


def rank(m):
    return len(span_basis(m.row_list()))


def echelon_maps(basis):
    """``span_basis`` rows, each with pivot 1, in ``_sparse_rref``'s
    format: primitive ``{col: int}`` maps."""
    return [{j: x for j, x in enumerate(_integer_form(v)[0]) if x}
            for v in basis]


def random_matrix(rng, rows, cols, bound=5):
    return Matrix([[Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                    for _ in range(cols)] for _ in range(rows)])


def fraction_grid(rng, rows, cols, denominators):
    return [[Fraction(rng.randint(-9, 9), rng.choice(denominators))
             if rng.random() < 0.7 else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]


class TestMatrixFormat:
    """Matrix arithmetic against plain-Fraction reference loops."""

    @pytest.mark.parametrize("seed", range(6))
    def test_operations_match_fraction_loops(self, seed):
        rng = random.Random(300 + seed)
        denominators = BIG_DENOMINATORS if seed % 2 else (1, 2, 3, 4)
        n, m, p = (rng.randint(1, 5) for _ in range(3))
        a, a2 = (fraction_grid(rng, n, m, denominators) for _ in range(2))
        b = fraction_grid(rng, m, p, denominators)
        c = Fraction(rng.randint(-9, 9), rng.choice(denominators))
        v = [Fraction(rng.randint(-9, 9), rng.choice(denominators))
             for _ in range(m)]
        A, A2, B = Matrix(a), Matrix(a2), Matrix(b)
        want = {
            "+": [[x + y for x, y in zip(r, s)] for r, s in zip(a, a2)],
            "-": [[x - y for x, y in zip(r, s)] for r, s in zip(a, a2)],
            "neg": [[-x for x in r] for r in a],
            "*": [[sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0))
                   for j in range(p)] for i in range(n)],
            "scale": [[x * c for x in r] for r in a],
        }
        got = {"+": A + A2, "-": A - A2, "neg": -A, "*": A * B,
               "scale": A.scale(c)}
        for name, grid in want.items():
            assert got[name] == Matrix(grid), name
            assert hash(got[name]) == hash(Matrix(grid)), name
            assert got[name].row_list() == grid, name
            assert all(type(x) is Fraction for r in got[name].row_list()
                       for x in r), name
        assert c * A == A * c == got["scale"]
        assert A.apply(v) == tuple(sum((x * y for x, y in zip(r, v)),
                                       Fraction(0)) for r in a)
        assert all(entry(A, i, j) == a[i][j]
                   for i in range(n) for j in range(m))
        assert A.to_strings() == [[str(x) for x in r] for r in a]
        assert repr(A) == f"Matrix({[[str(x) for x in r] for r in a]!r})"

    def test_equal_values_give_equal_matrices(self):
        half = Matrix([[Fraction(1, 2), Fraction(-1, 2)], [0, Fraction(3, 2)]])
        whole = Matrix([[1, -1], [0, 3]])
        for m in (half + half, half.scale(2), half * diagonal([2, 2]),
                  Matrix([["2/2", "-4/4"], [0, "6/2"]])):
            assert m == whole and hash(m) == hash(whole)
            assert m.to_strings() == [["1", "-1"], ["0", "3"]]
        zero = Matrix.zeros(2, 2)
        for m in (half - half, half.scale(0), Matrix([["0/5", 0], [0, 0]])):
            assert m == zero and hash(m) == hash(zero) and m.is_zero()
        assert half.scale(Fraction(-1, 3)) == Matrix(
            [[Fraction(-1, 6), Fraction(1, 6)], [0, Fraction(-1, 2)]])
        assert Matrix.identity(2) != diagonal([1, Fraction(1, 2)])

    def test_shape_is_part_of_the_value(self):
        # Zero rows are stored empty, so only cols tells these apart.
        assert Matrix.zeros(2, 2) != Matrix.zeros(2, 3)
        assert hash(Matrix.zeros(2, 2)) != hash(Matrix.zeros(2, 3))
        assert Matrix.zeros(2, 3) == Matrix([[0, 0, 0], [0, 0, 0]])
        assert Matrix.zeros(2, 3).to_strings() == [["0"] * 3] * 2

    @pytest.mark.parametrize("build", [
        lambda: Matrix.identity(0), lambda: Matrix.identity(-1),
        lambda: Matrix.zeros(0, 2), lambda: Matrix.zeros(2, 0),
        lambda: Matrix.zeros(0, 0), lambda: Matrix([]), lambda: Matrix([[]]),
        lambda: diagonal([])])
    def test_size_zero_is_refused(self, build):
        with pytest.raises(InputError):
            build()


class TestBlocks:
    """hsplit, block_span and stack_mul against Fraction grid loops, span
    bases and a materialised I_N (x) R."""

    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_match_grid_loops(self, seed):
        rng = random.Random(700 + seed)
        denominators = BIG_DENOMINATORS if seed % 2 else (1, 2, 3, 4)
        rows, width = rng.randint(1, 4), rng.randint(1, 4)
        grids = [fraction_grid(rng, rows, width, denominators)
                 for _ in range(rng.randint(1, 5))]
        grids.append([[Fraction(0)] * width for _ in range(rows)])
        blocks = [Matrix(g) for g in grids]
        stack = Matrix([list(chain.from_iterable(g[r] for g in grids))
                        for r in range(rows)])
        assert_same_matrix(hstack(blocks), stack)
        for got, want in zip(stack.hsplit(len(blocks)), blocks):
            assert_same_matrix(got, want)
        # The span of the blocks, each read row by row, zero block included.
        flat = [tuple(chain.from_iterable(b.row_list()))
                for b in stack.hsplit(len(blocks))]
        assert block_span([stack], width) == echelon_maps(span_basis(flat))
        other = Matrix(fraction_grid(rng, rows, 2 * width, denominators))
        flat += [tuple(chain.from_iterable(b.row_list()))
                 for b in other.hsplit(2)]
        assert block_span([stack, other], width) == echelon_maps(
            span_basis(flat))
        assert block_span([Matrix.zeros(rows, width)], width) == []
        copies = rng.randint(1, 4)
        square = Matrix(fraction_grid(rng, width, width, denominators))
        kron = [[entry(square, r % width, c % width) if r // width == c // width
                 else Fraction(0) for c in range(width * copies)]
                for r in range(width * copies)]
        assert_same_matrix(block_diagonal(square, copies), Matrix(kron))
        # A stack times I_N (x) R is the stack of the block products.
        chosen = (blocks * copies)[:copies]
        products = hstack(chosen).stack_mul(square)
        for got, block in zip(products.hsplit(copies), chosen):
            assert_same_matrix(got, block * square)

    @pytest.mark.parametrize("copies", [1, 2, 7])
    @pytest.mark.parametrize("shape", ["square", "tall"])
    def test_stack_mul_matches_the_materialised_diagonal(self, copies, shape):
        # Random sparse stacks with empty rows and all-zero blocks, negative
        # entries and non-unit denominators, times a square R or an n x d R
        # (such as a kernel basis K), against the product by I_N (x) R.
        rng = random.Random(800 + 10 * copies + len(shape))
        for trial in range(6):
            denominators = BIG_DENOMINATORS if trial % 2 else (1, 2, 3, 4)
            n = rng.randint(1, 5)
            d = n if shape == "square" else rng.randint(1, n)
            rows = rng.randint(1, 4)
            grid = [[Fraction(rng.randint(-9, 9), rng.choice(denominators))
                     if rng.random() < 0.35 else Fraction(0)
                     for _ in range(n * copies)] for _ in range(rows)]
            grid[rng.randrange(rows)] = [Fraction(0)] * (n * copies)
            zero_block = rng.randrange(copies)
            for row in grid:
                row[zero_block * n:(zero_block + 1) * n] = [Fraction(0)] * n
            stack = Matrix(grid)
            R = Matrix(fraction_grid(rng, n, d, denominators))
            got = stack.stack_mul(R)
            want = stack * block_diagonal(R, copies)
            assert_same_matrix(got, want)
            assert (got.rows, got.cols) == (rows, d * copies)
            assert got.hsplit(copies)[zero_block].is_zero()

    def test_shapes_are_checked(self):
        for count in (0, 4):
            with pytest.raises(InputError):
                Matrix.identity(6).hsplit(count)
            with pytest.raises(InputError):
                block_span([Matrix.identity(6)], count)
        # Blocks of stacks with different row counts are not comparable.
        with pytest.raises(InputError):
            block_span([Matrix.identity(2), Matrix.zeros(3, 2)], 2)
        # The stack width must be a multiple of R.rows, whatever R.cols is.
        for R in (Matrix.identity(4), Matrix.zeros(4, 6), Matrix.zeros(5, 1)):
            with pytest.raises(InputError):
                Matrix.identity(6).stack_mul(R)
        assert Matrix.identity(6).stack_mul(Matrix.zeros(3, 2)).cols == 4


class TestInstantiate:
    def test_unital(self):
        inst = OperatorInstance.of([diagonal([-1, -2])])
        assert instantiate(Polynomial.one(1), inst) == Matrix.identity(2)

    def test_variable_maps_to_generator(self):
        d = diagonal([-1, -2])
        inst = OperatorInstance.of([d])
        assert instantiate(P("x"), inst) == d

    def test_annihilating_polynomial(self):
        inst = OperatorInstance.of([diagonal([-1, -2])])
        assert instantiate(P("(x+1)*(x+2)"), inst).is_zero()

    def test_variable_count_mismatch(self):
        inst = OperatorInstance.of([diagonal([1, 2])])
        with pytest.raises(InputError):
            instantiate(parse_polynomial("x+y", ["x", "y"]), inst)

    def test_homomorphism_random(self, rng):
        m = random_matrix(rng, 4, 4, bound=3)
        d2 = m * m + Matrix.identity(4).scale(2)
        inst = OperatorInstance.of([m, d2])
        for _ in range(40):
            p = random_polynomial(rng, 2, max_terms=4, max_exp=3)
            q = random_polynomial(rng, 2, max_terms=4, max_exp=3)
            assert instantiate(p + q, inst) == instantiate(p, inst) + instantiate(q, inst)
            assert instantiate(p * q, inst) == instantiate(p, inst) * instantiate(q, inst)

    def test_instantiated_operators_commute(self, rng):
        m = random_matrix(rng, 3, 3, bound=3)
        inst = OperatorInstance.of([m, m * m])
        p = instantiate(random_polynomial(rng, 2, allow_zero=False), inst)
        q = instantiate(random_polynomial(rng, 2, allow_zero=False), inst)
        assert p * q == q * p

    def test_non_commuting_generators_rejected(self):
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        half = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        for generators, pair in (([a, b], "0 and 1"),
                                 ([Matrix.identity(2), a, b], "1 and 2"),
                                 ([half, a.scale(Fraction(5, 7))], "0 and 1")):
            with pytest.raises(InputError,
                               match=f"^generators {pair} do not commute$"):
                OperatorInstance.of(generators)


def naive_evaluate(p, generators):
    """p at the generators with plain Fraction lists, no opkit kernels."""
    n = generators[0].rows
    grids = [g.row_list() for g in generators]

    def times(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                 for j in range(n)] for i in range(n)]

    total = [[Fraction(0)] * n for _ in range(n)]
    for exp, coeff in p.terms.items():
        term = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for grid, e in zip(grids, exp):
            for _ in range(e):
                term = times(term, grid)
        total = [[t + coeff * x for t, x in zip(trow, xrow)]
                 for trow, xrow in zip(total, term)]
    return Matrix(total)


def assert_same_matrix(got, want):
    assert got == want and hash(got) == hash(want)
    assert (got.rows, got.cols, got._entries, got._den) == (
        want.rows, want.cols, want._entries, want._den)
    assert has_canonical_fields(got)


def commuting_rationals(rng, n):
    """Two commuting matrices V D V^-1, V E V^-1 with non-integer entries."""
    while True:
        v = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)])
        v_inv = invert(v)
        if v_inv is not None:
            break
    d, e = (diagonal(distinct_fractions(rng, n)) for _ in range(2))
    # V D V^-1 + I/2 has a non-integer entry: if its diagonal were all
    # integers, V D V^-1 would have a diagonal of halves.
    half = Matrix.identity(n).scale(Fraction(1, 2))
    return v * d * v_inv + half, v * e * v_inv


class TestSparseEvaluation:
    """instantiate evaluates by Matrix products; its matrix equals a plain
    Fraction evaluation in value, fields and hash."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_commuting_rationals(self, seed):
        rng = random.Random(700 + seed)
        a, b = commuting_rationals(rng, rng.randint(2, 4))
        assert any(x.denominator > 1 for r in a.row_list() for x in r)
        inst = OperatorInstance.of([a, b])
        for _ in range(8):
            p = random_polynomial(rng, 2, max_terms=5, max_exp=3)
            assert_same_matrix(instantiate(p, inst), naive_evaluate(p, [a, b]))

    def test_zero_and_constant_polynomials(self, rng):
        a, b = commuting_rationals(rng, 3)
        inst = OperatorInstance.of([a, b])
        for p in (Polynomial.zero(2), Polynomial.one(2), P("-1", "xy"),
                  P("3/7", "xy"), P("0*x + 5/2", "xy")):
            assert_same_matrix(instantiate(p, inst), naive_evaluate(p, [a, b]))
        assert_same_matrix(instantiate(Polynomial.zero(2), inst),
                           Matrix.zeros(3, 3))

    def test_zero_generator(self, rng):
        a, _ = commuting_rationals(rng, 3)
        zero = Matrix.zeros(3, 3)
        inst = OperatorInstance.of([zero, a])
        for text in ("x", "x^2*y + 1/3", "x*y - y^2 + 2", "x^3"):
            p = P(text, "xy")
            assert_same_matrix(instantiate(p, inst),
                               naive_evaluate(p, [zero, a]))

    @pytest.mark.parametrize("k, max_degree", [(1, 6), (2, 3), (2, 5), (3, 3)])
    def test_truncated_derivative(self, k, max_degree):
        rng = random.Random(40 + 10 * k + max_degree)
        inst = make_truncated_derivative_instance(k, max_degree)
        names = "xyz"[:k]
        demo = [P(f, names) for f in ("x+1", "x^2-1/2*x+3", "2/3*x^3")]
        polys = [product(demo, k)] + [random_polynomial(rng, k, max_exp=4)
                                      for _ in range(6)]
        for p in polys:
            assert_same_matrix(instantiate(p, inst),
                               naive_evaluate(p, inst.generators))


class TestInstanceContext:
    def test_equal_polynomial_hits_the_memo(self, monkeypatch):
        import opkit.backend
        inst = make_truncated_derivative_instance(2, 4)
        first = instantiate(P("x^2 + 3*x*y + 1", "xy"), inst)
        calls = []
        evaluate = opkit.backend._evaluate

        def counted(p, instance):
            calls.append(p)
            return evaluate(p, instance)

        monkeypatch.setattr(opkit.backend, "_evaluate", counted)
        again = P("1 + y*x*3 + x*x", "xy")
        assert again == P("x^2 + 3*x*y + 1", "xy")
        assert instantiate(again, inst) is first
        assert calls == []
        instantiate(P("x + y", "xy"), inst)
        assert calls == [P("x + y", "xy")]

    def test_fresh_instances_never_see_a_stale_matrix(self, rng):
        p = P("x^2*y - 2*x + y^3 + 1/2", "xy")
        for _ in range(30):
            m = random_matrix(rng, 3, 3, bound=3)
            generators = [m, m * m + Matrix.identity(3).scale(2)]
            inst = OperatorInstance.of(generators)
            assert instantiate(p, inst) == naive_evaluate(p, generators)
            del inst

    def test_memo_is_not_part_of_the_value(self):
        d = diagonal([-1, 2])
        used = OperatorInstance.of([d])
        fresh = OperatorInstance.of([d])
        instantiate(P("x^2 + 1"), used)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == (
            f"OperatorInstance(dimension=2, generators=({d!r},))")

    def test_zero_entries_are_the_shared_zero(self):
        inst = make_truncated_derivative_instance(2, 4)
        m = instantiate(P("x*y + x^2", "xy"), inst)
        f = m.apply([Fraction(k) for k in range(inst.dimension)])
        sol = solve_affine(m, f)
        vectors = ([sol.particular] + list(sol.kernel_vectors)
                   + kernel_basis(m) + span_basis(m.row_list()))
        entries = [v for row in m.row_list() for v in row]
        entries += [v for vec in vectors for v in vec]
        zeros = [v for v in entries if v == 0]
        assert zeros and all(v is _ZERO for v in zeros)


def assert_same_elimination(rows, cols):
    """The sparse elimination of integer ``rows`` gives the reduced echelon
    form that the dense one does: its nonzero rows, each a primitive map
    with a positive pivot that divides to the dense row, and the same
    pivots.  ``span_basis``, ``kernel_basis`` and ``solve_affine`` on the
    rows give every zero as the shared _ZERO, and every pivot and every
    free-column one as the shared _ONE."""
    want, want_pivots = _rref([list(r) for r in rows])
    got, pivots = _sparse_rref([(j, v) for j, v in enumerate(r) if v]
                               for r in rows)
    assert pivots == want_pivots and len(got) == len(pivots)
    for row, p, dense in zip(got, pivots, want):
        assert min(row) == p and row[p] > 0 and all(row.values())
        assert gcd(*row.values()) == 1
        assert [Fraction(row.get(j, 0), row[p]) for j in range(cols)] == dense
    assert not any(any(row) for row in want[len(pivots):])
    basis = span_basis([tuple(Fraction(v) for v in r) for r in rows])
    assert basis == [tuple(row) for row in want[:len(pivots)]]
    assert all(v[p] is _ONE for v, p in zip(basis, pivots))
    m = Matrix(rows)
    kernel = kernel_basis(m)
    free = [j for j in range(cols) if j not in pivots]
    assert len(kernel) == len(free)
    assert all(v[j] is _ONE for v, j in zip(kernel, free))
    sol = solve_affine(m, m.apply([Fraction(j) for j in range(cols)]))
    assert list(sol.kernel_vectors) == kernel
    vectors = basis + kernel + [sol.particular]
    assert all(x is _ZERO for v in vectors for x in v if not x)


def integer_rows(rng, rows, cols, density, rank=None):
    """Random integer rows; with ``rank`` set, the rows past it are
    integer combinations of the first ``rank``."""
    out = [[rng.randint(-6, 6) if rng.random() < density else 0
            for _ in range(cols)] for _ in range(rows)]
    if rank is not None:
        for i in range(rank, rows):
            coeffs = [rng.randint(-3, 3) for _ in range(rank)]
            out[i] = [sum(c * r[j] for c, r in zip(coeffs, out[:rank]))
                      for j in range(cols)]
    return out


class TestSparseElimination:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_elimination(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            assert_same_elimination(
                integer_rows(rng, rows, cols, rng.random()), cols)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(80):
            rows, cols = rng.randint(2, 9), rng.randint(1, 9)
            rank = rng.randint(0, min(rows, cols) - 1)
            m = integer_rows(rng, rows, cols, rng.random(), rank)
            assert_same_elimination(m, cols)
            assert len(_sparse_rref(
                [(j, v) for j, v in enumerate(r) if v] for r in m)[1]) <= rank

    def test_dense_rows_cleared_from_rationals(self, rng):
        for _ in range(60):
            cols = rng.randint(1, 7)
            grid = fraction_grid(rng, rng.randint(1, 7), cols,
                                 BIG_DENOMINATORS)
            assert_same_elimination([_integer_form(v)[0] for v in grid],
                                    cols)

    def test_zero_rows_and_zero_columns(self, rng):
        for _ in range(60):
            rows, cols = rng.randint(2, 7), rng.randint(2, 7)
            m = integer_rows(rng, rows, cols, 0.8)
            m[rng.randrange(rows)] = [0] * cols
            dead = rng.randrange(cols)
            for row in m:
                row[dead] = 0
            assert_same_elimination(m, cols)
        assert_same_elimination([[0, 0, 0], [0, 0, 0]], 3)

    def test_single_row_and_single_column(self, rng):
        for _ in range(40):
            n = rng.randint(1, 12)
            assert_same_elimination(integer_rows(rng, 1, n, 0.6), n)
            assert_same_elimination(integer_rows(rng, n, 1, 0.6), 1)

    def test_transpose_beside_identity(self, rng):
        # [P^T | d I], the shape of the right division, for square P of
        # every rank.
        for _ in range(40):
            n = rng.randint(1, 7)
            p = integer_rows(rng, n, n, rng.random(), rng.randint(0, n))
            d = rng.randint(1, 4)
            assert_same_elimination(
                [list(col) + [d * (j == k) for j in range(n)]
                 for k, col in enumerate(zip(*p))], 2 * n)


class TestKernelAndSolve:
    def test_kernel_of_identity(self):
        assert kernel_basis(Matrix.identity(3)) == []

    def test_kernel_of_diag01(self):
        assert kernel_basis(diagonal([0, 1])) == [
            (Fraction(1), Fraction(0))]

    def test_kernel_of_zero_matrix(self):
        inst = OperatorInstance.of([diagonal([-1, -2])])
        zero = instantiate(P("(x+1)*(x+2)"), inst)
        assert len(kernel_basis(zero)) == 2

    def test_solve_identity(self):
        sol = solve_affine(Matrix.identity(2), [5, -3])
        assert sol.particular == (Fraction(5), Fraction(-3))
        assert sol.kernel_vectors == ()

    def test_solve_infeasible(self):
        assert solve_affine(diagonal([0, 1]), [1, 0]).is_empty()

    def test_solve_with_kernel(self):
        sol = solve_affine(diagonal([0, 1]), [0, 3])
        assert sol.particular == (Fraction(0), Fraction(3))
        assert sol.kernel_vectors == ((Fraction(1), Fraction(0)),)

    def test_range_member(self):
        assert range_member(Matrix.identity(2), [7, 9])
        assert not range_member(diagonal([0, 1]), [1, 0])

    def test_elimination_stress(self):
        rng = random.Random(101)
        for _ in range(120):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            m = random_matrix(rng, rows, cols)
            kb = kernel_basis(m)
            assert rank(m) + len(kb) == cols
            for v in kb:
                assert all(x == 0 for x in m.apply(v))
            # basis vectors are independent by the echelon convention
            assert len(span_basis(kb)) == len(kb)
            f = random_vector(rng, rows, bound=6)
            sol = solve_affine(m, f)
            if not sol.is_empty():
                assert m.apply(sol.particular) == tuple(f)

    def test_solve_matches_kernel_basis(self, rng):
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            zero = [0] * m.rows
            sol = solve_affine(m, zero)
            assert sol.particular == tuple(Fraction(0) for _ in range(m.cols))
            assert list(sol.kernel_vectors) == kernel_basis(m)

    def test_right_sides_share_one_kernel_elimination(self, monkeypatch):
        # The dense pass per right side gives only the particular solution;
        # the kernel is the matrix's own, eliminated once for every f.
        import opkit.backend
        calls = []
        rref = opkit.backend._sparse_rref
        monkeypatch.setattr(opkit.backend, "_sparse_rref",
                            lambda rows: calls.append(1) or rref(rows))
        inst = make_truncated_derivative_instance(2, 4)
        m = instantiate(P("x*y + x", "xy"), inst)
        rng = random.Random(17)
        fs = [m.apply(random_vector(rng, m.cols)) for _ in range(4)]
        assert len(set(fs)) == len(fs)
        solutions = [solve_affine(m, f) for f in fs]
        assert calls == [1]
        kernel = m.factorization.kernel
        assert kernel and calls == [1]
        for sol, f in zip(solutions, fs):
            assert m.apply(sol.particular) == f
            assert len(sol.kernel_vectors) == len(kernel)
            assert all(v is w for v, w in zip(sol.kernel_vectors, kernel))

    def test_determinism(self, rng):
        m = random_matrix(rng, 5, 7)
        assert kernel_basis(m) == kernel_basis(m)

    def test_kernel_basis_under_the_dimension_cap_within_budget(self):
        # x*y + x on the two-variable truncated derivative at dimension
        # 1953, just under DIMENSION_CAP: the kernel is the 62 polynomials
        # in y alone.  About 0.2 to 0.4 s on a 2-CPU x86-64 VM (the dense
        # elimination took 331 s).  Budget: 5 s.
        inst = make_truncated_derivative_instance(2, 62)
        m = instantiate(P("x*y + x", ("x", "y")), inst)
        start = time.perf_counter()
        kernel = kernel_basis(m)
        assert time.perf_counter() - start < 5
        assert inst.dimension == 1953 and len(kernel) == 62
        assert all(not any(m.apply(v)) for v in kernel)

    def test_sympy_oracle_rank_and_nullspace(self, rng):
        import sympy

        for _ in range(25):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                                for v in row] for row in m.row_list()])
            assert rank(m) == sm.rank()
            ours = kernel_basis(m)
            theirs = sm.nullspace()
            assert len(ours) == len(theirs)
            # same span: each sympy vector lies in our span and vice versa
            theirs_tuples = [
                tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in theirs]
            assert spans_equal(ours, theirs_tuples)


class TestSubspaces:
    def test_in_span(self):
        basis = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
        assert in_span(basis, (Fraction(3), Fraction(4)))
        assert not in_span([(Fraction(1), Fraction(0))], (Fraction(0), Fraction(1)))
        assert in_span([], (_ZERO, _ZERO))
        assert not in_span([], (Fraction(1), _ZERO))

    def test_spans_equal(self):
        a = [(Fraction(1), Fraction(1))]
        b = [(Fraction(2), Fraction(2))]
        assert spans_equal(a, b)
        assert not spans_equal(a, [(Fraction(1), Fraction(0))])

    def test_affine_sets_equal(self):
        s1 = AffineSolutionSet((Fraction(1), Fraction(0)),
                               ((Fraction(0), Fraction(1)),))
        s2 = AffineSolutionSet((Fraction(1), Fraction(5)),
                               ((Fraction(0), Fraction(2)),))
        assert affine_sets_equal(s1, s2)
        s3 = AffineSolutionSet((Fraction(0), Fraction(0)), ())
        assert not affine_sets_equal(s1, s3)
        assert affine_sets_equal(AffineSolutionSet(None, ()),
                                 AffineSolutionSet(None, ()))
        s4 = AffineSolutionSet((Fraction(0), Fraction(5)),
                               ((Fraction(0), Fraction(2)),))
        assert not affine_sets_equal(s1, s4)

    def test_eliminations_per_comparison(self, monkeypatch):
        # The reduced-echelon basis is canonical: a span comparison is one
        # elimination per side, and an affine one adds one for the offset.
        import opkit.backend
        calls = []
        rref = opkit.backend._sparse_rref

        def counted(rows):
            rows = list(rows)
            calls.append(len(rows))
            return rref(rows)

        monkeypatch.setattr(opkit.backend, "_sparse_rref", counted)
        rng = random.Random(3)
        kernel = [random_vector(rng, 4) for _ in range(2)]
        mixed = [tuple(a + 2 * b for a, b in zip(*kernel)), kernel[1]]
        assert spans_equal(kernel, mixed)
        assert len(calls) == 2
        calls.clear()
        particular = random_vector(rng, 4)
        shifted = tuple(p + k for p, k in zip(particular, kernel[0]))
        assert affine_sets_equal(AffineSolutionSet(particular, tuple(kernel)),
                                 AffineSolutionSet(shifted, tuple(mixed)))
        assert len(calls) == 3


class TestTruncatedDerivative:
    def test_basis_order(self):
        assert graded_monomials(2, 3) == [
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_k1_depth2(self):
        inst = make_truncated_derivative_instance(1, 2)
        assert inst.dimension == 2
        assert inst.generators[0].to_strings() == [["0", "1"], ["0", "0"]]

    def test_nilpotency(self):
        inst = make_truncated_derivative_instance(2, 4)
        for g in inst.generators:
            power = Matrix.identity(inst.dimension)
            for _ in range(4):
                power = power * g
            assert power.is_zero()

    def test_unipotent_shift_invertible(self):
        inst = make_truncated_derivative_instance(1, 4)
        m = instantiate(P("x+1"), inst)
        assert kernel_basis(m) == []

    def test_generators_commute(self):
        inst = make_truncated_derivative_instance(3, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = inst.generators[i], inst.generators[j]
                assert a * b == b * a

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            make_truncated_derivative_instance(3, 40)

    def test_range_intersection_law(self, rng):
        # range of a product equals the intersection of factor ranges for a
        # pairwise-unit family, brute-forced on random vectors
        inst = OperatorInstance.of([diagonal([0, -1, 3, 0])])
        factors = [P("x"), P("x+1")]
        full = instantiate(product(factors, 1), inst)
        mats = [instantiate(f, inst) for f in factors]
        for _ in range(100):
            f = random_vector(rng, 4, bound=4)
            lhs = range_member(full, f)
            rhs = all(range_member(m, f) for m in mats)
            assert lhs == rhs
