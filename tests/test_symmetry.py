"""Formal symmetries, projectors, generalized symmetries and reconstruction."""

from fractions import Fraction

import pytest

from opkit.backend import (Factorization, Matrix, OperatorInstance,
                           instantiate, kernel_basis, solve_affine, span_basis)
from opkit.certify import (UnivariateSpec, factor_product_complement,
                           univariate_certificate, univariate_factors)
from opkit.errors import InputError, ResourceLimitError, VerificationError
from opkit.poly import product
from opkit.symmetry import (FormalSymmetry, GeneralizedSymmetry, Splitting,
                            enumerate_formal_symmetries,
                            formal_from_generalized, formal_symmetry_stack,
                            generalized_from_formal, is_formal_symmetry,
                            projector)

from conftest import (conjugated_diagonal, diagonal, distinct_fractions,
                      entry, fold_reference, hstack, in_span,
                      induced_kernel_map, same_matrix, slice_reference,
                      solve_right_factor_reference, spans_equal)


def formal_from_generalized_simple(gen, factors, inst):
    """The shorter correspondence S = S_ij P^j, witness P^i S'_ij."""
    p_i = instantiate(factors[gen.i], inst)
    p_j = instantiate(factors[gen.j], inst)
    if not gen.holds_for(p_i, p_j):
        raise InputError("the generalized symmetry identity does not hold")
    pj_comp = instantiate(factor_product_complement(factors, frozenset((gen.j,))), inst)
    pi_comp = instantiate(factor_product_complement(factors, frozenset((gen.i,))), inst)
    out = FormalSymmetry(gen.S_ij * pj_comp, pi_comp * gen.S_prime_ij)
    p_full = instantiate(factor_product_complement(factors, frozenset()), inst)
    if not out.holds_for(p_full):
        raise VerificationError("internal error: reconstructed symmetry failed")
    return out


def diag_setup(lambdas=(1, 2)):
    spec = UnivariateSpec.of(list(lambdas))
    cert = univariate_certificate(spec)
    factors = univariate_factors(spec)
    inst = OperatorInstance.of([diagonal([-1, -2])])
    p_full = instantiate(product(factors, 1), inst)
    return cert, factors, inst, p_full


def solve_right_factor_by_columns(P, C):
    """Reference: X with X P = C from one solve of P^T x = c per row of C."""
    n = P.rows
    pt = Matrix([[entry(P, j, i) for j in range(n)] for i in range(n)])
    rows = []
    for r in range(n):
        sol = solve_affine(pt, [entry(C, r, j) for j in range(n)])
        if sol.is_empty():
            return None
        rows.append(list(sol.particular))
    return Matrix(rows)


def random_grid(rng, rows, cols, bound=3):
    return Matrix([[Fraction(rng.randint(-bound, bound), rng.randint(1, 2))
                    for _ in range(cols)] for _ in range(rows)])


def random_rank(rng, n, rank, bound=3):
    """A random rational n x n matrix of rank at most ``rank``."""
    if not rank:
        return Matrix.zeros(n, n)
    return random_grid(rng, n, rank, bound) * random_grid(rng, rank, n, bound)


class TestIsFormalSymmetry:
    def test_one_elimination_matches_column_solves(self, rng):
        outcomes = set()
        for _ in range(60):
            n = rng.randint(1, 5)
            P = random_rank(rng, n, rng.choice([n, rng.randint(0, n)]))
            C = (random_grid(rng, n, n) * P if rng.random() < 0.5
                 else random_grid(rng, n, n))
            expected = solve_right_factor_by_columns(P, C)
            got = Factorization(P).right_divide(C)
            assert got == expected
            if got is not None:
                assert got * P == C
            outcomes.add((kernel_basis(P) == [], got is None))
        assert {(True, False), (False, False), (False, True)} <= outcomes

    def test_negative_last_pivot_gives_the_canonical_matrix(self):
        # Eliminating [P^T | I] for P = diag(1, -1) meets the pivot -1.
        P = diagonal([1, -1])
        C = Matrix([[Fraction(1, 2), 3], [0, Fraction(-5, 7)]])
        got = Factorization(P).right_divide(C)
        want = Matrix([[Fraction(1, 2), -3], [0, Fraction(5, 7)]])
        assert same_matrix(got, want)
        assert got.to_strings() == [["1/2", "-3"], ["0", "5/7"]]
        assert same_matrix(got, solve_right_factor_reference(P, C))

    def test_division_witness_matches_per_call_elimination(self, rng):
        # One division of P serves every right side C, and gives the same
        # matrix as eliminating [P^T | C^T] for each C: singular,
        # invertible and zero P, negative pivots and determinants, C inside
        # and outside the row space of P.
        fixed = [Matrix.zeros(3, 3), diagonal([1, -1]),
                 diagonal([-3, 0, Fraction(-1, 2)]),
                 Matrix([[0, -2], [Fraction(-3, 5), 0]]),
                 Matrix([[1, 1], [1, 1]])]
        cases = fixed + [random_rank(rng, n, rng.randint(0, n))
                         for n in (1, 2, 3, 4, 5, 6, 6) for _ in range(6)]
        seen = set()
        for P in cases:
            n = P.rows
            division = P.factorization
            for _ in range(6):
                kind = rng.choice(["inside", "outside", "zero"])
                C = {"inside": lambda: random_grid(rng, n, n) * P,
                     "outside": lambda: random_grid(rng, n, n),
                     "zero": lambda: Matrix.zeros(n, n)}[kind]()
                got = division.right_divide(C)
                assert same_matrix(got, solve_right_factor_reference(P, C))
                if kind != "outside":
                    assert got is not None and got * P == C
                seen.add((P.is_zero(), bool(kernel_basis(P)), got is None))
                S = random_grid(rng, n, n)
                assert same_matrix(is_formal_symmetry(S, P),
                                   solve_right_factor_reference(P, P * S))
        assert {(True, True, False), (False, False, False),
                (False, True, False), (False, True, True)} <= seen

    def test_stack_divides_block_by_block(self, rng):
        # A stack [C_1 | ... | C_N] divides to the stack of the blocks'
        # quotients, or None when any block has none; is_formal_symmetry on
        # a stack gives the stack of the witnesses.
        outcomes = set()
        for _ in range(40):
            n = rng.randint(1, 5)
            P = random_rank(rng, n, rng.choice([n, rng.randint(0, n)]))
            fact = P.factorization
            blocks = [random_grid(rng, n, n) * P if rng.random() < 0.7
                      else random_grid(rng, n, n)
                      for _ in range(rng.randint(1, 4))]
            quotients = [fact.right_divide(C) for C in blocks]
            got = fact.right_divide(hstack(blocks))
            if None in quotients:
                assert got is None
            else:
                assert same_matrix(got, hstack(quotients))
            S = [random_grid(rng, n, n) for _ in blocks]
            witnesses = [is_formal_symmetry(s, P) for s in S]
            got = is_formal_symmetry(hstack(S), P)
            if None in witnesses:
                assert got is None
            else:
                assert same_matrix(got, hstack(witnesses))
                assert FormalSymmetry(hstack(S), got).holds_for(P)
            outcomes.add((len(blocks) > 1, None in quotients))
        assert {(True, True), (True, False)} <= outcomes
        with pytest.raises(InputError):
            Factorization(Matrix.identity(2)).right_divide(Matrix.zeros(2, 3))
        with pytest.raises(InputError):
            is_formal_symmetry(Matrix.zeros(2, 3), Matrix.identity(2))

    def test_identity_always_works(self):
        for p in (Matrix.identity(2), diagonal([0, 1]), Matrix.zeros(2, 2)):
            w = is_formal_symmetry(Matrix.identity(2), p)
            assert w is not None
            assert p * Matrix.identity(2) == w * p

    def test_identity_witness_unique_for_invertible(self):
        p = diagonal([1, 2])
        assert is_formal_symmetry(Matrix.identity(2), p) == Matrix.identity(2)

    def test_p_is_its_own_symmetry(self):
        p = diagonal([0, 1])
        w = is_formal_symmetry(p, p)
        assert w is not None and p * p == w * p

    def test_kernel_containment_criterion(self):
        p = diagonal([0, 1])
        # S e0 = 0 lies in the kernel: solvable
        assert is_formal_symmetry(Matrix([[0, 1], [0, 0]]), p) is not None
        # S e0 = e1 leaves the kernel: no witness
        assert is_formal_symmetry(Matrix([[0, 0], [1, 0]]), p) is None

    def test_random_agreement_with_enumeration(self, rng):
        p = diagonal([0, 0, 2])
        basis = enumerate_formal_symmetries(p)
        for s in basis:
            assert is_formal_symmetry(s, p) is not None
        # a matrix outside the space has no witness
        outside = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        flat_basis = [tuple(v for row in m.row_list() for v in row) for m in basis]
        flat_out = tuple(v for row in outside.row_list() for v in row)
        assert not in_span(flat_basis, flat_out)
        assert is_formal_symmetry(outside, p) is None


def enumerate_by_constraints(P):
    """Reference basis: the nullspace of the n^2-column constraint system
    P S v = 0 for every kernel basis vector v, in the unknowns S[b][c]
    flattened as b*n + c, reshaped."""
    n = P.rows
    constraint_rows = [[0] * (n * n)]
    for v in kernel_basis(P):
        for a in range(n):
            row = [0] * (n * n)
            for b in range(n):
                pab = entry(P, a, b)
                if pab:
                    for c in range(n):
                        if v[c]:
                            row[b * n + c] = pab * v[c]
            constraint_rows.append(row)
    return [Matrix([vec[b * n:(b + 1) * n] for b in range(n)])
            for vec in kernel_basis(Matrix(constraint_rows))]


class TestEnumerate:
    def test_kronecker_basis_matches_constraint_elimination(self, rng):
        # Invertible (empty kernel), zero, rank 1, rank-deficient rational
        # and nilpotent P, n from 1 to 12, element for element.
        nilpotent = Matrix([[int(j == i + 1) for j in range(5)]
                            for i in range(5)])
        cases = [Matrix.identity(3), Matrix.zeros(4, 4), nilpotent,
                 diagonal([Fraction(-2, 3), 0, 5, 0]),
                 random_rank(rng, 12, 1), random_rank(rng, 10, 7)]
        for _ in range(30):
            n = rng.randint(1, 6)
            cases.append(random_rank(rng, n, rng.choice(
                [1, n, rng.randint(0, n)])))
        kernel_dims = set()
        for P in cases:
            got = enumerate_formal_symmetries(P)
            want = enumerate_by_constraints(P)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert same_matrix(a, b)
            d, n = len(kernel_basis(P)), P.rows
            assert len(got) == n * n - d * (n - d)
            kernel_dims.add((d == 0, d == n - 1, d == n))
        assert {(True, False, False), (False, True, False),
                (False, False, True)} <= kernel_dims

    def test_one_factorization_serves_kernel_basis_and_witnesses(
            self, monkeypatch):
        # P's one factorization, built on first use, serves its kernel,
        # kernel_basis, the basis and every witness: P is eliminated once
        # for the echelon form (3 columns) and once for the division (6).
        import opkit.backend
        P = Matrix([[1, 2, 3], [2, 4, 6], [0, 0, Fraction(1, 2)]])
        calls = []
        rref = opkit.backend._sparse_rref

        def counted(rows):
            # The width of the rows is their last nonzero column plus one.
            rows = list(rows)
            calls.append(1 + max(j for row in rows for j, _ in row))
            return rref(rows)

        monkeypatch.setattr(opkit.backend, "_sparse_rref", counted)
        assert P.factorization is P.factorization
        assert P.factorization.kernel == kernel_basis(P)
        stack = formal_symmetry_stack(P)
        assert is_formal_symmetry(stack, P) is not None
        basis = enumerate_formal_symmetries(P)
        for S in basis:
            assert is_formal_symmetry(S, P) is not None
        assert sorted(calls) == [3, 6]
        assert same_matrix(stack, hstack(basis))
        # A matrix equal to P but built apart has its own factorization.
        twin = Matrix(P.row_list())
        assert twin == P and twin.factorization is not P.factorization
        assert twin.factorization.kernel == P.factorization.kernel
        assert sorted(calls) == [3, 3, 6]

    def test_invertible_gives_full_space(self):
        assert len(enumerate_formal_symmetries(Matrix.identity(2))) == 4

    def test_zero_gives_full_space(self):
        assert len(enumerate_formal_symmetries(Matrix.zeros(2, 2))) == 4

    def test_diag01_dimension_three(self):
        basis = enumerate_formal_symmetries(diagonal([0, 1]))
        assert len(basis) == 3
        for s in basis:
            assert is_formal_symmetry(s, diagonal([0, 1])) is not None

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_formal_symmetries(Matrix.identity(13))


class TestProjectors:
    def test_projection_onto_axis(self):
        cert, factors, inst, p_full = diag_setup()
        pr0 = projector(cert, 0, factors, inst)
        assert pr0 == Matrix([[1, 0], [0, 0]])
        assert pr0 * pr0 == pr0

    def test_projectors_sum_to_identity_on_kernel(self):
        cert, factors, inst, p_full = diag_setup()
        kernel = kernel_basis(p_full)
        total = projector(cert, 0, factors, inst) + projector(cert, 1, factors, inst)
        for v in kernel:
            assert total.apply(v) == v

    def test_cross_products_vanish_on_kernel(self):
        cert, factors, inst, p_full = diag_setup()
        pr0 = projector(cert, 0, factors, inst)
        pr1 = projector(cert, 1, factors, inst)
        for v in kernel_basis(p_full):
            assert all(x == 0 for x in (pr0 * pr1).apply(v))


class TestGeneralized:
    def test_identity_decomposes(self):
        cert, factors, inst, p_full = diag_setup()
        sym = FormalSymmetry(Matrix.identity(2),
                             is_formal_symmetry(Matrix.identity(2), p_full))
        g01 = generalized_from_formal(sym, cert, 0, 1, factors, inst)
        p0 = instantiate(factors[0], inst)
        p1 = instantiate(factors[1], inst)
        assert g01.holds_for(p0, p1)
        # S_01 kills the kernel of P_1 inside the kernel of P (projectors
        # onto different axes compose to zero here)
        for v in kernel_basis(p1):
            assert all(x == 0 for x in (g01.S_ij * p1).apply(v))

    def test_diagonal_slice_acts_as_identity(self):
        cert, factors, inst, p_full = diag_setup()
        sym = FormalSymmetry(Matrix.identity(2),
                             is_formal_symmetry(Matrix.identity(2), p_full))
        g00 = generalized_from_formal(sym, cert, 0, 0, factors, inst)
        p0 = instantiate(factors[0], inst)
        for v in kernel_basis(p0):
            assert g00.S_ij.apply(v) == v

    def test_maps_factor_kernels(self, rng):
        lambdas = distinct_fractions(rng, 2, bound=3)
        spec = UnivariateSpec.of(lambdas)
        cert = univariate_certificate(spec)
        factors = univariate_factors(spec)
        eigs = [-lambdas[0], -lambdas[0], -lambdas[1], Fraction(7)]
        inst = OperatorInstance.of([conjugated_diagonal(rng, eigs)])
        p_full = instantiate(product(factors, 1), inst)
        basis = enumerate_formal_symmetries(p_full)
        s = basis[rng.randrange(len(basis))]
        sym = FormalSymmetry(s, is_formal_symmetry(s, p_full))
        for i in (0, 1):
            for j in (0, 1):
                gen = generalized_from_formal(sym, cert, i, j, factors, inst)
                p_i = instantiate(factors[i], inst)
                p_j = instantiate(factors[j], inst)
                assert gen.holds_for(p_i, p_j)
                for v in kernel_basis(p_j):
                    image = gen.S_ij.apply(v)
                    assert all(x == 0 for x in p_i.apply(image))

    def test_operator_slices_itself(self):
        cert, factors, inst, p_full = diag_setup((0, 1))
        sym = FormalSymmetry(p_full, is_formal_symmetry(p_full, p_full))
        for i in (0, 1):
            for j in (0, 1):
                gen = generalized_from_formal(sym, cert, i, j, factors, inst)
                assert gen.holds_for(instantiate(factors[i], inst),
                                     instantiate(factors[j], inst))

    def test_certificate_checked_once_per_call(self, monkeypatch):
        import opkit.certify
        cert, factors, inst, p_full = diag_setup()
        sym = FormalSymmetry(Matrix.identity(2),
                             is_formal_symmetry(Matrix.identity(2), p_full))
        calls = []
        verify = opkit.certify.verify_certificate

        def counted(*args):
            calls.append(1)
            return verify(*args)

        monkeypatch.setattr(opkit.certify, "verify_certificate", counted)
        generalized_from_formal(sym, cert, 0, 1, factors, inst)
        assert len(calls) == 1
        projector(cert, 0, factors, inst)
        assert len(calls) == 2

    @pytest.mark.parametrize("index", [-1, 2, 7])
    @pytest.mark.parametrize("call, position", [
        ("projector", 0), ("slice", 0), ("slice", 1), ("fold", 0),
        ("fold", 1)])
    def test_factor_index_outside_range_is_refused(self, call, position,
                                                   index):
        # Two factors: 0 and 1 are the only indices; -1 must not wrap
        # round to the last factor.
        cert, factors, inst, p_full = diag_setup()
        pair = [0, 1]
        pair[position] = index
        zero = Matrix.zeros(2, 2)
        sym = FormalSymmetry(Matrix.identity(2),
                             is_formal_symmetry(Matrix.identity(2), p_full))
        with pytest.raises(InputError, match="factor index"):
            if call == "projector":
                projector(cert, index, factors, inst)
            elif call == "slice":
                generalized_from_formal(sym, cert, *pair, factors, inst)
            else:
                formal_from_generalized(
                    GeneralizedSymmetry(*pair, zero, zero), cert, factors,
                    inst)

    def test_requires_formal_symmetry(self):
        cert, factors, inst, p_full = diag_setup((0, 1))
        bad = Matrix([[0, 0], [1, 0]])  # moves the kernel of P
        with pytest.raises(InputError):
            generalized_from_formal(FormalSymmetry(bad, Matrix.zeros(2, 2)),
                                    cert, 0, 1, factors, inst)


class TestReconstruction:
    def test_zero_reconstructs_to_zero(self):
        cert, factors, inst, p_full = diag_setup()
        gen = GeneralizedSymmetry(0, 1, Matrix.zeros(2, 2), Matrix.zeros(2, 2))
        back = formal_from_generalized(gen, cert, factors, inst)
        assert back.S.is_zero()
        assert back.holds_for(p_full)

    def test_round_trip_random(self, rng):
        cert, factors, inst, p_full = diag_setup((0, 1))
        basis = enumerate_formal_symmetries(p_full)
        for _ in range(20):
            s = basis[rng.randrange(len(basis))]
            sym = FormalSymmetry(s, is_formal_symmetry(s, p_full))
            for i in (0, 1):
                for j in (0, 1):
                    gen = generalized_from_formal(sym, cert, i, j, factors, inst)
                    back = formal_from_generalized(gen, cert, factors, inst)
                    assert back.holds_for(p_full)

    def test_simple_correspondence(self, rng):
        cert, factors, inst, p_full = diag_setup((0, 1))
        basis = enumerate_formal_symmetries(p_full)
        s = basis[0]
        sym = FormalSymmetry(s, is_formal_symmetry(s, p_full))
        gen = generalized_from_formal(sym, cert, 0, 1, factors, inst)
        simple = formal_from_generalized_simple(gen, factors, inst)
        assert simple.holds_for(p_full)


def random_splitting(rng, factor_count, dim):
    """The Splitting of a singleton-certified product of ``factor_count``
    linear factors on a V D V^-1 instance of side ``dim`` whose eigenvalues
    are mostly roots of the factors."""
    lambdas = distinct_fractions(rng, factor_count, bound=3)
    spec = UnivariateSpec.of(lambdas)
    cert = univariate_certificate(spec)
    factors = univariate_factors(spec)
    eigs = [-rng.choice(lambdas) for _ in range(dim - 1)]
    eigs.append(rng.choice([Fraction(9), -lambdas[0]]))
    inst = OperatorInstance.of([conjugated_diagonal(rng, eigs)])
    return Splitting.of(cert, factors, inst)


class TestStackedDecomposition:
    def test_blocks_match_single_element_slices_and_folds(self, rng):
        # Every block of the stacked decomposition, and Splitting.slice and
        # Splitting.fold on that element alone, are the plain products
        # Pr_i S Pr_j, Q_i S' Pr_j P^j, S_ij Pr_j and P^i S'_ij Q_j on the
        # element, in value and stored form, on the enumerated basis, a
        # rational combination of it and a scaled element (so the blocks
        # have different denominators).
        shapes = set()
        for trial in range(12):
            factor_count = 2 if trial % 2 else 3
            splitting = random_splitting(rng, factor_count, rng.randint(2, 6))
            P = splitting.P
            fact = P.factorization
            basis = enumerate_formal_symmetries(P)
            combination = Matrix.zeros(P.rows, P.rows)
            for S in basis:
                combination = combination + S.scale(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            elements = basis + [combination,
                                basis[-1].scale(Fraction(-2, 7))]
            stack = hstack(elements)
            witness = is_formal_symmetry(stack, P)
            singles = [FormalSymmetry(S, is_formal_symmetry(S, P))
                       for S in elements]
            for got, one in zip(witness.hsplit(len(elements)), singles):
                assert same_matrix(got, one.S_prime)
            pieces = list(splitting.decompose(FormalSymmetry(stack, witness)))
            assert [(g.i, g.j) for g, _ in pieces] == [
                (i, j) for i in range(factor_count)
                for j in range(factor_count)]
            for gen, back in pieces:
                columns = [m.hsplit(len(elements)) for m in
                           (gen.S_ij, gen.S_prime_ij, back.S, back.S_prime)]
                for k, one in enumerate(singles):
                    want = slice_reference(splitting, one.S, one.S_prime,
                                           gen.i, gen.j)
                    want += fold_reference(splitting, gen.i, gen.j, *want)
                    sliced = splitting.slice(one, gen.i, gen.j)
                    folded = splitting.fold(sliced)
                    got = (sliced.S_ij, sliced.S_prime_ij, folded.S,
                           folded.S_prime)
                    for blocks, g, w in zip(columns, got, want):
                        assert same_matrix(blocks[k], w)
                        assert same_matrix(g, w)
            shapes.add((factor_count, len(fact.kernel) > 0))
        assert {(2, True), (3, True)} <= shapes


class TestGeneration:
    def test_span_of_reconstructions_covers_induced_maps(self, rng):
        for _ in range(5):
            lambdas = distinct_fractions(rng, 2, bound=3)
            spec = UnivariateSpec.of(lambdas)
            cert = univariate_certificate(spec)
            factors = univariate_factors(spec)
            dim = rng.randint(3, 5)
            eigs = [-rng.choice(lambdas) for _ in range(dim - 1)]
            eigs.append(Fraction(9))
            inst = OperatorInstance.of([conjugated_diagonal(rng, eigs)])
            p_full = instantiate(product(factors, 1), inst)
            kernel = p_full.factorization.kernel
            assert kernel
            basis = enumerate_formal_symmetries(p_full)
            induced = []
            rebuilt = []
            for s in basis:
                sym = FormalSymmetry(s, is_formal_symmetry(s, p_full))
                induced.append(induced_kernel_map(s, p_full))
                for i in range(2):
                    for j in range(2):
                        gen = generalized_from_formal(sym, cert, i, j,
                                                      factors, inst)
                        back = formal_from_generalized(gen, cert, factors, inst)
                        rebuilt.append(induced_kernel_map(back.S, p_full))
            flat = lambda ms: [tuple(v for row in m.row_list() for v in row)
                               for m in ms]
            d = len(kernel)
            assert len(span_basis(flat(induced))) == d * d
            assert spans_equal(flat(induced), flat(rebuilt))

    def test_induced_map_takes_the_factorization(self, monkeypatch):
        # The induced map reads P's kept factorization: once the basis is
        # built, it eliminates nothing more.
        import opkit.backend
        P = Matrix([[1, 2, 3], [2, 4, 6], [0, 0, Fraction(1, 2)]])
        S = enumerate_formal_symmetries(P)[0]
        want = induced_kernel_map(S, Matrix(P.row_list()))
        calls = []
        rref = opkit.backend._sparse_rref
        monkeypatch.setattr(
            opkit.backend, "_sparse_rref",
            lambda rows: calls.append(1) or rref(rows))
        assert same_matrix(induced_kernel_map(S, P), want)
        assert calls == []
        with pytest.raises(InputError):
            induced_kernel_map(Matrix.identity(2), Matrix.identity(2))
