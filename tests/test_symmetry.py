"""Formal symmetries, projectors, generalized symmetries and reconstruction."""

from fractions import Fraction

import pytest

from opkit.backend import (Matrix, OperatorInstance, instantiate, kernel_basis,
                           solve_affine, span_basis, spans_equal,
                           _solve_right_factor)
from opkit.certify import (UnivariateSpec, factor_product_complement,
                           univariate_certificate, univariate_factors)
from opkit.errors import InputError, ResourceLimitError, VerificationError
from opkit.poly import product
from opkit.symmetry import (FormalSymmetry, GeneralizedSymmetry,
                            enumerate_formal_symmetries,
                            formal_from_generalized,
                            generalized_from_formal, induced_kernel_map,
                            is_formal_symmetry, projector)

from conftest import conjugated_diagonal, distinct_fractions


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
    inst = OperatorInstance.of([Matrix.diagonal([-1, -2])])
    p_full = instantiate(product(factors, 1), inst)
    return cert, factors, inst, p_full


def solve_right_factor_by_columns(P, C):
    """Reference: X with X P = C from one solve of P^T x = c per row of C."""
    n = P.rows
    pt = Matrix([[P.entry(j, i) for j in range(n)] for i in range(n)])
    rows = []
    for r in range(n):
        sol = solve_affine(pt, [C.entry(r, j) for j in range(n)])
        if sol.is_empty():
            return None
        rows.append(list(sol.particular))
    return Matrix(rows)


def random_grid(rng, rows, cols, bound=3):
    return Matrix([[Fraction(rng.randint(-bound, bound), rng.randint(1, 2))
                    for _ in range(cols)] for _ in range(rows)])


class TestIsFormalSymmetry:
    def test_one_elimination_matches_column_solves(self, rng):
        outcomes = set()
        for _ in range(60):
            n = rng.randint(1, 5)
            rank = rng.choice([n, rng.randint(0, n)])
            P = (random_grid(rng, n, rank) * random_grid(rng, rank, n)
                 if rank else Matrix.zeros(n, n))
            C = (random_grid(rng, n, n) * P if rng.random() < 0.5
                 else random_grid(rng, n, n))
            expected = solve_right_factor_by_columns(P, C)
            got = _solve_right_factor(P, C)
            assert got == expected
            if got is not None:
                assert got * P == C
            outcomes.add((kernel_basis(P) == [], got is None))
        assert {(True, False), (False, False), (False, True)} <= outcomes

    def test_negative_last_pivot_gives_the_canonical_matrix(self):
        # Eliminating [P^T | C^T] for P = diag(1, -1) ends on the pivot -1.
        P = Matrix.diagonal([1, -1])
        C = Matrix([[Fraction(1, 2), 3], [0, Fraction(-5, 7)]])
        got = _solve_right_factor(P, C)
        want = Matrix([[Fraction(1, 2), -3], [0, Fraction(5, 7)]])
        assert got == want and hash(got) == hash(want)
        assert got.to_strings() == [["1/2", "-3"], ["0", "5/7"]]

    def test_identity_always_works(self):
        for p in (Matrix.identity(2), Matrix.diagonal([0, 1]), Matrix.zeros(2, 2)):
            w = is_formal_symmetry(Matrix.identity(2), p)
            assert w is not None
            assert p * Matrix.identity(2) == w * p

    def test_identity_witness_unique_for_invertible(self):
        p = Matrix.diagonal([1, 2])
        assert is_formal_symmetry(Matrix.identity(2), p) == Matrix.identity(2)

    def test_p_is_its_own_symmetry(self):
        p = Matrix.diagonal([0, 1])
        w = is_formal_symmetry(p, p)
        assert w is not None and p * p == w * p

    def test_kernel_containment_criterion(self):
        p = Matrix.diagonal([0, 1])
        # S e0 = 0 lies in the kernel: solvable
        assert is_formal_symmetry(Matrix([[0, 1], [0, 0]]), p) is not None
        # S e0 = e1 leaves the kernel: no witness
        assert is_formal_symmetry(Matrix([[0, 0], [1, 0]]), p) is None

    def test_random_agreement_with_enumeration(self, rng):
        p = Matrix.diagonal([0, 0, 2])
        basis = enumerate_formal_symmetries(p)
        for s in basis:
            assert is_formal_symmetry(s, p) is not None
        # a matrix outside the space has no witness
        outside = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        flat_basis = [tuple(v for row in m.row_list() for v in row) for m in basis]
        flat_out = tuple(v for row in outside.row_list() for v in row)
        from opkit.backend import in_span
        assert not in_span(flat_basis, flat_out)
        assert is_formal_symmetry(outside, p) is None


class TestEnumerate:
    def test_invertible_gives_full_space(self):
        assert len(enumerate_formal_symmetries(Matrix.identity(2))) == 4

    def test_zero_gives_full_space(self):
        assert len(enumerate_formal_symmetries(Matrix.zeros(2, 2))) == 4

    def test_diag01_dimension_three(self):
        basis = enumerate_formal_symmetries(Matrix.diagonal([0, 1]))
        assert len(basis) == 3
        for s in basis:
            assert is_formal_symmetry(s, Matrix.diagonal([0, 1])) is not None

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
            kernel = kernel_basis(p_full)
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
