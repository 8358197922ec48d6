"""Splitting problems with certificates: maps B and F, kernel structure,
constrained systems."""

import dataclasses
from fractions import Fraction

import pytest

from opkit.backend import (Matrix, OperatorInstance, affine_sets_equal,
                           instantiate, kernel_basis, solve_affine)
from opkit.certify import (Certificate, UnivariateSpec,
                           univariate_certificate, univariate_factors,
                           verify_certificate)
from opkit.errors import InputError, IntegrabilityError, VerificationError
from opkit.planner import SetSystem
from opkit.poly import Polynomial, parse_polynomial, product
from opkit.reducer import (build_report, find_system_certificate,
                           integrability_violations, kernel_structure, map_B,
                           map_F, recombined_solution_set, split,
                           system_map_B, system_map_F, system_split,
                           verify_system_certificate)
from opkit.symmetry import Splitting

from conftest import (all_hold, conjugated_diagonal, diagonal,
                      distinct_fractions, random_vector,
                      recombination_is_identity)


def P(text, variables=("x",)):
    return parse_polynomial(text, list(variables))


def diag_instance():
    return OperatorInstance.of([diagonal([-1, -2])])


def univariate_setup(lambdas=(1, 2)):
    spec = UnivariateSpec.of(list(lambdas))
    return univariate_certificate(spec), univariate_factors(spec)


class TestSplit:
    def test_invertible_single_factor(self):
        cert = Certificate(
            SetSystem.of(0, [[]]),
            {frozenset(): Polynomial.one(1)})
        factors = [P("1")]
        report, sols = split(cert, factors, ["x"],
                             OperatorInstance.of([Matrix.identity(2)]), [3, 4])
        only = sols[frozenset()]
        assert only.particular == (Fraction(3), Fraction(4))

    def test_demo_factor_split_shape(self):
        from opkit.certify import dual_certificate, dual_to_alpha
        from opkit.planner import beta_min
        V = ["x", "y"]
        factors = [P("x+1", V), P("x*y+y+1", V), P("x", V),
                   P("x^2+x*y+x+y-1", V)]
        cert = dual_to_alpha(dual_certificate(factors, beta_min(factors)), factors)
        report = build_report(cert, factors, V)
        assert report.alpha.canonical() == [[0], [1, 2], [1, 3], [2, 3]]
        equations = [report.subproblems[frozenset(J)]
                     for J in ([0], [1, 2], [1, 3], [2, 3])]
        assert equations == [
            "P0 u_{0} = f",
            "P1*P2 u_{1,2} = f",
            "P1*P3 u_{1,3} = f",
            "P2*P3 u_{2,3} = f",
        ]
        assert not report.disjoint

    def test_univariate_split_solves(self):
        cert, factors = univariate_setup((0, 1))
        inst = diag_instance()
        f = (Fraction(0), Fraction(6))  # in the range of D(D+1) = diag(0, 2)
        _, sols = split(cert, factors, ["x"], inst, f)
        for J, sol in sols.items():
            m = instantiate(product([factors[j] for j in sorted(J)], 1), inst)
            assert m.apply(sol.particular) == f

    def test_instance_without_f_rejected(self):
        cert, factors = univariate_setup()
        with pytest.raises(InputError, match="without a right-hand side"):
            split(cert, factors, ["x"], diag_instance())

    def test_bad_certificate_rejected(self):
        cert, factors = univariate_setup()
        tweaked = dict(cert.cofactors)
        J = frozenset((0,))
        tweaked[J] = tweaked[J] + Polynomial.one(1)
        with pytest.raises(VerificationError):
            split(Certificate(cert.alpha, tweaked), factors, ["x"])


class TestMaps:
    def test_zero_maps_to_zero(self):
        cert, factors = univariate_setup()
        inst = diag_instance()
        parts = {frozenset((0,)): [0, 0], frozenset((1,)): [0, 0]}
        assert map_B(cert, factors, inst, parts, f=[0, 0]) == (
            Fraction(0), Fraction(0))

    def test_BF_identity_on_whole_space(self, rng):
        cert, factors = univariate_setup()
        inst = diag_instance()
        assert recombination_is_identity(cert, factors, inst)
        for _ in range(100):
            u = random_vector(rng, 2)
            parts = map_F(cert, factors, inst, u)
            assert map_B(cert, factors, inst, parts) == tuple(u)

    def test_recombined_zeros_are_the_shared_zero(self):
        from opkit.backend import _ZERO
        cert, factors = univariate_setup((0, 1))
        inst = OperatorInstance.of([diagonal([0, -1, 5, 2])])
        u = (Fraction(3), Fraction(0), Fraction(-2), Fraction(0))
        out = map_B(cert, factors, inst, map_F(cert, factors, inst, u))
        assert out == u
        assert out[1] is _ZERO and out[3] is _ZERO

    def test_FB_identity_on_disjoint_solution_tuples(self, rng):
        cert, factors = univariate_setup((0, 1))
        d = conjugated_diagonal(rng, [Fraction(0), Fraction(0), Fraction(-1), Fraction(2)])
        inst = OperatorInstance.of([d])
        p_full = instantiate(product(factors, 1), inst)
        for _ in range(20):
            u = random_vector(rng, 4)
            f = p_full.apply(u)
            _, sols = split(cert, factors, ["x"], inst, f)
            parts = {}
            for J, sol in sols.items():
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in sol.kernel_vectors]
                vec = list(sol.particular)
                for c, k in zip(coeffs, sol.kernel_vectors):
                    vec = [a + c * b for a, b in zip(vec, k)]
                parts[J] = tuple(vec)
            u_rec = map_B(cert, factors, inst, parts, f=f)
            assert p_full.apply(u_rec) == tuple(f)
            back = map_F(cert, factors, inst, u_rec)
            assert back == parts

    def test_checked_inputs(self):
        cert, factors = univariate_setup()
        inst = diag_instance()
        parts = {frozenset((0,)): [1, 1], frozenset((1,)): [0, 0]}
        with pytest.raises(InputError):
            map_B(cert, factors, inst, parts, f=[0, 0])
        with pytest.raises(InputError, match="cover alpha"):
            map_B(cert, factors, inst, {frozenset((0,)): [1, 1]})


class TestSolutionSets:
    def test_recombined_equals_direct(self, rng):
        for _ in range(10):
            lambdas = distinct_fractions(rng, 2, bound=3)
            cert, factors = univariate_setup(lambdas)
            eigs = [-lambdas[0], -lambdas[1], -lambdas[0], Fraction(5)]
            inst = OperatorInstance.of([conjugated_diagonal(rng, eigs)])
            p_full = instantiate(product(factors, 1), inst)
            u = random_vector(rng, 4)
            f = p_full.apply(u)
            direct = solve_affine(p_full, f)
            _, sols = split(cert, factors, ["x"], inst, f)
            recombined = recombined_solution_set(cert, factors, inst, sols)
            assert affine_sets_equal(direct, recombined)

    def test_unsolvable_subproblem_leaves_no_solution(self):
        # x and x + 1 on diag(-1, -2): P_{1} = diag(0, -1) misses f = (1, 0),
        # and so does P = diag(0, 2).
        cert, factors = univariate_setup((0, 1))
        inst = diag_instance()
        f = (Fraction(1), Fraction(0))
        _, sols = split(cert, factors, ["x"], inst, f)
        assert sols[frozenset((1,))].is_empty()
        assert recombined_solution_set(cert, factors, inst, sols).is_empty()
        p_full = instantiate(product(factors, 1), inst)
        assert solve_affine(p_full, f).is_empty()

    def test_homogeneous_case(self, rng):
        cert, factors = univariate_setup((0, 2))
        inst = OperatorInstance.of([conjugated_diagonal(
            rng, [Fraction(0), Fraction(-2), Fraction(1)])])
        p_full = instantiate(product(factors, 1), inst)
        zero = [Fraction(0)] * 3
        direct = solve_affine(p_full, zero)
        _, sols = split(cert, factors, ["x"], inst, zero)
        recombined = recombined_solution_set(cert, factors, inst, sols)
        assert affine_sets_equal(direct, recombined)


class TestKernelStructure:
    def test_diagonal_example(self):
        cert, factors = univariate_setup()
        report = kernel_structure(cert, factors, diag_instance())
        assert report.kernel_dim == 2
        assert report.factor_kernel_dims == (1, 1)
        assert all_hold(report)

    def test_invertible_product(self):
        cert, factors = univariate_setup((5, 7))
        report = kernel_structure(cert, factors, diag_instance())
        assert report.kernel_dim == 0
        assert all_hold(report)

    def test_not_true_decomposition_rejected(self):
        cert, factors = univariate_setup()
        merged = Certificate(
            SetSystem.of(1, [[0, 1]]),
            {frozenset((0, 1)): Polynomial.one(1)})
        with pytest.raises(InputError):
            kernel_structure(merged, factors, diag_instance())

    def test_verified_non_singleton_certificate_rejected(self):
        # 1 = -x/2 * (x+3) + 1/2 * (x+1)(x+2): a true certificate over
        # alpha = {{0, 1}, {2}}, which is not the singleton family
        factors = [P("x+1"), P("x+2"), P("x+3")]
        cert = Certificate(
            SetSystem.of(2, [[0, 1], [2]]),
            {frozenset((0, 1)): P("-1/2*x"), frozenset((2,)): P("1/2")})
        assert verify_certificate(cert, factors)[0]
        with pytest.raises(InputError, match="singleton-family"):
            kernel_structure(cert, factors, diag_instance())

    def test_random_conjugated_instances(self, rng):
        for _ in range(50):
            lambdas = distinct_fractions(rng, rng.randint(2, 3), bound=4)
            cert, factors = univariate_setup(lambdas)
            dim = rng.randint(3, 5)
            eigs = [-rng.choice(lambdas) for _ in range(dim - 1)]
            eigs.append(Fraction(rng.randint(9, 12)))
            inst = OperatorInstance.of([conjugated_diagonal(rng, eigs)])
            report = kernel_structure(cert, factors, inst)
            assert all_hold(report)


    def test_projector_checks_match_vector_by_vector(self, rng,
                                                     monkeypatch):
        # The three projector checks, made with one product each against
        # the kernel matrix K, give the values of checking every kernel
        # basis vector apart, also when a projector is replaced so that a
        # check fails, and for a trivial kernel.
        import opkit.reducer
        of = Splitting.of
        seen = set()
        for trial in range(24):
            lambdas = distinct_fractions(rng, rng.randint(2, 3), bound=4)
            cert, factors = univariate_setup(lambdas)
            dim = rng.randint(2, 4)
            eigs = [-rng.choice(lambdas) for _ in range(dim - 1)]
            eigs.append(Fraction(rng.choice([9, -lambdas[0]])))
            if trial % 8 == 0:
                eigs = [Fraction(9 + i) for i in range(dim)]
            inst = OperatorInstance.of([conjugated_diagonal(rng, eigs)])
            splitting = of(cert, factors, inst)
            pr = list(splitting.projectors)
            change = trial % 4
            if change == 1:
                pr[0] = pr[0].scale(2)
            elif change == 2:
                pr[0], pr[1] = pr[1], pr[0]
            elif change == 3:
                pr[0] = Matrix.identity(dim)
            changed = dataclasses.replace(splitting, projectors=tuple(pr))
            monkeypatch.setattr(opkit.reducer.Splitting, "of",
                                lambda *args: changed)
            report = kernel_structure(cert, factors, inst)
            monkeypatch.setattr(opkit.reducer.Splitting, "of", of)
            want = projector_checks_by_vectors(changed)
            got = (report.projectors_idempotent,
                   report.projectors_land_in_factor_kernels,
                   report.projectors_sum_to_identity)
            assert got == want
            seen.add((report.kernel_dim == 0, got))
        assert {(True, (True, True, True)), (False, (True, True, True)),
                (False, (False, True, False)), (False, (True, False, True)),
                (False, (True, False, False))} <= seen


def projector_checks_by_vectors(splitting):
    """Reference: idempotence, landing and sum-to-identity of the
    projectors, checked on each kernel basis vector of P apart."""
    kernel = kernel_basis(splitting.P)
    idempotent = lands = True
    for p_i, pr in zip(splitting.factors, splitting.projectors):
        for v in kernel:
            image = pr.apply(v)
            idempotent &= pr.apply(image) == image
            lands &= not any(p_i.apply(image))
    total = Matrix.zeros(splitting.P.rows, splitting.P.rows)
    for pr in splitting.projectors:
        total = total + pr
    return idempotent, lands, all(total.apply(v) == v for v in kernel)


def constrained_setup(rng, k_constraints=1, dim=3):
    """A consistent constrained system with a certificate that needs R."""
    # repeated factor so the P^i alone cannot reach 1
    factors = [P("x+1"), P("x+1")]
    constraints = [P("x")] + ([P("x+2")] if k_constraints == 2 else [])
    sys_cert = find_system_certificate(factors, constraints)
    assert sys_cert is not None
    d = conjugated_diagonal(
        rng, [Fraction(rng.randint(-4, 4)) for _ in range(dim)])
    inst = OperatorInstance.of([d])
    u = random_vector(rng, dim)
    p_full = instantiate(product(factors, 1), inst)
    f = p_full.apply(u)
    gs = [instantiate(r, inst).apply(u) for r in constraints]
    return sys_cert, factors, constraints, inst, u, f, gs


class TestConstrainedSystems:
    def test_certificate_exists_and_verifies(self, rng):
        sys_cert, factors, constraints, *_ = constrained_setup(rng)
        ok, residual = verify_system_certificate(sys_cert, factors, constraints)
        assert ok and residual.is_zero()

    def test_certificate_absence_reported(self):
        # both P^i and R all share the zero of (x+1)
        assert find_system_certificate([P("x+1"), P("x+1")],
                                       [P("(x+1)^2")]) is None

    def test_integrability_consistent(self, rng):
        _, factors, constraints, inst, _, f, gs = constrained_setup(rng, 2)
        assert not integrability_violations(factors, constraints, f, gs, inst)

    def test_integrability_vacuous_without_constraints(self, rng):
        factors = [P("x"), P("x+1")]
        inst = diag_instance()
        assert not integrability_violations(factors, [], [0, 0], [], inst)

    def test_zero_constraints_degenerate_to_plain_split(self, rng):
        # with no side conditions the subsystem maps are the plain
        # recombination/splitting maps
        factors = [P("x+1"), P("x+2")]
        sys_cert = find_system_certificate(factors, [])
        assert sys_cert is not None and not sys_cert.s_cofactors
        inst = diag_instance()
        u = random_vector(rng, 2)
        p_full = instantiate(product(factors, 1), inst)
        f = p_full.apply(u)
        rep = system_split(sys_cert, factors, [], f, [], inst)
        parts = system_map_F(factors, inst, u)
        assert system_map_B(sys_cert, factors, [], inst, parts, []) == tuple(u)
        assert all(not s.is_empty() for s in rep.solutions)

    def test_integrability_perturbed(self, rng):
        _, factors, constraints, inst, _, f, gs = constrained_setup(rng)
        bad = [tuple(x + 1 for x in gs[0])]
        violations = integrability_violations(factors, constraints, f, bad, inst)
        assert violations

    def test_split_and_round_trips(self, rng):
        for k in (1, 2):
            sys_cert, factors, constraints, inst, u, f, gs = constrained_setup(
                rng, k, dim=4)
            report = system_split(sys_cert, factors, constraints, f, gs, inst)
            assert report.verified
            # u solves the original; F(u) solves the subsystems; B(F(u)) = u
            parts = system_map_F(factors, inst, u)
            for i, part in enumerate(parts):
                m_i = instantiate(factors[i], inst)
                assert m_i.apply(part) == tuple(f)
            assert system_map_B(sys_cert, factors, constraints, inst,
                                parts, gs) == tuple(u)
            # F o B is the identity on subsystem solution tuples
            sols = report.solutions
            assert all(not s.is_empty() for s in sols)
            tuple_parts = [s.particular for s in sols]
            u2 = system_map_B(sys_cert, factors, constraints, inst,
                              tuple_parts, gs)
            back = system_map_F(factors, inst, u2)
            assert list(back) == [tuple(p) for p in tuple_parts]

    def test_inconsistent_data_rejected(self, rng):
        sys_cert, factors, constraints, inst, _, f, gs = constrained_setup(rng)
        bad = [tuple(x + 1 for x in gs[0])]
        with pytest.raises(IntegrabilityError):
            system_split(sys_cert, factors, constraints, f, bad, inst)
