"""Acceptance suite: the package's exit criteria, one test per criterion.

Every check is an exact identity or an exact oracle comparison; there are
no tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS/FAIL line per criterion.
"""

import random
import time
from fractions import Fraction

from opkit.backend import (OperatorInstance, affine_sets_equal,
                           instantiate, range_member, solve_affine,
                           span_basis, make_truncated_derivative_instance)
from opkit.certify import (DualCertificate, UnivariateSpec, alpha_to_dual_system,
                           dual_certificate, dual_to_alpha,
                           true_decomposition_certificate,
                           univariate_certificate, univariate_factors,
                           verify_certificate)
from opkit.errors import IntegrabilityError
from opkit.planner import SetSystem, alpha_u, min_elements, plan_decomposition
from opkit.poly import parse_polynomial, product
from opkit.reducer import (find_system_certificate, integrability_violations,
                           kernel_structure, map_B, map_F,
                           recombined_solution_set, split, system_map_B,
                           system_map_F, system_split)
from opkit.symmetry import (FormalSymmetry, enumerate_formal_symmetries,
                            formal_from_generalized, generalized_from_formal,
                            is_formal_symmetry)

from conftest import (all_hold, conjugated_diagonal, constant_value,
                      distinct_fractions, induced_kernel_map, random_vector,
                      recombination_is_identity, spans_equal)

V2 = ["x", "y"]
V1 = ["x"]


def P(text, variables=V2):
    return parse_polynomial(text, variables)


def demo_factors():
    return [P("x+1"), P("x*y+y+1"), P("x"), P("x^2+x*y+x+y-1")]


def report(number, ok, message):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {number} failed: {message}"


def shift_family_instance(rng, dim, n_factors, k):
    """Random commuting instance with factors (x [+ y] + a_i).

    Generators are polynomials in one random conjugated-diagonal matrix;
    the shifts a_i are chosen so several factors have nontrivial kernels.
    """
    eigenvalues = [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                   for _ in range(dim)]
    m = conjugated_diagonal(rng, eigenvalues)
    if k == 1:
        generators = [m]
        t_eigs = eigenvalues
        names = V1
        base = "x"
    else:
        two = m * m
        generators = [m, two]
        t_eigs = [e + e * e for e in eigenvalues]
        names = V2
        base = "x+y"
    shifts = []
    pool = sorted(set(t_eigs), key=lambda v: (v.denominator, v.numerator))
    for e in pool:
        if len(shifts) < n_factors - 1:
            shifts.append(-e)
    extra = Fraction(7)
    while -extra in [-s for s in shifts] or any(s == extra for s in shifts):
        extra += 1
    while len(shifts) < n_factors:
        shifts.append(extra)
        extra += 1
    factors = [P(f"{base}+{s}" if s >= 0 else f"{base}-{-s}", names)
               for s in shifts]
    inst = OperatorInstance.of(generators)
    cert = true_decomposition_certificate(factors)
    return inst, factors, cert, names


def sample_affine(rng, sol, bound=3):
    vec = list(sol.particular)
    for k in sol.kernel_vectors:
        c = Fraction(rng.randint(-bound, bound))
        vec = [a + c * b for a, b in zip(vec, k)]
    return tuple(vec)


def test_criterion_1_worked_example_end_to_end():
    start = time.perf_counter()
    factors = demo_factors()
    plan = plan_decomposition(factors)
    components_ok = plan.components == ((0,), (1, 2, 3))
    beta_ok = plan.beta_min.canonical() == [[0, 1], [0, 2], [0, 3], [1, 2, 3]]
    alpha_ok = plan.alpha_opt.canonical() == [[0], [1, 2], [1, 3], [2, 3]]
    dual = dual_certificate(factors, plan.beta_min)
    dual_ok, _ = verify_certificate(dual, factors)
    cert = dual_to_alpha(dual, factors)
    cert_ok, _ = verify_certificate(cert, factors)
    emitted_alpha_ok = cert.alpha.canonical() == [[0], [1, 2], [1, 3], [2, 3]]
    elapsed = time.perf_counter() - start
    ok = (components_ok and beta_ok and alpha_ok and dual_ok and cert_ok
          and emitted_alpha_ok and elapsed < 10.0)
    report(1, ok,
           f"worked example end-to-end in {elapsed:.3f}s: components "
           f"{plan.components}, beta_min {plan.beta_min.canonical()}, "
           f"alpha {plan.alpha_opt.canonical()}, certificates verified")


def test_criterion_2_known_certificates():
    factors = demo_factors()
    pairwise = DualCertificate(
        SetSystem.of(3, [[0, 1], [0, 2], [0, 3]]),
        {
            frozenset((0, 1)): {0: P("-y"), 1: P("1")},
            frozenset((0, 2)): {0: P("-(x-1)"), 2: P("x")},
            frozenset((0, 3)): {0: P("x+y"), 3: P("-1")},
        })
    triple = DualCertificate(
        SetSystem.of(3, [[1, 2, 3]]),
        {frozenset((1, 2, 3)): {1: P("1/2"), 2: P("1/2*(x+1)"), 3: P("-1/2")}})
    ok_pair, res_pair = verify_certificate(pairwise, factors)
    ok_triple, res_triple = verify_certificate(triple, factors)
    ok = ok_pair and ok_triple and res_pair.is_zero() and res_triple.is_zero()
    report(2, ok, "three pairwise identities and the triple identity "
                  "verify with residual exactly 0")


def test_criterion_3_partial_fraction_unit_suite():
    rng = random.Random(303)
    checked = 0
    ok = True
    for _ in range(100):
        ell = rng.randint(0, 6)
        lambdas = distinct_fractions(rng, ell + 1, bound=20)
        rng.shuffle(lambdas)
        spec = UnivariateSpec.of(lambdas)
        cert = univariate_certificate(spec)
        factors = univariate_factors(spec)
        # the closed-form coefficients, recomputed independently
        for i, li in enumerate(lambdas):
            expected = Fraction(1)
            for j, lj in enumerate(lambdas):
                if j != i:
                    expected /= (lj - li)
            if constant_value(cert.cofactors[frozenset((i,))]) != expected:
                ok = False
        verified, residual = verify_certificate(cert, factors)
        ok = ok and verified and residual.is_zero()
        checked += 1
    report(3, ok and checked == 100,
           "100 random distinct-shift tuples (l <= 6): unit identity exact")


def test_criterion_4_round_trips_on_random_instances():
    rng = random.Random(404)
    instances = 0
    ok = True
    while instances < 50:
        dim = rng.randint(2, 12)
        n_factors = rng.randint(2, 3)
        k = rng.choice((1, 2))
        inst, factors, cert, names = shift_family_instance(rng, dim, n_factors, k)
        verified, _ = verify_certificate(cert, factors)
        ok = ok and verified
        # B o F = id on the whole space, as a matrix identity
        ok = ok and recombination_is_identity(cert, factors, inst)
        nvars = factors[0].variable_count
        p_full = instantiate(product(factors, nvars), inst)
        for _ in range(20):
            w = random_vector(rng, dim, bound=5)
            f = p_full.apply(w)
            direct = solve_affine(p_full, f)
            _, sols = split(cert, factors, names, inst, f)
            recombined = recombined_solution_set(cert, factors, inst, sols)
            ok = ok and affine_sets_equal(direct, recombined)
        # alpha is pairwise disjoint (singletons): F o B = id on tuples
        for _ in range(3):
            w = random_vector(rng, dim, bound=5)
            f = p_full.apply(w)
            _, sols = split(cert, factors, names, inst, f)
            parts = {J: sample_affine(rng, sol) for J, sol in sols.items()}
            u = map_B(cert, factors, inst, parts, f=f)
            ok = ok and map_F(cert, factors, inst, u) == parts
        instances += 1
        if not ok:
            break
    report(4, ok and instances == 50,
           "50 random commuting instances: B o F identity, F o B on tuples, "
           "exact solution-set equality for 20 in-range f each")


def test_criterion_5_kernel_and_range_structure():
    rng = random.Random(505)
    ok = True
    for _ in range(6):
        dim = rng.randint(4, 10)
        n_factors = rng.randint(2, 3)
        inst, factors, cert, names = shift_family_instance(rng, dim, n_factors, 1)
        ks = kernel_structure(cert, factors, inst)
        ok = ok and all_hold(ks) and ks.kernel_dim > 0
        nvars = factors[0].variable_count
        p_full = instantiate(product(factors, nvars), inst)
        mats = [instantiate(f, inst) for f in factors]
        for i in range(100):
            if i % 3 == 0:
                f = p_full.apply(random_vector(rng, dim, bound=4))
            else:
                f = random_vector(rng, dim, bound=6)
            lhs = range_member(p_full, f)
            rhs = all(range_member(m, f) for m in mats)
            ok = ok and (lhs == rhs)
    report(5, ok, "kernel dimensions add up with trivial pairwise "
                  "intersections; range(P) equals the intersection of factor "
                  "ranges on 100 vectors per instance")


def test_criterion_6_duality_round_trips():
    rng = random.Random(606)
    ok = True
    for _ in range(50):
        ell = rng.randint(1, 4)
        lambdas = distinct_fractions(rng, ell + 1, bound=10)
        spec = UnivariateSpec.of(lambdas)
        cert = univariate_certificate(spec)
        factors = univariate_factors(spec)
        beta = min_elements(alpha_u(cert.alpha))
        dual = alpha_to_dual_system(cert, beta, factors)
        dual_ok, _ = verify_certificate(dual, factors)
        back = dual_to_alpha(dual, factors)
        back_ok, _ = verify_certificate(back, factors)
        # combinatorial membership condition for the emitted family
        member_ok = all(all(I - J for I in beta.sets) for J in back.alpha)
        ok = ok and dual_ok and back_ok and member_ok
    report(6, ok, "50 dual -> alpha -> dual conversions verify exactly and "
                  "land inside the dual-complement family")


def test_criterion_7_constrained_systems():
    rng = random.Random(707)
    ok = True
    built = 0
    while built < 20:
        dim = rng.randint(3, 10)
        k = rng.choice((1, 2))
        shift = rng.randint(-2, 2)
        factors = [P(f"x+{shift}" if shift >= 0 else f"x-{-shift}", V1)] * 2
        cpool = ["x", "x+1", "x-1", "x+2", "x+3"]
        constraints = [P(c, V1) for c in rng.sample(cpool, k)]
        sys_cert = find_system_certificate(factors, constraints)
        if sys_cert is None:
            # shift collides with every constraint root; try again
            continue
        eigenvalues = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        inst = OperatorInstance.of([conjugated_diagonal(rng, eigenvalues)])
        u = random_vector(rng, dim, bound=5)
        p_full = instantiate(product(factors, 1), inst)
        f = p_full.apply(u)
        gs = [instantiate(r, inst).apply(u) for r in constraints]
        ok = ok and not integrability_violations(factors, constraints, f, gs, inst)
        rep = system_split(sys_cert, factors, constraints, f, gs, inst)
        ok = ok and all(not s.is_empty() for s in rep.solutions)
        # B o F = id on the original solution
        parts = system_map_F(factors, inst, u)
        ok = ok and system_map_B(sys_cert, factors, constraints, inst,
                                 parts, gs) == tuple(u)
        # F o B = id on subsystem solution tuples
        tuple_parts = [sample_affine(rng, s) for s in rep.solutions]
        u2 = system_map_B(sys_cert, factors, constraints, inst, tuple_parts, gs)
        ok = ok and list(system_map_F(factors, inst, u2)) == [
            tuple(p) for p in tuple_parts]
        # recombined vector solves the whole system
        ok = ok and p_full.apply(u2) == tuple(f)
        for r, g in zip(constraints, gs):
            ok = ok and instantiate(r, inst).apply(u2) == tuple(g)
        # perturbed data must be rejected
        bad = [tuple(x + 1 for x in gs[0])] + [tuple(g) for g in gs[1:]]
        try:
            system_split(sys_cert, factors, constraints, f, bad, inst)
            ok = False
        except IntegrabilityError:
            pass
        built += 1
        if not ok:
            break
    report(7, ok and built == 20,
           "20 consistent constrained systems: integrability holds, both "
           "round trips exact, inconsistent data rejected")


def test_criterion_8_symmetry_suite():
    rng = random.Random(808)
    ok = True
    for trial in range(20):
        dim = rng.randint(3, 6) if trial < 18 else 8
        n_factors = 2
        inst, factors, cert, names = shift_family_instance(rng, dim, n_factors, 1)
        nvars = factors[0].variable_count
        p_full = instantiate(product(factors, nvars), inst)
        kernel = p_full.factorization.kernel
        if not kernel:
            ok = False
            break
        basis = enumerate_formal_symmetries(p_full)
        induced = []
        rebuilt = []
        for s in basis:
            witness = is_formal_symmetry(s, p_full)
            ok = ok and witness is not None
            sym = FormalSymmetry(s, witness)
            ok = ok and sym.holds_for(p_full)
            induced.append(induced_kernel_map(s, p_full))
            for i in range(n_factors):
                for j in range(n_factors):
                    gen = generalized_from_formal(sym, cert, i, j, factors, inst)
                    back = formal_from_generalized(gen, cert, factors, inst)
                    ok = ok and back.holds_for(p_full)
                    rebuilt.append(induced_kernel_map(back.S, p_full))
        flat = [tuple(v for row in m.row_list() for v in row) for m in induced]
        flat_re = [tuple(v for row in m.row_list() for v in row) for m in rebuilt]
        d = len(kernel)
        ok = ok and len(span_basis(flat)) == d * d
        ok = ok and spans_equal(flat, flat_re)
        if not ok:
            break
    report(8, ok, "20 instances: every enumerated symmetry decomposes and "
                  "reconstructs with exact witnesses; generation dimensions "
                  "match on the kernel")


def test_criterion_9_differential_realization():
    rng = random.Random(909)
    factors = demo_factors()
    inst = make_truncated_derivative_instance(2, 7)
    plan = plan_decomposition(factors)
    dual = dual_certificate(factors, plan.beta_min)
    cert = dual_to_alpha(dual, factors)
    p_full = instantiate(product(factors, 2), inst)
    ok = cert.alpha.canonical() == [[0], [1, 2], [1, 3], [2, 3]]
    for _ in range(10):
        w = random_vector(rng, inst.dimension, bound=3)
        f = p_full.apply(w)
        direct = solve_affine(p_full, f)
        _, sols = split(cert, factors, V2, inst, f)
        recombined = recombined_solution_set(cert, factors, inst, sols)
        ok = ok and not direct.is_empty()
        ok = ok and affine_sets_equal(direct, recombined)
    report(9, ok, "sixth-order operator on the degree-7 truncated-derivative "
                  "instance: 10 in-range f reproduce the full solution set "
                  "through the four lower-order subproblems")
