"""Certificate construction, verification and the two-way conversions."""

import itertools
import random
from fractions import Fraction

import pytest

from opkit import certify
from opkit.errors import InputError, MembershipError, VerificationError
from opkit.groebner import contains_one
from opkit.certify import (Certificate, DualCertificate, UnivariateSpec,
                           alpha_to_dual, alpha_to_dual_system,
                           dual_certificate, dual_to_alpha, factor_product,
                           factor_product_complement,
                           true_decomposition_certificate,
                           univariate_certificate, univariate_factors,
                           verify_certificate)
from opkit.planner import (SetSystem, alpha_u, max_elements, min_elements,
                           plan_decomposition)
from opkit.poly import Polynomial, parse_polynomial

from conftest import constant_value, run_counts

V = ["x", "y"]


def P(text, variables=V):
    return parse_polynomial(text, variables)


def demo_factors():
    return [P("x+1"), P("x*y+y+1"), P("x"), P("x^2+x*y+x+y-1")]


def known_pairwise_dual():
    return DualCertificate(
        SetSystem.of(3, [[0, 1], [0, 2], [0, 3]]),
        {
            frozenset((0, 1)): {0: P("-y"), 1: P("1")},
            frozenset((0, 2)): {0: P("-(x-1)"), 2: P("x")},
            frozenset((0, 3)): {0: P("x+y"), 3: P("-1")},
        })


def known_triple_dual():
    return DualCertificate(
        SetSystem.of(3, [[1, 2, 3]]),
        {frozenset((1, 2, 3)): {1: P("1/2"), 2: P("1/2*(x+1)"), 3: P("-1/2")}})


class TestUnivariate:
    def test_two_lambdas_formula(self):
        spec = UnivariateSpec.of([Fraction(0), Fraction(1)])
        cert = univariate_certificate(spec)
        # 1 = (x+l1)/(l1-l0) + (x+l0)/(l0-l1)
        assert constant_value(cert.cofactors[frozenset((0,))]) == 1
        assert constant_value(cert.cofactors[frozenset((1,))]) == -1

    def test_single_lambda_is_one_equals_one(self):
        cert = univariate_certificate(UnivariateSpec.of([7]))
        assert cert.alpha.canonical() == [[0]]
        assert cert.cofactors[frozenset((0,))] == Polynomial.one(1)

    def test_lambda_0_1_2(self):
        cert = univariate_certificate(UnivariateSpec.of([0, 1, 2]))
        values = {tuple(sorted(J)): constant_value(q)
                  for J, q in cert.cofactors.items()}
        assert values == {(0,): Fraction(1, 2), (1,): Fraction(-1),
                          (2,): Fraction(1, 2)}
        # oracle: expand 1/2(x+1)(x+2) - x(x+2) + 1/2 x(x+1)
        x = P("x", ["x"])
        total = (P("1/2", ["x"]) * (x + P("1", ["x"])) * (x + P("2", ["x"]))
                 + P("-1", ["x"]) * x * (x + P("2", ["x"]))
                 + P("1/2", ["x"]) * x * (x + P("1", ["x"])))
        assert total == Polynomial.one(1)

    def test_repeated_lambda_rejected(self):
        with pytest.raises(InputError, match="confluent"):
            UnivariateSpec.of([1, 1])

    def test_property_random_tuples(self):
        rng = random.Random(17)
        for _ in range(100):
            ell = rng.randint(0, 6)
            lambdas = set()
            while len(lambdas) < ell + 1:
                lambdas.add(Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
            spec = UnivariateSpec.of(sorted(lambdas))
            cert = univariate_certificate(spec)
            ok, residual = verify_certificate(cert, univariate_factors(spec))
            assert ok and residual.is_zero()


class TestVerify:
    def test_known_triple_certificate(self):
        ok, residual = verify_certificate(known_triple_dual(), demo_factors())
        assert ok and residual.is_zero()

    def test_known_pairwise_certificates(self):
        ok, residual = verify_certificate(known_pairwise_dual(), demo_factors())
        assert ok and residual.is_zero()

    def test_perturbed_cofactor_residual(self):
        factors = demo_factors()
        base = dual_to_alpha(known_triple_dual(), factors)
        J = sorted(base.alpha.sets, key=sorted)[0]
        tweaked = dict(base.cofactors)
        tweaked[J] = tweaked[J] + Polynomial.one(2)
        bad = Certificate(base.alpha, tweaked)
        ok, residual = verify_certificate(bad, factors)
        assert not ok
        assert residual == factor_product_complement(factors, J)

    def test_univariate_verifies(self):
        spec = UnivariateSpec.of([0, 1, 2])
        ok, _ = verify_certificate(univariate_certificate(spec),
                                   univariate_factors(spec))
        assert ok


class TestDualCertificate:
    def test_pairwise_from_groebner(self):
        factors = demo_factors()
        beta = SetSystem.of(3, [[0, 1], [0, 2], [0, 3]])
        dual = dual_certificate(factors, beta)
        ok, _ = verify_certificate(dual, factors)
        assert ok

    def test_triple_cofactors_are_the_known_ones(self):
        factors = demo_factors()
        dual = dual_certificate(factors, SetSystem.of(3, [[1, 2, 3]]))
        got = dual.cofactors[frozenset((1, 2, 3))]
        assert got[1] == P("1/2")
        assert got[2] == P("1/2*(x+1)")
        assert got[3] == P("-1/2")

    def test_from_plan_matches_a_fresh_search(self):
        # The tracked run alone gives the cofactors of a probe followed by
        # the tracked run.
        factors = demo_factors()
        plan = plan_decomposition(factors)
        dual = dual_certificate(factors, plan.beta_min)
        for J, cofactors in dual.cofactors.items():
            fresh = contains_one([factors[j] for j in sorted(J)])
            assert tuple(cofactors.values()) == fresh.cofactors

    def test_membership_failure_names_the_set(self):
        factors = demo_factors()
        with pytest.raises(MembershipError, match=r"\[1, 2\]"):
            dual_certificate(factors, SetSystem.of(3, [[1, 2]]))


class TestDualRuns:
    """Buchberger runs per dual certificate: one tracked run per member and
    no probe, whoever calls it."""

    def test_demo_beta_min(self, buchberger_runs):
        factors = demo_factors()
        beta = plan_decomposition(factors).beta_min
        buchberger_runs.clear()
        dual = dual_certificate(factors, beta)
        assert run_counts(buchberger_runs) == (0, 4)
        # each on its member's factors in increasing index order
        assert [gens for _, gens in buchberger_runs] == [
            tuple(factors[j] for j in sorted(J)) for J in beta]
        assert set(dual.cofactors) == set(beta.sets)

    def test_non_unit_member_is_found_by_its_tracked_run(self,
                                                         buchberger_runs):
        # [0, 1] holds 1, [1, 2] does not; the runs go in canonical order.
        factors = demo_factors()
        with pytest.raises(MembershipError,
                           match=r"^1 is not in the ideal of factors \[1, 2\]$"):
            dual_certificate(factors, SetSystem.of(3, [[0, 1], [1, 2]]))
        assert run_counts(buchberger_runs) == (0, 2)

    def test_true_decomposition_of_three_lines(self, buchberger_runs):
        # One tracked run per pair (3 probes and 3 tracked runs when each
        # member was probed first).
        factors = [P("x", ["x"]), P("x+1", ["x"]), P("x+2", ["x"])]
        true_decomposition_certificate(factors)
        assert run_counts(buchberger_runs) == (0, 3)


class TestDualToAlpha:
    def test_pair_product_collapses_to_two_terms(self):
        factors = demo_factors()
        cert = dual_to_alpha(known_pairwise_dual(), factors)
        assert cert.alpha.canonical() == [[0], [1, 2, 3]]
        # the coefficient of P1*P2*P3 is the product
        # of the three non-shared cofactors: 1 * x * -1 times the triple sum
        assert cert.cofactors[frozenset((0,))] == P("-x")
        ok, _ = verify_certificate(cert, factors)
        assert ok

    def test_single_pair_relabels(self):
        factors = [P("x", ["x"]), P("x+1", ["x"])]
        dual = dual_certificate(factors, SetSystem.of(1, [[0, 1]]))
        cert = dual_to_alpha(dual, factors)
        assert cert.alpha.canonical() == [[0], [1]]
        ok, _ = verify_certificate(cert, factors)
        assert ok

    def test_triple_identity_spreads_over_pairs(self):
        # three-factor tail of the worked example, relabeled 0..2
        factors = [P("x*y+y+1"), P("x"), P("x^2+x*y+x+y-1")]
        dual = DualCertificate(
            SetSystem.of(2, [[0, 1, 2]]),
            {frozenset((0, 1, 2)): {0: P("1/2"), 1: P("1/2*(x+1)"),
                                    2: P("-1/2")}})
        cert = dual_to_alpha(dual, factors)
        assert cert.alpha.canonical() == [[0, 1], [0, 2], [1, 2]]
        assert cert.cofactors[frozenset((1, 2))] == P("1/2")
        assert cert.cofactors[frozenset((0, 2))] == P("1/2*(x+1)")
        assert cert.cofactors[frozenset((0, 1))] == P("-1/2")

    def test_output_contained_in_beta_l(self):
        factors = demo_factors()
        dual = known_pairwise_dual()
        cert = dual_to_alpha(dual, factors)
        for J in cert.alpha:
            assert all(I - J for I in dual.beta.sets)


def reference_dual_to_alpha(dual, factors):
    """The choice-function expansion: one product per choice of an index
    from every J, excess factor powers folded in, equal sets summed, then
    non-maximal sets absorbed into the first maximal superset.  Returns the
    final cofactors and the number of sets absorbed."""
    nvars = factors[0].variable_count
    ell = len(factors) - 1
    members = [sorted(J) for J in dual.beta]
    grouped = {}
    for choice in itertools.product(*members):
        q = Polynomial.one(nvars)
        counts = {}
        for J, j in zip(members, choice):
            q = q * dual.cofactors[frozenset(J)][j]
            counts[j] = counts.get(j, 0) + 1
        for j, m in counts.items():
            for _ in range(m - 1):
                q = q * factors[j]
        K = frozenset(range(ell + 1)) - frozenset(counts)
        grouped[K] = grouped.get(K, Polynomial.zero(nvars)) + q
    grouped = {K: q for K, q in grouped.items() if not q.is_zero()}
    maximal = sorted(max_elements(SetSystem(ell, frozenset(grouped))).sets,
                     key=sorted)
    final = {}
    for K in sorted(grouped, key=sorted):
        target = K if K in maximal else next(M for M in maximal if K <= M)
        q = grouped[K] * factor_product(factors, target - K)
        final[target] = final.get(target, Polynomial.zero(nvars)) + q
    absorbed = len(grouped) - len(maximal)
    return {K: q for K, q in final.items() if not q.is_zero()}, absorbed


def random_dual(rng, factors, beta):
    """Valid identities 1 = sum Q_{J,j} P_j for pairwise coprime linear
    factors x + l_j: the constant Bezout pair of two members of J plus
    random syzygies Q_a += r P_b, Q_b -= r P_a inside J."""
    lambdas = [f.terms.get((0,), Fraction(0)) for f in factors]
    cofactors = {}
    for J in beta:
        indices = sorted(J)
        row = {j: Polynomial.zero(1) for j in indices}
        a, b = rng.sample(indices, 2)
        row[a] = Polynomial.constant(1 / (lambdas[a] - lambdas[b]), 1)
        row[b] = Polynomial.constant(-1 / (lambdas[a] - lambdas[b]), 1)
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(indices, 2)
            r = Polynomial({(rng.randint(0, 1),): rng.randint(-3, 3)}, 1)
            row[a] = row[a] + r * factors[b]
            row[b] = row[b] - r * factors[a]
        cofactors[J] = row
    return DualCertificate(beta, cofactors)


QUARTET_SUPPORT = ((0, 0), (0, 1), (0, 2), (1, 1), (2, 0))


def seeded_quartet(seed):
    """Four quadrics in x, y on one support, coefficients from +-1..3."""
    rng = random.Random(seed)
    return [Polynomial({e: rng.choice((-3, -2, -1, 1, 2, 3))
                        for e in QUARTET_SUPPORT}, 2) for _ in range(4)]


def planned_dual(factors):
    return dual_certificate(factors, plan_decomposition(factors).beta_min)


def holds_a_whole_member(beta):
    """Whether a state of the subset expansion, the indices chosen from the
    members so far, holds all of the next member."""
    states = {frozenset()}
    for J in sorted(sorted(J) for J in beta):
        if any(S >= set(J) for S in states):
            return True
        states = {S | {j} for S in states for j in J}
    return False


def count_poly_mul(monkeypatch, dual, factors):
    """The ``kernels.poly_mul`` calls one ``dual_to_alpha`` makes."""
    import opkit.kernels
    calls = []
    poly_mul = opkit.kernels.poly_mul

    def counted(a, b):
        calls.append(None)
        return poly_mul(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(opkit.kernels, "poly_mul", counted)
        dual_to_alpha(dual, factors)
    return len(calls)


class TestSubsetExpansion:
    def test_matches_choice_function_expansion(self):
        rng = random.Random(41)
        absorbed = repeated = 0
        for _ in range(40):
            ell = rng.randint(1, 4)
            factors = univariate_factors(UnivariateSpec.of(
                rng.sample(range(-6, 7), ell + 1)))
            sets = [rng.sample(range(ell + 1), rng.randint(2, ell + 1))
                    for _ in range(rng.randint(1, 4))]
            beta = SetSystem.of(ell, sets)
            dual = random_dual(rng, factors, beta)
            expected, count = reference_dual_to_alpha(dual, factors)
            assert dict(dual_to_alpha(dual, factors).cofactors) == expected
            absorbed += count > 0
            repeated += sum(len(J) for J in beta) > len(
                set().union(*beta.sets))
        assert absorbed and repeated
        # Multivariate duals, whose last member some state holds whole, so
        # that state's sum over the member is taken as 1, not formed.
        for factors in (demo_factors(), seeded_quartet(0), seeded_quartet(1)):
            dual = planned_dual(factors)
            assert holds_a_whole_member(dual.beta)
            expected, _ = reference_dual_to_alpha(dual, factors)
            assert dict(dual_to_alpha(dual, factors).cofactors) == expected

    def test_invalid_dual_is_refused(self):
        # The pairwise identities hold, but {1,2,3}'s sums to 2, not 1;
        # a state holding {1,2,3} whole takes its sum as 1.
        pairwise = known_pairwise_dual()
        triple = {j: q * 2 for j, q in
                  known_triple_dual().cofactors[frozenset((1, 2, 3))].items()}
        beta = SetSystem.of(3, [[0, 1], [0, 2], [0, 3], [1, 2, 3]])
        dual = DualCertificate(
            beta, {**pairwise.cofactors, frozenset((1, 2, 3)): triple})
        assert holds_a_whole_member(beta)
        with pytest.raises(VerificationError):
            dual_to_alpha(dual, demo_factors())

    def test_product_counts(self, monkeypatch):
        # One product per state for the indices of J it holds, none when it
        # holds all of J: the demo forms 41 (51 with one product per held
        # index), a quartet 70 (86).
        assert count_poly_mul(monkeypatch, planned_dual(demo_factors()),
                              demo_factors()) == 41
        quartet = seeded_quartet(0)
        assert count_poly_mul(monkeypatch, planned_dual(quartet),
                              quartet) == 70

    def test_pairwise_lines_stay_cheap(self, monkeypatch):
        factors = [P(f"x+2*y+({a})") for a in (-2, -1, 1, 2, 3)]
        beta = SetSystem.of(4, [list(c) for c in
                                itertools.combinations(range(5), 2)])
        dual = dual_certificate(factors, beta)
        cert = dual_to_alpha(dual, factors)
        assert cert.alpha.canonical() == [[i] for i in range(5)]
        # 178 with one product per held index, 15,705 over the 1,024
        # choice functions
        assert count_poly_mul(monkeypatch, dual, factors) == 123


class TestAlphaToDual:
    def test_relative_invertibility_from_univariate(self):
        spec = UnivariateSpec.of([0, 1])
        cert = univariate_certificate(spec)
        factors = univariate_factors(spec)
        dual = alpha_to_dual(cert, [0, 1], factors)
        items = dual.cofactors[frozenset((0, 1))]
        assert items[0] * factors[0] + items[1] * factors[1] == Polynomial.one(1)

    def test_precondition_violation(self):
        spec = UnivariateSpec.of([0, 1])
        cert = univariate_certificate(spec)
        factors = univariate_factors(spec)
        with pytest.raises(InputError):
            alpha_to_dual(cert, [0], factors)  # I \ {0} is empty for J={0}

    def test_round_trips_random(self):
        rng = random.Random(23)
        for _ in range(30):
            ell = rng.randint(1, 4)
            lambdas = set()
            while len(lambdas) < ell + 1:
                lambdas.add(Fraction(rng.randint(-12, 12), rng.randint(1, 3)))
            spec = UnivariateSpec.of(sorted(lambdas))
            cert = univariate_certificate(spec)
            factors = univariate_factors(spec)
            beta = min_elements(alpha_u(cert.alpha))
            dual = alpha_to_dual_system(cert, beta, factors)
            ok, _ = verify_certificate(dual, factors)
            assert ok
            back = dual_to_alpha(dual, factors)
            ok, _ = verify_certificate(back, factors)
            assert ok


class TestTrueDecomposition:
    def test_three_linear_factors(self):
        factors = [P("x", ["x"]), P("x+1", ["x"]), P("x+2", ["x"])]
        cert = true_decomposition_certificate(factors)
        assert cert.alpha.canonical() == [[0], [1], [2]]
        ok, _ = verify_certificate(cert, factors)
        assert ok

    def test_multivariate_shifted_line(self):
        factors = [P("x+y"), P("x+y+1"), P("x+y+3")]
        cert = true_decomposition_certificate(factors)
        ok, _ = verify_certificate(cert, factors)
        assert ok

    def test_one_factor_is_its_own_unit(self):
        # With one factor P^{0} is the empty product, and 1 = 1 * 1.
        factors = [P("x^2+1", ["x"])]
        cert = true_decomposition_certificate(factors)
        assert cert.alpha.canonical() == [[0]]
        assert cert.cofactors == {frozenset((0,)): Polynomial.one(1)}
        ok, _ = verify_certificate(cert, factors)
        assert ok

    def test_non_coprime_pair_rejected(self):
        with pytest.raises(MembershipError):
            true_decomposition_certificate([P("x"), P("x*y+y+1")])

    @pytest.mark.parametrize("factors, checks", [
        (["x", "x+1", "x+2"], 1), (["x^2+1"], 0)])
    def test_checks_the_identity_once(self, monkeypatch, factors, checks):
        # dual_to_alpha checks the converted identity; padding it with zero
        # cofactors changes nothing, and one factor has nothing to check.
        calls = []
        verify = certify.verify_certificate

        def counted(cert, polys):
            calls.append(cert)
            return verify(cert, polys)

        monkeypatch.setattr(certify, "verify_certificate", counted)
        true_decomposition_certificate([P(f, ["x"]) for f in factors])
        assert len(calls) == checks
