"""Set-system operations and decomposition planning."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from opkit import planner
from opkit.errors import InputError, ResourceLimitError
from opkit.certify import plan_dual_certificate
from opkit.groebner import BezoutCertificate, contains_one
from opkit.planner import (MEMBERSHIP_GROUND_CAP, SetSystem, alpha_l,
                           alpha_u, beta_min, coincidence_graph, lower_set,
                           max_elements, min_elements, optimal_alpha,
                           plan_decomposition, upper_set)
from opkit.poly import Polynomial, parse_polynomial

V = ["x", "y"]
U = ["x"]


def P(text, variables=V):
    return parse_polynomial(text, variables)


def is_antichain(system):
    """No member of the set system strictly contains another."""
    members = list(system.sets)
    return not any(a < b for a in members for b in members)


def demo_atoms():
    return [P("x+1"), P("x*y+y+1"), P("x"), P("x^2+x*y+x+y-1")]


def random_system(rng, max_ground=8):
    ground = rng.randint(0, max_ground)
    count = rng.randint(1, 6)
    sets = []
    for _ in range(count):
        size = rng.randint(0, ground + 1)
        sets.append(rng.sample(range(ground + 1), min(size, ground + 1)))
    return SetSystem.of(ground, sets)


class TestClosures:
    def test_lower_of_pair(self):
        s = SetSystem.of(1, [[0, 1]])
        assert lower_set(s).canonical() == [[], [0], [0, 1], [1]]

    def test_upper_of_empty_set(self):
        s = SetSystem.of(1, [[]])
        assert upper_set(s).canonical() == [[], [0], [0, 1], [1]]

    def test_lower_mixed(self):
        s = SetSystem.of(2, [[1, 2], [0]])
        assert lower_set(s).canonical() == [[], [0], [1], [1, 2], [2]]

    def test_min_max(self):
        assert max_elements(SetSystem.of(1, [[0], [0, 1]])).canonical() == [[0, 1]]
        full = lower_set(SetSystem.of(2, [[0, 1, 2]]))
        assert min_elements(full).canonical() == [[]]
        antichain = SetSystem.of(3, [[0, 1], [0, 2], [0, 3], [1, 2, 3]])
        assert min_elements(antichain).canonical() == antichain.canonical()

    def test_ground_cap(self):
        with pytest.raises(ResourceLimitError):
            alpha_u(SetSystem.of(21, [[0]]))


class TestDuality:
    def test_alpha_u_of_singletons(self):
        singles = SetSystem.of(2, [[0], [1], [2]])
        dual = alpha_u(singles)
        assert min_elements(dual).canonical() == [[0, 1], [0, 2], [1, 2]]
        assert all(len(J) >= 2 for J in dual.sets)

    def test_alpha_u_of_empty_member(self):
        s = SetSystem.of(1, [[]])
        assert alpha_u(s).canonical() == [[0], [0, 1], [1]]

    def test_round_trip_identities(self):
        rng = random.Random(99)
        for _ in range(200):
            s = random_system(rng)
            assert alpha_l(alpha_u(s)).sets == lower_set(s).sets
            assert alpha_u(alpha_l(s)).sets == upper_set(s).sets


class TestCoincidenceGraph:
    def test_demo_atoms(self):
        graph = coincidence_graph(demo_atoms())
        assert graph.canonical_edges() == [[1, 2], [1, 3], [2, 3]]
        assert graph.connected_components() == [(0,), (1, 2, 3)]

    def test_single_atom(self):
        graph = coincidence_graph([P("x")])
        assert graph.vertex_count == 1 and not graph.edges

    def test_coprime_pair_with_certificate(self):
        graph = coincidence_graph([P("x", U), P("x+1", U)])
        assert not graph.edges
        assert contains_one([P("x", U), P("x+1", U)]) is not None

    def test_zero_atom_rejected(self):
        with pytest.raises(InputError):
            coincidence_graph([P("0")])


class TestRegroup:
    """The plan's components and grouped factors."""

    def test_demo_regrouping(self):
        plan = plan_decomposition(demo_atoms())
        assert plan.components == ((0,), (1, 2, 3))
        assert plan.grouped_factors[0] == P("x+1")
        assert plan.grouped_factors[1] == P("(x*y+y+1)*x*(x^2+x*y+x+y-1)")

    def test_pairwise_unit_atoms_stay_single(self):
        plan = plan_decomposition([P("x", U), P("x+1", U), P("x+2", U)])
        assert plan.components == ((0,), (1,), (2,))

    def test_identical_atoms_merge(self):
        plan = plan_decomposition([P("x", U), P("x", U)])
        assert plan.components == ((0, 1),)

    def test_regrouped_graph_is_edgeless(self):
        plan = plan_decomposition(demo_atoms())
        assert not coincidence_graph(plan.grouped_factors).edges


class TestBetaMin:
    def test_demo_atoms(self):
        assert beta_min(demo_atoms()).canonical() == [
            [0, 1], [0, 2], [0, 3], [1, 2, 3]]

    def test_constant_factor_hits_singleton(self):
        assert beta_min([Polynomial.one(1)]).canonical() == [[0]]

    def test_three_linear_factors(self):
        assert beta_min([P("x", U), P("x+1", U), P("x+2", U)]).canonical() == [
            [0, 1], [0, 2], [1, 2]]

    def test_monotonicity(self):
        # supersets of hits are also hits (recomputed, not pruned)
        from itertools import combinations
        factors = demo_atoms()
        hits = beta_min(factors)
        for J in hits:
            for size in range(len(J) + 1, 4 + 1):
                for combo in combinations(range(4), size):
                    if J <= frozenset(combo):
                        assert contains_one([factors[i] for i in combo]) is not None

    def test_ground_cap(self, buchberger_runs):
        # Refused before the first probe, by each function that searches.
        for search in (beta_min, coincidence_graph, plan_decomposition):
            with pytest.raises(ResourceLimitError):
                search([P("x", U)] * (MEMBERSHIP_GROUND_CAP + 2))
        assert buchberger_runs == []


def reference_search(count, probe):
    """The planner's search before L and its co-atoms were probed first:
    the coincidence graph probes every pair, then a walk by size probes
    every subset that is not a superset of a hit."""
    edges = frozenset(frozenset(pair) for pair in combinations(range(count), 2)
                      if not probe(pair))
    hits = []
    for size in range(1, count + 1):
        for combo in combinations(range(count), size):
            J = frozenset(combo)
            if not any(h <= J for h in hits) and probe(combo):
                hits.append(J)
    return frozenset(hits), edges


def counted_probe(generators):
    """A memoized unit probe of the monotone set function whose minimal
    true sets lie among ``generators``, and the list of sets it probed."""
    probed = {}

    def probe(combo):
        if combo not in probed:
            probed[combo] = any(g <= frozenset(combo) for g in generators)
        return probed[combo]

    return probe, probed


@st.composite
def monotone_functions(draw):
    count = draw(st.integers(1, 7))
    subsets = st.frozensets(st.integers(0, count - 1), min_size=1)
    return count, draw(st.lists(subsets, max_size=6))


class TestSearchMatchesReference:
    """The search by L and its co-atoms against the old bottom-up walk, on
    monotone set functions with no Buchberger run behind them."""

    @given(monotone_functions())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_beta_min_and_edges(self, function):
        count, generators = function
        probe, probed = counted_probe(generators)
        hits = planner._unit_sets(count, probe)
        graph = planner._coincidence_graph(count, hits)
        ref_probe, ref_probed = counted_probe(generators)
        ref_hits, ref_edges = reference_search(count, ref_probe)
        assert len(hits) == len(set(hits))
        assert frozenset(hits) == ref_hits == min_elements(
            SetSystem(count - 1, frozenset(generators))).sets
        assert graph.edges == ref_edges
        assert len(probed) <= len(ref_probed) + count + 1

    @pytest.mark.parametrize("count", [1, 4, 13])
    def test_only_the_whole_family(self, count):
        probe, probed = counted_probe([frozenset(range(count))])
        assert planner._unit_sets(count, probe) == [frozenset(range(count))]
        assert len(probed) == count + (count > 1)

    def test_no_unit_subset(self):
        probe, probed = counted_probe([])
        assert planner._unit_sets(13, probe) == []
        assert list(probed) == [tuple(range(13))]


class TestOptimalAlpha:
    def test_demo_family(self):
        beta = SetSystem.of(3, [[0, 1], [0, 2], [0, 3], [1, 2, 3]])
        assert optimal_alpha(beta).canonical() == [[0], [1, 2], [1, 3], [2, 3]]

    def test_pair_family_gives_singletons(self):
        beta = SetSystem.of(2, [[0, 1], [0, 2], [1, 2]])
        assert optimal_alpha(beta).canonical() == [[0], [1], [2]]

    def test_single_pair(self):
        beta = SetSystem.of(1, [[0, 1]])
        assert optimal_alpha(beta).canonical() == [[0], [1]]

    def test_matches_upper_closure_formula(self):
        rng = random.Random(3)
        for _ in range(50):
            s = random_system(rng, max_ground=6)
            nonempty = SetSystem(
                s.ground, frozenset(m for m in s.sets if m))
            if not nonempty.sets:
                continue
            direct = optimal_alpha(nonempty)
            via_upper = max_elements(alpha_l(upper_set(nonempty)))
            assert direct.sets == via_upper.sets

    def test_membership_condition_holds(self):
        beta = SetSystem.of(3, [[0, 1], [0, 2], [0, 3], [1, 2, 3]])
        alpha = optimal_alpha(beta)
        assert is_antichain(alpha)
        for J in alpha:
            assert all(I - J for I in beta.sets)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            optimal_alpha(SetSystem.of(2, []))


class TestPlan:
    def test_full_pipeline(self):
        plan = plan_decomposition(demo_atoms())
        assert plan.components == ((0,), (1, 2, 3))
        assert plan.beta_min.canonical() == [[0, 1], [0, 2], [0, 3], [1, 2, 3]]
        assert plan.alpha_opt.canonical() == [[0], [1, 2], [1, 3], [2, 3]]

    def test_dual_certificate_covers_each_beta_min_member(self):
        # The plan keeps no certificate; the dual certificate built from it
        # holds one Bezout identity per beta_min member, its cofactors in
        # increasing index order.
        atoms = demo_atoms()
        plan = plan_decomposition(atoms)
        dual = plan_dual_certificate(plan)
        assert set(dual.cofactors) == set(plan.beta_min.sets)
        for J, cofactors in dual.cofactors.items():
            assert list(cofactors) == sorted(J)
            bez = BezoutCertificate(tuple(cofactors.values()))
            assert bez.verify([atoms[j] for j in sorted(J)])

    def test_single_factor_no_decomposition(self):
        plan = plan_decomposition([P("x", U)])
        assert not plan.beta_min.sets
        assert plan.alpha_opt is None

    def test_two_coprime_factors(self):
        plan = plan_decomposition([P("x", U), P("x+1", U)])
        assert plan.alpha_opt.canonical() == [[0], [1]]

    def test_repeated_atom_alpha_matches_components(self):
        # a repeated atom forces its indices into one alpha member, exactly
        # mirroring the coincidence components
        plan = plan_decomposition([P("x", U), P("x", U), P("x+1", U)])
        assert plan.components == ((0, 1), (2,))
        assert plan.beta_min.canonical() == [[0, 2], [1, 2]]
        assert plan.alpha_opt.canonical() == [[0, 1], [2]]
