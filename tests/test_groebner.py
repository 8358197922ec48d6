"""Buchberger runs, cofactors and membership of 1."""

import collections
import heapq
import itertools
import json
import random
import types
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opkit import groebner, poly
from opkit.cli import main
from opkit.errors import (InputError, MembershipError, ResourceLimitError,
                          VerificationError)
from opkit.groebner import BezoutCertificate, contains_one, divide_multi
from opkit.poly import (DEFAULT_ORDER, MonomialOrder, Polynomial,
                        format_polynomial, parse_polynomial, resolve_term_cap)

from conftest import (is_constant, leading_term, order_key,
                      random_polynomial, reference_divide_multi, run_counts,
                      to_sympy)

V = ["x", "y"]


def P(text, variables=V):
    return parse_polynomial(text, variables)


def s_polynomial(p, q, order=DEFAULT_ORDER):
    """Reference S(p, q) = (lcm/lt(p)) * p - (lcm/lt(q)) * q."""
    if p.is_zero() or q.is_zero():
        raise InputError("S-polynomial of a zero polynomial is undefined")
    pexp, pc = leading_term(p, order)
    qexp, qc = leading_term(q, order)
    lcm = tuple(max(a, b) for a, b in zip(pexp, qexp))

    def shifted(exp, coeff, poly):
        mono = Polynomial({tuple(l - e for l, e in zip(lcm, exp)): 1 / coeff},
                          poly.variable_count)
        return mono * poly

    return shifted(pexp, pc, p) - shifted(qexp, qc, q)


def run(gens, track=True, order=DEFAULT_ORDER):
    """The basis of one Buchberger run as (value, cofactors) pairs, under
    the cap that OPKIT_TERM_CAP sets."""
    nvars = gens[0].variable_count
    basis, packing = groebner._run_buchberger(
        gens, order, resolve_term_cap(), track=track)
    return [(monic(e.terms, e.lc, nvars, packing),
             tuple(monic(c, e.lc, nvars, packing) for c in e.cofs))
            for e in basis]


def monic(terms, lc, nvars, packing):
    """An integer term map on packed monomials over the scale lc, as a
    Polynomial."""
    return Polynomial._wrap(packing.unpack_terms(terms, lc), nvars)


def combination_holds(value, cofactors, gens):
    acc = Polynomial.zero(value.variable_count)
    for cof, gen in zip(cofactors, gens):
        acc = acc + cof * gen
    return acc == value


def is_unit(value):
    return is_constant(value) and not value.is_zero()


class TestSPolynomial:
    """The reference the Groebner-property test checks S-pairs with."""

    def test_coprime_leading_monomials(self):
        assert s_polynomial(P("x"), P("y")).is_zero()

    def test_constant_result(self):
        assert s_polynomial(P("x+1"), P("x")) == Polynomial.one(2)

    def test_tail_survives(self):
        assert s_polynomial(P("x^2"), P("x^2+y")) == P("-y")

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            s_polynomial(P("0"), P("x"))


class TestBuchberger:
    def test_single_generator(self):
        basis = run([P("x")])
        assert basis == [(P("x"), (Polynomial.one(2),))]

    def test_unit_ideal_pair(self):
        gens = [P("x+1"), P("x")]
        basis = run(gens)
        assert is_unit(basis[-1][0])
        assert all(combination_holds(v, c, gens) for v, c in basis)

    def test_non_unit_ideal_has_no_constant(self):
        assert not any(is_constant(v)
                       for v, _ in run([P("x"), P("x*y+y+1")]))

    def test_all_generators_zero_rejected(self):
        for track in (False, True):
            with pytest.raises(InputError):
                run([P("0"), P("0")], track)

    def test_groebner_property_and_certificates(self):
        rng = random.Random(5)
        non_units = 0
        for _ in range(25):
            nvars = rng.randint(1, 2)
            gens = [random_polynomial(rng, nvars, max_terms=3, max_exp=2,
                                      allow_zero=False)
                    for _ in range(rng.randint(1, 3))]
            tracked = run(gens, track=True)
            untracked = run(gens, track=False)
            values = [v for v, _ in tracked]
            assert [v for v, _ in untracked] == values
            assert all(c == () for _, c in untracked)
            for v, c in tracked:
                assert combination_holds(v, c, gens)
            if is_unit(values[-1]):
                continue  # the run stopped at 1, not at a full basis
            non_units += 1
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    s = s_polynomial(values[i], values[j])
                    if s.is_zero():
                        continue
                    _, r = reference_divide_multi(s, values)
                    assert r.is_zero()
        assert non_units > 0

    def test_determinism(self):
        gens = [P("x^2+y"), P("x*y-1"), P("y^2+x")]
        assert run(gens) == run(gens)

    def test_term_cap_aborts(self, monkeypatch):
        gens = [P("x^7*y^3 - 3*x^2 + 1"), P("x^3*y^7 + y^4 - 2")]
        monkeypatch.setenv("OPKIT_TERM_CAP", "3")
        for track in (False, True):
            with pytest.raises(ResourceLimitError):
                run(gens, track)


class TestContainsOne:
    @pytest.mark.parametrize("gens, expected", [
        (("x+1", "x*y+y+1"), True),
        (("x+1", "x"), True),
        (("x+1", "x^2+x*y+x+y-1"), True),
        (("x*y+y+1", "x", "x^2+x*y+x+y-1"), True),
        (("x", "x*y+y+1"), False),
        (("x*y+y+1", "x^2+x*y+x+y-1"), False),
        (("x", "x^2+x*y+x+y-1"), False),
    ])
    def test_demo_factor_memberships(self, gens, expected):
        cert = contains_one([P(g) for g in gens])
        assert (cert is not None) is expected
        if cert is not None:
            assert cert.verify([P(g) for g in gens])

    def test_certificate_is_checked_exactly(self):
        gens = [P("x+1"), P("x*y+y+1")]
        cert = contains_one(gens)
        acc = Polynomial.zero(2)
        for c, g in zip(cert.cofactors, gens):
            acc = acc + c * g
        assert acc == Polynomial.one(2)

    def test_common_rational_root_refutes_membership(self, rng):
        # generators sharing a rational zero cannot reach 1
        for _ in range(25):
            nvars = rng.randint(1, 2)
            point = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nvars))
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = random_polynomial(rng, nvars, max_terms=4, allow_zero=False)
                value = Fraction(0)
                for exp, coeff in g.terms.items():
                    term = coeff
                    for x, e in zip(point, exp):
                        term *= x ** e
                    value += term
                g = g - Polynomial.constant(value, nvars)
                if not g.is_zero():
                    gens.append(g)
            if not gens:
                continue
            assert contains_one(gens) is None

    def test_sympy_oracle_agreement(self, rng):
        import sympy

        x, y = sympy.symbols(["x", "y"])
        for _ in range(20):
            gens = [random_polynomial(rng, 2, max_terms=3, max_exp=2,
                                      allow_zero=False) for _ in range(2)]
            ours = contains_one(gens) is not None
            gb = sympy.groebner([to_sympy(g, V) for g in gens], x, y,
                                order="grevlex")
            theirs = gb.exprs == [sympy.Integer(1)]
            assert ours is theirs

    def test_constant_generator_shortcut(self):
        cert = contains_one([P("5"), P("x")])
        assert cert is not None and cert.verify([P("5"), P("x")])

    def test_zero_generator_among_nonzero_ones(self):
        # A zero generator enters no basis element, so its cofactor is 0.
        gens = [P("x"), P("0"), P("x+1")]
        assert groebner.is_unit(gens)
        cert = groebner.bezout_certificate(gens)
        assert cert.cofactors[1].is_zero()
        assert cert.verify(gens)


def tracked_contains_one(generators, order=DEFAULT_ORDER):
    """Reference: one Buchberger run that tracks cofactors throughout."""
    basis, packing = groebner._run_buchberger(
        generators, order, resolve_term_cap(), track=True)
    nvars = generators[0].variable_count
    for elem in basis:
        if not any(packing.unpack(elem.lead)):
            cert = BezoutCertificate(tuple(
                monic(cof, elem.lc, nvars, packing) for cof in elem.cofs))
            if not cert.verify(generators):
                raise VerificationError("tracked certificate failed")
            return cert
    return None


def reference_gebauer_moller(leads, queued, events):
    """Reference: the Gebauer-Moller criteria on exponent tuples.

    Pairs for the newest element, ``leads[-1]``: criterion B drops the
    queued pairs whose lcm the new leading monomial divides, unless that lcm
    equals the lcm of either one's pair with the new element; of the new
    pairs, M keeps those of minimal lcm, and F keeps the oldest per lcm,
    none where a pair of that lcm has coprime leading monomials.  Appends
    ("pruned", i, j) to events per dropped pair and ("formed", i, m) per
    returned pair.
    """
    def lcm_of(a, b):
        return tuple(map(max, a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    lead, m = leads[-1], len(leads) - 1
    for pair, lcm in list(queued.items()):
        if (divides(lead, lcm) and lcm_of(leads[pair[0]], lead) != lcm
                and lcm_of(leads[pair[1]], lead) != lcm):
            del queued[pair]
            events.append(("pruned",) + pair)
    groups = {}  # lcm -> (oldest, coprime)
    for i, other in enumerate(leads[:-1]):
        lcm = lcm_of(other, lead)
        oldest, coprime = groups.get(lcm, (i, False))
        groups[lcm] = (oldest, coprime or all(
            a == 0 or b == 0 for a, b in zip(other, lead)))
    formed = sorted(
        oldest for lcm, (oldest, coprime) in groups.items()
        if not coprime and not any(other != lcm and divides(other, lcm)
                                   for other in groups))
    events.extend(("formed", i, m) for i in formed)
    return [(i, lcm_of(leads[i], lead)) for i in formed]


def reference_buchberger(generators, order, track, events=None):
    """Reference: Buchberger on plain Fraction term maps, monic elements.

    It takes the pair policy of ``groebner._run_buchberger`` (Gebauer-Moller
    pairs ranked by sugar, ties by creation, the first applicable divisor)
    and does every step in Fractions and exponent tuples.  Returns (monic
    value, cofactors, leading monomial) per basis element.  If ``events``
    is a list, the run appends ("formed", i, j) and ("pruned", i, j) per
    pair formed and dropped by the criteria, ("popped", i, j) per pair
    taken from the queue and ("reduce",) per S-polynomial reduced.
    """
    key = order_key(order)
    nvars, ngens = generators[0].variable_count, len(generators)
    basis, leads, sugars, pairs, queued = [], [], [], [], {}
    counter = itertools.count()
    events = [] if events is None else events

    def submul(acc, coeff, shift, q):
        for exp, c in q.items():
            exp = tuple(x + y for x, y in zip(exp, shift))
            new = acc.get(exp, 0) - coeff * c
            if new:
                acc[exp] = new
            else:
                acc.pop(exp, None)

    def push(terms, cofs, sugar):
        lead = max(terms, key=key)
        inv = 1 / terms[lead]
        m = len(basis)
        basis.append(({e: c * inv for e, c in terms.items()},
                      [{e: c * inv for e, c in cof.items()} for cof in cofs],
                      lead))
        leads.append(lead)
        sugars.append(sugar)
        for i, lcm in reference_gebauer_moller(leads, queued, events):
            rank = sum(lcm) + max(sugars[i] - sum(leads[i]), sugar - sum(lead))
            heapq.heappush(pairs, (rank, next(counter), i, m))
            queued[i, m] = lcm
        return not any(lead)

    for i, g in enumerate(generators):
        cofs = [{} for _ in range(ngens)] if track else []
        if track:
            cofs[i] = {(0,) * nvars: Fraction(1)}
        if push(dict(g.terms), cofs, g.total_degree()):
            return basis
    while pairs:
        rank, _, i, j = heapq.heappop(pairs)
        events.append(("popped", i, j))
        lcm = queued.pop((i, j), None)
        if lcm is None:
            continue
        events.append(("reduce",))
        (ti, ci, li), (tj, cj, lj) = basis[i], basis[j]
        ishift = tuple(l - a for l, a in zip(lcm, li))
        jshift = tuple(l - b for l, b in zip(lcm, lj))
        terms, cofs = {}, [{} for _ in ci]
        for acc, p, q in zip([terms] + cofs, [ti] + ci, [tj] + cj):
            submul(acc, -1, ishift, p)
            submul(acc, 1, jshift, q)
        remainder = {}
        while terms:
            exp = max(terms, key=key)
            for bt, bc, lead in basis:
                if all(e >= le for e, le in zip(exp, lead)):
                    coeff = terms[exp]
                    shift = tuple(e - le for e, le in zip(exp, lead))
                    for acc, q in zip([terms] + cofs, [bt] + bc):
                        submul(acc, coeff, shift, q)
                    break
            else:
                remainder[exp] = terms.pop(exp)
        if remainder and push(remainder, cofs, rank):
            return basis
    return basis


def unit_family(rng, nvars):
    """Random atoms plus 1 + sum(x_v * g * atom): the family generates 1."""
    atoms = [random_polynomial(rng, nvars, max_terms=3, max_exp=2,
                               allow_zero=False) for _ in range(rng.randint(1, 3))]
    last = Polynomial.one(nvars)
    for atom in atoms:
        v = Polynomial.variable(rng.randrange(nvars), nvars)
        last = last + v * random_polynomial(rng, nvars, max_terms=2,
                                            max_exp=1, allow_zero=False) * atom
    return atoms + [last]


def non_unit_family(rng, nvars):
    """Random generators shifted to vanish at one rational point."""
    point = [Fraction(rng.randint(-2, 2)) for _ in range(nvars)]
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = random_polynomial(rng, nvars, max_terms=4, max_exp=2,
                              allow_zero=False)
        value = sum((c * _monomial_at(e, point) for e, c in g.terms.items()),
                    Fraction(0))
        g = g - Polynomial.constant(value, nvars)
        if not g.is_zero():
            gens.append(g)
    return gens or [Polynomial.variable(0, nvars)]


def _monomial_at(exp, point):
    value = Fraction(1)
    for x, e in zip(point, exp):
        value *= x ** e
    return value


DEMO_JOB = (Path(__file__).resolve().parent.parent / "src" / "opkit" / "data"
            / "demo_job.json")


def certify_ideal_family(rng):
    """Three quadrics in x, y, z and 1 + sum c_k * x_v(k) * P_k: only the
    whole family generates 1."""
    supports = (((0, 0, 0), (0, 0, 2), (1, 0, 1), (1, 1, 0), (2, 0, 0)),
                ((0, 0, 0), (0, 0, 2), (0, 1, 1), (1, 0, 0), (1, 1, 0)),
                ((0, 0, 0), (0, 0, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0)))
    nonzero = [-3, -2, -1, 1, 2, 3]
    atoms = [Polynomial({e: rng.choice(nonzero) for e in support}, 3)
             for support in supports]
    last = Polynomial.one(3)
    for atom, v in zip(atoms, (1, 2, 2)):
        last = last + Polynomial.variable(v, 3) * atom.scale(rng.choice(nonzero))
    return atoms + [last]


class TestValueFirst:
    """contains_one probes on values and replays with cofactors on a hit."""

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_matches_tracked_reference(self, order):
        rng = random.Random(8)
        units = 0
        for trial in range(30):
            nvars = rng.randint(1, 3)
            make = unit_family if trial % 2 else non_unit_family
            gens = make(rng, nvars)
            cert = contains_one(gens, order)
            assert cert == tracked_contains_one(gens, order)
            if make is unit_family:
                assert cert is not None and cert.verify(gens)
                units += 1
            else:
                assert cert is None
        assert units == 15

    def test_random_families_match_reference(self, rng):
        hits = 0
        for _ in range(40):
            gens = [random_polynomial(rng, 2, max_terms=3, max_exp=2,
                                      allow_zero=False)
                    for _ in range(rng.randint(2, 3))]
            cert = contains_one(gens)
            assert cert == tracked_contains_one(gens)
            hits += cert is not None
        assert 0 < hits < 40

    def test_tracked_run_refuses_a_non_unit(self):
        with pytest.raises(MembershipError):
            groebner.bezout_certificate([P("x"), P("x*y")])
        assert groebner.is_unit([P("x"), P("x+1")])
        assert not groebner.is_unit([P("x"), P("x*y")])

    def test_tracked_runs_equal_unit_hits_demo(self, capsys, buchberger_runs):
        assert main(["certify", "--job", str(DEMO_JOB)]) == 0
        capsys.readouterr()
        # Every nonempty subset of the 4 atoms is probed once; beta_min has
        # 4 members.
        assert run_counts(buchberger_runs) == (15, 4)

    def test_tracked_runs_equal_unit_hits_certify_ideal(self, capsys,
                                                        buchberger_runs,
                                                        tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "variables": list("xyz"),
            "factors": [format_polynomial(p, "xyz")
                        for p in certify_ideal_family(random.Random(1))]}))
        assert main(["certify", "--job", str(job)]) == 0
        capsys.readouterr()
        # L and its 4 co-atoms, none of which is a unit, settle every other
        # subset; only L gets the tracked run.
        assert run_counts(buchberger_runs) == (5, 1)

    def test_tracked_runs_equal_unit_hits_no_unit_subset(self, capsys,
                                                         buchberger_runs,
                                                         tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"variables": V,
                                   "factors": ["x", "y", "x+y", "x*y"]}))
        assert main(["certify", "--job", str(job)]) == 4
        capsys.readouterr()
        # L is not a unit, so no subset is.
        assert run_counts(buchberger_runs) == (1, 0)


def assert_groebner_basis(values, generators, order):
    """Buchberger's criterion, with the reference S-polynomial: every S-pair
    of values, and every generator, reduces to zero against values."""
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            s = s_polynomial(values[i], values[j], order)
            assert reference_divide_multi(s, values, order)[1].is_zero()
    for g in generators:
        assert reference_divide_multi(g, values, order)[1].is_zero()


def certify_ideal_triples(rng):
    """The four triples of a certify-ideal family; none generates 1."""
    family = certify_ideal_family(rng)
    return [[family[k] for k in triple]
            for triple in itertools.combinations(range(4), 3)]


def polynomials(nvars):
    """Nonzero polynomials of up to three terms, exponents up to 2."""
    exponents = st.tuples(*[st.integers(0, 2)] * nvars)
    coefficients = st.fractions(-4, 4, max_denominator=3).filter(bool)
    return st.dictionaries(exponents, coefficients, min_size=1,
                           max_size=3).map(lambda t: Polynomial(t, nvars))


class TestPrunedProbe:
    """Both runs prune pairs by the Gebauer-Moller criteria, so the replay
    repeats the probe and only adds cofactors."""

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_non_unit_probe_ends_on_a_groebner_basis(self, order):
        rng = random.Random(21)
        families = [non_unit_family(rng, rng.randint(1, 3))
                    for _ in range(12)]
        triples = certify_ideal_triples(random.Random(1))
        # In lex the triples' bases hold 15 to 23 elements, and checking
        # their S-pairs takes about two seconds; one triple is checked.
        families += triples[3:] if order is MonomialOrder.LEX else triples
        for gens in families:
            values = [v for v, _ in run(gens, track=False, order=order)]
            assert not is_unit(values[-1])
            assert_groebner_basis(values, gens, order)

    @given(st.integers(1, 3).flatmap(
               lambda n: st.lists(polynomials(n), min_size=1, max_size=3)),
           st.sampled_from(list(MonomialOrder)))
    @settings(max_examples=100, deadline=timedelta(seconds=5),
              derandomize=True)
    def test_verdict_matches_tracked_reference(self, gens, order):
        assert contains_one(gens, order) == tracked_contains_one(gens, order)

    def test_replay_repeats_the_probe(self, monkeypatch):
        calls = []
        reduce = groebner._reduce

        def counted(*args):
            calls.append(1)
            return reduce(*args)

        def values_and_reductions(gens, track):
            calls.clear()
            basis, packing = groebner._run_buchberger(
                gens, DEFAULT_ORDER, resolve_term_cap(), track)
            nvars = gens[0].variable_count
            return ([(monic(e.terms, e.lc, nvars, packing),
                      packing.unpack(e.lead)) for e in basis], len(calls))

        monkeypatch.setattr(groebner, "_reduce", counted)
        rng = random.Random(21)
        families = [non_unit_family(rng, rng.randint(1, 3))
                    for _ in range(12)]
        families += certify_ideal_triples(random.Random(1))
        total = 0
        for gens in families:
            probe, probe_calls = values_and_reductions(gens, False)
            replay, replay_calls = values_and_reductions(gens, True)
            assert replay == probe
            assert replay_calls == probe_calls
            total += probe_calls
        assert total > 0


class TestFractionReference:
    """Both runs compute the values of the plain-Fraction reference, element
    for element, and contains_one returns the reference's certificate."""

    @given(st.integers(1, 3).flatmap(
               lambda n: st.lists(polynomials(n), min_size=1, max_size=3)),
           st.sampled_from(list(MonomialOrder)))
    @settings(max_examples=100, deadline=timedelta(seconds=5),
              derandomize=True)
    def test_runs_match_the_reference(self, gens, order):
        nvars = gens[0].variable_count
        for track in (False, True):
            got, packing = groebner._run_buchberger(
                gens, order, resolve_term_cap(), track)
            want = reference_buchberger(gens, order, track)
            assert [(monic(e.terms, e.lc, nvars, packing),
                     [monic(c, e.lc, nvars, packing) for c in e.cofs],
                     packing.unpack(e.lead))
                    for e in got] == [
                (Polynomial._wrap(t, nvars),
                 [Polynomial._wrap(c, nvars) for c in cofs], lead)
                for t, cofs, lead in want]
        cert = contains_one(gens, order)
        if any(want[-1][2]):
            assert cert is None
        else:  # the unit element is the monic constant 1
            assert cert == BezoutCertificate(tuple(
                Polynomial._wrap(c, nvars) for c in want[-1][1]))


class TestTermCapInReplay:
    # The values of the unit family stay within 4 terms; its cofactors do
    # not, and need a cap of 5.  The non-unit family's values need a cap of
    # 4 and its cofactors one of 6, so a cap of 5 stops only the tracked run
    # and a cap of 3 stops the probe.
    UNIT = ("-2/3*x^2*y + 4/3*y^2", "3/2*y^2 + y", "-1/3*x*y^2 - 2/3*x*y + 1")

    def test_unit_search_stops_at_the_cap_in_the_replay(self, monkeypatch):
        gens = [P(g) for g in self.UNIT]
        probe, packing = groebner._run_buchberger(gens, DEFAULT_ORDER, 4,
                                                  track=False)
        assert not any(packing.unpack(probe[-1].lead))
        monkeypatch.setenv("OPKIT_TERM_CAP", "4")
        with pytest.raises(ResourceLimitError):
            contains_one(gens)
        monkeypatch.setenv("OPKIT_TERM_CAP", "5")
        assert contains_one(gens).verify(gens)

    def test_non_unit_search_runs_past_cofactor_growth(self, monkeypatch):
        gens = non_unit_family(random.Random(0), 2)
        assert [format_polynomial(g, V) for g in gens] == [
            "-x^2 + 3/2*x*y - 1/2", "x^2*y - 1"]
        monkeypatch.setenv("OPKIT_TERM_CAP", "5")
        with pytest.raises(ResourceLimitError):
            tracked_contains_one(gens)
        assert contains_one(gens) is None
        monkeypatch.setenv("OPKIT_TERM_CAP", "3")
        with pytest.raises(ResourceLimitError):
            contains_one(gens)

    def test_replay_stops_at_the_certificate_bits_cap(self):
        # 1 = q (x^4 + 1) + r (x - b) with q = 1/(b^4 + 1): for b = 3^2500
        # the cofactors need 15850-bit coefficients, and the replay refuses
        # them in about a millisecond on a 2-CPU x86-64 VM.  Budget: 2 s.
        # With x^3 + 1 they need 11887 bits and pass.
        gens = [P("x^4+1"), P("x-3^2500")]
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="certificate cap 14000"):
            contains_one(gens)
        assert time.perf_counter() - start < 2
        gens = [P("x^3+1"), P("x-3^2500")]
        assert contains_one(gens).verify(gens)

    def test_cli_exit_code_is_3(self, capsys, monkeypatch, tmp_path,
                                buchberger_runs):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"variables": V, "factors": list(self.UNIT)}))
        monkeypatch.setenv("OPKIT_TERM_CAP", "4")
        assert main(["certify", "--job", str(job)]) == 3
        assert "resource limit" in capsys.readouterr().err
        # The probes found 1, and the tracked run raised.
        assert [track for track, _ in buchberger_runs][-2:] == [False, True]


def inter_reduced(polys, order=DEFAULT_ORDER):
    """Reduced Groebner basis of the ideal of a Groebner basis."""
    leads = [leading_term(p, order)[0] for p in polys]
    # Minimalize: drop elements whose leading monomial is divisible by the
    # leading monomial of another kept element (earlier index wins ties).
    minimal = []
    for i, p in enumerate(polys):
        redundant = False
        for j, other in enumerate(leads):
            if j == i:
                continue
            if all(a >= b for a, b in zip(leads[i], other)):
                if leads[i] != other or j < i:
                    redundant = True
                    break
        if not redundant:
            minimal.append(p)
    reduced = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            _, r = reference_divide_multi(p, others, order)
        else:
            r = p
        if not r.is_zero():
            lc = leading_term(r, order)[1]
            reduced.append(r.scale(Fraction(1) / lc))
    reduced.sort(key=lambda q: order_key(order)(leading_term(q, order)[0]))
    return tuple(reduced)


class TestInterReduced:
    def test_matches_sympy_reduced_basis(self, rng):
        import sympy

        x, y = sympy.symbols(["x", "y"])
        for _ in range(10):
            gens = [random_polynomial(rng, 2, max_terms=3, max_exp=2,
                                      allow_zero=False) for _ in range(2)]
            ours = inter_reduced([v for v, _ in run(gens, track=False)])
            gb = sympy.groebner([to_sympy(g, V) for g in gens], x, y,
                                order="grevlex")
            theirs = sorted((sympy.expand(e / sympy.LC(e, gens=(x, y), order="grevlex"))
                             for e in gb.exprs), key=sympy.default_sort_key)
            ours_sympy = sorted((to_sympy(p, V) for p in ours),
                                key=sympy.default_sort_key)
            assert ours_sympy == theirs


def exponents(nvars, top):
    return st.tuples(*[st.integers(0, top)] * nvars)


class TestPacking:
    """A run's packed monomials: one int each, whose sums, guard bits and
    order are those of the exponent tuples."""

    @given(st.integers(1, 4), st.integers(7, 12),
           st.sampled_from(list(MonomialOrder)), st.data())
    @settings(max_examples=200, derandomize=True)
    def test_arithmetic_matches_tuples(self, n, bits, order, data):
        # Exponents up to 40, as small as the field needs: the degree of
        # a + b, the largest one formed, stays below 2^bits.
        top = min(40, ((1 << bits) - 1) // (2 * n))
        a, b = data.draw(st.tuples(exponents(n, top), exponents(n, top)))
        packing = poly.Packing(n, order, bits)
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a and packing.degree(pa) == sum(a)
        assert packing.unpack(pa + pb) == tuple(map(sum, zip(a, b)))
        divides = all(x <= y for x, y in zip(a, b))
        assert (not (pb - pa) & packing.guards) is divides
        lcm = packing.lcm(pa, pb)
        assert lcm == packing.pack(tuple(map(max, a, b)))
        key = packing.key or (lambda m: m)
        reference = order_key(order)
        assert (key(pa) < key(pb)) is (reference(a) < reference(b))

    def test_constant_is_zero_and_guard_bits_show_overflow(self):
        packing = poly.Packing(2, DEFAULT_ORDER, 3)
        assert packing.pack((0, 0)) == 0
        assert packing.pack((3, 4)) == packing.pack((3, 0)) + packing.pack((0, 4))
        with pytest.raises(poly.FieldOverflow, match="packing"):
            packing.pack((4, 4))
        with pytest.raises(poly.FieldOverflow, match="lcm"):
            packing.lcm(packing.pack((7, 0)), packing.pack((0, 1)))


def record_overflows(monkeypatch):
    """The site of every field overflow, in the order they are raised."""
    sites = []

    class Recorded(poly.FieldOverflow):
        def __init__(self, site):
            sites.append(site)
            super().__init__(site)

    monkeypatch.setattr(poly, "FieldOverflow", Recorded)
    return sites


class TestWidening:
    """A degree that reaches a guard bit restarts the run with fields twice
    as wide, whatever site it reaches first; the values, leading monomials
    and certificate are those of a run that starts wide."""

    # A triple of a certify-ideal family in lex, and a lex unit family with
    # a tail of degree 5 under a leading x: started at 1 to 3 bits, they
    # overflow at packing, at an lcm, at an S-pair shift and at a reduction
    # shift.
    UNIT = ("x - y^5", "x^2 + 1", "y^2 - 1")

    def test_every_site_widens_to_the_wide_result(self, monkeypatch):
        lex = MonomialOrder.LEX
        families = [certify_ideal_triples(random.Random(1))[0],
                    [P(g) for g in self.UNIT]]
        sites = record_overflows(monkeypatch)
        wide = [([run(gens, track, lex) for track in (False, True)],
                 contains_one(gens, lex)) for gens in families]
        assert sites == []
        assert [cert is None for _, cert in wide] == [True, False]
        for bits in (1, 2, 3):
            monkeypatch.setattr(groebner, "_start_bits",
                                lambda generators: bits)
            for gens, (runs, cert) in zip(families, wide):
                assert [run(gens, track, lex)
                        for track in (False, True)] == runs
                assert contains_one(gens, lex) == cert
        assert set(sites) == {"packing", "lcm", "S-pair shift",
                              "reduction shift"}

    def test_workload_shaped_runs_start_wide_enough(self, monkeypatch):
        sites = record_overflows(monkeypatch)
        for gens in certify_ideal_triples(random.Random(1)):
            assert contains_one(gens) is None
        assert sites == []


def packed_run_events(monkeypatch, gens, order, track):
    """The events of reference_buchberger, read off a packed run by wrapping
    its pair criteria, its queue and its reductions; and its unpacked
    leading monomials."""
    events = []
    gebauer_moller, reduce = groebner._gebauer_moller, groebner._reduce

    def criteria(leads, queued, packing):
        before = list(queued)
        formed = gebauer_moller(leads, queued, packing)
        events.extend(("pruned",) + pair for pair in before
                      if pair not in queued)
        events.extend(("formed", i, len(leads) - 1) for i in formed)
        return formed

    def heappop(heap):
        item = heapq.heappop(heap)
        events.append(("popped",) + item[2:])
        return item

    def reduction(*args):
        events.append(("reduce",))
        return reduce(*args)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_gebauer_moller", criteria)
        patch.setattr(groebner, "_reduce", reduction)
        patch.setattr(groebner, "heapq", types.SimpleNamespace(
            heappush=heapq.heappush, heappop=heappop))
        basis, packing = groebner._run_buchberger(
            gens, order, resolve_term_cap(), track)
    return events, [packing.unpack(e.lead) for e in basis]


class TestPairCounts:
    """The packed run forms, prunes, pops and reduces the pairs of the
    tuple reference, in its order: deterministic counts, no timing."""

    @pytest.mark.parametrize("order, families, counts", [
        (DEFAULT_ORDER, certify_ideal_triples(random.Random(1)),
         {"formed": 86, "popped": 86, "reduce": 86}),
        (MonomialOrder.LEX, certify_ideal_triples(random.Random(2))[3:],
         {"formed": 54, "pruned": 12, "popped": 54, "reduce": 42}),
        (MonomialOrder.GRLEX, [certify_ideal_family(random.Random(2))],
         {"formed": 12, "pruned": 6, "popped": 6, "reduce": 6}),
    ], ids=["certify-ideal-triples", "lex-triple", "grlex-unit-family"])
    def test_events_match_the_reference(self, monkeypatch, order, families,
                                        counts):
        kinds = collections.Counter()
        for gens in families:
            for track in (False, True):
                want = []
                leads = [lead for _, _, lead in
                         reference_buchberger(gens, order, track, want)]
                got, got_leads = packed_run_events(monkeypatch, gens, order,
                                                   track)
                assert got == want
                assert got_leads == leads
                assert got.count(("reduce",)) == want.count(("reduce",))
                kinds.update(event[0] for event in got)
        assert kinds == counts  # over the probe and the replay


def dividends(nvars):
    """Polynomials of up to six terms, exponents up to 4, zero included."""
    coefficients = st.fractions(-9, 9, max_denominator=4).filter(bool)
    return st.dictionaries(exponents(nvars, 4), coefficients,
                           max_size=6).map(lambda t: Polynomial(t, nvars))


class TestDivideMulti:
    """divide_multi is Buchberger's reduction on packed integers; it returns
    the quotients and remainder of the plain-Fraction reference."""

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               dividends(n), st.lists(polynomials(n), min_size=1,
                                      max_size=3))),
           st.sampled_from(list(MonomialOrder)))
    @settings(max_examples=300, deadline=timedelta(seconds=5),
              derandomize=True)
    def test_matches_the_reference(self, case, order):
        p, divisors = case
        assert (divide_multi(p, divisors, order)
                == reference_divide_multi(p, divisors, order))

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_zero_dividend(self, order):
        zero = Polynomial.zero(2)
        assert divide_multi(zero, [P("x+1"), P("y")], order) == (
            [zero, zero], zero)

    def test_division_that_widens_its_fields(self, monkeypatch):
        # Under lex each step trades an x for y^500: the run starts with
        # 10-bit fields, and the degree 1500 of y^1000 * (x - y^500)
        # restarts it at 20.
        sites = record_overflows(monkeypatch)
        p, divisor = P("x^3"), P("x - y^500")
        got = divide_multi(p, [divisor], MonomialOrder.LEX)
        assert sites == ["reduction shift"]
        assert got == ([P("x^2 + x*y^500 + y^1000")], P("y^1500"))
        assert got == reference_divide_multi(p, [divisor], MonomialOrder.LEX)

    def test_term_cap(self, monkeypatch):
        # x^4 = (x^3 + x^2 + x + 1)(x - 1) + 1: the quotient, carried as a
        # cofactor, grows to four terms.
        p, divisors = P("x^4"), [P("x-1")]
        monkeypatch.setenv("OPKIT_TERM_CAP", "3")
        with pytest.raises(ResourceLimitError, match="exceeds cap 3"):
            divide_multi(p, divisors)
        monkeypatch.setenv("OPKIT_TERM_CAP", "4")
        assert divide_multi(p, divisors) == ([P("x^3+x^2+x+1")], P("1"))

    def test_certificate_bits_cap(self):
        # Each step divides by 2^4000: x^k reaches the constant over
        # 2^(4000 k), and the step that cancels the x of x^5 cancels a
        # 16001-bit coefficient.  x^4 cancels none past the cap, but
        # would return the remainder 1/2^16000; x^3 returns -1/2^12000.
        divisors = [P("2^4000*x + 1")]
        for k in (5, 4):
            with pytest.raises(ResourceLimitError,
                               match="certificate cap 14000"):
                divide_multi(P(f"x^{k}"), divisors)
        quotients, remainder = divide_multi(P("x^3"), divisors)
        assert remainder == Polynomial.constant(Fraction(-1, 2**12000), 2)
        assert ((quotients, remainder)
                == reference_divide_multi(P("x^3"), divisors))
