"""Products of several factors and the identity checks run in one integer
pass (``kernels.poly_sum_of_products``).  Each is checked against the binary
Fraction loop it replaced, kept here as a reference, and counted: a check or
a product is one kernel call and no ``poly_mul``."""

import itertools
import random

import pytest

import opkit.kernels
from opkit.certify import (Certificate, DualCertificate, alpha_to_dual,
                           dual_to_alpha, plan_dual_certificate, verify_certificate)
from opkit.errors import InputError
from opkit.groebner import BezoutCertificate, contains_one
from opkit.planner import plan_decomposition
from opkit.poly import Polynomial, parse_polynomial, product, sum_of_products
from opkit.reducer import (SystemCertificate, find_system_certificate,
                           verify_system_certificate)

from conftest import random_polynomial, run_counts

V = ["x", "y"]


def P(text, variables=V):
    return parse_polynomial(text, variables)


def demo_factors():
    return [P("x+1"), P("x*y+y+1"), P("x"), P("x^2+x*y+x+y-1")]


# -- the binary Fraction loops the kernel replaced ---------------------------

def old_product(polys, nvars):
    result = Polynomial.one(nvars)
    for p in polys:
        result = result * p
    return result


def old_verify_certificate(cert, factors):
    nvars = factors[0].variable_count
    one = Polynomial.one(nvars)
    if isinstance(cert, Certificate):
        acc = Polynomial.zero(nvars)
        for J, q in cert.sorted_items():
            acc = acc + q * old_product(
                [f for i, f in enumerate(factors) if i not in J], nvars)
        residual = acc - one
        return residual.is_zero(), residual
    for J, items in cert.sorted_items():
        acc = Polynomial.zero(nvars)
        for j, q in items:
            acc = acc + q * factors[j]
        residual = acc - one
        if not residual.is_zero():
            return False, residual
    return True, Polynomial.zero(nvars)


def old_bezout_verify(cert, generators):
    nvars = generators[0].variable_count
    acc = Polynomial.zero(nvars)
    for cof, gen in zip(cert.cofactors, generators):
        acc = acc + cof * gen
    return acc == Polynomial.one(nvars)


def old_verify_system(sys_cert, factors, constraints):
    nvars = factors[0].variable_count
    acc = Polynomial.zero(nvars)
    for i, q in enumerate(sys_cert.q_cofactors):
        acc = acc + q * old_product(
            [f for k, f in enumerate(factors) if k != i], nvars)
    for s, r in zip(sys_cert.s_cofactors, constraints):
        acc = acc + s * r
    residual = acc - Polynomial.one(nvars)
    return residual.is_zero(), residual


def perturbed(rng, q):
    return q + random_polynomial(rng, q.variable_count, 3, allow_zero=False)


def demo_certificates():
    plan = plan_decomposition(demo_factors())
    dual = plan_dual_certificate(plan)
    return dual, dual_to_alpha(dual, plan.atoms)


def ideal_shaped_atoms(rng):
    """Three quadrics and 1 + sum c_k x_v(k) P_k, as certify-ideal builds
    them: only the whole family generates 1."""
    names = ["x", "y", "z"]
    supports = (("1", "z^2", "x*z", "x*y", "x^2"),
                ("1", "z^2", "y*z", "x", "x*y"),
                ("1", "z", "y^2", "x*z", "x*y"))
    atoms = [P(" + ".join(f"({rng.randint(1, 9)})*{m}" for m in s), names)
             for s in supports]
    last = Polynomial.one(3)
    for atom, v in zip(atoms, ("y", "z", "z")):
        last = last + P(f"{rng.choice((-2, -1, 1, 2))}*{v}", names) * atom
    return atoms + [last]


# -- equal to the old loops --------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_product_matches_binary_loop(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    polys = [random_polynomial(rng, nvars) for _ in range(rng.randint(0, 4))]
    assert product(polys, nvars) == old_product(polys, nvars)


def test_verify_certificate_matches_old_loop_on_demo():
    rng = random.Random(5)
    factors = demo_factors()
    for cert in demo_certificates():
        assert verify_certificate(cert, factors) == \
            old_verify_certificate(cert, factors) == \
            (True, Polynomial.zero(2))
        for _ in range(4):
            if isinstance(cert, Certificate):
                J = rng.choice(sorted(cert.cofactors, key=sorted))
                bad = Certificate(cert.alpha, {
                    **cert.cofactors, J: perturbed(rng, cert.cofactors[J])})
            else:
                J = rng.choice(sorted(cert.cofactors, key=sorted))
                j = rng.choice(sorted(J))
                row = dict(cert.cofactors[J])
                row[j] = perturbed(rng, row[j])
                bad = DualCertificate(cert.beta, {**cert.cofactors, J: row})
            ok, residual = verify_certificate(bad, factors)
            assert not ok
            assert (ok, residual) == old_verify_certificate(bad, factors)


def test_alpha_to_dual_matches_old_contributions():
    factors = demo_factors()
    _, cert = demo_certificates()
    L = frozenset(range(len(factors)))
    usable = [I for I in map(frozenset, itertools.combinations(L, 2))
              if all(I - J for J in cert.alpha)]
    assert usable
    for I in usable:
        want: dict = {}
        for J, q in cert.sorted_items():
            i = min(I - J)
            rest = sorted((L - J) - {i})
            want[i] = want.get(i, Polynomial.zero(2)) + \
                q * old_product([factors[k] for k in rest], 2)
        assert dict(alpha_to_dual(cert, I, factors).cofactors[I]) == want


@pytest.mark.parametrize("seed", range(4))
def test_bezout_verify_matches_old_loop(seed):
    rng = random.Random(40 + seed)
    gens = [random_polynomial(rng, 2, allow_zero=False) for _ in range(2)]
    gens.append(gens[0] + Polynomial.one(2))
    cert = contains_one(gens)
    assert cert is not None
    assert cert.verify(gens) is old_bezout_verify(cert, gens) is True
    for i in range(len(gens)):
        cofs = list(cert.cofactors)
        cofs[i] = perturbed(rng, cofs[i])
        bad = BezoutCertificate(tuple(cofs))
        assert bad.verify(gens) is old_bezout_verify(bad, gens) is False


def test_system_certificate_matches_old_loop():
    rng = random.Random(9)
    x = ["x"]
    repeated, coprime = [P("x+1", x), P("x+1", x)], [P("x+1", x), P("x+2", x)]
    for factors, constraints in ((repeated, [P("x", x)]),
                                 (repeated, [P("x", x), P("x+2", x)]),
                                 (coprime, [])):
        sys_cert = find_system_certificate(factors, constraints)
        assert sys_cert is not None
        got = verify_system_certificate(sys_cert, factors, constraints)
        assert got == old_verify_system(sys_cert, factors, constraints)
        assert got[0]
        cofs = sys_cert.q_cofactors + sys_cert.s_cofactors
        for i in range(len(cofs)):
            bent = list(cofs)
            bent[i] = perturbed(rng, bent[i])
            bad = SystemCertificate(tuple(bent[:len(factors)]),
                                    tuple(bent[len(factors):]))
            got = verify_system_certificate(bad, factors, constraints)
            assert not got[0]
            assert got == old_verify_system(bad, factors, constraints)


def test_mixed_variable_counts_raise():
    two, three = P("x+1"), P("x+1", ["x", "y", "z"])
    with pytest.raises(InputError):
        product([two, three], 2)
    with pytest.raises(InputError):
        sum_of_products([[two], [two, three]], 2)
    with pytest.raises(InputError):
        BezoutCertificate((P("1"), P("0", ["x", "y", "z"]))).verify(
            [two, P("x")])
    factors = demo_factors()
    dual, cert = demo_certificates()
    J = next(iter(cert.cofactors))
    with pytest.raises(InputError):
        verify_certificate(
            Certificate(cert.alpha, {**cert.cofactors, J: three}), factors)
    J = next(iter(dual.cofactors))
    j = min(J)
    with pytest.raises(InputError):
        verify_certificate(DualCertificate(dual.beta, {
            **dual.cofactors, J: {**dual.cofactors[J], j: three}}), factors)
    with pytest.raises(InputError):
        verify_system_certificate(
            SystemCertificate((three,), (P("1"),)), [two], [P("x")])


# -- counted: one kernel call per identity or product, no poly_mul ----------

@pytest.fixture
def kernel_calls(monkeypatch):
    calls = {"poly_mul": 0, "poly_sum_of_products": 0}
    for name in calls:
        kernel = getattr(opkit.kernels, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(opkit.kernels, name, counted)
    return calls


def test_demo_verification_counts(kernel_calls):
    factors = demo_factors()
    dual, cert = demo_certificates()
    kernel_calls.update(poly_mul=0, poly_sum_of_products=0)
    assert verify_certificate(cert, factors)[0]
    assert kernel_calls == {"poly_mul": 0, "poly_sum_of_products": 1}
    assert verify_certificate(dual, factors)[0]
    assert kernel_calls == {"poly_mul": 0,
                            "poly_sum_of_products": 1 + len(dual.beta)}


@pytest.mark.parametrize("seed", range(3))
def test_planning_counts(kernel_calls, buchberger_runs, seed):
    atoms = ideal_shaped_atoms(random.Random(seed))
    kernel_calls.update(poly_mul=0, poly_sum_of_products=0)
    plan = plan_decomposition(atoms)
    assert plan.beta_min.canonical() == [[0, 1, 2, 3]]
    # Five probes and no certificate; each component is one product.
    assert run_counts(buchberger_runs) == (5, 0)
    assert kernel_calls == {"poly_mul": 0,
                            "poly_sum_of_products": len(plan.components)}
    # The dual certificate makes the one tracked run: its Bezout identity
    # is checked where it is built, and is the dual's one identity.
    kernel_calls.update(poly_mul=0, poly_sum_of_products=0)
    plan_dual_certificate(plan)
    assert run_counts(buchberger_runs) == (5, 1)
    assert kernel_calls == {"poly_mul": 0, "poly_sum_of_products": 1}

