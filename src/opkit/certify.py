"""Construction and exact verification of decomposition certificates.

A certificate proves an identity of the form

    1 = sum over J in alpha of Q_J * P^J

where P^J multiplies the factors NOT indexed by J; a dual certificate
proves, for every J in its family, 1 = sum over j in J of Q_{J,j} * P_j.
Both directions of the conversion between the two kinds are constructive
and every constructor verifies its output exactly before returning it.
Cofactors are not unique; callers must compare certificates by
verification, never by literal equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (InputError, MembershipError, ResourceLimitError,
                     VerificationError)
from .groebner import BezoutCertificate, bezout_certificate, contains_one
from .planner import (DecompositionPlan, IndexSet, SetSystem, _check_atoms,
                      max_elements)
from .poly import (DEFAULT_ORDER, MonomialOrder, Polynomial,
                   _check_certificate_bits, product, resolve_term_cap,
                   sum_of_products)


@dataclass(frozen=True)
class Certificate:
    """Cofactors Q_J proving 1 = sum_J Q_J * P^J over the family alpha."""

    alpha: SetSystem
    cofactors: Mapping[IndexSet, Polynomial]

    def sorted_items(self) -> list[tuple[IndexSet, Polynomial]]:
        return sorted(self.cofactors.items(), key=lambda kv: sorted(kv[0]))


@dataclass(frozen=True)
class DualCertificate:
    """Per-J cofactors Q_{J,j} proving 1 = sum_{j in J} Q_{J,j} * P_j."""

    beta: SetSystem
    cofactors: Mapping[IndexSet, Mapping[int, Polynomial]]

    def sorted_items(self) -> list[tuple[IndexSet, list[tuple[int, Polynomial]]]]:
        return sorted(
            ((J, sorted(m.items())) for J, m in self.cofactors.items()),
            key=lambda kv: sorted(kv[0]))


@dataclass(frozen=True)
class UnivariateSpec:
    """Pairwise-distinct shifts l_i defining factors (x + l_i)."""

    lambdas: tuple[Fraction, ...]

    def __post_init__(self):
        if len(set(self.lambdas)) != len(self.lambdas):
            raise InputError("repeated lambda: confluent case unsupported")

    @classmethod
    def of(cls, values: Iterable) -> "UnivariateSpec":
        return cls(tuple(Fraction(v) for v in values))


def factor_product_complement(factors: Sequence[Polynomial], J: IndexSet) -> Polynomial:
    """P^J: the product of the factors whose index is NOT in J."""
    nvars = factors[0].variable_count
    return product((f for i, f in enumerate(factors) if i not in J), nvars)


def factor_product(factors: Sequence[Polynomial], J: Iterable[int]) -> Polynomial:
    """P_J: the product of the factors indexed by J."""
    nvars = factors[0].variable_count
    return product((factors[i] for i in sorted(J)), nvars)


def verify_certificate(cert, factors: Sequence[Polynomial]
                       ) -> tuple[bool, Polynomial]:
    """Exact check of the defining identity; returns (ok, left side minus 1).

    Accepts either certificate kind.  For a dual certificate the residual
    reported is the first nonzero per-J residual (zero when all hold).
    Each identity's left side is one :func:`~opkit.poly.sum_of_products`
    call, on integers over packed monomials: the alpha identity's groups
    are the factors of P^J then Q_J, a dual identity's are P_j then Q_{J,j}.
    """
    nvars = _check_atoms(factors)
    one = Polynomial.one(nvars)
    if isinstance(cert, Certificate):
        residual = sum_of_products(
            ([f for i, f in enumerate(factors) if i not in J] + [q]
             for J, q in cert.sorted_items()), nvars) - one
        return residual.is_zero(), residual
    if isinstance(cert, DualCertificate):
        for J, items in cert.sorted_items():
            residual = sum_of_products(
                ([factors[j], q] for j, q in items), nvars) - one
            if not residual.is_zero():
                return False, residual
        return True, Polynomial.zero(nvars)
    raise InputError(f"unsupported certificate type {type(cert).__name__}")


def _require_verified(cert, factors: Sequence[Polynomial]) -> None:
    """Raise unless a certificate from outside passes its exact check."""
    ok, _ = verify_certificate(cert, factors)
    if not ok:
        raise VerificationError("certificate failed its exact verification")


def _singleton_cofactors(cert: Certificate,
                         factors: Sequence[Polynomial]) -> list[Polynomial]:
    """Q_0 .. Q_l of a singleton-family certificate, in index order."""
    ell = len(factors) - 1
    singletons = {frozenset((i,)) for i in range(ell + 1)}
    if set(cert.alpha.sets) != singletons:
        raise InputError("a singleton-family certificate is required")
    return [cert.cofactors[frozenset((i,))] for i in range(ell + 1)]


def _verified(cert, factors, what: str):
    ok, residual = verify_certificate(cert, factors)
    if not ok:
        raise VerificationError(f"internal error: {what} failed its exact check")
    return cert


def univariate_factors(spec: UnivariateSpec) -> list[Polynomial]:
    """The factors (x + l_i) in one variable."""
    x = Polynomial.variable(0, 1)
    return [x + Polynomial.constant(lam, 1) for lam in spec.lambdas]


def univariate_certificate(spec: UnivariateSpec) -> Certificate:
    """Constant cofactors a_i = prod_{j != i} 1/(l_j - l_i) over the singletons.

    This is the partial-fraction decomposition of the unit for a product of
    distinct linear factors; for a single factor it degenerates to 1 = 1.
    """
    lambdas = spec.lambdas
    ell = len(lambdas) - 1
    cofactors: dict[IndexSet, Polynomial] = {}
    for i, li in enumerate(lambdas):
        alpha_i = Fraction(1)
        for j, lj in enumerate(lambdas):
            if j != i:
                alpha_i /= (lj - li)
        _check_certificate_bits((alpha_i,), "a partial-fraction cofactor")
        cofactors[frozenset((i,))] = Polynomial.constant(alpha_i, 1)
    cert = Certificate(
        SetSystem.of(ell, [[i] for i in range(ell + 1)]), cofactors)
    return _verified(cert, univariate_factors(spec), "univariate certificate")


def dual_certificate(factors: Sequence[Polynomial], beta: SetSystem,
                     order: MonomialOrder = DEFAULT_ORDER) -> DualCertificate:
    """Bezout cofactors for every J in beta, found by certified Buchberger runs.

    Raises MembershipError naming the first J whose factor ideal does not
    contain 1.
    """
    return _dual_from_bezout(
        factors, beta,
        lambda indices: contains_one([factors[j] for j in indices], order))


def plan_dual_certificate(plan: DecompositionPlan) -> DualCertificate:
    """The dual certificate over ``plan.beta_min``: one tracked run per
    member, on its factors in increasing index order, and no probe, since
    the plan's search found every member a unit."""
    atoms = plan.atoms
    return _dual_from_bezout(
        atoms, plan.beta_min,
        lambda indices: bezout_certificate([atoms[j] for j in indices],
                                           plan.order))


def _dual_from_bezout(factors: Sequence[Polynomial], beta: SetSystem,
                      bezout: Callable[[list[int]], Optional[BezoutCertificate]]
                      ) -> DualCertificate:
    _check_atoms(factors)
    if beta.ground != len(factors) - 1:
        raise InputError(
            f"beta ground {beta.ground} does not match {len(factors)} factors")
    cofactors: dict[IndexSet, dict[int, Polynomial]] = {}
    for J in beta:
        indices = sorted(J)
        if not indices:
            raise InputError("the empty set cannot appear in a dual family")
        bez = bezout(indices)
        if bez is None:
            raise MembershipError(
                f"1 is not in the ideal of factors {indices}")
        cofactors[J] = {j: q for j, q in zip(indices, bez.cofactors)}
    # Each member's identity is its Bezout identity, checked when built.
    return DualCertificate(beta, cofactors)


def dual_to_alpha(dual: DualCertificate,
                  factors: Sequence[Polynomial]) -> Certificate:
    """Multiply the per-J identities of a dual certificate into one identity.

    Expanding the product over all choice functions c (one index per J)
    gives terms carrying prod_J P_{c(J)}; the factor product of S = image(c)
    divides it, the excess powers fold into the cofactor, and the term lands
    on the index set L \\ S.  The expansion runs over the subset lattice,
    not over the prod |J| choice functions: the identities are multiplied
    in one at a time, keeping one running cofactor q_S per used-index set S
    (at most 2^(l+1) states).  Choosing a new index j of the next J moves S
    to S | {j} with q_S * Q_{J,j}.  Every index of J that S already holds
    keeps the term on S, times Q_{J,j} P_j, so those terms are grouped:
    S gains q_S * m once, with m the sum of Q_{J,j} P_j over j in J & S.
    Each m is formed once per distinct J & S, and each Q_{J,j} P_j only
    for an index some such m needs.  A state that holds all of J gains q_S
    itself and forms nothing, since its m is the left side of J's own
    identity, which is 1.  Each step is distributivity over exact values,
    so every state, and so every cofactor, is the same polynomial as the
    choice-function expansion gives; an invalid dual, whose m is not 1,
    yields an identity that fails the final exact check.  Then each
    non-maximal set is absorbed into the first maximal superset (which
    keeps the identity exact and matches working with the Max of the
    family).  Every product formed is held to the term cap and
    ``CERTIFICATE_BITS_CAP``.
    """
    nvars = _check_atoms(factors)
    cap = resolve_term_cap()
    ell = len(factors) - 1
    if dual.beta.ground != ell:
        raise InputError("dual certificate ground does not match factor count")
    members = [sorted(J) for J in dual.beta]
    if not members:
        raise InputError("dual certificate has an empty family")

    def capped_mul(a: Polynomial, b: Polynomial) -> Polynomial:
        out = a * b
        if out.term_count() > cap:
            raise ResourceLimitError(
                f"cofactor expansion exceeded the term cap ({cap})")
        _check_certificate_bits(out.terms.values(), "a cofactor expansion")
        return out

    states: dict[IndexSet, Polynomial] = {frozenset(): Polynomial.one(nvars)}
    for J in sorted(members):
        whole = frozenset(J)
        row = dual.cofactors[whole]
        partial = {S & whole for S in states} - {whole, frozenset()}
        repeat = {j: capped_mul(row[j], factors[j])
                  for j in sorted(frozenset().union(*partial))}
        multiplier = {H: reduce(Polynomial.__add__,
                                [repeat[j] for j in sorted(H)])
                      for H in partial}
        step: dict[IndexSet, Polynomial] = {}

        def add(target: IndexSet, term: Polynomial) -> None:
            step[target] = step[target] + term if target in step else term

        for S, q in states.items():
            H = S & whole
            if H == whole:
                add(S, q)
            elif H:
                add(S, capped_mul(q, multiplier[H]))
            for j in J:
                if j not in S:
                    add(S | {j}, capped_mul(q, row[j]))
        states = {S: q for S, q in step.items() if not q.is_zero()}
    L = frozenset(range(ell + 1))
    grouped = {L - S: q for S, q in states.items()}

    maximal = sorted(
        max_elements(SetSystem(ell, frozenset(grouped))).sets,
        key=sorted)
    final: dict[IndexSet, Polynomial] = {}
    for K in sorted(grouped, key=sorted):
        q = grouped[K]
        target = K if K in maximal else next(M for M in maximal if K <= M)
        if target != K:
            q = capped_mul(q, factor_product(factors, target - K))
        final[target] = final.get(target, Polynomial.zero(nvars)) + q
    final = {K: q for K, q in final.items() if not q.is_zero()}
    for q in final.values():  # a sum of capped products may pass the cap
        _check_certificate_bits(q.terms.values(), "an alpha cofactor")

    cert = Certificate(SetSystem(ell, frozenset(final)), final)
    return _verified(cert, factors, "converted certificate")


def alpha_to_dual(cert: Certificate, I: Iterable[int],
                  factors: Sequence[Polynomial]) -> DualCertificate:
    """Rewrite an alpha-certificate as the dual identity for one index set I.

    Requires I \\ J nonempty for every J in alpha.  Each term Q_J * P^J is
    rewritten through the factor indexed by min(I \\ J) and the terms are
    grouped by that index.
    """
    nvars = _check_atoms(factors)
    I = frozenset(I)
    ell = len(factors) - 1
    if not all(0 <= i <= ell for i in I):
        raise InputError(f"I = {sorted(I)} is not a subset of the index set")
    for J in cert.alpha:
        if not I - J:
            raise InputError(
                f"I = {sorted(I)} minus alpha member {sorted(J)} is empty; "
                f"the rewriting requires a free index for every member")
    L = frozenset(range(ell + 1))
    groups: dict[int, list[list[Polynomial]]] = {}
    for J, q in cert.sorted_items():
        i_j = min(I - J)
        rest = (L - J) - {i_j}
        groups.setdefault(i_j, []).append(
            [factors[i] for i in sorted(rest)] + [q])
    out = DualCertificate(
        SetSystem.of(ell, [sorted(I)]),
        {I: {i: sum_of_products(g, nvars) for i, g in groups.items()}})
    return _verified(out, factors, "dual rewrite")


def alpha_to_dual_system(cert: Certificate, beta: SetSystem,
                         factors: Sequence[Polynomial]) -> DualCertificate:
    """Dual certificate covering every member of beta via alpha_to_dual,
    which checks each member's identity exactly."""
    cofactors: dict[IndexSet, Mapping[int, Polynomial]] = {}
    for I in beta:
        single = alpha_to_dual(cert, I, factors)
        cofactors[I] = single.cofactors[I]
    return DualCertificate(beta, cofactors)


def true_decomposition_certificate(
    factors: Sequence[Polynomial],
    order: MonomialOrder = DEFAULT_ORDER,
) -> Certificate:
    """Certificate over the singleton family, from all pairwise identities.

    Requires every factor pair to generate the unit ideal.  Missing
    singletons (cancelled cofactors) are padded with explicit zeros so the
    family is exactly the singletons.  The identity is the one
    ``dual_to_alpha`` checked; one factor gives 1 = 1 * 1, with nothing to
    check.
    """
    nvars = _check_atoms(factors)
    ell = len(factors) - 1
    if ell == 0:
        return Certificate(SetSystem.of(0, [[0]]),
                           {frozenset((0,)): Polynomial.one(nvars)})
    from itertools import combinations
    beta = SetSystem.of(ell, [list(c) for c in combinations(range(ell + 1), 2)])
    dual = dual_certificate(factors, beta, order)
    cert = dual_to_alpha(dual, factors)
    cofactors = dict(cert.cofactors)
    for i in range(ell + 1):
        cofactors.setdefault(frozenset((i,)), Polynomial.zero(nvars))
    if any(len(J) != 1 for J in cofactors):
        raise VerificationError(
            "internal error: pairwise conversion left a non-singleton set")
    return Certificate(
        SetSystem.of(ell, [[i] for i in range(ell + 1)]), cofactors)
