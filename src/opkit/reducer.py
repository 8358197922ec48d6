"""Apply certificates to problems: split P u = f into lower-order pieces.

Given a verified certificate over the family alpha, the problem P u = f is
equivalent to the family P_J u_J = f (same right-hand side), with the
recombination u = sum Q_J u_J mapping subproblem solutions onto solutions
and u -> (P^J u) splitting them back.  On a finite-dimensional instance
those subproblems are solved exactly and the two maps are checked as exact
matrix identities.

The constrained variant handles one factored equation P u = f together
with side conditions R^(j) u = g^j: a certificate of the extended form
1 = sum Q_i P^i + sum S_p R^(p) turns the system into one lower-order
system per factor, in one-to-one correspondence with the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .backend import (_ZERO, AffineSolutionSet, Matrix, OperatorInstance,
                      Vector, as_vector, instantiate, solve_affine,
                      span_basis)
from .certify import (Certificate, _require_verified, factor_product,
                      factor_product_complement)
from .errors import (InputError, IntegrabilityError, VerificationError)
from .groebner import contains_one
from .planner import IndexSet, SetSystem
from .poly import (DEFAULT_ORDER, MonomialOrder, Polynomial, format_polynomial,
                   product, sum_of_products)
from .symmetry import Splitting


def _set_label(J: IndexSet) -> str:
    return "{" + ",".join(str(i) for i in sorted(J)) + "}"


def _subproblem_equation(J: IndexSet) -> str:
    indices = sorted(J)
    if not indices:
        return "u_{} = f"
    lhs = "*".join(f"P{i}" for i in indices)
    return f"{lhs} u_{_set_label(J)} = f"


@dataclass(frozen=True)
class ReductionReport:
    """Symbolic description of a certificate-driven problem split."""

    variables: tuple[str, ...]
    factors: tuple[Polynomial, ...]
    alpha: SetSystem
    cofactors: Mapping[IndexSet, Polynomial]
    subproblems: Mapping[IndexSet, str]
    recombination: str
    disjoint: bool
    verified: bool

    def to_json_dict(self) -> dict:
        names = list(self.variables)
        return {
            "variables": names,
            "factors": [format_polynomial(p, names) for p in self.factors],
            "alpha": self.alpha.canonical(),
            "cofactors": [
                {"J": sorted(J), "Q": format_polynomial(q, names)}
                for J, q in sorted(self.cofactors.items(), key=lambda kv: sorted(kv[0]))
            ],
            "subproblems": [
                {"J": sorted(J), "equation": eq}
                for J, eq in sorted(self.subproblems.items(), key=lambda kv: sorted(kv[0]))
            ],
            "recombination": self.recombination,
            "disjoint": self.disjoint,
            "verified": self.verified,
        }


def build_report(cert: Certificate, factors: Sequence[Polynomial],
                 variables: Sequence[str]) -> ReductionReport:
    """Verify the certificate and lay out the equivalent subproblem family."""
    _require_verified(cert, factors)
    members = list(cert.alpha)
    disjoint = all(not (a & b) for i, a in enumerate(members)
                   for b in members[i + 1:])
    subproblems = {J: _subproblem_equation(J) for J in members}
    recomb = " + ".join(f"Q_{_set_label(J)} u_{_set_label(J)}" for J in members)
    return ReductionReport(
        variables=tuple(variables),
        factors=tuple(factors),
        alpha=cert.alpha,
        cofactors=dict(cert.cofactors),
        subproblems=subproblems,
        recombination=f"u = {recomb}",
        disjoint=disjoint,
        verified=True,
    )


def split(cert: Certificate, factors: Sequence[Polynomial],
          variables: Sequence[str],
          inst: Optional[OperatorInstance] = None,
          f: Optional[Sequence] = None,
          ) -> tuple[ReductionReport, Optional[dict[IndexSet, AffineSolutionSet]]]:
    """Split P u = f; solve the subproblems exactly when an instance is given."""
    report = build_report(cert, factors, variables)
    if inst is None:
        return report, None
    if f is None:
        raise InputError("an instance was supplied without a right-hand side f")
    f = as_vector(f)
    solutions: dict[IndexSet, AffineSolutionSet] = {}
    for J in cert.alpha:
        m = instantiate(factor_product(factors, J), inst)
        solutions[J] = solve_affine(m, f)
    return report, solutions


def map_F(cert: Certificate, factors: Sequence[Polynomial],
          inst: OperatorInstance, u: Sequence) -> dict[IndexSet, Vector]:
    """Split a vector into subproblem candidates: J -> P^J u."""
    u = as_vector(u)
    out: dict[IndexSet, Vector] = {}
    for J in cert.alpha:
        m = instantiate(factor_product_complement(factors, J), inst)
        out[J] = m.apply(u)
    return out


def map_B(cert: Certificate, factors: Sequence[Polynomial],
          inst: OperatorInstance, parts: Mapping[IndexSet, Sequence],
          f: Optional[Sequence] = None) -> Vector:
    """Recombine subproblem vectors: sum of Q_J applied to u_J.

    When f is given, each input must actually solve its subproblem
    P_J u_J = f (checked exactly).
    """
    keys = set(frozenset(k) for k in parts)
    if keys != set(cert.alpha.sets):
        raise InputError("recombination inputs must cover alpha exactly")
    acc = (_ZERO,) * inst.dimension
    for J in cert.alpha:
        u_j = as_vector(parts[J])
        if f is not None:
            m = instantiate(factor_product(factors, J), inst)
            if list(m.apply(u_j)) != list(as_vector(f)):
                raise InputError(
                    f"input for J = {sorted(J)} does not solve its subproblem")
        q = instantiate(cert.cofactors[J], inst)
        qu = q.apply(u_j)
        acc = tuple((a + b) or _ZERO for a, b in zip(acc, qu))
    return acc


def recombined_solution_set(cert: Certificate, factors: Sequence[Polynomial],
                            inst: OperatorInstance,
                            subsolutions: Mapping[IndexSet, AffineSolutionSet],
                            ) -> AffineSolutionSet:
    """Image of the subproblem solution sets under the recombination map.

    Empty when any subproblem is unsolvable.  The span is the sum over J of
    Q_J applied to the subproblem kernels, reduced to a deterministic basis.
    """
    if any(sol.is_empty() for sol in subsolutions.values()):
        return AffineSolutionSet(None, ())
    parts = {J: sol.particular for J, sol in subsolutions.items()}
    particular = map_B(cert, factors, inst, parts)
    span: list[Vector] = []
    for J in cert.alpha:
        q = instantiate(cert.cofactors[J], inst)
        for k in subsolutions[J].kernel_vectors:
            span.append(q.apply(k))
    return AffineSolutionSet(particular, tuple(span_basis(span)))


@dataclass(frozen=True)
class KernelStructureReport:
    """Exact kernel bookkeeping for a singleton-family certificate."""

    kernel_dim: int
    factor_kernel_dims: tuple[int, ...]
    dims_add_up: bool
    pairwise_trivial: bool
    projectors_idempotent: bool
    projectors_land_in_factor_kernels: bool
    projectors_sum_to_identity: bool


def kernel_structure(cert: Certificate, factors: Sequence[Polynomial],
                     inst: OperatorInstance) -> KernelStructureReport:
    """Check the direct-sum kernel structure of a singleton-family certificate.

    The kernel of the product is the direct sum of the factor kernels, and
    each instantiated Q_i * P^i acts on it as the projection onto its
    factor's kernel.  The kernels come from each matrix's factorization.
    With K the kernel basis of P as columns, each projector Pr_i is checked
    on all of it at once through Pr_i K: Pr_i (Pr_i K) = Pr_i K,
    P_i (Pr_i K) = 0, and the Pr_i K sum to K.  A trivial kernel passes
    all three.
    """
    splitting = Splitting.of(cert, factors, inst)
    fact = splitting.P.factorization
    factor_kernels = [m.factorization.kernel for m in splitting.factors]
    dims_add_up = len(fact.kernel) == sum(len(k) for k in factor_kernels)

    pairwise_trivial = True
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            stacked = factor_kernels[i] + factor_kernels[j]
            if len(span_basis(stacked)) != len(stacked):
                pairwise_trivial = False

    idempotent = lands = sums_to_id = True
    if fact.kernel:
        K = fact.kernel_matrix
        images = [pr * K for pr in splitting.projectors]
        idempotent = all(pr * image == image
                         for pr, image in zip(splitting.projectors, images))
        lands = all((p_i * image).is_zero()
                    for p_i, image in zip(splitting.factors, images))
        sums_to_id = sum(images[1:], images[0]) == K

    return KernelStructureReport(
        kernel_dim=len(fact.kernel),
        factor_kernel_dims=tuple(len(k) for k in factor_kernels),
        dims_add_up=dims_add_up,
        pairwise_trivial=pairwise_trivial,
        projectors_idempotent=idempotent,
        projectors_land_in_factor_kernels=lands,
        projectors_sum_to_identity=sums_to_id,
    )


# ---------------------------------------------------------------------------
# Constrained systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemCertificate:
    """Cofactors for 1 = sum Q_i * P^i + sum S_p * R^(p), exactly."""

    q_cofactors: tuple[Polynomial, ...]
    s_cofactors: tuple[Polynomial, ...]


def verify_system_certificate(sys_cert: SystemCertificate,
                              factors: Sequence[Polynomial],
                              constraints: Sequence[Polynomial],
                              ) -> tuple[bool, Polynomial]:
    nvars = factors[0].variable_count
    if len(sys_cert.q_cofactors) != len(factors):
        raise InputError("one Q cofactor per factor is required")
    if len(sys_cert.s_cofactors) != len(constraints):
        raise InputError("one S cofactor per constraint is required")
    groups = [[f for k, f in enumerate(factors) if k != i] + [q]
              for i, q in enumerate(sys_cert.q_cofactors)]
    groups.extend([r, s] for s, r in zip(sys_cert.s_cofactors, constraints))
    residual = sum_of_products(groups, nvars) - Polynomial.one(nvars)
    return residual.is_zero(), residual


def find_system_certificate(factors: Sequence[Polynomial],
                            constraints: Sequence[Polynomial],
                            order: MonomialOrder = DEFAULT_ORDER,
                            ) -> Optional[SystemCertificate]:
    """Search for the extended identity over {P^0..P^l, R^(1)..R^(k)}.

    Existence is not guaranteed; None reports honest absence.  The
    certificate's identity is the Bezout identity ``contains_one`` checks
    exactly before returning it, regrouped.
    """
    gens = [factor_product_complement(factors, frozenset((i,)))
            for i in range(len(factors))]
    gens.extend(constraints)
    bez = contains_one(gens, order)
    if bez is None:
        return None
    return SystemCertificate(
        tuple(bez.cofactors[: len(factors)]),
        tuple(bez.cofactors[len(factors):]))


def integrability_violations(factors: Sequence[Polynomial],
                             constraints: Sequence[Polynomial],
                             f: Sequence, g_list: Sequence[Sequence],
                             inst: OperatorInstance) -> list[str]:
    """Exact checks R^(j) f = P g^j and R^(j) g^i = R^(i) g^j; empty = pass."""
    if len(g_list) != len(constraints):
        raise InputError("need one g vector per constraint")
    f = as_vector(f)
    gs = [as_vector(g) for g in g_list]
    nvars = factors[0].variable_count
    p_full = instantiate(product(factors, nvars), inst)
    r_mats = [instantiate(r, inst) for r in constraints]
    violations = []
    for j, (r, g) in enumerate(zip(r_mats, gs), start=1):
        if list(r.apply(f)) != list(p_full.apply(g)):
            violations.append(f"R^({j}) f != P g^{j}")
    for i in range(len(r_mats)):
        for j in range(i + 1, len(r_mats)):
            left = r_mats[j].apply(gs[i])
            right = r_mats[i].apply(gs[j])
            if list(left) != list(right):
                violations.append(f"R^({j + 1}) g^{i + 1} != R^({i + 1}) g^{j + 1}")
    return violations


@dataclass(frozen=True)
class SystemReport:
    """Per-factor subsystems of a constrained split, plus their solution sets."""

    subsystems: tuple[str, ...]
    solutions: tuple[AffineSolutionSet, ...]
    verified: bool


def _stacked_system(i: int, factors: Sequence[Polynomial],
                    constraints: Sequence[Polynomial],
                    f: Vector, gs: Sequence[Vector],
                    inst: OperatorInstance) -> tuple[Matrix, Vector]:
    nvars = factors[0].variable_count
    p_i = instantiate(factors[i], inst)
    p_comp = instantiate(factor_product_complement(factors, frozenset((i,))), inst)
    rows = p_i.row_list()
    rhs = list(f)
    for r, g in zip(constraints, gs):
        rows.extend(instantiate(r, inst).row_list())
        rhs.extend(p_comp.apply(g))
    return Matrix(rows), tuple(rhs)


def system_split(sys_cert: SystemCertificate,
                 factors: Sequence[Polynomial],
                 constraints: Sequence[Polynomial],
                 f: Sequence, g_list: Sequence[Sequence],
                 inst: OperatorInstance,
                 ) -> SystemReport:
    """Split the constrained system into one lower-order system per factor.

    Subsystem i reads: P_i u_i = f together with R^(j) u_i = P^i g^j for
    every constraint j.  Integrability violations abort with the failing
    condition named.
    """
    ok, _ = verify_system_certificate(sys_cert, factors, constraints)
    if not ok:
        raise VerificationError("system certificate failed its exact verification")
    violations = integrability_violations(factors, constraints, f, g_list, inst)
    if violations:
        raise IntegrabilityError("; ".join(violations))
    return _system_split(factors, constraints, f, g_list, inst)


def _system_split(factors: Sequence[Polynomial], constraints: Sequence[Polynomial],
                  f: Sequence, g_list: Sequence[Sequence], inst: OperatorInstance,
                  ) -> SystemReport:
    """``system_split`` for a verified certificate and integrable data."""
    f = as_vector(f)
    gs = [as_vector(g) for g in g_list]
    subsystems = []
    solutions = []
    for i in range(len(factors)):
        label = [f"P{i} u_{i} = f"]
        label.extend(f"R^({j + 1}) u_{i} = P^{i} g^{j + 1}"
                     for j in range(len(constraints)))
        subsystems.append("; ".join(label))
        m, rhs = _stacked_system(i, factors, constraints, f, gs, inst)
        solutions.append(solve_affine(m, rhs))
    return SystemReport(tuple(subsystems), tuple(solutions), True)


def system_map_F(factors: Sequence[Polynomial], inst: OperatorInstance,
                 u: Sequence) -> tuple[Vector, ...]:
    """u -> (P^0 u, ..., P^l u)."""
    u = as_vector(u)
    out = []
    for i in range(len(factors)):
        m = instantiate(factor_product_complement(factors, frozenset((i,))), inst)
        out.append(m.apply(u))
    return tuple(out)


def system_map_B(sys_cert: SystemCertificate,
                 factors: Sequence[Polynomial],
                 constraints: Sequence[Polynomial],
                 inst: OperatorInstance,
                 parts: Sequence[Sequence],
                 g_list: Sequence[Sequence]) -> Vector:
    """(u_0..u_l) -> sum Q_i u_i + sum S_j g^j."""
    if len(parts) != len(factors):
        raise InputError("need one subsystem vector per factor")
    acc = [0] * inst.dimension
    for q, u_i in zip(sys_cert.q_cofactors, parts):
        qm = instantiate(q, inst)
        vec = qm.apply(as_vector(u_i))
        acc = [a + b for a, b in zip(acc, vec)]
    for s, g in zip(sys_cert.s_cofactors, g_list):
        sm = instantiate(s, inst)
        vec = sm.apply(as_vector(g))
        acc = [a + b for a, b in zip(acc, vec)]
    return as_vector(acc)
