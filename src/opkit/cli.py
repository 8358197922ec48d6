"""Command-line surface: plan, certify, reduce, verify, symmetry, system.

Usage:
    opkit <mode> --job <file.json> [--human] [--order <lex|grlex|grevlex>]
                 [--seed <n>]

The job file is a single JSON object; all output goes to stdout as JSON
(sorted keys, stable ordering) unless --human asks for prose.  Exit codes:
0 success, 2 input error, 3 resource cap exceeded, 4 verification or
feasibility failure.

Job fields (mode-dependent):
    variables    list of variable names (required)
    factors      list of expression strings (plan/certify/reduce/symmetry/system)
    lambdas      list of rationals "a/b"; replaces factors with (x + l_i)
    instance     {"kind": "truncated_derivative", "max_degree": n} or
                 {"kind": "matrices", "generators": [grid, ...]} with grids
                 of rational strings, row-major
    f            vector of rational strings, or "random-in-range"
    g            list of vectors (system mode)
    constraints  list of expression strings (system mode)
    certificate  {"alpha": [[..]..], "cofactors": ["expr", ..]} (verify mode)
    dual_certificate  {"beta": [[..]..], "cofactors": [["expr", ..], ..]}
    symmetry     matrix grid: an explicit S to decompose (symmetry mode)
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .backend import (Matrix, OperatorInstance, affine_sets_equal, as_vector,
                      block_span, instantiate,
                      make_truncated_derivative_instance, solve_affine)
from .certify import (Certificate, DualCertificate, UnivariateSpec,
                      dual_to_alpha, plan_dual_certificate,
                      univariate_certificate, univariate_factors,
                      verify_certificate)
from .errors import (InputError, IntegrabilityError, MembershipError,
                     OpkitError, ParseError, ResourceLimitError,
                     VerificationError)
from .planner import DecompositionPlan, SetSystem, plan_decomposition
from .poly import (DEFAULT_ORDER, MonomialOrder, Polynomial,
                   _check_certificate_bits, _literal, format_polynomial,
                   is_name, parse_polynomial, product)
from .reducer import (_system_split, find_system_certificate,
                      integrability_violations, recombined_solution_set, split,
                      system_map_B, system_map_F)
from .symmetry import (SYMMETRY_DIMENSION_CAP, FormalSymmetry, Splitting,
                       formal_symmetry_stack, is_formal_symmetry)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFICATION = 4

MODES = ("plan", "certify", "reduce", "verify", "symmetry", "system")

# A job nests five deep at most (a grid in 'instance'); the cap leaves
# room and keeps every reader of the job far from the recursion limit.
JOB_NESTING_CAP = 32

_RATIONAL_TEXT = re.compile(r"\s*([+-]?)([0-9]+)(?:/([0-9]+))?\s*")


class JobSpec:
    """Validated job file contents."""

    def __init__(self, data: dict, order: MonomialOrder, seed: int):
        if not isinstance(data, dict):
            raise InputError("job file must contain a JSON object")
        self.order = order
        self.seed = seed
        self.variables = data.get("variables")
        if (not isinstance(self.variables, list) or not self.variables
                or not all(map(is_name, self.variables))):
            raise InputError("'variables' must be a nonempty list of names "
                             "[a-zA-Z][a-zA-Z0-9_]*")
        self.raw = data
        self.lambdas: Optional[UnivariateSpec] = None
        if "lambdas" in data:
            if "factors" in data:
                raise InputError("give either 'lambdas' or 'factors', not both")
            if len(self.variables) != 1:
                raise InputError("'lambdas' requires exactly one variable")
            if not isinstance(data["lambdas"], list):
                raise InputError("'lambdas' must be a list of rationals")
            self.lambdas = UnivariateSpec.of(
                [self._rational(v, "lambdas") for v in data["lambdas"]])
            self.factors = univariate_factors(self.lambdas)
        elif "factors" in data:
            raw = data["factors"]
            if not isinstance(raw, list) or not raw:
                raise InputError("'factors' must be a nonempty list of expressions")
            self.factors = [parse_polynomial(s, self.variables) for s in raw]
        else:
            self.factors = None

    @staticmethod
    def _rational(value, where: str) -> Fraction:
        """An exact rational from an integer or an "a/b" string of ASCII digits,
        held to COEFFICIENT_BITS_CAP before conversion as ``load_job`` holds
        JSON integers; floats and bools are not exact rationals."""
        if isinstance(value, str) and (match := _RATIONAL_TEXT.fullmatch(value)):
            sign, num, den = match.groups("1")
            num, den = (_literal(d, f"in {where!r}") for d in (num, den))
            if den:
                return Fraction(-num if sign == "-" else num, den)
        elif isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise InputError(f"bad rational {value!r} in {where!r}: "
                         f"expected an integer or an 'a/b' string")

    def _matrix(self, grid, where: str) -> Matrix:
        if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
            raise InputError(f"{where!r} must be a matrix grid: a list of rows")
        return Matrix([[self._rational(v, where) for v in row] for row in grid])

    def require_factors(self) -> list[Polynomial]:
        if self.factors is None:
            raise InputError("this mode requires 'factors' (or 'lambdas')")
        return self.factors

    def instance(self) -> Optional[OperatorInstance]:
        desc = self.raw.get("instance")
        if desc is None:
            return None
        if not isinstance(desc, dict) or "kind" not in desc:
            raise InputError("'instance' must be an object with a 'kind'")
        kind = desc["kind"]
        if kind == "truncated_derivative":
            max_degree = desc.get("max_degree")
            if not _is_positive_int(max_degree):
                raise InputError("'max_degree' must be a positive integer")
            return make_truncated_derivative_instance(
                len(self.variables), max_degree)
        if kind == "matrices":
            grids = desc.get("generators")
            if not isinstance(grids, list) or len(grids) != len(self.variables):
                raise InputError(
                    "'generators' must list one matrix per variable")
            mats = [self._matrix(g, "generators") for g in grids]
            return OperatorInstance.of(mats)
        raise InputError(f"unknown instance kind {kind!r}")

    def f(self, p_full: Matrix) -> Optional[tuple]:
        """The right side 'f' of ``p_full u = f``, None when the job has
        none; "random-in-range" applies ``p_full`` to a vector drawn from
        the job's seed."""
        raw = self.raw.get("f")
        if raw is None:
            return None
        dimension = p_full.cols
        if raw == "random-in-range":
            rng = random.Random(self.seed)
            return p_full.apply(
                [Fraction(rng.randint(-9, 9)) for _ in range(dimension)])
        if not isinstance(raw, list) or len(raw) != dimension:
            raise InputError(f"'f' must be a vector of length {dimension}")
        return as_vector([self._rational(v, "f") for v in raw])

    def index_family(self, raw, what: str) -> SetSystem:
        factors = self.require_factors()
        if not isinstance(raw, list) or not all(isinstance(J, list) for J in raw):
            raise InputError(f"{what} must be a list of index lists")
        if not all(isinstance(i, int) and not isinstance(i, bool)
                   for J in raw for i in J):
            raise InputError(f"{what} must contain integer indices")
        return SetSystem.of(len(factors) - 1, raw)


def _is_positive_int(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 1)


def load_job(path: str, order: MonomialOrder, seed: int) -> JobSpec:
    """The job in the file at ``path``.  Arrays and objects nested more
    than JOB_NESTING_CAP deep are refused, whether the decoder runs out of
    stack on them or not, so nothing that reads the job recurses deeply."""
    too_deep = InputError(f"job file nests arrays and objects more than "
                          f"{JOB_NESTING_CAP} deep")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # An integer past COEFFICIENT_BITS_CAP is refused before int().
            data = json.load(fh, parse_int=lambda s: (-1 if s[0] == "-" else 1)
                             * _literal(s.lstrip("-"), "in the job file"))
    except OSError as exc:
        raise InputError(f"cannot read job file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"job file is not valid JSON: {exc}") from None
    except RecursionError:
        raise too_deep from None
    # The arrays and objects one level deeper each time round.
    level = [data] if isinstance(data, (list, dict)) else []
    for _ in range(JOB_NESTING_CAP):
        level = [v for c in level
                 for v in (c.values() if isinstance(c, dict) else c)
                 if isinstance(v, (list, dict))]
    if level:
        raise too_deep
    return JobSpec(data, order, seed)


# ---------------------------------------------------------------------------
# Mode implementations; each returns a JSON-ready dict.
# ---------------------------------------------------------------------------

def _fmt(job: JobSpec, p: Polynomial) -> str:
    return format_polynomial(p, job.variables)


def cmd_plan(job: JobSpec) -> dict:
    return _plan_json(job, plan_decomposition(job.require_factors(), job.order))


def _plan_json(job: JobSpec, plan: DecompositionPlan) -> dict:
    return {
        "mode": "plan",
        "ok": True,
        "order": job.order.value,
        "variables": list(job.variables),
        "factors": [_fmt(job, p) for p in plan.atoms],
        "coincidence_edges": plan.graph.canonical_edges(),
        "components": [list(c) for c in plan.components],
        "grouped_factors": [_fmt(job, p) for p in plan.grouped_factors],
        "beta_min": plan.beta_min.canonical(),
        "alpha": plan.alpha_opt.canonical() if plan.alpha_opt else None,
        "decomposition_available": plan.alpha_opt is not None,
    }


def _certificates(job: JobSpec) -> tuple[dict, list, Certificate]:
    """Shared by certify/reduce/symmetry: plan, dual certs, alpha cert."""
    factors = job.require_factors()
    plan = plan_decomposition(factors, job.order)
    out = _plan_json(job, plan)
    if job.lambdas is not None:
        cert = univariate_certificate(job.lambdas)
        out["lambdas"] = [str(l) for l in job.lambdas.lambdas]
        out["dual_certificates"] = []
        out["alpha_certificate"] = _alpha_cert_json(job, cert)
        return out, factors, cert
    if plan.alpha_opt is None:
        raise VerificationError(
            "no decomposition is available for these factors "
            "(no factor subset generates the unit ideal)")
    dual = plan_dual_certificate(plan)
    duals_json = []
    for J, items in dual.sorted_items():
        duals_json.append({
            "J": sorted(J),
            "cofactors": [{"j": j, "Q": _fmt(job, q)} for j, q in items],
            "verified": True,
        })
    cert = dual_to_alpha(dual, factors)
    out["dual_certificates"] = duals_json
    out["alpha_certificate"] = _alpha_cert_json(job, cert)
    return out, factors, cert


def _alpha_cert_json(job: JobSpec, cert: Certificate) -> dict:
    """The alpha certificate as JSON; ``univariate_certificate`` and
    ``dual_to_alpha`` verify it exactly before returning it."""
    return {
        "alpha": cert.alpha.canonical(),
        "cofactors": [{"J": sorted(J), "Q": _fmt(job, q)}
                      for J, q in cert.sorted_items()],
        "verified": True,
    }


def cmd_certify(job: JobSpec) -> dict:
    out, _, _ = _certificates(job)
    out["mode"] = "certify"
    return out


def _vector_text(v: Sequence[Fraction], what: str) -> list[str]:
    """The entries of v as strings, held to CERTIFICATE_BITS_CAP, under
    which every value prints: a solution of a system with entries near the
    job cap can need more bits than that."""
    _check_certificate_bits(v, what)
    return [str(x) for x in v]


def cmd_reduce(job: JobSpec) -> dict:
    out, factors, cert = _certificates(job)
    out["mode"] = "reduce"
    inst = job.instance()
    f = None
    if inst is not None:
        nvars = factors[0].variable_count
        p_full = instantiate(product(factors, nvars), inst)
        f = job.f(p_full)
        if f is None:
            raise InputError("reduce with an instance needs 'f'")
    report, subsolutions = split(cert, factors, job.variables, inst, f)
    out["report"] = report.to_json_dict()
    if inst is None:
        return out
    out["instance"] = {"dimension": inst.dimension}
    out["f"] = _vector_text(f, "'f'")
    direct = solve_affine(p_full, f)
    out["f_in_range"] = not direct.is_empty()
    subs_json = []
    for J in cert.alpha:
        sol = subsolutions[J]
        subs_json.append({
            "J": sorted(J),
            "solvable": not sol.is_empty(),
            "kernel_dim": None if sol.is_empty() else sol.dimension(),
        })
    out["subproblem_solutions"] = subs_json
    if direct.is_empty():
        out["solution_sets_equal"] = None
        out["recombined_solves"] = None
        return out
    recombined = recombined_solution_set(cert, factors, inst, subsolutions)
    solves = (not recombined.is_empty()
              and list(p_full.apply(recombined.particular)) == list(f))
    out["recombined_solves"] = solves
    out["recombined_particular"] = (
        None if recombined.is_empty()
        else _vector_text(recombined.particular, "the recombined solution"))
    out["solution_sets_equal"] = affine_sets_equal(direct, recombined)
    if not (solves and out["solution_sets_equal"]):
        raise VerificationError("reduced system failed to reproduce the solution set")
    return out


def cmd_verify(job: JobSpec) -> dict:
    factors = job.require_factors()
    checks = []
    all_ok = True
    raw_cert = job.raw.get("certificate")
    if raw_cert is not None:
        if not isinstance(raw_cert, dict):
            raise InputError("'certificate' must be an object with 'alpha' "
                             "and 'cofactors'")
        alpha = job.index_family(raw_cert.get("alpha"), "certificate.alpha")
        exprs = raw_cert.get("cofactors")
        members = sorted(alpha.sets, key=sorted)
        if not isinstance(exprs, list) or len(exprs) != len(members):
            raise InputError("certificate cofactors must match alpha, in "
                             "canonical (sorted) order")
        cofactors = {J: parse_polynomial(s, job.variables)
                     for J, s in zip(members, exprs)}
        cert = Certificate(alpha, cofactors)
        ok, residual = verify_certificate(cert, factors)
        checks.append({"kind": "alpha", "verified": ok,
                       "residual": _fmt(job, residual)})
        all_ok &= ok
    raw_dual = job.raw.get("dual_certificate")
    if raw_dual is not None:
        if not isinstance(raw_dual, dict):
            raise InputError("'dual_certificate' must be an object with "
                             "'beta' and 'cofactors'")
        beta = job.index_family(raw_dual.get("beta"), "dual_certificate.beta")
        exprs = raw_dual.get("cofactors")
        members = sorted(beta.sets, key=sorted)
        if not isinstance(exprs, list) or len(exprs) != len(members):
            raise InputError("dual cofactors must match beta, in canonical order")
        cofactors = {}
        for J, row in zip(members, exprs):
            indices = sorted(J)
            if not isinstance(row, list) or len(row) != len(indices):
                raise InputError(f"need one cofactor per index of {indices}")
            cofactors[J] = {j: parse_polynomial(s, job.variables)
                            for j, s in zip(indices, row)}
        dual = DualCertificate(beta, cofactors)
        ok, residual = verify_certificate(dual, factors)
        checks.append({"kind": "dual", "verified": ok,
                       "residual": _fmt(job, residual)})
        all_ok &= ok
    if not checks:
        raise InputError("verify mode needs 'certificate' or 'dual_certificate'")
    out = {"mode": "verify", "ok": bool(all_ok), "checks": checks,
           "order": job.order.value}
    if not all_ok:
        raise CommandFailed(out, EXIT_VERIFICATION)
    return out


def cmd_symmetry(job: JobSpec) -> dict:
    # Explicit and enumerated jobs alike are refused past the cap before
    # any instantiation or elimination.
    inst = job.instance()
    if inst is None:
        raise InputError("symmetry mode requires an 'instance'")
    if inst.dimension > SYMMETRY_DIMENSION_CAP:
        raise ResourceLimitError(
            f"symmetry mode capped at dimension {SYMMETRY_DIMENSION_CAP}, "
            f"got {inst.dimension}")
    out, factors, cert = _certificates(job)
    out["mode"] = "symmetry"
    singletons = {frozenset((i,)) for i in range(len(factors))}
    if set(cert.alpha.sets) != singletons:
        raise VerificationError(
            "symmetry mode needs a singleton-family certificate; "
            "regroup the factors first")
    splitting = Splitting.of(cert, factors, inst)
    # P is eliminated twice per job, whatever the size of the basis: the
    # reduced form kept by its factorization gives the kernel and the
    # basis, and one right division gives every witness.
    fact = splitting.P.factorization
    kernel = fact.kernel
    # The basis is one stack [S_1 | ... | S_N], as enumeration builds it (an
    # explicit S is the stack with N = 1): its witness, and every slice and
    # fold with its identity, take a fixed number of products whatever N is.
    raw_s = job.raw.get("symmetry")
    explicit = raw_s is not None
    if explicit:
        stack = job._matrix(raw_s, "symmetry")
        if not (stack.is_square() and stack.rows == inst.dimension):
            raise InputError("the 'symmetry' matrix must be square, of the "
                             "instance dimension")
    else:
        stack = formal_symmetry_stack(splitting.P)
    count = stack.cols // inst.dimension
    out["instance"] = {"dimension": inst.dimension}
    out["operator_kernel_dim"] = len(kernel)
    out["symmetry_space_dimension"] = None if explicit else count
    witness = is_formal_symmetry(stack, splitting.P)
    if witness is None:
        raise VerificationError("the supplied matrix is not a formal symmetry")
    reports = [{"index": idx, "identities_hold": True,
                "reconstructions_hold": True} for idx in range(count)]
    if explicit:
        reports[0].update(S=stack.to_strings(), S_prime=witness.to_strings(),
                          generalized=[])
    out["decompositions"] = reports

    # The generation check compares the maps that the basis and the
    # reconstructions induce on the kernel: the image of S is S K, and
    # ``decompose`` yields the image of each reconstruction; on the stack
    # each is one ``stack_mul`` by an n x d matrix, and the d x d maps are
    # the blocks of the stack of coordinates.
    def induced_on_kernel(image: Matrix) -> Matrix:
        coordinates = fact.kernel_coordinates(image)
        if coordinates is None:
            raise VerificationError(
                "internal error: a verified symmetry left the kernel")
        return coordinates

    sym = FormalSymmetry(stack, witness)
    out["generation"] = None
    if explicit:
        # Each slice and fold of the one element is formed, printed and
        # checked on its own.
        for i in range(len(factors)):
            for j in range(len(factors)):
                gen = splitting.slice(sym, i, j)
                splitting.fold(gen)
                reports[0]["generalized"].append({
                    "i": i, "j": j,
                    "S_ij": gen.S_ij.to_strings(),
                    "S_prime_ij": gen.S_prime_ij.to_strings(),
                    "verified": True,
                })
        return out
    rebuilt = []
    for _, _, image in splitting.decompose(sym):
        if image is not None:
            rebuilt.append(induced_on_kernel(image))
    if not kernel:
        return out
    induced = [induced_on_kernel(stack.stack_mul(fact.kernel_matrix))]
    induced, rebuilt = (block_span(maps, len(kernel))
                        for maps in (induced, rebuilt))
    out["generation"] = {
        "induced_dimension": len(induced),
        "reconstructed_dimension": len(rebuilt),
        "equal": induced == rebuilt,
    }
    if not out["generation"]["equal"]:
        raise VerificationError("generated symmetry spans differ on the kernel")
    return out


def cmd_system(job: JobSpec) -> dict:
    factors = job.require_factors()
    raw_constraints = job.raw.get("constraints")
    if not isinstance(raw_constraints, list) or not raw_constraints:
        raise InputError("system mode needs a nonempty 'constraints' list")
    constraints = [parse_polynomial(s, job.variables) for s in raw_constraints]
    out = {
        "mode": "system",
        "ok": True,
        "order": job.order.value,
        "variables": list(job.variables),
        "factors": [_fmt(job, p) for p in factors],
        "constraints": [_fmt(job, r) for r in constraints],
    }
    sys_cert = find_system_certificate(factors, constraints, job.order)
    out["certificate_found"] = sys_cert is not None
    if sys_cert is None:
        out["ok"] = False
        raise CommandFailed(out, EXIT_VERIFICATION)
    # find_system_certificate verifies the identity before returning it.
    out["certificate"] = {
        "Q": [_fmt(job, q) for q in sys_cert.q_cofactors],
        "S": [_fmt(job, s) for s in sys_cert.s_cofactors],
        "verified": True,
    }
    inst = job.instance()
    if inst is None:
        return out
    nvars = factors[0].variable_count
    p_full = instantiate(product(factors, nvars), inst)
    f = job.f(p_full)
    raw_g = job.raw.get("g")
    if f is None or raw_g is None:
        raise InputError("system mode with an instance needs 'f' and 'g'")
    if (not isinstance(raw_g, list) or len(raw_g) != len(constraints)
            or not all(isinstance(g, list) for g in raw_g)):
        raise InputError("'g' must list one vector per constraint")
    gs = [as_vector([job._rational(v, "g") for v in g]) for g in raw_g]
    violations = integrability_violations(factors, constraints, f, gs, inst)
    out["integrability"] = {"ok": not violations, "violations": violations}
    if violations:
        out["ok"] = False
        raise CommandFailed(out, EXIT_VERIFICATION)
    report = _system_split(factors, constraints, f, gs, inst)
    out["subsystems"] = list(report.subsystems)
    out["solutions"] = [
        {"solvable": not sol.is_empty(),
         "kernel_dim": None if sol.is_empty() else sol.dimension()}
        for sol in report.solutions
    ]
    if all(not sol.is_empty() for sol in report.solutions):
        parts = [sol.particular for sol in report.solutions]
        u = system_map_B(sys_cert, factors, constraints, inst, parts, gs)
        solves = (list(p_full.apply(u)) == list(f)
                  and all(list(instantiate(r, inst).apply(u)) == list(g)
                          for r, g in zip(constraints, gs)))
        back = system_map_F(factors, inst, u)
        out["round_trips"] = {
            "recombined_solves_system": solves,
            "FB_is_identity_on_parts": list(back) == list(map(tuple, parts)),
        }
        if not all(out["round_trips"].values()):
            raise VerificationError("system round trips failed")
    return out


class CommandFailed(Exception):
    """Carries a JSON report that should be printed before a failure exit."""

    def __init__(self, report: dict, code: int):
        super().__init__(f"exit {code}")
        self.report = report
        self.code = code


# ---------------------------------------------------------------------------
# Rendering and entry point
# ---------------------------------------------------------------------------

def _render_human(report: dict) -> str:
    lines = [f"mode: {report.get('mode')}   ok: {report.get('ok')}"]
    for key in sorted(report):
        if key in ("mode", "ok"):
            continue
        value = report[key]
        if isinstance(value, (list, dict)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _emit(report: dict, human: bool) -> None:
    if human:
        print(_render_human(report))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opkit",
        description="exact decomposition certificates for commuting "
                    "polynomial operators")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--job", required=True, help="path to the JSON job file")
    parser.add_argument("--human", action="store_true",
                        help="prose output instead of JSON")
    parser.add_argument("--order", default=DEFAULT_ORDER.value,
                        choices=[o.value for o in MonomialOrder])
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random-in-range vectors")
    return parser


# Built once: parse_args keeps nothing between calls.
_ARGUMENT_PARSER = _argument_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _ARGUMENT_PARSER.parse_args(argv)

    handlers = {
        "plan": cmd_plan,
        "certify": cmd_certify,
        "reduce": cmd_reduce,
        "verify": cmd_verify,
        "symmetry": cmd_symmetry,
        "system": cmd_system,
    }
    try:
        job = load_job(args.job, MonomialOrder.from_name(args.order), args.seed)
        report = handlers[args.mode](job)
    except CommandFailed as failed:
        _emit(failed.report, args.human)
        return failed.code
    except (ParseError, InputError) as exc:
        print(f"opkit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"opkit: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (VerificationError, MembershipError, IntegrabilityError) as exc:
        print(f"opkit: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OpkitError as exc:
        print(f"opkit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args.human)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
