"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Every workload is a stream of jobs.  Job ``i`` is a pure function of the
seed and ``i``, so a run may take as many jobs as its time allows; jobs are
grouped in rounds that hold the workload's whole mix once.  Inputs are built
with ``reference`` only; opkit sees nothing but the finished request.

* ``certify-ideal``: ``opkit certify`` on four generic atoms in three
  variables of degree 2, 2, 2 and 3.  Pairs and triples have common zeros,
  so only the whole family generates 1 and Buchberger does most of the work.
* ``certify-expand``: ``opkit certify`` on families whose unit ideals come
  from small subsets: the demo job, quadratic quartets in two variables
  (every triple generates 1, so 81 choice functions) and pairwise coprime
  families of parallel lines with l = 3 (64 choice functions) and l = 4
  (1024).  The expansion ``dual_to_alpha`` does most of the work.
* ``reduce-td``: library sessions that mirror ``opkit reduce`` on truncated
  derivative instances of dimension 15, 21 and 28.  A job solves one
  in-range right-hand side through ``split`` and ``recombined_solution_set``
  and compares it with a direct ``solve_affine``.  The instances and their
  operator matrices are built during set-up and serve many jobs.
* ``symmetry-enum``: ``opkit symmetry`` on two-factor operators over random
  integer matrices of dimension 3 and 4 with a known eigenvalue
  multiplicity.

Certify-type jobs are variants of a per-seed set of base families: a variant
renames the variables, flips their signs and reorders the factors, so a
request is rarely sent twice in a run.  These are ring automorphisms, so the
unit-ideal structure of a variant follows from its base, which sympy
examines once per seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from reference import (Poly, apply_differential, canonical, format_poly,
                       mat_inverse, mat_mul, optimal_alpha, parse_canonical,
                       poly_add, poly_mul, poly_product, unit_subsets_sympy)

DEMO_FACTORS = ("x+1", "x*y+y+1", "x", "x^2+x*y+x+y-1")
DEMO_BETA = [[0, 1], [0, 2], [0, 3], [1, 2, 3]]
DEMO_ALPHA = [[0], [1, 2], [1, 3], [2, 3]]
NONZERO = (-3, -2, -1, 1, 2, 3)


def _rng(*parts) -> random.Random:
    """A generator seeded from a string, independent of PYTHONHASHSEED."""
    return random.Random(":".join(str(p) for p in parts))


def random_coefficients(rng: random.Random, support) -> Poly:
    """Coefficients from NONZERO on a fixed support: the cost of a job then
    depends on the coefficients only, which keeps it steady across seeds."""
    return {e: Fraction(rng.choice(NONZERO)) for e in support}


def parse_simple(text: str, names) -> Poly:
    """Parse the hand-written demo factors (``x*y+y+1`` style)."""
    return parse_canonical(text.replace("+", " + ").replace("-", " - "), names)


@dataclass
class Job:
    index: int
    data: dict                      # the request, as opkit receives it
    expect: dict = field(default_factory=dict)


class Workload:
    """A seeded job stream; subclasses say how a job runs and is checked.

    ``run`` is the timed call.  It reaches opkit through module attributes
    at call time, so the tracer's wrappers see every call.
    """

    name = ""
    trace_jobs = 0          # jobs in a traced run, fixed so counts repeat
    round_size = 1          # a timed run ends with a whole round of jobs

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.path = os.path.join(workdir, "job.json")

    def job(self, i: int) -> Job:
        raise NotImplementedError

    def prepare(self, job: Job) -> None:
        """Untimed work before the request is sent."""

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, code: int, result) -> list[str]:
        raise NotImplementedError

    def digest(self, result) -> str:
        return result

    def check_setup(self) -> list[str]:
        return []


class CliWorkload(Workload):
    """Jobs sent as ``opkit <mode> --job <file>`` through ``opkit.cli.main``."""

    mode = ""

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        import opkit.cli
        self.cli = opkit.cli

    def prepare(self, job: Job) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(job.data, fh)

    def run(self, job: Job) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([self.mode, "--job", self.path])
        return code, out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# Certify-type workloads
# ---------------------------------------------------------------------------

@dataclass
class Family:
    names: tuple
    factors: list                   # Poly per factor
    beta: object = None             # expected beta_min, filled by sympy
    known_beta: list | None = None  # stated in advance (the demo)
    known_alpha: list | None = None


def variant(family: Family, rng: random.Random) -> tuple[list, list]:
    """Rename variables, flip their signs and reorder the factors.

    Returns the new factors and ``order`` with new factor k = old order[k].
    """
    nvars = len(family.names)
    perm = rng.sample(range(nvars), nvars)
    signs = [rng.choice((1, -1)) for _ in range(nvars)]
    order = rng.sample(range(len(family.factors)), len(family.factors))
    out = []
    for k in order:
        p = {}
        for exp, c in family.factors[k].items():
            sign = 1
            for v, e in enumerate(exp):
                if e % 2:
                    sign *= signs[v]
            p[tuple(exp[perm[v]] for v in range(nvars))] = c * sign
        out.append(p)
    return out, order


class CertifyWorkload(CliWorkload):
    mode = "certify"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.bases = self.make_bases(_rng(self.name, seed, "bases"))
        self.round_size = len(self.bases)

    def make_bases(self, rng) -> list[Family]:
        raise NotImplementedError

    def job(self, i: int) -> Job:
        base_index = i % len(self.bases)
        family = self.bases[base_index]
        if i < len(self.bases):
            factors, order = family.factors, list(range(len(family.factors)))
        else:
            factors, order = variant(family, _rng(self.name, self.seed, "v", i))
        data = {"variables": list(family.names),
                "factors": [format_poly(p, family.names) for p in factors]}
        return Job(i, data, {"base": base_index, "order": order,
                             "factors": factors})

    def expected_sets(self, job: Job) -> tuple[list, list]:
        family = self.bases[job.expect["base"]]
        if family.known_beta is not None and job.index < len(self.bases):
            return family.known_beta, family.known_alpha
        if family.beta is None:
            family.beta = unit_subsets_sympy(family.factors, family.names)
        new_index = {old: new for new, old in enumerate(job.expect["order"])}
        beta = {frozenset(new_index[j] for j in I) for I in family.beta}
        return canonical(beta), canonical(optimal_alpha(beta, len(new_index)))

    def check(self, job: Job, code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {text[-200:]}"]
        report = json.loads(text)
        problems = check_certificates(report, job.expect["factors"],
                                      job.data["variables"])
        beta, alpha = self.expected_sets(job)
        if report["beta_min"] != beta:
            problems.append(f"beta_min {report['beta_min']} != {beta}")
        if report["alpha"] != alpha:
            problems.append(f"alpha {report['alpha']} != {alpha}")
        return problems


def check_certificates(report: dict, factors: list, names) -> list[str]:
    """Recompute every certificate identity in a certify-style report."""
    problems = []
    nvars = len(names)
    one = {(0,) * nvars: Fraction(1)}
    for dual in report["dual_certificates"]:
        total: Poly = {}
        for item in dual["cofactors"]:
            q = parse_canonical(item["Q"], names)
            total = poly_add(total, poly_mul(q, factors[item["j"]]))
        if total != one or not dual["verified"]:
            problems.append(f"dual identity for J = {dual['J']} fails")
    cert = report["alpha_certificate"]
    total = {}
    for item in cert["cofactors"]:
        rest = [factors[j] for j in range(len(factors)) if j not in item["J"]]
        q = parse_canonical(item["Q"], names)
        total = poly_add(total, poly_mul(q, poly_product(rest, nvars)))
    if total != one or not cert["verified"]:
        problems.append("alpha identity sum Q_J P^J = 1 fails")
    if cert["alpha"] != report["alpha"]:
        problems.append("certificate alpha differs from the planned alpha")
    return problems


class CertifyIdeal(CertifyWorkload):
    """Three quadrics P_k on fixed supports, and P_3 = 1 + sum c_k x_v(k) P_k.

    Random coefficients on a fixed support keep the job cost steady from
    seed to seed.  The fourth atom makes the whole family generate 1 by
    construction (about one family in 60 of fully random atoms has a common
    zero and would have no decomposition), while each triple still has
    common zeros.
    """

    name = "certify-ideal"
    bases_per_seed = 24
    trace_jobs = 48
    supports = (((0, 0, 0), (0, 0, 2), (1, 0, 1), (1, 1, 0), (2, 0, 0)),
                ((0, 0, 0), (0, 0, 2), (0, 1, 1), (1, 0, 0), (1, 1, 0)),
                ((0, 0, 0), (0, 0, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0)))
    multiplier_vars = (1, 2, 2)

    def make_bases(self, rng):
        names = ("x", "y", "z")
        bases = []
        for _ in range(self.bases_per_seed):
            atoms = [random_coefficients(rng, s) for s in self.supports]
            last = {(0, 0, 0): Fraction(1)}
            for atom, v in zip(atoms, self.multiplier_vars):
                shift = tuple(int(i == v) for i in range(3))
                last = poly_add(last, poly_mul(
                    {shift: Fraction(rng.choice(NONZERO))}, atom))
            bases.append(Family(names, atoms + [last]))
        return bases


class CertifyExpand(CertifyWorkload):
    name = "certify-expand"
    quartets = 16           # most of the time; their mean steadies the run
    quartet_support = ((0, 0), (0, 1), (0, 2), (1, 1), (2, 0))
    # x + 2y + a for each shift a: pairwise coprime with constant Bezout
    # cofactors.  The shifts are fixed because their differences set the
    # size of the expanded coefficients, and so the cost; variants still
    # rename and reorder these families.
    coprime = ((-1, 1, 2, 3), (-2, -1, 1, 2), (-2, -1, 1, 2, 3))
    trace_jobs = 32

    def make_bases(self, rng):
        names = ("x", "y")
        demo = Family(names, [parse_simple(s, names) for s in DEMO_FACTORS],
                      known_beta=DEMO_BETA, known_alpha=DEMO_ALPHA)
        bases = [demo]
        for _ in range(self.quartets):
            bases.append(Family(names, [
                random_coefficients(rng, self.quartet_support)
                for _ in range(4)]))
        for shifts in self.coprime:
            bases.append(Family(names, [
                {(1, 0): Fraction(1), (0, 1): Fraction(2), (0, 0): Fraction(a)}
                for a in shifts]))
        return bases


# ---------------------------------------------------------------------------
# reduce-td: library sessions on truncated derivative instances
# ---------------------------------------------------------------------------

def demo_shaped_factors(rng: random.Random) -> list[Poly]:
    """x + a, y(x + a) + b, x, (x + a)(x + c y) - e with -b c != e.

    {0,1}, {0,2}, {0,3} and {1,2,3} generate 1, as in the demo operator
    (a = b = c = e = 1).  With a, b, c = +-1 and e = b c the seeded operators
    differ from the demo in signs only, so they cost about the same per job.
    """
    a, b, c = (Fraction(rng.choice((-1, 1))) for _ in range(3))
    e = b * c
    x, y = (1, 0), (0, 1)
    xa = {x: Fraction(1), (0, 0): a}
    p1 = poly_add(poly_mul({y: Fraction(1)}, xa), {(0, 0): b})
    p3 = poly_add(poly_mul(xa, {x: Fraction(1), y: c}), {(0, 0): -e})
    return [xa, p1, {x: Fraction(1)}, p3]


class ReduceTD(Workload):
    """A round of six jobs takes one operator up the dimensions 15, 21, 28
    and solves three more right-hand sides at 28; the next round takes the
    next operator.

    Most jobs are at the top dimension, so the median and the tail both fall
    among them however many rounds fit in a run.
    """

    name = "reduce-td"
    operators = 4               # the demo operator and three seeded ones
    max_degrees = (5, 6, 7)     # truncation degrees: dimensions 15, 21, 28
    ladder = (0, 1, 2, 2, 2, 2)  # indices into max_degrees, one round
    round_size = len(ladder)
    trace_jobs = 24             # one round per operator

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        import opkit.backend
        import opkit.reducer
        from opkit import (dual_certificate, dual_to_alpha,
                           make_truncated_derivative_instance, plan_decomposition)
        from opkit.backend import instantiate
        from opkit.poly import Polynomial, product

        self.backend, self.reducer = opkit.backend, opkit.reducer
        self.names = ("x", "y")
        rng = _rng(self.name, seed, "operators")
        demo = [parse_simple(s, self.names) for s in DEMO_FACTORS]
        self.factor_dicts = [demo] + [demo_shaped_factors(rng)
                                      for _ in range(self.operators - 1)]
        instances = [make_truncated_derivative_instance(2, d)
                     for d in self.max_degrees]
        self.sessions = []
        for dicts in self.factor_dicts:
            factors = [Polynomial(p, 2) for p in dicts]
            plan = plan_decomposition(factors)
            cert = dual_to_alpha(dual_certificate(factors, plan.beta_min),
                                 factors)
            for inst, max_degree in zip(instances, self.max_degrees):
                p_full = instantiate(product(factors, 2), inst)
                self.sessions.append(
                    (dicts, factors, cert, inst, p_full, max_degree))
        self.basis = {d: [(e, g - e) for g in range(d) for e in range(g + 1)]
                      for d in self.max_degrees}

    def job(self, i: int) -> Job:
        operator = (i // self.round_size) % self.operators
        session = (operator * len(self.max_degrees)
                   + self.ladder[i % self.round_size])
        dicts, _, _, _, _, max_degree = self.sessions[session]
        rng = _rng(self.name, self.seed, "rhs", i)
        w = {e: Fraction(rng.randint(-9, 9)) for e in self.basis[max_degree]}
        w = {e: c for e, c in w.items() if c}
        f_poly = apply_differential(poly_product(dicts, 2), w)
        f = [f_poly.get(e, Fraction(0)) for e in self.basis[max_degree]]
        return Job(i, {"f": f}, {"session": session})

    def run(self, job: Job):
        _, factors, cert, inst, p_full, _ = self.sessions[job.expect["session"]]
        f = job.data["f"]
        _, subsolutions = self.reducer.split(cert, factors, self.names, inst, f)
        recombined = self.reducer.recombined_solution_set(
            cert, factors, inst, subsolutions)
        direct = self.backend.solve_affine(p_full, f)
        equal = self.backend.affine_sets_equal(direct, recombined)
        return 0, (equal, recombined, direct)

    def digest(self, result) -> str:
        equal, recombined, direct = result
        return repr((equal, recombined, direct))

    def to_poly(self, vector, max_degree) -> Poly:
        return {e: c for e, c in zip(self.basis[max_degree], vector) if c}

    def check(self, job: Job, code: int, result) -> list[str]:
        equal, recombined, direct = result
        dicts, _, _, _, _, max_degree = self.sessions[job.expect["session"]]
        op = poly_product(dicts, 2)
        f = self.to_poly(job.data["f"], max_degree)
        problems = []
        if not equal:
            problems.append("recombined and direct solution sets differ")
        for what, sol in (("recombined", recombined), ("direct", direct)):
            if sol.particular is None:
                problems.append(f"{what}: no solution for an in-range f")
                continue
            if apply_differential(op, self.to_poly(sol.particular,
                                                   max_degree)) != f:
                problems.append(f"{what}: P u != f")
            for k in sol.kernel_vectors:
                if apply_differential(op, self.to_poly(k, max_degree)):
                    problems.append(f"{what}: kernel vector not in ker P")
        if len(recombined.kernel_vectors) != len(direct.kernel_vectors):
            problems.append("kernel dimensions differ")
        return problems

    def check_setup(self) -> list[str]:
        """The certificates built in set-up, checked once per seed."""
        problems = []
        seen = set()
        for dicts, _, cert, _, _, _ in self.sessions:
            if id(cert) in seen:
                continue
            seen.add(id(cert))
            one = {(0, 0): Fraction(1)}
            total = {}
            for J, q in cert.cofactors.items():
                rest = [dicts[j] for j in range(len(dicts)) if j not in J]
                total = poly_add(total, poly_mul(dict(q.terms),
                                                 poly_product(rest, 2)))
            if total != one:
                problems.append("reduce-td certificate identity fails")
            beta = unit_subsets_sympy(dicts, self.names)
            alpha = canonical(optimal_alpha(beta, len(dicts)))
            if canonical(cert.alpha.sets) != alpha:
                problems.append(f"operator alpha {canonical(cert.alpha.sets)}"
                                f" != {alpha}")
            if dicts == self.factor_dicts[0] and (
                    canonical(beta), alpha) != (DEMO_BETA, DEMO_ALPHA):
                problems.append("demo operator: wrong beta_min or alpha")
        return problems


# ---------------------------------------------------------------------------
# symmetry-enum
# ---------------------------------------------------------------------------

def unimodular(rng: random.Random, n: int) -> list[list[Fraction]]:
    """L U with unit triangular integer factors: det 1, integer inverse."""
    lower = [[Fraction(1 if r == c else rng.randint(-2, 2) if r > c else 0)
              for c in range(n)] for r in range(n)]
    upper = [[Fraction(1 if r == c else rng.randint(-2, 2) if r < c else 0)
              for c in range(n)] for r in range(n)]
    return mat_mul(lower, upper)


class SymmetryEnum(CliWorkload):
    """M = V D V^-1 with V unimodular, so M has small entries and the cost
    of a job depends on its shape (n, d), not on the size of det V.  The
    eigenvalue ``target`` has multiplicity d; the factors are x - target
    and x + 7, and 7 is never an eigenvalue."""

    name = "symmetry-enum"
    mode = "symmetry"
    shapes = ((3, 1), (4, 1), (4, 2), (4, 3))  # (n, d), one round
    round_size = len(shapes)
    trace_jobs = 16

    def job(self, i: int) -> Job:
        rng = _rng(self.name, self.seed, "job", i)
        n, d = self.shapes[i % len(self.shapes)]
        target = Fraction(rng.randint(-4, 4))
        others = [Fraction(v) for v in range(-4, 5) if v != target]
        eigenvalues = [target] * d + [rng.choice(others)
                                      for _ in range(n - d)]
        rng.shuffle(eigenvalues)
        v = unimodular(rng, n)
        v_inv = mat_inverse(v)
        diag = [[eigenvalues[r] if r == c else Fraction(0) for c in range(n)]
                for r in range(n)]
        m = mat_mul(mat_mul(v, diag), v_inv)
        factors = [{(1,): Fraction(1), (0,): -target},
                   {(1,): Fraction(1), (0,): Fraction(7)}]
        factors = [{e: c for e, c in p.items() if c} for p in factors]
        data = {"variables": ["x"],
                "factors": [format_poly(p, ("x",)) for p in factors],
                "instance": {"kind": "matrices",
                             "generators": [[[str(x) for x in row]
                                             for row in m]]}}
        return Job(i, data, {"n": n, "d": d, "factors": factors})

    def check(self, job: Job, code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {text[-200:]}"]
        report = json.loads(text)
        n, d = job.expect["n"], job.expect["d"]
        problems = check_certificates(report, job.expect["factors"], ("x",))
        expected = {
            "operator_kernel_dim": d,
            "symmetry_space_dimension": n * n - d * (n - d),
            "induced_dimension": d * d,
            "reconstructed_dimension": d * d,
        }
        got = {
            "operator_kernel_dim": report["operator_kernel_dim"],
            "symmetry_space_dimension": report["symmetry_space_dimension"],
            "induced_dimension": report["generation"]["induced_dimension"],
            "reconstructed_dimension":
                report["generation"]["reconstructed_dimension"],
        }
        if got != expected:
            problems.append(f"dimensions {got} != {expected}")
        if not report["generation"]["equal"]:
            problems.append("generated spans differ")
        if report["beta_min"] != [[0, 1]] or report["alpha"] != [[0], [1]]:
            problems.append("two coprime linear factors: wrong beta or alpha")
        if not all(e["identities_hold"] and e["reconstructions_hold"]
                   for e in report["decompositions"]):
            problems.append("a decomposition failed")
        return problems


WORKLOADS = {w.name: w for w in (CertifyIdeal, CertifyExpand, ReduceTD,
                                 SymmetryEnum)}
