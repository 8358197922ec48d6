"""Shared test helpers: random generators and a sympy bridge for oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from opkit import poly
from opkit.errors import InputError, ParseError, ResourceLimitError
from opkit.poly import DEFAULT_ORDER, MonomialOrder, Polynomial

# Denominators large enough that a common denominator of a row is a big
# integer, mixed with small ones.
BIG_DENOMINATORS = (1, 2, 3, 2**61 - 1, 10**20 + 39, 3**40)


def random_polynomial(rng: random.Random, nvars: int, max_terms: int = 5,
                      max_exp: int = 3, coeff_bound: int = 6,
                      allow_zero: bool = True) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 4)
        terms[exp] = terms.get(exp, Fraction(0)) + Fraction(num, den)
    p = Polynomial(terms, nvars)
    if not allow_zero and p.is_zero():
        return Polynomial.one(nvars)
    return p


def random_vector(rng: random.Random, n: int, bound: int = 9):
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))


def to_sympy(p: Polynomial, names):
    """Convert to a sympy expression; used only as an independent oracle."""
    import sympy

    symbols = sympy.symbols(names)
    if len(names) == 1:
        symbols = (symbols,)
    expr = sympy.Integer(0)
    for exp, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, exp):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def invert(m):
    """Exact inverse via column solves; None when singular."""
    from opkit.backend import Matrix, solve_affine

    n = m.rows
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        sol = solve_affine(m, e)
        if sol.is_empty() or sol.kernel_vectors:
            return None
        cols.append(sol.particular)
    return Matrix([[cols[j][i] for j in range(n)] for i in range(n)])


def diagonal(values):
    """The diagonal matrix of the given values."""
    from opkit.backend import Matrix

    vals = list(values)
    return Matrix([[vals[i] if i == j else 0 for j in range(len(vals))]
                   for i in range(len(vals))])


def conjugated_diagonal(rng: random.Random, eigenvalues):
    """A random exact matrix similar to diag(eigenvalues)."""
    from opkit.backend import Matrix

    n = len(eigenvalues)
    while True:
        v = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(n)])
        v_inv = invert(v)
        if v_inv is not None:
            return v * diagonal(eigenvalues) * v_inv


def entry(m, i, j) -> Fraction:
    """Entry (i, j) of a Matrix, read off its stored rows."""
    return Fraction(dict(m._entries[i]).get(j, 0), m._den)


def dense_rows(m):
    """The integer rows of a Matrix, dense: entry (i, j) of m is
    dense_rows(m)[i][j] / m._den."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for dense, row in zip(out, m._entries):
        for j, v in row:
            dense[j] = v
    return out


def has_canonical_fields(m) -> bool:
    """True when m is stored in its one form: each row the (col, value)
    pairs of its nonzero integer entries, columns strictly increasing and
    in range, over a positive denominator in lowest terms."""
    values = [v for row in m._entries for _, v in row]
    columns = [[j for j, _ in row] for row in m._entries]
    return (len(m._entries) == m.rows and m._den > 0
            and gcd(m._den, *values) == 1
            and all(type(v) is int and v for v in values)
            and all(cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
                    for cols in columns))


def same_matrix(a, b):
    """Equal in value, in the stored fields and in the hash, or both None."""
    if a is None or b is None:
        return a is None and b is None
    return (a == b and a.cols == b.cols and a._entries == b._entries
            and a._den == b._den and has_canonical_fields(a)
            and hash(a) == hash(b) and a.to_strings() == b.to_strings())


def hstack(blocks):
    """Reference stack [B_1 | ... | B_N], built from the blocks' values."""
    from opkit.backend import Matrix

    grids = [b.row_list() for b in blocks]
    return Matrix([list(chain.from_iterable(g[r] for g in grids))
                   for r in range(blocks[0].rows)])


def block_diagonal(R, copies):
    """I_copies (x) R, materialised: the reference right factor of a stack
    of ``copies`` blocks, R.rows wide, that ``Matrix.stack_mul`` never
    builds."""
    from opkit.backend import Matrix

    grid, n, d = R.row_list(), R.rows, R.cols
    return Matrix([[grid[r % n][c % d] if r // n == c // d else 0
                    for c in range(d * copies)] for r in range(n * copies)])


def solve_right_factor_reference(P, C):
    """Reference right division: X with X P = C, or None, with the free
    parameters set to zero, from one elimination of [P^T | C^T] per call.

    Unsolvable exactly when a pivot lands in the right-hand block;
    otherwise each right-hand column of the reduced form holds one row of
    X at the pivot columns.
    """
    from opkit.backend import Matrix, _rref

    n = P.rows
    columns = zip(zip(*dense_rows(P)), zip(*dense_rows(C)))
    rref, pivots = _rref([[x * C._den for x in p_col] + [x * P._den for x in c_col]
                          for p_col, c_col in columns])
    if pivots and pivots[-1] >= n:
        return None
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k, pc in enumerate(pivots):
        for r in range(n):
            rows[r][pc] = rref[k][n + r]
    return Matrix(rows)


def distinct_fractions(rng: random.Random, count: int, bound: int = 8):
    values = set()
    while len(values) < count:
        values.add(Fraction(rng.randint(-bound, bound), rng.randint(1, 3)))
    return sorted(values)


@pytest.fixture
def buchberger_runs(monkeypatch):
    """Every Buchberger run, in order, as ``(track, generators)``: a probe
    has ``track`` False and a tracked run True.  A run that restarts at a
    wider field counts once."""
    from opkit import groebner

    runs = []
    run = groebner._run_buchberger

    def counted(generators, *args, track):
        runs.append((track, tuple(generators)))
        return run(generators, *args, track=track)

    monkeypatch.setattr(groebner, "_run_buchberger", counted)
    return runs


def run_counts(runs) -> tuple[int, int]:
    """(probes, tracked runs) among the runs ``buchberger_runs`` recorded."""
    tracked = sum(track for track, _ in runs)
    return len(runs) - tracked, tracked


@pytest.fixture
def rng():
    return random.Random(20240817)


# ---------------------------------------------------------------------------
# Reference copies of checks that only tests use
# ---------------------------------------------------------------------------

def in_span(vectors, v) -> bool:
    """Exact membership of v in the span of the given vectors."""
    from opkit.backend import span_basis

    basis = span_basis(vectors)
    return len(span_basis(basis + [tuple(v)])) == len(basis)


def spans_equal(a, b) -> bool:
    from opkit.backend import span_basis

    return span_basis(a) == span_basis(b)


def order_key(order: MonomialOrder):
    """The key of ``order`` on exponent tuples: larger monomials compare
    greater.  The reference for the packed keys and the printed order."""
    if order is MonomialOrder.LEX:
        return lambda exp: exp
    if order is MonomialOrder.GRLEX:
        return lambda exp: (sum(exp), exp)
    return lambda exp: (sum(exp), tuple(-e for e in reversed(exp)))


def leading_term(p: Polynomial, order=DEFAULT_ORDER):
    """(exponent, coefficient) of the leading term of a nonzero p."""
    exp = max(p.terms, key=order_key(order))
    return exp, p.terms[exp]


def reference_divide_multi(p: Polynomial, divisors, order=DEFAULT_ORDER):
    """Reference multivariate division on plain Fraction term maps:
    (quotients, remainder) with p = sum q_i d_i + r.  Each step takes the
    largest monomial left and reduces it by the first divisor whose leading
    monomial divides it, or sets it aside into the remainder."""
    leads = [leading_term(d, order) for d in divisors]
    work, remainder = dict(p.terms), {}
    quotients = [{} for _ in divisors]
    while work:
        exp = max(work, key=order_key(order))
        coeff = work[exp]
        for (lexp, lcoeff), d, quotient in zip(leads, divisors, quotients):
            if all(e >= le for e, le in zip(exp, lexp)):
                shift = tuple(e - le for e, le in zip(exp, lexp))
                q = coeff / lcoeff
                for dexp, c in d.terms.items():
                    m = tuple(x + y for x, y in zip(dexp, shift))
                    work[m] = work.get(m, 0) - q * c
                    if not work[m]:
                        del work[m]
                quotient[shift] = q  # each step has its own shift
                break
        else:
            remainder[exp] = work.pop(exp)
    nvars = p.variable_count
    return ([Polynomial(q, nvars) for q in quotients],
            Polynomial(remainder, nvars))


def is_constant(p: Polynomial) -> bool:
    return all(not any(exp) for exp in p.terms)


def constant_value(p: Polynomial) -> Fraction:
    """The value of a constant polynomial."""
    from opkit.errors import InputError

    if not is_constant(p):
        raise InputError("polynomial is not constant")
    return next(iter(p.terms.values()), Fraction(0))


def recombination_is_identity(cert, factors, inst) -> bool:
    """Exact check that sum Q_J P^J instantiates to the identity matrix."""
    from opkit.backend import Matrix, instantiate
    from opkit.certify import factor_product_complement

    n = inst.dimension
    acc = Matrix.zeros(n, n)
    for J in cert.alpha:
        q = instantiate(cert.cofactors[J], inst)
        pj = instantiate(factor_product_complement(factors, J), inst)
        acc = acc + q * pj
    return acc == Matrix.identity(n)


def all_hold(report) -> bool:
    """Every check of a ``reducer.KernelStructureReport`` holds."""
    return (report.dims_add_up and report.pairwise_trivial
            and report.projectors_idempotent
            and report.projectors_land_in_factor_kernels
            and report.projectors_sum_to_identity)


def induced_kernel_map(S, P):
    """Matrix of S acting on the kernel of P, in kernel-basis coordinates,
    from ``P.factorization``.

    None when S does not preserve the kernel; an invertible P raises
    ``InputError``, there is nothing to induce.
    """
    from opkit.errors import InputError

    fact = P.factorization
    if not fact.kernel:
        raise InputError("P has trivial kernel; no induced map exists")
    return fact.kernel_coordinates(S * fact.kernel_matrix)


def slice_reference(splitting, S, S_prime, i, j):
    """S_ij = Pr_i S Pr_j and its witness Q_i S' Pr_j P^j, for one element
    S, S' by plain products of the splitting's instantiated matrices."""
    pr, q, comp = splitting.projectors, splitting.cofactors, splitting.complements
    return pr[i] * S * pr[j], q[i] * S_prime * pr[j] * comp[j]


def fold_reference(splitting, i, j, S_ij, S_prime_ij):
    """S = S_ij Pr_j and its witness P^i S'_ij Q_j, for one element, by
    plain products."""
    pr, q, comp = splitting.projectors, splitting.cofactors, splitting.complements
    return S_ij * pr[j], comp[i] * S_prime_ij * q[j]


# ---------------------------------------------------------------------------
# Reference parser: the recursive descent that parse_polynomial ran before it
# built term maps directly, on Polynomial arithmetic.  It reads the caps off
# opkit.poly when it runs, so a test that lowers them lowers them for both.
# ---------------------------------------------------------------------------

_REFERENCE_OPS = set("+-*^()")
_REFERENCE_DIGITS = set("0123456789")
_REFERENCE_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _reference_check_bits(p: Polynomial, what: str, pos: int) -> Polynomial:
    bits = poly._coefficient_bits(p.terms.values())
    if bits > poly.COEFFICIENT_BITS_CAP:
        raise ResourceLimitError(
            f"{what} at position {pos} has a {bits}-bit coefficient, more "
            f"than the cap {poly.COEFFICIENT_BITS_CAP}")
    return p


def _reference_tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _REFERENCE_DIGITS:
            start = i
            while i < n and text[i] in _REFERENCE_DIGITS:
                i += 1
            num = poly._literal(text[start:i], f"at position {start}")
            if (i < n and text[i] == "/" and i + 1 < n
                    and text[i + 1] in _REFERENCE_DIGITS):
                i += 1
                dstart = i
                while i < n and text[i] in _REFERENCE_DIGITS:
                    i += 1
                den = poly._literal(text[dstart:i], f"at position {dstart}")
                if den == 0:
                    raise ParseError("zero denominator in rational literal",
                                     start)
                tokens.append(("number", Fraction(num, den), start))
            else:
                tokens.append(("number", Fraction(num), start))
        elif ch in _REFERENCE_LETTERS:
            start = i
            i += 1
            while i < n and (text[i] in _REFERENCE_LETTERS
                             or text[i] in _REFERENCE_DIGITS
                             or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
        elif ch in _REFERENCE_OPS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str, variables):
        if not variables:
            raise InputError("at least one variable name is required")
        if len(set(variables)) != len(variables):
            raise InputError("duplicate variable names")
        self.tokens = _reference_tokenize(text)
        self.pos = 0
        self.open = 0
        self.variables = {name: i for i, name in enumerate(variables)}
        self.nvars = len(variables)
        self.cap = poly.resolve_term_cap()

    def multiply(self, a: Polynomial, b: Polynomial, pos: int) -> Polynomial:
        formed = a.term_count() * b.term_count()
        if formed > self.cap:
            raise ResourceLimitError(
                f"product at position {pos} forms {formed} terms, more than "
                f"the cap {self.cap}; raise {poly.TERM_CAP_ENV} to continue")
        degree = a.total_degree() + b.total_degree()
        if degree > poly.DEGREE_CAP:
            raise ResourceLimitError(
                f"product at position {pos} has total degree {degree}, more "
                f"than the cap {poly.DEGREE_CAP}")
        if formed == 1:
            (ea, ca), = a.terms.items()
            (eb, cb), = b.terms.items()
            value = Polynomial({tuple(i + j for i, j in zip(ea, eb)): ca * cb},
                               self.nvars)
            return _reference_check_bits(value, "product", pos)
        return _reference_check_bits(a * b, "product", pos)

    def monomial_power(self, m: Polynomial, k: int, pos: int) -> Polynomial:
        (exp, coeff), = m.terms.items()
        degree = sum(exp) * k
        if degree > poly.DEGREE_CAP:
            raise ResourceLimitError(
                f"power at position {pos} has total degree {degree}, more "
                f"than the cap {poly.DEGREE_CAP}")
        bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
        least = (bits - 1) * k + 1
        if least > poly.COEFFICIENT_BITS_CAP:
            raise ResourceLimitError(
                f"power at position {pos} has an at least {least}-bit "
                f"coefficient, more than the cap {poly.COEFFICIENT_BITS_CAP}")
        value = Polynomial({tuple(e * k for e in exp): coeff ** k}, self.nvars)
        return _reference_check_bits(value, "power", pos)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self) -> Polynomial:
        value = self.parse_expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[2])
        return value

    def parse_expr(self) -> Polynomial:
        start = self.peek()[2]
        value = self.parse_term()
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.advance()
                value = value + self.parse_term()
            elif kind == "-":
                self.advance()
                value = value - self.parse_term()
            else:
                return _reference_check_bits(value, "expression", start)

    def parse_term(self) -> Polynomial:
        value = self.parse_unary()
        while True:
            kind, _, pos = self.peek()
            if kind == "*":
                self.advance()
                value = self.multiply(value, self.parse_unary(), pos)
            elif kind in ("name", "number", "("):
                raise ParseError("implicit multiplication is not allowed", pos)
            else:
                return value

    def parse_unary(self) -> Polynomial:
        if self.peek()[0] == "-":
            self.advance()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Polynomial:
        value = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            kind, val, pos = self.advance()
            if (kind != "number" or not isinstance(val, Fraction)
                    or val.denominator != 1 or val < 0):
                raise ParseError("exponent must be a non-negative integer", pos)
            if value.term_count() == 1:
                value = self.monomial_power(value, int(val), pos)
                continue
            base, value = value, Polynomial.one(self.nvars)
            for bit in bin(int(val))[2:]:
                value = self.multiply(value, value, pos)
                if bit == "1":
                    value = self.multiply(value, base, pos)
        return value

    def parse_atom(self) -> Polynomial:
        kind, val, pos = self.advance()
        if kind == "number":
            return Polynomial.constant(val, self.nvars)
        if kind == "name":
            index = self.variables.get(val)
            if index is None:
                raise ParseError(f"unknown variable {val!r}", pos)
            return Polynomial.variable(index, self.nvars)
        if kind == "(":
            if self.open >= poly.NESTING_CAP:
                raise ParseError(
                    f"parentheses nest deeper than {poly.NESTING_CAP}", pos)
            self.open += 1
            value = self.parse_expr()
            self.open -= 1
            self.expect(")")
            return value
        raise ParseError(f"unexpected {kind!r}", pos)


def reference_parse(text: str, variables) -> Polynomial:
    """parse_polynomial as the Polynomial-level recursive descent ran it."""
    if not isinstance(text, str):
        raise InputError(
            f"an expression must be a string, got {type(text).__name__}")
    return _ReferenceParser(text, variables).parse()
