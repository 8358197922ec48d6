"""Exact reference arithmetic that does not use opkit.

Polynomials are plain ``{exponent tuple: Fraction}`` dicts.  The module
formats them in opkit's job grammar, parses opkit's canonical output back,
multiplies and adds them, applies constant-coefficient differential
operators to polynomials, and asks sympy's ``groebner`` which factor subsets
generate the unit ideal.  Benchmark inputs are built and outputs are checked
with these routines only, so a defect in opkit's arithmetic cannot hide
itself.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

Poly = dict  # {tuple[int, ...]: Fraction}, no zero coefficients


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_product(polys, nvars: int) -> Poly:
    out: Poly = {(0,) * nvars: Fraction(1)}
    for p in polys:
        out = poly_mul(out, p)
    return out


def format_poly(p: Poly, names) -> str:
    """Job-grammar text for p, e.g. ``3*x^2*y - 1/2*z + 1``."""
    if not p:
        return "0"
    pieces = []
    for exp in sorted(p, key=lambda e: (sum(e), e), reverse=True):
        c = p[exp]
        factors = [n if e == 1 else f"{n}^{e}"
                   for n, e in zip(names, exp) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}" if pieces else
                      (f"-{body}" if c < 0 else body))
    return " ".join(pieces)


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_canonical(text: str, names) -> Poly:
    """Parse opkit's canonical output: signed terms of ``coef*var^e`` factors."""
    index = {n: i for i, n in enumerate(names)}
    out: Poly = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(sign)
        exp = [0] * len(names)
        for factor in m.group(2).strip().split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exp[index[name]] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(exp)
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def derivative(p: Poly, var: int) -> Poly:
    out: Poly = {}
    for exp, c in p.items():
        if exp[var]:
            lowered = list(exp)
            lowered[var] -= 1
            out[tuple(lowered)] = c * exp[var]
    return out


def apply_differential(op: Poly, u: Poly) -> Poly:
    """``op(d/dx_1, ..., d/dx_k)`` applied to the polynomial u."""
    out: Poly = {}
    for exp, c in op.items():
        term = u
        for var, e in enumerate(exp):
            for _ in range(e):
                term = derivative(term, var)
        out = poly_add(out, {k: c * v for k, v in term.items()})
    return out


# ---------------------------------------------------------------------------
# Set systems on the index set L = {0..l}, as frozensets.
# ---------------------------------------------------------------------------

def max_sets(sets):
    return {s for s in sets if not any(o > s for o in sets)}


def optimal_alpha(beta, size: int):
    """Maximal J such that no member of beta lies inside J."""
    candidates = [frozenset(c) for k in range(size + 1)
                  for c in combinations(range(size), k)]
    return max_sets({J for J in candidates if all(not I <= J for I in beta)})


def canonical(sets) -> list:
    return sorted(sorted(s) for s in sets)


def unit_subsets_sympy(factors, names):
    """Inclusion-minimal factor subsets whose ideal contains 1, by sympy."""
    import sympy

    symbols = sympy.symbols(list(names))
    exprs = [sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                         * sympy.Mul(*[s ** e for s, e in zip(symbols, exp)])
                         for exp, c in p.items()]) for p in factors]
    hits = []
    for k in range(1, len(factors) + 1):
        for combo in combinations(range(len(factors)), k):
            J = frozenset(combo)
            if any(h <= J for h in hits):
                continue
            basis = sympy.groebner([exprs[j] for j in combo], *symbols,
                                   order="grevlex")
            if list(basis.exprs) == [1]:
                hits.append(J)
    return set(hits)


# ---------------------------------------------------------------------------
# Small exact matrices as lists of Fraction rows.
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in cols] for row in a]


def mat_inverse(a):
    """Gauss-Jordan inverse, or None when a is singular."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]
