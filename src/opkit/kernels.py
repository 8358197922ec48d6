"""Exact kernels: the hot inner loops of the package, in pure Python.

Sparse term-map arithmetic (dicts mapping exponent tuples to nonzero
Fractions, and on integer term maps keyed by the packed-int monomials of
``poly.Packing`` the single-term product and the one reduction step that
serves both fraction-free Buchberger and multivariate division),
the integer matrix product and apply on the sparse integer rows of a
``backend.Matrix`` (and the product of a stack of blocks by I_N (x) B),
and the dense integer row operation used by fraction-free elimination.
Callers reach the kernels by attribute (``kernels.mat_mul``), so a test or
a tracer can substitute one.

Binary ``*`` (``poly_mul``) stays on Fractions.  A product of several
factors, and every identity check (a sum of such products), is one call
of ``poly_sum_of_products``, which runs on integers over the packed-int
monomials of a ``poly.Packing`` its caller sizes, and builds a Fraction
only for each term of the result.  This module imports nothing from the
package, so the packing is passed in.

All polynomial kernels keep the canonical-form invariant: no zero
coefficient is ever stored.
"""

from __future__ import annotations

import math
from fractions import Fraction

IMPLEMENTATION = "pure-python"

_ZERO = Fraction(0)


def poly_add(a: dict, b: dict) -> dict:
    """Return the term-map sum a + b."""
    out = dict(a)
    for exp, coeff in b.items():
        new = out.get(exp, _ZERO) + coeff
        if new:
            out[exp] = new
        else:
            out.pop(exp, None)
    return out


def poly_sub(a: dict, b: dict) -> dict:
    """Return the term-map difference a - b."""
    out = dict(a)
    for exp, coeff in b.items():
        new = out.get(exp, _ZERO) - coeff
        if new:
            out[exp] = new
        else:
            out.pop(exp, None)
    return out


def poly_neg(a: dict) -> dict:
    """Return -a."""
    return {exp: -coeff for exp, coeff in a.items()}


def poly_scale(a: dict, coeff: Fraction) -> dict:
    """Return coeff * a."""
    if not coeff:
        return {}
    return {exp: c * coeff for exp, c in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    """Return the distributed product a * b."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            new = out.get(exp, _ZERO) + ca * cb
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
    return out


def poly_sum_of_products(groups, packing) -> dict:
    """Return the term map of sum over g in groups of prod over t in g of t.

    ``groups`` is a sequence of sequences of term maps; an empty group is
    1, an empty sequence of groups 0.  ``packing`` is a ``poly.Packing``
    whose fields fit the largest sum of total degrees over a group, so
    adding packed ints multiplies monomials and no field can carry.  Each
    factor is cleared to integers over the lcm of its denominators
    (``packing.pack_terms``), each group is multiplied on ints in the order
    given, the groups are summed over one common denominator, and each
    surviving term is divided out once (``packing.unpack_terms``).  The
    inputs are left unmodified.
    """
    cleared = {id(t): packing.pack_terms(t) for g in groups for t in g}
    products = []
    for g in groups:
        acc, den = {0: 1}, 1
        for i, t in enumerate(g):
            terms, d = cleared[id(t)]
            acc = _int_mul(acc, terms) if i else terms
            den *= d
            if not acc:
                break
        if acc:
            products.append((acc, den))
    if not products:
        return {}
    if len(products) == 1:
        total, den = products[0]
    else:
        den = math.lcm(*[d for _, d in products])
        total = {}
        get = total.get
        for terms, d in products:
            s = den // d
            for m, v in terms.items():
                total[m] = get(m, 0) + v * s
    return packing.unpack_terms(total, den)


def _int_mul(a: dict, b: dict) -> dict:
    """The product of two integer term maps on packed monomials."""
    out: dict = {}
    get = out.get
    a_items = list(a.items())
    for mb, cb in b.items():
        for ma, ca in a_items:
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    return {m: v for m, v in out.items() if v}


def poly_term_mul(a: dict, coeff: int, shift: int) -> dict:
    """Return (coeff * x^shift) * a on an integer term map: ``{m + shift:
    coeff * v}``.  The monomials are packed ints (``poly.Packing``); the
    caller keeps every sum clear of the guard bits and coeff nonzero."""
    return {m + shift: coeff * v for m, v in a.items()}


def poly_isubmul(acc: dict, a: int, c: int, shift: int, q: dict) -> None:
    """In place on integer term maps: acc = a * acc - (c * x^shift) * q.

    The fraction-free reduction step of Buchberger's algorithm and of
    multivariate division: with acc over a scale s and q over its leading
    coefficient, the result is over the scale a * s.  The monomials are
    packed ints (``poly.Packing``), so x^shift * x^e is ``e + shift``; the
    caller keeps every sum clear of the guard bits.
    """
    if a != 1:
        for m, v in acc.items():
            acc[m] = a * v
    for m, v in q.items():
        key = m + shift
        new = acc.get(key, 0) - c * v
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def mat_mul(a: list, b: list) -> list:
    """Multiply two integer matrices given as sparse rows.

    A sparse row is a sequence of ``(col, value)`` pairs sorted by column,
    with no zero value; row i of the product is the sum over k of
    a[i][k] * (row k of b), a sparse row of the same form.
    """
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row:
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(tuple([(j, v) for j, v in sorted(acc.items()) if v]))
    return out


def stack_mul(a: list, b: list, cols: int) -> list:
    """Multiply a stack [A_1 | ... | A_N] by I_N (x) B, with B never formed.

    ``a`` is the sparse rows of the stack, its blocks len(b) columns wide;
    ``b`` is the sparse rows of B, ``cols`` columns wide.  Entry (k, x) of a
    row lies in block k // len(b), at column k % len(b) of it, so it adds
    x * (that row of b) to the same block of the product, which is ``cols``
    wide.  The rows are sparse rows of the form ``mat_mul`` returns.
    """
    m = len(b)
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row:
            block, c = divmod(k, m)
            offset = block * cols
            for j, y in b[c]:
                j += offset
                acc[j] = acc.get(j, 0) + x * y
        out.append(tuple([(j, v) for j, v in sorted(acc.items()) if v]))
    return out


def mat_apply(a: list, v: list) -> list:
    """Apply an integer matrix, a sequence of sparse rows, to an integer
    vector."""
    return [sum([x * v[k] for k, x in row]) for row in a]


def row_combine_int(row: list, a: int, prow: list, b: int,
                    divisor: int, start: int) -> list:
    """Return the fraction-free elimination update of an integer row.

    out[j] = row[j] for j < start, else (a*row[j] - b*prow[j]) // divisor.
    The division is exact by construction of the elimination.
    """
    out = list(row)
    for j in range(start, len(row)):
        out[j] = (a * row[j] - b * prow[j]) // divisor
    return out
