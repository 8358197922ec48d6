"""The kernels give exact values: each is checked against a plain loop, over
Fractions for the polynomial kernels (the integer reduction step too) and
over dense ints for the matrix kernels, which take sparse rows."""

import random
from fractions import Fraction

import pytest

from opkit import backend, kernels, poly
from opkit.poly import MonomialOrder, Packing, Polynomial

from conftest import BIG_DENOMINATORS


# -- plain reference loops --------------------------------------------------

def ref_combine(a, b, sign):
    out = {}
    for exp in set(a) | set(b):
        c = a.get(exp, Fraction(0)) + sign * b.get(exp, Fraction(0))
        if c != 0:
            out[exp] = c
    return out


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def ref_term_mul(a, coeff, shift):
    return ref_mul(a, {shift: coeff} if coeff else {})


def ref_sum_of_products(groups, nvars):
    out = {}
    for group in groups:
        acc = {(0,) * nvars: Fraction(1)}
        for t in group:
            acc = ref_mul(acc, t)
        out = ref_combine(out, acc, 1)
    return out


def ref_mat_mul(a, b):
    out = [[0] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                out[i][j] += a[i][k] * b[k][j]
    return out


def ref_mat_apply(a, v):
    out = [0] * len(a)
    for i, row in enumerate(a):
        for x, y in zip(row, v):
            out[i] += x * y
    return out


# -- inputs -----------------------------------------------------------------

def random_terms(rng, nvars, nterms, denominators=(1, 2, 3, 5, 7)):
    out = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, 4) for _ in range(nvars))
        c = Fraction(rng.randint(-20, 20), rng.choice(denominators))
        if c:
            out[exp] = c
        else:
            out.pop(exp, None)
    return out


def random_int_matrix(rng, rows, cols, scales=(1, 2, 3, 4), density=0.7):
    return [[rng.randint(-8, 8) * rng.choice(scales)
             if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


def isubmul_int(acc, a, c, shift, q, order=MonomialOrder.GREVLEX):
    """kernels.poly_isubmul on maps keyed by exponent tuples: packs the
    monomials of one run, takes the step and unpacks acc in place."""
    packing = Packing(len(shift), order, 8)
    packed, _ = packing.pack_terms(acc)
    kernels.poly_isubmul(packed, a, c, packing.pack(shift),
                         packing.pack_terms(q)[0])
    acc.clear()
    # Monomial by monomial, not unpack_terms: the values stay the kernel's
    # own ints, zeros included, for the caller to check.
    acc.update({packing.unpack(m): v for m, v in packed.items()})


def term_mul_int(a, coeff, shift, order=MonomialOrder.GREVLEX):
    """kernels.poly_term_mul on a map keyed by exponent tuples, through the
    packed monomials of one run."""
    packing = Packing(len(shift), order, 8)
    packed = kernels.poly_term_mul(packing.pack_terms(a)[0], coeff,
                                   packing.pack(shift))
    return {packing.unpack(m): v for m, v in packed.items()}


def sum_of_products(groups, nvars):
    """kernels.poly_sum_of_products on term maps, under the packing that
    poly.sum_of_products sizes for them: fields just wide enough for the
    largest sum of total degrees over a group."""
    return poly.sum_of_products(
        [[Polynomial._wrap(t, nvars) for t in g] for g in groups],
        nvars)._terms


def assert_canonical(terms):
    assert all(type(c) is Fraction and c != 0 for c in terms.values())


# -- polynomial kernels -----------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_poly_kernels_exact(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    denominators = BIG_DENOMINATORS if seed % 2 else (1, 2, 3, 5, 7)
    a = random_terms(rng, nvars, 12, denominators)
    b = random_terms(rng, nvars, 12, denominators)
    coeff = Fraction(rng.randint(1, 9), rng.choice(denominators))

    results = {
        "add": (kernels.poly_add(a, b), ref_combine(a, b, 1)),
        "sub": (kernels.poly_sub(a, b), ref_combine(a, b, -1)),
        "neg": (kernels.poly_neg(a), ref_combine({}, a, -1)),
        "scale": (kernels.poly_scale(a, coeff), ref_term_mul(a, coeff, (0,) * nvars)),
        "mul": (kernels.poly_mul(a, b), ref_mul(a, b)),
    }
    for name, (got, want) in results.items():
        assert got == want, name
        assert_canonical(got)


@pytest.mark.parametrize("seed", range(12))
def test_poly_sum_of_products_exact(seed):
    # Groups of 0 to 4 factors in 1-4 variables, and in 12 on seeds 10-11.
    rng = random.Random(200 + seed)
    nvars = 12 if seed >= 10 else rng.randint(1, 4)
    denominators = BIG_DENOMINATORS if seed % 2 else (1, 2, 3, 5, 7)
    groups = [[random_terms(rng, nvars, rng.randint(1, 5), denominators)
               for _ in range(size)]
              for size in [0, 1, 2, 3, 4] + [rng.randint(0, 4)] * 2]
    rng.shuffle(groups)
    before = [[dict(t) for t in g] for g in groups]
    got = sum_of_products(groups, nvars)
    assert got == ref_sum_of_products(groups, nvars)
    assert_canonical(got)
    assert groups == before


def test_poly_sum_of_products_edges():
    x, one = {(1, 0): Fraction(1)}, {(0, 0): Fraction(1)}
    a = {(1, 0): Fraction(1, 3), (0, 1): Fraction(-2), (0, 0): Fraction(5, 7)}
    b = {(2, 1): Fraction(-4, 9), (0, 0): Fraction(1)}
    neg_a = kernels.poly_neg(a)
    assert sum_of_products([], 2) == {}
    assert sum_of_products([[]], 2) == one
    assert sum_of_products([[], []], 2) == {(0, 0): Fraction(2)}
    # A zero factor zeroes its group only.
    assert sum_of_products([[a, {}, b], [x]], 2) == x
    assert sum_of_products([[{}]], 2) == {}
    # a*b + b*(-a) cancels to zero, and so does a - a with an extra 1 - 1.
    assert sum_of_products([[a, b], [b, neg_a]], 2) == {}
    assert sum_of_products(
        [[a], [neg_a], [one], [{(0, 0): Fraction(-1)}]], 2) == {}
    # The same map as several factors: (x + 1)^3 in one group.
    cube = sum_of_products([[a, a, a]], 2)
    assert cube == ref_mul(ref_mul(a, a), a)


@pytest.mark.parametrize("nvars", [1, 3, 12])
@pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 8, 15, 16, 63, 64])
def test_poly_sum_of_products_degree_bound(nvars, bound):
    # The largest group degree sum is exactly 2^k - 1 or 2^k, and every
    # variable reaches it in the product, so each packed field is full.
    rng = random.Random(bound * 31 + nvars)
    first = bound // 2

    def powers(e):
        out = {(0,) * nvars: Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))}
        for v in range(nvars):
            out[tuple(e if i == v else 0 for i in range(nvars))] = \
                Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 5, 3**40)))
        return out

    groups = [[powers(first), powers(bound - first)],
              [random_terms(rng, nvars, 4, (1, 2, 3)) for _ in range(2)]]
    groups[1] = [{e: c for e, c in t.items() if sum(e) <= bound // 2}
                 for t in groups[1]]
    got = sum_of_products(groups, nvars)
    assert got == ref_sum_of_products(groups, nvars)
    assert all(tuple(bound if i == v else 0 for i in range(nvars)) in got
               for v in range(nvars))


def test_poly_kernels_leave_inputs_alone():
    a = {(1,): Fraction(1, 2), (0,): Fraction(3)}
    b = {(1,): Fraction(-1, 2)}
    before = (dict(a), dict(b))
    kernels.poly_add(a, b)
    kernels.poly_sub(a, b)
    kernels.poly_mul(a, b)
    assert (a, b) == before


def test_cancellation_stores_no_zero():
    a = {(1, 0): Fraction(1, 3), (0, 1): Fraction(2)}
    neg = kernels.poly_neg(a)
    assert kernels.poly_add(a, neg) == {}
    assert kernels.poly_sub(a, a) == {}
    # (x + 1)(x - 1) = x^2 - 1: the x terms cancel.
    assert (kernels.poly_mul({(1,): Fraction(1), (0,): Fraction(1)},
                             {(1,): Fraction(1), (0,): Fraction(-1)})
            == {(2,): Fraction(1), (0,): Fraction(-1)})
    assert kernels.poly_mul({(0, 0): Fraction(3)}, {(0, 0): Fraction(1, 3)}) \
        == {(0, 0): Fraction(1)}


def test_empty_and_zero_operands():
    a = {(2,): Fraction(5, 7)}
    assert kernels.poly_add({}, {}) == {}
    assert kernels.poly_add(a, {}) == a
    assert kernels.poly_sub({}, a) == {(2,): Fraction(-5, 7)}
    assert kernels.poly_neg({}) == {}
    assert kernels.poly_mul(a, {}) == {} and kernels.poly_mul({}, a) == {}
    assert kernels.poly_scale(a, Fraction(0)) == {}


@pytest.mark.parametrize("seed", range(8))
def test_poly_isubmul_int_exact(seed):
    # a * acc - (c * x^shift) * q on integer term maps equals the same step
    # on Fractions, and so does (c * x^shift) * q; odd seeds take a = 1 and
    # seeds 2 and 6 big integers.
    rng = random.Random(300 + seed)
    nvars = rng.randint(1, 3)
    big = 2**70 if seed % 4 == 2 else 1
    acc = {e: int(c) * big for e, c in random_terms(rng, nvars, 12, (1,)).items()}
    q = {e: int(c) for e, c in random_terms(rng, nvars, 8, (1,)).items()}
    a = 1 if seed % 2 else rng.randint(2, 9) * big
    c = rng.choice([-1, 1]) * rng.randint(1, 9) * big
    shift = tuple(rng.randint(0, 2) for _ in range(nvars))
    want = ref_combine(ref_term_mul(acc, Fraction(a), (0,) * nvars),
                       ref_term_mul(q, Fraction(c), shift), -1)
    order = list(MonomialOrder)[seed % 3]
    got = dict(acc)
    isubmul_int(got, a, c, shift, q, order)
    assert got == want
    assert all(type(v) is int and v != 0 for v in got.values())
    assert term_mul_int(q, c, shift, order) == ref_term_mul(q, Fraction(c),
                                                            shift)


def test_poly_isubmul_int_cancels_and_empty_q():
    # 3 * (2x + 1) - 2 * (3x + 5) = -7: the leading terms cancel.
    acc = {(1,): 2, (0,): 1}
    isubmul_int(acc, 3, 2, (0,), {(1,): 3, (0,): 5})
    assert acc == {(0,): -7}
    # (2x + 4) - 2 * (x + 2) = 0, with a = 1.
    acc = {(1,): 2, (0,): 4}
    isubmul_int(acc, 1, 2, (0,), {(1,): 1, (0,): 2})
    assert acc == {}
    # x^2 * (x + 1) - x^2 * (x + 1) = 0 at a shift.
    acc = {(3,): 1, (2,): 1}
    isubmul_int(acc, 1, 1, (2,), {(1,): 1, (0,): 1})
    assert acc == {}
    # An empty q only scales acc.
    acc = {(2,): -3, (0,): 1}
    isubmul_int(acc, 1, 7, (1,), {})
    assert acc == {(2,): -3, (0,): 1}
    isubmul_int(acc, 5, 7, (1,), {})
    assert acc == {(2,): -15, (0,): 5}


# -- matrix kernels ---------------------------------------------------------

SHAPES = [(1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 6), (6, 4, 1), (4, 4, 4),
          (3, 7, 2)]


def sparse(rows):
    """Dense integer rows as the rows of a Matrix: the sorted (col, value)
    pairs of their nonzero entries."""
    return [tuple((j, v) for j, v in enumerate(row) if v) for row in rows]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_matrix_kernels_exact(shape, seed):
    rng = random.Random(100 * seed + sum(shape))
    n, m, p = shape
    scales = BIG_DENOMINATORS if seed % 2 else (1, 2, 3, 4)
    a = random_int_matrix(rng, n, m, scales)
    b = random_int_matrix(rng, m, p, scales)
    v = [row[0] for row in b]
    got = kernels.mat_mul(sparse(a), sparse(b))
    assert got == sparse(ref_mat_mul(a, b))
    assert all(type(x) is int for row in got for _, x in row)
    applied = kernels.mat_apply(sparse(a), v)
    assert applied == ref_mat_apply(a, v)
    assert all(type(x) is int for x in applied)
    # Matrix rows are tuples; the kernels take any sequence of rows.
    assert kernels.mat_mul(tuple(sparse(a)), tuple(sparse(b))) == got


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_sparse_mul_exact(shape, seed):
    # The product at density 0.4, where most rows have few entries.
    rng = random.Random(300 * seed + sum(shape))
    n, m, p = shape
    scales = BIG_DENOMINATORS if seed % 2 else (1, 2, 3, 4)
    a = random_int_matrix(rng, n, m, scales, density=0.4)
    b = random_int_matrix(rng, m, p, scales, density=0.4)
    got = kernels.mat_mul(sparse(a), sparse(b))
    assert got == sparse(ref_mat_mul(a, b))
    assert all(type(v) is int and v for row in got for _, v in row)


@pytest.mark.parametrize("a, b", [
    # 3x2 by 2x2: row 0 cancels in column 0, row 1 is empty.
    ([[1, -1], [0, 0], [2, 0]], [[3, 1], [3, 0]]),
    # 1x2 by 2x4: the whole product cancels.
    ([[1, 1]], [[2, 0, 0, -1], [-2, 0, 0, 1]]),
    # 1x3 by 3x2 with an all-zero right factor.
    ([[5, 0, 1]], [[0, 0], [0, 0], [0, 0]]),
    # 2x4 by 4x1 and 4x1 by 1x3: rectangular, with empty rows.
    ([[0, 0, 0, 0], [1, 2, 0, -7]], [[3], [0], [9], [1]]),
    ([[4], [0], [-1], [0]], [[1, 0, -2]]),
    # 1x1: an empty row.
    ([[0]], [[5]]),
])
def test_matrix_kernels_edge_cases(a, b):
    sa, sb = sparse(a), sparse(b)
    got = kernels.mat_mul(sa, sb)
    assert got == sparse(ref_mat_mul(a, b))
    assert all(v for row in got for _, v in row)
    v = [row[0] for row in b]
    assert kernels.mat_apply(sa, v) == ref_mat_apply(a, v)
    assert all(type(x) is int for x in kernels.mat_apply(sa, v))


def ref_block_diagonal(b, copies):
    """I_copies (x) b as dense integer rows."""
    m, p = len(b), len(b[0])
    return [[b[r % m][c % p] if r // m == c // p else 0
             for c in range(p * copies)] for r in range(m * copies)]


@pytest.mark.parametrize("copies", [1, 2, 7])
@pytest.mark.parametrize("shape", [(3, 4, 4), (2, 5, 2), (4, 1, 1),
                                   (1, 3, 5)])
def test_stack_mul_exact(shape, copies):
    # [A_1 | ... | A_N] (I_N (x) B) against the dense product by the
    # materialised diagonal, with an empty row and an all-zero block.
    rng = random.Random(17 * copies + sum(shape))
    n, m, p = shape
    for density in (0.3, 0.8):
        a = random_int_matrix(rng, n, m * copies, density=density)
        a[rng.randrange(n)] = [0] * (m * copies)
        k = rng.randrange(copies)
        for row in a:
            row[k * m:(k + 1) * m] = [0] * m
        b = random_int_matrix(rng, m, p, density=density)
        got = kernels.stack_mul(sparse(a), sparse(b), p)
        assert got == sparse(ref_mat_mul(a, ref_block_diagonal(b, copies)))
        assert all(type(v) is int and v for row in got for _, v in row)
        assert kernels.stack_mul(tuple(sparse(a)), tuple(sparse(b)), p) == got


def test_matrix_zero_outputs_are_the_shared_zero():
    half, third = Fraction(1, 2), Fraction(1, 3)
    # Row 0 cancels to zero, row 1 is all zeros, row 2 is not zero.
    a = backend.Matrix([[half, -third], [0, 0], [half, third]])
    b = backend.Matrix([[Fraction(2, 3), 0], [1, 0]])
    prod = (a * b).row_list()
    assert prod == [[0, 0], [0, 0], [Fraction(2, 3), 0]]
    zeros = [x for row in prod for x in row if x == 0]
    assert len(zeros) == 5 and all(x is backend._ZERO for x in zeros)
    out = a.apply([Fraction(2, 3), Fraction(1)])
    assert out == (0, 0, Fraction(2, 3))
    assert out[0] is backend._ZERO and out[1] is backend._ZERO
    m = backend.Matrix([[1, -1], [0, 0]])
    assert all(x is backend._ZERO for x in (m * m).row_list()[1])


def test_common_denominator():
    v = [Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5, 2**61 - 1)]
    nums, d = backend._integer_form(v)
    assert d == 12 * (2**61 - 1)
    assert all(type(x) is int for x in nums)
    assert [Fraction(x, d) for x in nums] == v
    assert backend._integer_form([]) == ([], 1)
    assert backend._integer_form([Fraction(0)]) == ([0], 1)


@pytest.mark.parametrize("seed", range(4))
def test_row_combine_int_exact(seed):
    rng = random.Random(200 + seed)
    width = rng.randint(1, 9)
    a, b, divisor = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
    row = [rng.randint(-50, 50) * divisor for _ in range(width)]
    prow = [rng.randint(-50, 50) * divisor for _ in range(width)]
    start = rng.randint(0, width - 1)
    want = row[:start] + [(a * x - b * y) // divisor
                          for x, y in zip(row[start:], prow[start:])]
    got = kernels.row_combine_int(row, a, prow, b, divisor, start)
    assert got == want and got is not row
