"""Exact finite-dimensional matrix oracle.

Commuting families of rational matrices realize the abstract operators;
polynomials are instantiated through the evaluation homomorphism, and
kernel/solve/range questions are answered by fraction-free elimination
over the integers, with fully deterministic pivoting.
``_sparse_rref``, a Gauss-Jordan pass on sparse ``{col: int}`` rows whose
work follows their nonzero entries, gives the one echelon format: the
nonzero rows of the reduced echelon form, each primitive with a positive
pivot, and the pivot columns.  It serves every ``Factorization`` (the
kernel, ``kernel_basis``, the right division, the symmetry basis),
``span_basis`` (so ``affine_sets_equal`` and the reducer's comparisons)
and ``block_span`` (the symmetry generation check).  Each ``Matrix`` owns
one ``Factorization``, built on first use and kept for the matrix's life,
so each of its eliminations runs at most once, however many callers ask.
``solve_affine`` takes its kernel from there too, and reads only the last
column of ``_rref``, dense Bareiss updates with a ``Fraction``
back-substitution, for consistency and the particular solution.  That
pass waits on ROADMAP item 1: the benchmark worker keeps every output,
and faster solves make it keep more than its memory bound allows.

A ``Matrix`` is sparse integer rows over one positive denominator, in
lowest terms; products, sums, instantiation and ``_sparse_rref`` work on
those rows, only ``solve_affine`` takes them dense, and values leave as
``Fraction``s.  No other module reads the fields or echelon rows, or
builds a ``Matrix`` from rows.  Matrices side by side,
[B_1 | ... | B_N], are one matrix, split by ``hsplit``; ``stack_mul``
multiplies such a stack by I_N (x) R in one product, reading the rows of
R for each block (``kernels.stack_mul``) and never forming the nN x nN
diagonal.

Everything is exact; nothing here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import comb, gcd, lcm
from typing import Iterable, Optional, Sequence

from . import kernels
from .errors import InputError, ResourceLimitError
from .poly import Polynomial

Vector = tuple[Fraction, ...]

DIMENSION_CAP = 2000

# Vectors and Fraction rows built here store every zero entry as this one
# object, and the unit entries of elimination (pivots, kernel-basis ones)
# share _ONE, so a kept vector costs memory only for its other entries.
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def as_vector(values: Iterable) -> Vector:
    return tuple(_frac(v) for v in values)


def _integer_form(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ``nums`` and ``d`` with v[i] == nums[i] / d for every i;
    ``d`` is the lcm of the denominators, so the form is in lowest terms."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _dense(row: Iterable[tuple[int, int]], cols: int) -> list[int]:
    """The dense integer row of ``cols`` entries with the given pairs."""
    out = [0] * cols
    for j, v in row:
        out[j] = v
    return out


class Matrix:
    """Immutable sparse matrix of exact rationals: each row of ``_entries``
    is the ``(col, value)`` pairs of its nonzero integer entries, sorted by
    column, over one denominator ``_den`` > 0, in lowest terms, so equal
    values of one shape hash equal.  ``_fact`` holds the ``factorization``
    once it is built."""

    __slots__ = ("rows", "cols", "_entries", "_den", "_fact")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[_frac(v) for v in row] for row in entries]
        if not rows:
            raise InputError("a matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise InputError("matrix rows must be nonempty and equal length")
        nums, self._den = _integer_form(list(chain.from_iterable(rows)))
        self._entries = tuple(
            tuple([(j, v) for j, v in enumerate(nums[k:k + width]) if v])
            for k in range(0, len(nums), width))
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def _wrap(cls, entries: Sequence[Sequence[tuple[int, int]]], den: int,
              cols: int) -> "Matrix":
        """The matrix entries / den, for sparse integer rows and den > 0."""
        g = gcd(den, *(v for row in entries for _, v in row)) if den != 1 else 1
        if g != 1:
            entries = [[(j, v // g) for j, v in row] for row in entries]
        return cls._canonical(entries, den // g, cols)

    @classmethod
    def _canonical(cls, entries: Sequence[Sequence[tuple[int, int]]], den: int,
                   cols: int) -> "Matrix":
        """The matrix entries / den, for rows and den already in lowest
        terms."""
        self = object.__new__(cls)
        self._entries = tuple(map(tuple, entries))
        self._den = den
        self.rows = len(entries)
        self.cols = cols
        return self

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 1:
            raise InputError("a matrix needs at least one row and column")
        return cls._wrap([((i, 1),) for i in range(n)], 1, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise InputError("a matrix needs at least one row and column")
        return cls._wrap([()] * rows, 1, cols)

    def hsplit(self, count: int) -> list["Matrix"]:
        """The blocks B_1, ..., B_count of [B_1 | ... | B_count], each in
        lowest terms."""
        if count < 1 or self.cols % count:
            raise InputError(f"cannot split {self.cols} columns into {count} blocks")
        w = self.cols // count
        parts = [[[] for _ in range(self.rows)] for _ in range(count)]
        for r, row in enumerate(self._entries):
            for j, v in row:
                k, c = divmod(j, w)
                parts[k][r].append((c, v))
        return [Matrix._wrap(rows, self._den, w) for rows in parts]

    def to_strings(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.row_list()]

    def row_list(self) -> list[list[Fraction]]:
        d = self._den
        return [[Fraction(v, d) if v else _ZERO for v in _dense(row, self.cols)]
                for row in self._entries]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self._entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self._den == other._den and self._entries == other._entries)

    def __hash__(self) -> int:
        return hash((self.cols, self._entries, self._den))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        d = lcm(self._den, other._den)
        a, b = d // self._den, d // other._den
        rows = []
        for r1, r2 in zip(self._entries, other._entries):
            acc = {j: x * a for j, x in r1}
            for j, y in r2:
                acc[j] = acc.get(j, 0) + y * b
            rows.append([(j, v) for j, v in sorted(acc.items()) if v])
        return Matrix._wrap(rows, d, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._wrap([[(j, -v) for j, v in row] for row in self._entries],
                            self._den, self.cols)

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._wrap([[(j, v * c.numerator) for j, v in row]
                             for row in self._entries],
                            self._den * c.denominator, self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise InputError(
                    f"cannot multiply {self.rows}x{self.cols} by "
                    f"{other.rows}x{other.cols}")
            return Matrix._wrap(kernels.mat_mul(self._entries, other._entries),
                                self._den * other._den, other.cols)
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def stack_mul(self, R: "Matrix") -> "Matrix":
        """This stack [A_1 | ... | A_N] times I_N (x) R, that is
        [A_1 R | ... | A_N R], for blocks R.rows wide; I_N (x) R is never
        formed."""
        if self.cols % R.rows:
            raise InputError(f"cannot split {self.cols} columns into blocks "
                             f"of {R.rows}")
        return Matrix._wrap(
            kernels.stack_mul(self._entries, R._entries, R.cols),
            self._den * R._den, self.cols // R.rows * R.cols)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise InputError(f"vector length {len(v)} != column count {self.cols}")
        nums, d = _integer_form([_frac(x) for x in v])
        d *= self._den
        return tuple(Fraction(s, d) if s else _ZERO
                     for s in kernels.mat_apply(self._entries, nums))

    @property
    def factorization(self) -> "Factorization":
        """The eliminations of this matrix, built on first use and kept.

        The factorization holds a twin of this matrix (the same rows in
        another object), so the two form no reference cycle and are freed
        together, when the matrix is."""
        try:
            return self._fact
        except AttributeError:
            twin = Matrix._canonical(self._entries, self._den, self.cols)
            self._fact = Factorization(twin)
            return self._fact

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shape mismatch")

    def __repr__(self) -> str:
        return f"Matrix({self.to_strings()!r})"


@dataclass(frozen=True)
class OperatorInstance:
    """A commuting family of square matrices realizing the variables.

    Each instance memoizes its instantiated polynomials: ``instantiate``
    keeps the matrix of every polynomial it evaluates here, keyed by the
    polynomial's value, for as long as the instance lives.  The memo takes
    no part in equality, hashing or the repr.
    """

    dimension: int
    generators: tuple[Matrix, ...]
    _instantiated: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise InputError("dimension must be positive")
        if self.dimension > DIMENSION_CAP:
            raise ResourceLimitError(
                f"dimension {self.dimension} exceeds cap {DIMENSION_CAP}")
        if not self.generators:
            raise InputError("need at least one generator matrix")
        for i, g in enumerate(self.generators):
            if not (g.is_square() and g.rows == self.dimension):
                raise InputError(f"generator {i} is not {self.dimension} square")
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if gens[i] * gens[j] != gens[j] * gens[i]:
                    raise InputError(
                        f"generators {i} and {j} do not commute")

    @classmethod
    def of(cls, generators: Sequence[Matrix]) -> "OperatorInstance":
        return cls(generators[0].rows, tuple(generators))

    @property
    def variable_count(self) -> int:
        return len(self.generators)


def instantiate(p: Polynomial, inst: OperatorInstance) -> Matrix:
    """Evaluate a polynomial at the generator matrices (1 maps to identity).

    The result is memoized on ``inst``, keyed by the value of ``p``: a later
    call with an equal polynomial on the same instance returns the same
    (immutable) matrix without evaluating again.  The memo lives exactly as
    long as the instance.
    """
    if p.variable_count != inst.variable_count:
        raise InputError(
            f"polynomial has {p.variable_count} variables, instance has "
            f"{inst.variable_count} generators")
    memo = inst._instantiated
    cached = memo.get(p)
    if cached is None:
        cached = memo[p] = _evaluate(p, inst)
    return cached


def _evaluate(p: Polynomial, inst: OperatorInstance) -> Matrix:
    """p at the generators.

    Each monomial is a product of generator powers, a Matrix in lowest
    terms.  The terms are summed as integers over the lcm D of their
    denominators (the monomial's times the coefficient's), and the sum
    leaves as one Matrix in lowest terms.
    """
    n = inst.dimension
    identity = Matrix.identity(n)
    powers = [[identity, g] for g in inst.generators]  # powers[v][e]: g_v^e
    terms = []
    for exp, c in p.terms.items():
        mono = identity
        for v, e in enumerate(exp):
            if e:
                cache = powers[v]
                while len(cache) <= e:
                    cache.append(cache[-1] * cache[1])
                mono = cache[e] if mono is identity else mono * cache[e]
        terms.append((c, mono))
    D = lcm(*(c.denominator * m._den for c, m in terms))
    acc: list[dict] = [{} for _ in range(n)]
    for c, m in terms:
        b = c.numerator * (D // (c.denominator * m._den))
        for row, mrow in zip(acc, m._entries):
            for j, v in mrow:
                row[j] = row.get(j, 0) + b * v
    return Matrix._wrap([[(j, v) for j, v in sorted(row.items()) if v]
                         for row in acc], D, n)


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------

def _rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of an integer matrix, with pivot columns,
    fully deterministic.

    Forward pass: fraction-free Bareiss elimination (exact divisions,
    polynomial entry growth).  Backward pass: normalize pivots to 1 and
    clear above, in fractions.
    """
    mat = list(rows)
    n = len(mat)
    m = len(mat[0])
    prev = 1
    pivots: list[int] = []
    r = 0
    for col in range(m):
        pivot_row = None
        for i in range(r, n):
            if mat[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][col]
        for i in range(r + 1, n):
            f = mat[i][col]
            mat[i] = kernels.row_combine_int(mat[i], piv, mat[r], f, prev, col)
        prev = piv
        pivots.append(col)
        r += 1
        if r == n:
            break
    frows = [[Fraction(v) for v in row] for row in mat]
    for idx in range(len(pivots) - 1, -1, -1):
        col = pivots[idx]
        piv = frows[idx][col]
        frows[idx] = [v / piv for v in frows[idx]]
        frows[idx][col] = _ONE
        for i in range(idx):
            f = frows[i][col]
            if f:
                frows[i] = [a - f * b for a, b in zip(frows[i], frows[idx])]
    return [[v or _ZERO for v in row] for row in frows], pivots


def _sparse_rref(rows: Iterable[Iterable[tuple[int, int]]]
                 ) -> tuple[list[dict[int, int]], list[int]]:
    """The reduced row echelon form of the integer matrix whose rows are
    given as ``(col, value)`` pairs of their nonzero entries, which is
    unique: its nonzero rows in pivot-column order, each a primitive
    ``{col: int}`` map with a positive pivot, and the pivot columns.

    Fraction-free Gauss-Jordan on sparse rows.  Each row, as a
    ``{col: int}`` map, is reduced by the pivot rows already placed (each
    step ``a row - b pivot_row``, a and b the two entries over their gcd)
    and made primitive: content divided out, leading entry positive.  Its
    leading column becomes a pivot and is cleared from every other pivot
    row, which is then made primitive again.  Every pivot row so stays
    zero at the other pivot columns.  The elimination touches nonzero
    entries alone, beside one lookup per placed row for each new pivot.
    """
    placed: dict[int, dict[int, int]] = {}
    for pairs in rows:
        row = dict(pairs)
        for c in [c for c in row if c in placed]:
            row = _cancel(row, placed[c], c)
        if not row:
            continue
        lead = min(row)
        row = _primitive(row, row[lead])
        for c, other in placed.items():
            if lead in other:
                placed[c] = _primitive(_cancel(other, row, lead), 1)
        placed[lead] = row
    pivots = sorted(placed)
    return [placed[c] for c in pivots], pivots


def _cancel(row: dict[int, int], pivot_row: dict[int, int],
            col: int) -> dict[int, int]:
    """``a row - b pivot_row``, for the coprime a > 0 and b that make it
    zero at ``col``; ``pivot_row[col]`` must be positive."""
    v, p = row[col], pivot_row[col]
    g = gcd(v, p)
    a, b = p // g, v // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, y in pivot_row.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def _primitive(row: dict[int, int], sign: int) -> dict[int, int]:
    """``row`` over its content, negated too when ``sign`` < 0."""
    g = gcd(*row.values())
    if sign < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic exact nullspace basis (reduced-echelon convention),
    from the echelon form that ``m.factorization`` keeps."""
    return list(m.factorization.kernel)


@dataclass(frozen=True)
class AffineSolutionSet:
    """particular + span(kernel_vectors); particular None means no solution."""

    particular: Optional[Vector]
    kernel_vectors: tuple[Vector, ...]

    def is_empty(self) -> bool:
        return self.particular is None

    def dimension(self) -> int:
        if self.is_empty():
            raise InputError("empty solution set has no dimension")
        return len(self.kernel_vectors)


def solve_affine(m: Matrix, f: Sequence) -> AffineSolutionSet:
    """Full exact solution set of m u = f."""
    f = as_vector(f)
    if len(f) != m.rows:
        raise InputError(f"rhs length {len(f)} != row count {m.rows}")
    # Row i of [m | f] times m._den * (denominator of m._den * f_i) is integer.
    rref, pivots = _rref([[x * r.denominator for x in _dense(row, m.cols)]
                          + [r.numerator]
                          for row, r in zip(m._entries, (v * m._den for v in f))])
    if pivots and pivots[-1] == m.cols:
        return AffineSolutionSet(None, ())
    particular = [_ZERO] * m.cols
    for r, pc in enumerate(pivots):
        particular[pc] = rref[r][m.cols]
    # The kernel is m's own, eliminated once for every right side.
    return AffineSolutionSet(tuple(particular), tuple(m.factorization.kernel))


class Factorization:
    """The eliminations of one matrix P, each done once, when first needed.

    ``echelon`` is the reduced echelon form of P in ``_sparse_rref``'s
    format; ``kernel`` is ``kernel_basis(P)``, read off it, one vector per
    free column, as are ``kernel_matrix`` and ``kernel_coordinates``.
    ``right_divide`` solves X P = C for square P from one elimination of
    [P^T | I] to its reduced form [R | E]: E P^T = R, so the first rank(P)
    rows of E give the witness matrix G and the other rows N span the
    kernel of P as row vectors.  X P = C is solvable exactly when C N^T = 0, and then C G is
    the solution with the free parameters set to zero, the matrix that
    reducing [P^T | C^T] on its own gives (a reduced echelon form is
    unique).  For the same reason N is the reduced echelon form of the
    kernel basis as rows (``null_echelon``).  A C of N blocks side by
    side is divided block by block in the same two products,
    C (I_N (x) N^T) and C (I_N (x) G), each a ``Matrix.stack_mul`` that
    reads N^T or G once per block.  Each matrix here is built from integer
    echelon rows over the lcm of their pivots.
    ``P.factorization`` is the one factorization of P, and every caller
    in the package reaches it that way; nothing is kept outside the
    object, which lives exactly as long as P.
    """

    def __init__(self, P: Matrix):
        self.P = P

    @cached_property
    def echelon(self) -> tuple[list[dict[int, int]], list[int]]:
        return _sparse_rref(self.P._entries)

    @cached_property
    def kernel(self) -> list[Vector]:
        basis = {j: [_ZERO] * self.P.cols for j in self._free}
        for row, p in zip(*self.echelon):
            for j, x in row.items():
                if j != p:
                    basis[j][p] = Fraction(-x, row[p])
        for j, v in basis.items():
            v[j] = _ONE
        return [tuple(v) for v in basis.values()]

    @cached_property
    def kernel_matrix(self) -> Matrix:
        """The kernel basis as the columns of a matrix K; P must be singular."""
        columns, d = _echelon_columns(*self.echelon, self.P.cols)
        pivots = self.echelon[1]
        out = [[] for _ in range(self.P.cols)]
        for t, j in enumerate(self._free):
            out[j].append((t, d))
            for k, x in columns[j]:
                out[pivots[k]].append((t, -x))
        return Matrix._wrap(out, d, len(self._free))

    def kernel_coordinates(self, image: Matrix) -> Optional[Matrix]:
        """Kernel-basis coordinates of the columns of ``image``, one row per
        basis vector; None when a column leaves the kernel (P image != 0).
        P must be singular.

        Each kernel basis vector is 1 at its free (non-pivot) column and 0
        at the others, so a kernel vector's coordinates are its free rows.
        """
        if not (self.P * image).is_zero():
            return None
        return Matrix._wrap([image._entries[c] for c in self._free],
                            image._den, image.cols)

    @cached_property
    def _free(self) -> list[int]:
        pivots = set(self.echelon[1])
        return [c for c in range(self.P.cols) if c not in pivots]

    @cached_property
    def _division(self) -> tuple[Matrix, Optional[Matrix],
                                 tuple[list[dict[int, int]], list[int]]]:
        """(G, N^T or None, the rows of N with their pivot columns)."""
        P = self.P
        n = P.rows
        # Row k is column k of P beside e_k, both times P._den.
        transposed = [[] for _ in range(n)]
        for i, row in enumerate(P._entries):
            for j, v in row:
                transposed[j].append((i, v))
        rows, pivots = _sparse_rref(
            [col + [(n + k, P._den)] for k, col in enumerate(transposed)])
        rank = sum(1 for p in pivots if p < n)
        columns, d = _echelon_columns(rows[:rank], pivots, 2 * n)
        G = Matrix._wrap([[(pivots[k], x) for k, x in col]
                          for col in columns[n:]], d, n)
        null = [{j - n: x for j, x in row.items()} for row in rows[rank:]]
        null_pivots = [p - n for p in pivots[rank:]]
        columns, d = _echelon_columns(null, null_pivots, n)
        null_t = Matrix._wrap(columns, d, len(null)) if null else None
        return G, null_t, (null, null_pivots)

    @property
    def null_echelon(self) -> tuple[list[dict[int, int]], list[int]]:
        """The reduced echelon form of the kernel basis as rows, with its
        pivot columns, from the elimination behind ``right_divide``."""
        return self._division[2]

    def right_divide(self, C: Matrix) -> Optional[Matrix]:
        """Deterministic X with X (I_N (x) P) = C, or None; free parameters
        set to zero.  C is N blocks of n columns, so X is the N solutions of
        X_k P = C_k side by side, and N = 1 is X P = C: the null check is
        C (I_N (x) N^T) = 0 and X is C (I_N (x) G), both ``stack_mul``, which
        refuses a C whose width is not a multiple of n."""
        G, null_t, _ = self._division
        if null_t is not None and not C.stack_mul(null_t).is_zero():
            return None
        return C.stack_mul(G)

    def symmetry_stack(self) -> Matrix:
        """The basis that ``symmetry.formal_symmetry_stack`` describes, for
        square P: the element of the free pair (b, c) is 1 at (b, c) and
        -rref(P)[i][b] * rref(K^T)[k][c] at each pivot pair, read off the
        integer rows of ``echelon`` and ``null_echelon``."""
        n = self.P.rows
        (rows, pivots), (null, null_pivots) = self.echelon, self.null_echelon
        p_cols, d1 = _echelon_columns(rows, pivots, n)
        k_cols, d2 = _echelon_columns(null, null_pivots, n)
        pivot_set, null_set = set(pivots), set(null_pivots)
        out = [[] for _ in range(n)]
        offset = 0
        for b in range(n):
            for c in range(n):
                if b in pivot_set and c in null_set:
                    continue
                out[b].append((offset + c, d1 * d2))
                for i, x in p_cols[b]:
                    for k, y in k_cols[c]:
                        out[pivots[i]].append((offset + null_pivots[k], -x * y))
                offset += n
        for row in out:
            row.sort()
        return Matrix._wrap(out, d1 * d2, offset)


def _echelon_columns(rows: Sequence[dict[int, int]], pivots: Sequence[int],
                     cols: int) -> tuple[list[list[tuple[int, int]]], int]:
    """The ``cols`` columns of the reduced echelon form with these integer
    rows, over ``d``, the lcm of the pivots, and ``d``: column j is the
    ``(k, value)`` pairs of its nonzero entries, k the row, in order."""
    d = lcm(*(row[p] for row, p in zip(rows, pivots)))
    out = [[] for _ in range(cols)]
    for k, (row, p) in enumerate(zip(rows, pivots)):
        scale = d // row[p]
        for j, x in row.items():
            out[j].append((k, x * scale))
    return out, d


def range_member(m: Matrix, f: Sequence) -> bool:
    """True exactly when f lies in the column space of m."""
    return not solve_affine(m, f).is_empty()


# ---------------------------------------------------------------------------
# Subspace utilities (exact)
# ---------------------------------------------------------------------------

def span_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """Deterministic basis (reduced-echelon rows) of the span of the inputs.

    The reduced echelon form is canonical, so two spans are equal exactly
    when their bases are, and the rank is the length of the basis.
    """
    if not vectors:
        return []
    rows, pivots = _sparse_rref(
        [(j, x) for j, x in enumerate(_integer_form(v)[0]) if x]
        for v in vectors)
    basis = []
    for row, p in zip(rows, pivots):
        out = [_ZERO] * len(vectors[0])
        for j, x in row.items():
            out[j] = Fraction(x, row[p])
        out[p] = _ONE
        basis.append(tuple(out))
    return basis


def block_span(stacks: Sequence[Matrix], width: int) -> list[dict[int, int]]:
    """The span of the blocks, ``width`` columns wide and read row by row,
    of every stack [B_1 | ... | B_N] in ``stacks``, as its reduced echelon
    form in ``_sparse_rref``'s format.  That form is canonical, so two
    spans are equal exactly when their outputs are, and the rank is the
    length of the output.  No block is formed."""
    vectors = []
    for stack in stacks:
        if width < 1 or stack.cols % width or stack.rows != stacks[0].rows:
            raise InputError(f"cannot split a {stack.rows}x{stack.cols} stack "
                             f"into blocks {width} wide")
        blocks = [{} for _ in range(stack.cols // width)]
        for r, row in enumerate(stack._entries):
            for j, v in row:
                k, c = divmod(j, width)
                blocks[k][r * width + c] = v
        vectors.extend(blocks)
    return _sparse_rref(vectors)[0]


def affine_sets_equal(s1: AffineSolutionSet, s2: AffineSolutionSet) -> bool:
    """Exact equality of affine solution sets."""
    if s1.is_empty() or s2.is_empty():
        return s1.is_empty() and s2.is_empty()
    basis = span_basis(s1.kernel_vectors)
    if span_basis(s2.kernel_vectors) != basis:
        return False
    diff = tuple(a - b for a, b in zip(s1.particular, s2.particular))
    return len(span_basis(basis + [diff])) == len(basis)


# ---------------------------------------------------------------------------
# Truncated derivative instance
# ---------------------------------------------------------------------------

def graded_monomials(k: int, max_degree: int) -> list[tuple[int, ...]]:
    """Monomial exponents of total degree < max_degree, graded then lexicographic."""
    out: list[tuple[int, ...]] = []
    for grade in range(max_degree):
        block: list[tuple[int, ...]] = []

        def rec(prefix: list[int], remaining: int, slots: int):
            if slots == 1:
                block.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining + 1):
                rec(prefix + [e], remaining - e, slots - 1)

        rec([], grade, k)
        out.extend(sorted(block))
    return out


def make_truncated_derivative_instance(k: int, max_degree: int) -> OperatorInstance:
    """Partial-derivative matrices on polynomials of total degree < max_degree.

    The basis is the graded monomial list; each generator maps the monomial
    with exponents e to e_i times the monomial with e_i lowered by one, so
    the generators commute exactly and are nilpotent of index max_degree.
    """
    if k < 1 or max_degree < 1:
        raise InputError("need k >= 1 and max_degree >= 1")
    dimension = comb(max_degree - 1 + k, k)
    if dimension > DIMENSION_CAP:
        raise ResourceLimitError(
            f"instance dimension {dimension} exceeds cap {DIMENSION_CAP}")
    basis = graded_monomials(k, max_degree)
    index = {exp: i for i, exp in enumerate(basis)}
    generators = []
    for v in range(k):
        entries: list[list] = [[] for _ in range(dimension)]
        for col, exp in enumerate(basis):
            if exp[v] > 0:
                lowered = list(exp)
                lowered[v] -= 1
                entries[index[tuple(lowered)]].append((col, exp[v]))
        generators.append(Matrix._wrap(entries, 1, dimension))
    return OperatorInstance(dimension, tuple(generators))
