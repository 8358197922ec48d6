"""Formal symmetries of instantiated operators.

S is a formal symmetry of P when P S = S' P for some witness S'; such an S
exists exactly when S maps the kernel of P into itself.  For a product
operator with a singleton-family certificate, the instantiated projectors
Pr_i = Q_i P^i slice a symmetry into generalized symmetries
S_ij = Pr_i S Pr_j (satisfying P_i S_ij = S'_ij P_j, hence mapping the
kernel of P_j into the kernel of P_i), and any generalized symmetry folds
back into a formal symmetry of the product.

A symmetry job eliminates P twice, whatever the size of its symmetry space:
``P.factorization``, the one ``backend.Factorization`` of P, holds the
reduced echelon form of P (and so the kernel basis K) and one right
division by P (the reduced form of [P^T | I]), and every function here
that needs either asks it.  Both are sparse eliminations
(``backend._sparse_rref``), as are the two ``backend.block_span`` calls
of the CLI's generation check, so a job's elimination work follows the
nonzero entries of P and of the induced maps, most of which are matrix
units; nothing here reads echelon rows or eliminates densely.  The
factorization reads the enumerated basis off its two reduced forms (the
Kronecker structure of the constraint system) as one stack
[S_1 | ... | S_N] of n x n blocks (``formal_symmetry_stack``), which a
caller runs on as it is.  Every witness, slice, fold and identity is
linear in (S, S'), so a stack passes through them whole: a right factor R
becomes I_N (x) R, the identity P S = S' P becomes P S = S' (I_N (x) P),
and the work is a fixed number of products whatever N is, with the
multiply-adds of N separate ones.  A left factor is an ordinary product;
a right one is ``Matrix.stack_mul``, which reads the rows of R once per
block and never forms the nN x nN diagonal.  A witness is a product with
the division.  A ``Splitting`` verifies its certificate once.  Its
``slice`` and ``fold`` are the one slice and the one fold: each takes one
element or a stack alike and checks its identity on the matrices it
returns.  ``decompose`` checks the slice and fold identities of every
pair (i, j) without forming either: each side of an identity is a
sandwich L S (I_N (x) R), the same products regrouped, with an n x n left
factor L of i and right factor R of j that the splitting builds once
(``_Factors``).  The left products L S of each i are shared by every j,
so a pair costs four products by I_N (x) R and one by the n x d factor
that gives the fold's image of the kernel, about half the multiply-adds
of forming the slice and the fold and checking them.  Every identity
built here is checked once with exact matrix equality, every block of a
stack in one comparison, and the public functions check their inputs,
factor indices included, at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from .backend import Matrix, OperatorInstance, instantiate
from .certify import (Certificate, _require_verified, _singleton_cofactors,
                      factor_product_complement)
from .errors import InputError, ResourceLimitError, VerificationError
from .poly import Polynomial

SYMMETRY_DIMENSION_CAP = 12


@dataclass(frozen=True)
class FormalSymmetry:
    """S with witness S' such that P S = S' P exactly; or a stack of N of
    them, S = [S_1 | ... | S_N] and S' likewise, with P S = S' (I_N (x) P)."""

    S: Matrix
    S_prime: Matrix

    def holds_for(self, P: Matrix) -> bool:
        return P * self.S == self.S_prime.stack_mul(P)


@dataclass(frozen=True)
class GeneralizedSymmetry:
    """S_ij with witness S'_ij such that P_i S_ij = S'_ij P_j exactly; or a
    stack of N of them, with P_i S_ij = S'_ij (I_N (x) P_j)."""

    i: int
    j: int
    S_ij: Matrix
    S_prime_ij: Matrix

    def holds_for(self, P_i: Matrix, P_j: Matrix) -> bool:
        return P_i * self.S_ij == self.S_prime_ij.stack_mul(P_j)


def is_formal_symmetry(S: Matrix, P: Matrix) -> Optional[Matrix]:
    """Return a witness S' with P S = S' P when one exists, else None.

    Solvable exactly when S maps the kernel of P into itself; the witness
    is the deterministic free-parameters-zero solution and is not unique
    for singular P.  S may be a stack [S_1 | ... | S_N] of n x n blocks:
    the witness is then the stack of theirs, P S = S' (I_N (x) P), and None
    when any block has none.
    """
    if not (P.is_square() and S.rows == P.rows and S.cols % P.cols == 0):
        raise InputError("S must be square, or square blocks side by side, "
                         "of the size of square P")
    PS = P * S
    witness = P.factorization.right_divide(PS)
    if witness is not None and PS != witness.stack_mul(P):
        raise VerificationError("internal error: symmetry witness failed its check")
    return witness


_SLICE_FAILED = "generalized symmetry identity failed"
_FOLD_FAILED = "reconstructed symmetry failed"


def _check_sandwiches(failure: str, left: Matrix, right: Matrix,
                      left_prime: Matrix, right_prime: Matrix) -> None:
    """left (I_N (x) right) == left_prime (I_N (x) right_prime) exactly, or a
    VerificationError that names the failed identity."""
    if left.stack_mul(right) != left_prime.stack_mul(right_prime):
        raise VerificationError(f"internal error: {failure}")


class _Factors(NamedTuple):
    """The n x n factors of one index k, built once per ``Splitting``.

    The slice (i, j) of (S, S') is (Pr_i S Pr_j, Q_i S' Pr_j P^j), and the
    fold of (T, T') is (T Pr_j, P^i T' Q_j).  Grouping the products of their
    identities by index gives, for the slice (i, j) of a formal symmetry,

        P_i S_ij  = (P_i Pr_i) S (I_N (x) Pr_j),
        S'_ij P_j = Q_i S' (I_N (x) Pr_j P^j P_j),

    and for the fold of that slice

        P S  = (P Pr_i) S (I_N (x) Pr_j^2),
        S' P = (P^i Q_i) S' (I_N (x) Pr_j P^j Q_j P):

    each side is a sandwich L S (I_N (x) R) with a left factor L of i and a
    right factor R of j."""

    slice_left: Matrix          # P_k Pr_k
    fold_left: Matrix           # P Pr_k
    fold_left_prime: Matrix     # P^k Q_k
    slice_right_prime: Matrix   # Pr_k P^k P_k
    fold_right: Matrix          # Pr_k^2
    fold_right_prime: Matrix    # Pr_k P^k Q_k P


class _Left(NamedTuple):
    """The left sides of the identities of one index i on a stack (S, S'),
    each one product, shared by every j."""

    slice: Matrix          # P_i Pr_i S
    slice_prime: Matrix    # Q_i S'
    fold: Matrix           # P Pr_i S
    fold_prime: Matrix     # P^i Q_i S'


@dataclass(frozen=True)
class Splitting:
    """P, P_i, P^i, Q_i and Pr_i = Q_i P^i of a singleton-family certificate
    on one instance; build it with ``of``, which verifies the certificate."""

    P: Matrix
    factors: tuple[Matrix, ...]
    complements: tuple[Matrix, ...]
    cofactors: tuple[Matrix, ...]
    projectors: tuple[Matrix, ...]

    @classmethod
    def of(cls, cert: Certificate, factors: Sequence[Polynomial],
           inst: OperatorInstance) -> "Splitting":
        cofactors = _singleton_cofactors(cert, factors)
        _require_verified(cert, factors)
        q = tuple(instantiate(c, inst) for c in cofactors)
        comp = tuple(instantiate(factor_product_complement(factors, frozenset((i,))), inst)
                     for i in range(len(factors)))
        return cls(P=instantiate(factor_product_complement(factors, frozenset()), inst),
                   factors=tuple(instantiate(p, inst) for p in factors),
                   complements=comp, cofactors=q,
                   projectors=tuple(qi * ci for qi, ci in zip(q, comp)))

    @cached_property
    def _slice_prime(self) -> tuple[Matrix, ...]:
        """Pr_k P^k for every k, the right factor of a sliced witness."""
        return tuple(pr * c for pr, c in zip(self.projectors, self.complements))

    @cached_property
    def _table(self) -> tuple[_Factors, ...]:
        """The ``_Factors`` of every index."""
        out = []
        for p, c, q, pr, slice_prime in zip(
                self.factors, self.complements, self.cofactors,
                self.projectors, self._slice_prime):
            out.append(_Factors(
                slice_left=p * pr, fold_left=self.P * pr, fold_left_prime=c * q,
                slice_right_prime=slice_prime * p, fold_right=pr * pr,
                fold_right_prime=slice_prime * (q * self.P)))
        return tuple(out)

    @cached_property
    def _kernel_right(self) -> Optional[tuple[Matrix, ...]]:
        """Pr_j^2 K for every j, K the kernel matrix of P; None when P is
        invertible."""
        fact = self.P.factorization
        if not fact.kernel:
            return None
        return tuple(f.fold_right * fact.kernel_matrix for f in self._table)

    def slice(self, sym: FormalSymmetry, i: int, j: int) -> GeneralizedSymmetry:
        """S_ij = Pr_i S Pr_j, witness Q_i S' Pr_j P^j, for sym checked on
        P; for a stack of N symmetries, the stack of the N slices."""
        S_ij = (self.projectors[i] * sym.S).stack_mul(self.projectors[j])
        S_prime_ij = (self.cofactors[i] * sym.S_prime).stack_mul(
            self._slice_prime[j])
        out = GeneralizedSymmetry(i, j, S_ij, S_prime_ij)
        if not out.holds_for(self.factors[i], self.factors[j]):
            raise VerificationError(f"internal error: {_SLICE_FAILED}")
        return out

    def fold(self, gen: GeneralizedSymmetry) -> FormalSymmetry:
        """S = S_ij Pr_j, witness P^i S'_ij Q_j, for gen checked on P_i,
        P_j; for a stack of N, the stack of the N folds."""
        out = FormalSymmetry(
            gen.S_ij.stack_mul(self.projectors[gen.j]),
            (self.complements[gen.i] * gen.S_prime_ij).stack_mul(
                self.cofactors[gen.j]))
        if not out.holds_for(self.P):
            raise VerificationError(f"internal error: {_FOLD_FAILED}")
        return out

    def decompose(self, sym: FormalSymmetry
                  ) -> Iterator[tuple[int, int, Optional[Matrix]]]:
        """Check the identities of ``slice(sym, i, j)`` and of its
        ``fold`` for every pair (i, j), in order, for sym checked on P, and
        yield i, j and the image of the kernel of P under the fold,
        Pr_i S Pr_j^2 K (None when P is invertible).

        Neither the slice nor the fold is formed: each identity is the
        equality of two sandwiches (``_Factors``), the matrices that
        ``slice`` and ``fold`` compare, grouped differently.  The left sides
        of each i are four products (``_left``) and Pr_i S a fifth, shared
        by every j, so a pair costs four products by I_N (x) R for n x n
        right factors R and one by the n x d factor Pr_j^2 K.  Each identity
        is checked once per pair, on every block of the stack at once,
        before the pair is yielded.
        """
        kernel = self._kernel_right
        for i in range(len(self.factors)):
            left = self._left(i, sym)
            image = None if kernel is None else self.projectors[i] * sym.S
            for j, f in enumerate(self._table):
                _check_sandwiches(_SLICE_FAILED, left.slice, self.projectors[j],
                                  left.slice_prime, f.slice_right_prime)
                _check_sandwiches(_FOLD_FAILED, left.fold, f.fold_right,
                                  left.fold_prime, f.fold_right_prime)
                yield i, j, None if image is None else image.stack_mul(kernel[j])

    def _left(self, i: int, sym: FormalSymmetry) -> _Left:
        f = self._table[i]
        return _Left(f.slice_left * sym.S, self.cofactors[i] * sym.S_prime,
                     f.fold_left * sym.S, f.fold_left_prime * sym.S_prime)


def _require_indices(factors: Sequence[Polynomial], *indices: int) -> None:
    count = len(factors)
    for k in indices:
        if not (isinstance(k, int) and 0 <= k < count):
            raise InputError(f"factor index {k!r} is not in 0..{count - 1}")


def projector(cert: Certificate, i: int, factors: Sequence[Polynomial],
              inst: OperatorInstance) -> Matrix:
    """Instantiate Pr_i = Q_i * P^i; a projection onto the kernel of P_i
    once restricted to the kernel of the product."""
    _require_indices(factors, i)
    return Splitting.of(cert, factors, inst).projectors[i]


def generalized_from_formal(sym: FormalSymmetry, cert: Certificate,
                            i: int, j: int,
                            factors: Sequence[Polynomial],
                            inst: OperatorInstance) -> GeneralizedSymmetry:
    """Slice a formal symmetry of the product: S_ij = Pr_i S Pr_j.

    The witness is Q_i S' Pr_j P^j; the defining identity is checked
    exactly before returning.
    """
    _require_indices(factors, i, j)
    splitting = Splitting.of(cert, factors, inst)
    if not sym.holds_for(splitting.P):
        raise InputError("S is not a formal symmetry of the instantiated product")
    return splitting.slice(sym, i, j)


def formal_from_generalized(gen: GeneralizedSymmetry, cert: Certificate,
                            factors: Sequence[Polynomial],
                            inst: OperatorInstance) -> FormalSymmetry:
    """Fold a generalized symmetry back: S = S_ij Pr_j with witness
    P^i S'_ij Q_j."""
    _require_indices(factors, gen.i, gen.j)
    splitting = Splitting.of(cert, factors, inst)
    if not gen.holds_for(splitting.factors[gen.i], splitting.factors[gen.j]):
        raise InputError("the generalized symmetry identity does not hold")
    return splitting.fold(gen)


def formal_symmetry_stack(P: Matrix) -> Matrix:
    """Exact basis of the space {S | some S' gives P S = S' P}, as one
    stack [S_1 | ... | S_N] of n x n blocks.

    The space is cut out by the linear condition that S maps the kernel of
    P into itself: P S v = 0 for every kernel basis vector v.  In the
    unknowns S[b][c], flattened as b*n + c, that constraint matrix is
    P (x) K^T up to row order, so its reduced echelon form is
    rref(P) (x) rref(K^T), with pivots at the pairs of pivot columns.  The
    basis is the nullspace basis of that form in the reduced-echelon
    convention, one element per free pair (b, c) in order, reshaped: 1 at
    (b, c) and -rref(P)[i][b] * rref(K^T)[k][c] at each pivot pair.
    ``P.factorization`` builds the stack from the integer rows of the two
    forms, over the product of the lcms of their pivots.  A P past
    ``SYMMETRY_DIMENSION_CAP`` is refused before any elimination.
    """
    if not P.is_square():
        raise InputError("P must be square")
    n = P.rows
    if n > SYMMETRY_DIMENSION_CAP:
        raise ResourceLimitError(
            f"symmetry enumeration capped at dimension {SYMMETRY_DIMENSION_CAP}, "
            f"got {n}")
    return P.factorization.symmetry_stack()


def enumerate_formal_symmetries(P: Matrix) -> list[Matrix]:
    """The blocks S_1, ..., S_N of ``formal_symmetry_stack(P)``, each in
    lowest terms."""
    stack = formal_symmetry_stack(P)
    return stack.hsplit(stack.cols // P.rows)
