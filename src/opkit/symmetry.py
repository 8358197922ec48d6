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
``slice`` and ``fold`` are the one slice and the one fold, and each takes
one element or a stack alike; ``decompose`` forms Pr_i S and Q_i S' once
per i and shares them across every j.  Every identity built here is
checked once with exact matrix equality, every block of a stack in one
comparison, and the public functions check their inputs, factor indices
included, at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

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
    def _slice_right(self) -> tuple[Matrix, ...]:
        """Pr_j P^j, the right factor of a sliced witness."""
        return tuple(pr * c for pr, c in zip(self.projectors, self.complements))

    def slice(self, sym: FormalSymmetry, i: int, j: int) -> GeneralizedSymmetry:
        """S_ij = Pr_i S Pr_j, witness Q_i S' Pr_j P^j, for sym checked on
        P; for a stack of N symmetries, the stack of the N slices."""
        return self._slice(i, j, self.projectors[i] * sym.S,
                           self.cofactors[i] * sym.S_prime)

    def _slice(self, i: int, j: int, left: Matrix,
               left_prime: Matrix) -> GeneralizedSymmetry:
        """The slice (i, j) from left = Pr_i S and left_prime = Q_i S'."""
        return self._generalized(i, j, left.stack_mul(self.projectors[j]),
                                 left_prime.stack_mul(self._slice_right[j]))

    def fold(self, gen: GeneralizedSymmetry) -> FormalSymmetry:
        """S = S_ij Pr_j, witness P^i S'_ij Q_j, for gen checked on P_i,
        P_j; for a stack of N, the stack of the N folds."""
        return self._formal(
            gen.S_ij.stack_mul(self.projectors[gen.j]),
            (self.complements[gen.i] * gen.S_prime_ij).stack_mul(
                self.cofactors[gen.j]))

    def decompose(self, sym: FormalSymmetry
                  ) -> Iterator[tuple[GeneralizedSymmetry, FormalSymmetry]]:
        """Yield ``slice(sym, i, j)`` and its ``fold`` for every pair
        (i, j), in order, for sym checked on P.

        Pr_i S and Q_i S' are one product per i, shared by every j.  Each
        identity is one equality per (i, j), checked before the pair is
        yielded.  A caller that drops each pair as it goes holds the stacks
        of one pair at a time.
        """
        for i in range(len(self.factors)):
            left = self.projectors[i] * sym.S
            left_prime = self.cofactors[i] * sym.S_prime
            for j in range(len(self.factors)):
                gen = self._slice(i, j, left, left_prime)
                yield gen, self.fold(gen)

    def _generalized(self, i: int, j: int, S_ij: Matrix,
                     S_prime_ij: Matrix) -> GeneralizedSymmetry:
        out = GeneralizedSymmetry(i, j, S_ij, S_prime_ij)
        if not out.holds_for(self.factors[i], self.factors[j]):
            raise VerificationError(
                "internal error: generalized symmetry identity failed")
        return out

    def _formal(self, S: Matrix, S_prime: Matrix) -> FormalSymmetry:
        out = FormalSymmetry(S, S_prime)
        if not out.holds_for(self.P):
            raise VerificationError("internal error: reconstructed symmetry failed")
        return out


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
