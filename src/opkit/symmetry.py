"""Formal symmetries of instantiated operators.

S is a formal symmetry of P when P S = S' P for some witness S'; such an S
exists exactly when S maps the kernel of P into itself.  For a product
operator with a singleton-family certificate, the instantiated projectors
Pr_i = Q_i P^i slice a symmetry into generalized symmetries
S_ij = Pr_i S Pr_j (satisfying P_i S_ij = S'_ij P_j, hence mapping the
kernel of P_j into the kernel of P_i), and any generalized symmetry folds
back into a formal symmetry of the product.  A ``Splitting`` verifies its
certificate once, every identity it builds is checked once with exact
matrix equality, and the public functions check their inputs at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .backend import (Matrix, OperatorInstance, _solve_right_factor,
                      instantiate, kernel_basis)
from .certify import (Certificate, _require_verified, _singleton_cofactors,
                      factor_product_complement)
from .errors import InputError, ResourceLimitError, VerificationError
from .poly import Polynomial

SYMMETRY_DIMENSION_CAP = 12


@dataclass(frozen=True)
class FormalSymmetry:
    """S with witness S' such that P S = S' P exactly."""

    S: Matrix
    S_prime: Matrix

    def holds_for(self, P: Matrix) -> bool:
        return P * self.S == self.S_prime * P


@dataclass(frozen=True)
class GeneralizedSymmetry:
    """S_ij with witness S'_ij such that P_i S_ij = S'_ij P_j exactly."""

    i: int
    j: int
    S_ij: Matrix
    S_prime_ij: Matrix

    def holds_for(self, P_i: Matrix, P_j: Matrix) -> bool:
        return P_i * self.S_ij == self.S_prime_ij * P_j


def is_formal_symmetry(S: Matrix, P: Matrix) -> Optional[Matrix]:
    """Return a witness S' with P S = S' P when one exists, else None.

    Solvable exactly when S maps the kernel of P into itself; the witness
    is the deterministic free-parameters-zero solution and is not unique
    for singular P.
    """
    if not (S.is_square() and P.is_square() and S.rows == P.rows):
        raise InputError("S and P must be square matrices of equal size")
    witness = _solve_right_factor(P, P * S)
    if witness is not None and not (P * S == witness * P):
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

    def slice(self, sym: FormalSymmetry, i: int, j: int) -> GeneralizedSymmetry:
        """S_ij = Pr_i S Pr_j, witness Q_i S' Pr_j P^j, for sym checked on P."""
        out = GeneralizedSymmetry(
            i, j, self.projectors[i] * sym.S * self.projectors[j],
            self.cofactors[i] * sym.S_prime * self.projectors[j] * self.complements[j])
        if not out.holds_for(self.factors[i], self.factors[j]):
            raise VerificationError(
                "internal error: generalized symmetry identity failed")
        return out

    def fold(self, gen: GeneralizedSymmetry) -> FormalSymmetry:
        """S = S_ij Pr_j, witness P^i S'_ij Q_j, for gen checked on P_i, P_j."""
        out = FormalSymmetry(
            gen.S_ij * self.projectors[gen.j],
            self.complements[gen.i] * gen.S_prime_ij * self.cofactors[gen.j])
        if not out.holds_for(self.P):
            raise VerificationError("internal error: reconstructed symmetry failed")
        return out


def projector(cert: Certificate, i: int, factors: Sequence[Polynomial],
              inst: OperatorInstance) -> Matrix:
    """Instantiate Pr_i = Q_i * P^i; a projection onto the kernel of P_i
    once restricted to the kernel of the product."""
    return Splitting.of(cert, factors, inst).projectors[i]


def generalized_from_formal(sym: FormalSymmetry, cert: Certificate,
                            i: int, j: int,
                            factors: Sequence[Polynomial],
                            inst: OperatorInstance) -> GeneralizedSymmetry:
    """Slice a formal symmetry of the product: S_ij = Pr_i S Pr_j.

    The witness is Q_i S' Pr_j P^j; the defining identity is checked
    exactly before returning.
    """
    splitting = Splitting.of(cert, factors, inst)
    if not sym.holds_for(splitting.P):
        raise InputError("S is not a formal symmetry of the instantiated product")
    return splitting.slice(sym, i, j)


def formal_from_generalized(gen: GeneralizedSymmetry, cert: Certificate,
                            factors: Sequence[Polynomial],
                            inst: OperatorInstance) -> FormalSymmetry:
    """Fold a generalized symmetry back: S = S_ij Pr_j with witness
    P^i S'_ij Q_j."""
    splitting = Splitting.of(cert, factors, inst)
    if not gen.holds_for(splitting.factors[gen.i], splitting.factors[gen.j]):
        raise InputError("the generalized symmetry identity does not hold")
    return splitting.fold(gen)


def enumerate_formal_symmetries(
        P: Matrix,
        kernel: Optional[Sequence[Sequence[Fraction]]] = None) -> list[Matrix]:
    """Exact basis of the space {S | some S' gives P S = S' P}.

    The space is cut out by the linear condition that S maps the kernel of
    P into itself: P S v = 0 for every kernel basis vector v.  The basis is
    the deterministic nullspace basis of that constraint system, reshaped.
    ``kernel`` is ``kernel_basis(P)`` when the caller already has it, so P
    is not eliminated again.  A P past ``SYMMETRY_DIMENSION_CAP`` is refused
    before any elimination.
    """
    if not P.is_square():
        raise InputError("P must be square")
    n = P.rows
    if n > SYMMETRY_DIMENSION_CAP:
        raise ResourceLimitError(
            f"symmetry enumeration capped at dimension {SYMMETRY_DIMENSION_CAP}, "
            f"got {n}")
    # Unknowns S[b][c] flattened as b*n + c; constraint block per kernel
    # vector v: sum_{b,c} P[a][b] v[c] S[b][c] = 0 for each row a.  The zero
    # row stands in for no constraint when P is invertible.
    constraint_rows = [[0] * (n * n)]
    for v in kernel_basis(P) if kernel is None else kernel:
        for a in range(n):
            row = [0] * (n * n)
            for b in range(n):
                pab = P.entry(a, b)
                if pab:
                    for c in range(n):
                        if v[c]:
                            row[b * n + c] = pab * v[c]
            constraint_rows.append(row)
    return [Matrix([vec[b * n:(b + 1) * n] for b in range(n)])
            for vec in kernel_basis(Matrix(constraint_rows))]


def induced_kernel_map(S: Matrix, P: Matrix) -> Optional[Matrix]:
    """Matrix of S acting on the kernel of P, in kernel-basis coordinates.

    None when S does not preserve the kernel; a 0x0 placeholder is never
    produced (an invertible P raises instead, there is nothing to induce).
    """
    kernel = kernel_basis(P)
    if not kernel:
        raise InputError("P has trivial kernel; no induced map exists")
    return _induced_on_kernel(S, P, kernel)


def _induced_on_kernel(S: Matrix, P: Matrix,
                       kernel: Sequence[Sequence[Fraction]]) -> Optional[Matrix]:
    """``induced_kernel_map`` given the nonempty ``kernel_basis(P)``.  Each
    basis vector is 1 at its free column (its last nonzero entry) and 0 at
    the others, so a kernel vector's coordinates are its free entries."""
    images = [S.apply(v) for v in kernel]
    if any(any(P.apply(w)) for w in images):
        return None
    free = [max(c for c, x in enumerate(v) if x) for v in kernel]
    return Matrix([[w[c] for w in images] for c in free])
