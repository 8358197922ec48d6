"""Formal symmetries of instantiated operators.

S is a formal symmetry of P when P S = S' P for some witness S'; such an S
exists exactly when S maps the kernel of P into itself.  For a product
operator with a singleton-family certificate, the instantiated projectors
Pr_i = Q_i P^i slice a symmetry into generalized symmetries
S_ij = Pr_i S Pr_j (satisfying P_i S_ij = S'_ij P_j, hence mapping the
kernel of P_j into the kernel of P_i), and any generalized symmetry folds
back into a formal symmetry of the product.  All witness identities are
checked with exact matrix equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .backend import (_ZERO, Matrix, OperatorInstance, _rref, instantiate,
                      kernel_basis, solve_affine)
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


def _solve_right_factor(P: Matrix, C: Matrix) -> Optional[Matrix]:
    """Deterministic X with X P = C, or None; free parameters set to zero.

    Row r of X solves P^T x = (row r of C).  One elimination of the
    augmented matrix [P^T | C^T] serves every row: the system is unsolvable
    exactly when a pivot lands in the right-hand block, and otherwise each
    right-hand column of the reduced echelon form holds that row's
    particular solution, the one a separate solve would give.
    """
    n = P.rows
    columns = zip(zip(*P._entries), zip(*C._entries))
    rref, pivots = _rref([p_col + c_col for p_col, c_col in columns])
    if pivots and pivots[-1] >= n:
        return None
    rows = [[_ZERO] * n for _ in range(n)]
    for k, pc in enumerate(pivots):
        for r in range(n):
            rows[r][pc] = rref[k][n + r]
    return Matrix._wrap(rows)


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


def projector(cert: Certificate, i: int, factors: Sequence[Polynomial],
              inst: OperatorInstance) -> Matrix:
    """Instantiate Pr_i = Q_i * P^i; a projection onto the kernel of P_i
    once restricted to the kernel of the product."""
    cofactors = _singleton_cofactors(cert, factors)
    _require_verified(cert, factors)
    return _projector(cofactors, i, factors, inst)


def _projector(cofactors: Sequence[Polynomial], i: int,
               factors: Sequence[Polynomial], inst: OperatorInstance) -> Matrix:
    """Pr_i from cofactors whose certificate the caller has verified."""
    return instantiate(
        cofactors[i] * factor_product_complement(factors, frozenset((i,))), inst)


def generalized_from_formal(sym: FormalSymmetry, cert: Certificate,
                            i: int, j: int,
                            factors: Sequence[Polynomial],
                            inst: OperatorInstance) -> GeneralizedSymmetry:
    """Slice a formal symmetry of the product: S_ij = Pr_i S Pr_j.

    The witness is Q_i S' Pr_j P^j; the defining identity is checked
    exactly before returning.
    """
    cofactors = _singleton_cofactors(cert, factors)
    p_full = instantiate(
        factor_product_complement(factors, frozenset()), inst)
    if not sym.holds_for(p_full):
        raise InputError("S is not a formal symmetry of the instantiated product")
    _require_verified(cert, factors)
    pr_i = _projector(cofactors, i, factors, inst)
    pr_j = _projector(cofactors, j, factors, inst)
    s_ij = pr_i * sym.S * pr_j
    q_i = instantiate(cofactors[i], inst)
    pj_comp = instantiate(factor_product_complement(factors, frozenset((j,))), inst)
    s_prime = q_i * sym.S_prime * pr_j * pj_comp
    out = GeneralizedSymmetry(i, j, s_ij, s_prime)
    p_i = instantiate(factors[i], inst)
    p_j = instantiate(factors[j], inst)
    if not out.holds_for(p_i, p_j):
        raise VerificationError(
            "internal error: generalized symmetry identity failed")
    return out


def formal_from_generalized(gen: GeneralizedSymmetry, cert: Certificate,
                            factors: Sequence[Polynomial],
                            inst: OperatorInstance) -> FormalSymmetry:
    """Fold a generalized symmetry back: S = S_ij Pr_j with witness
    P^i S'_ij Q_j."""
    cofactors = _singleton_cofactors(cert, factors)
    p_i = instantiate(factors[gen.i], inst)
    p_j = instantiate(factors[gen.j], inst)
    if not gen.holds_for(p_i, p_j):
        raise InputError("the generalized symmetry identity does not hold")
    pr_j = projector(cert, gen.j, factors, inst)
    s = gen.S_ij * pr_j
    pi_comp = instantiate(factor_product_complement(factors, frozenset((gen.i,))), inst)
    q_j = instantiate(cofactors[gen.j], inst)
    s_prime = pi_comp * gen.S_prime_ij * q_j
    out = FormalSymmetry(s, s_prime)
    p_full = instantiate(factor_product_complement(factors, frozenset()), inst)
    if not out.holds_for(p_full):
        raise VerificationError("internal error: reconstructed symmetry failed")
    return out


def enumerate_formal_symmetries(P: Matrix,
                                dimension_cap: int = SYMMETRY_DIMENSION_CAP
                                ) -> list[Matrix]:
    """Exact basis of the space {S | some S' gives P S = S' P}.

    The space is cut out by the linear condition that S maps the kernel of
    P into itself: P S v = 0 for every kernel basis vector v.  The basis is
    the deterministic nullspace basis of that constraint system, reshaped.
    """
    if not P.is_square():
        raise InputError("P must be square")
    n = P.rows
    if n > dimension_cap:
        raise ResourceLimitError(
            f"symmetry enumeration capped at dimension {dimension_cap}, got {n}")
    kernel = kernel_basis(P)
    if not kernel:
        return [_unit_matrix(n, b, c) for b in range(n) for c in range(n)]
    # Unknowns S[b][c] flattened as b*n + c; constraint block per kernel
    # vector v: sum_{b,c} P[a][b] v[c] S[b][c] = 0 for each row a.
    constraint_rows = []
    for v in kernel:
        for a in range(n):
            row = [Fraction(0)] * (n * n)
            for b in range(n):
                pab = P.entry(a, b)
                if pab:
                    for c in range(n):
                        if v[c]:
                            row[b * n + c] = pab * v[c]
            constraint_rows.append(row)
    basis_vecs = kernel_basis(Matrix(constraint_rows))
    out = []
    for vec in basis_vecs:
        entries = [[vec[b * n + c] for c in range(n)] for b in range(n)]
        out.append(Matrix(entries))
    return out


def _unit_matrix(n: int, b: int, c: int) -> Matrix:
    entries = [[Fraction(0)] * n for _ in range(n)]
    entries[b][c] = Fraction(1)
    return Matrix(entries)


def induced_kernel_map(S: Matrix, P: Matrix) -> Optional[Matrix]:
    """Matrix of S acting on the kernel of P, in kernel-basis coordinates.

    None when S does not preserve the kernel; a 0x0 placeholder is never
    produced (an invertible P raises instead, there is nothing to induce).
    """
    kernel = kernel_basis(P)
    if not kernel:
        raise InputError("P has trivial kernel; no induced map exists")
    d = len(kernel)
    n = P.rows
    # Solve K a = S v for each kernel basis vector v, K = kernel basis as columns.
    k_cols = Matrix([[kernel[j][i] for j in range(d)] for i in range(n)])
    cols = []
    for v in kernel:
        image = S.apply(v)
        sol = solve_affine(k_cols, image)
        if sol.is_empty():
            return None
        cols.append(list(sol.particular))
    return Matrix([[cols[j][i] for j in range(d)] for i in range(d)])
