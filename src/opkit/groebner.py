"""Buchberger's algorithm over Q[x], for deciding whether 1 is in an ideal.

:func:`contains_one` is the only entry point.  Every run stops as soon as a
nonzero constant enters the basis.  A run that ends on one is replayed with
cofactors over the input generators, carried through S-polynomial formation
and reduction, so membership of 1 comes with a machine-checkable Bezout
certificate instead of a bare yes/no.

Normal selection strategy (smallest lcm total degree, ties by pair creation
index), first-applicable-divisor reduction, monic normalization of new
elements: the run is fully deterministic for a fixed input and order.
Cofactors never steer any of these choices, so a run on the values alone
makes exactly the decisions of the tracked run.  :func:`contains_one`
relies on this: it searches on values alone and replays the run with
cofactors only when a nonzero constant turns up.

Coefficient growth is uncontrolled in exact arithmetic, so a per-polynomial
term-count cap (default 100000, override with OPKIT_TERM_CAP) aborts
runaway computations.  The cap applies to every polynomial a run carries:
values always, cofactors only in tracked runs.  A membership search that
ends without 1 carries no cofactors, so it runs to the end even where its
cofactors would have passed the cap; a search that finds 1 still stops at
the cap in its tracked replay.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import kernels
from .errors import InputError, ResourceLimitError, VerificationError
from .poly import (DEFAULT_ORDER, TERM_CAP_ENV, MonomialOrder, Polynomial,
                   resolve_term_cap)


@dataclass(frozen=True)
class BezoutCertificate:
    """Cofactors expressing 1 as a combination of the generators."""

    cofactors: tuple[Polynomial, ...]

    def verify(self, generators: Sequence[Polynomial]) -> bool:
        nvars = generators[0].variable_count
        acc = Polynomial.zero(nvars)
        for cof, gen in zip(self.cofactors, generators):
            acc = acc + cof * gen
        return acc == Polynomial.one(nvars)


def _check_cap(terms: dict, cap: int) -> None:
    if len(terms) > cap:
        raise ResourceLimitError(
            f"term count {len(terms)} exceeds cap {cap}; "
            f"raise {TERM_CAP_ENV} to continue")


class _SortKeys(dict):
    """Monomial sort keys computed once each, for the life of one run.

    Use the bound ``__getitem__`` as the ``key`` of ``max``: a hit is one
    dict lookup, a miss computes the key from the order and stores it.
    """

    __slots__ = ("order",)

    def __init__(self, order: MonomialOrder):
        super().__init__()
        self.order = order

    def __missing__(self, exp: tuple):
        key = self[exp] = self.order.sort_key(exp)
        return key


def _reduce(terms: dict, cofs: list[dict], basis: list["_BasisElem"],
            key: Callable, cap: int) -> dict:
    """Full normal form of terms against basis; returns the remainder.

    ``terms`` is consumed, and each of ``cofs`` is updated in place with the
    same steps (none when the run does not track cofactors).
    """
    remainder: dict = {}
    while terms:
        exp = max(terms, key=key)
        for elem in basis:
            lexp = elem.lead_exp
            if all(e >= le for e, le in zip(exp, lexp)):
                coeff = terms[exp]  # basis elements are monic
                shift = tuple(e - le for e, le in zip(exp, lexp))
                kernels.poly_isubmul(terms, coeff, shift, elem.terms)
                _check_cap(terms, cap)
                for wc, bc in zip(cofs, elem.cofs):
                    kernels.poly_isubmul(wc, coeff, shift, bc)
                    _check_cap(wc, cap)
                break
        else:
            remainder[exp] = terms.pop(exp)
    return remainder


class _BasisElem:
    __slots__ = ("terms", "cofs", "lead_exp")

    def __init__(self, terms: dict, cofs: list[dict], lead_exp: tuple):
        self.terms = terms
        self.cofs = cofs
        self.lead_exp = lead_exp


def _run_buchberger(generators: Sequence[Polynomial], order: MonomialOrder,
                    cap: int, track: bool) -> list[_BasisElem]:
    """One Buchberger run, stopped as soon as a nonzero constant enters.

    The run ends with that constant when the generators reach 1, and with a
    complete Groebner basis otherwise.  With ``track=False`` every element's
    cofs is [].
    """
    gens = list(generators)
    if not gens:
        raise InputError("need at least one generator")
    nvars = gens[0].variable_count
    for g in gens:
        if g.variable_count != nvars:
            raise InputError("generators must share a variable count")
    if all(g.is_zero() for g in gens):
        raise InputError("all generators are zero")
    ngens = len(gens)
    key = _SortKeys(order).__getitem__

    basis: list[_BasisElem] = []
    pairs: list[tuple[int, int, int, int]] = []  # (lcm degree, index, i, j)
    counter = 0

    def push_elem(terms: dict, cofs: list[dict]) -> bool:
        """Monic-normalize and append; True if the element is a nonzero constant."""
        nonlocal counter
        lead = max(terms, key=key)
        lc = terms[lead]
        if lc != 1:
            inv = Fraction(1) / lc
            terms = {e: c * inv for e, c in terms.items()}
            cofs = [{e: c * inv for e, c in cof.items()} for cof in cofs]
        new = _BasisElem(terms, cofs, lead)
        m = len(basis)
        for i in range(m):
            lcm_deg = sum(max(a, b) for a, b in zip(basis[i].lead_exp, lead))
            heapq.heappush(pairs, (lcm_deg, counter, i, m))
            counter += 1
        basis.append(new)
        return not any(lead)

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        cofs: list[dict] = []
        if track:
            cofs = [{} for _ in range(ngens)]
            cofs[i] = {(0,) * nvars: Fraction(1)}
        if push_elem(dict(g._terms), cofs):
            return basis

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        ei, ej = basis[i], basis[j]
        lcm = tuple(max(a, b) for a, b in zip(ei.lead_exp, ej.lead_exp))
        # Product criterion: coprime leading monomials reduce to zero.
        if all(a == 0 or b == 0 for a, b in zip(ei.lead_exp, ej.lead_exp)):
            continue
        ishift = tuple(l - a for l, a in zip(lcm, ei.lead_exp))
        jshift = tuple(l - b for l, b in zip(lcm, ej.lead_exp))
        sterms = kernels.poly_term_mul(ei.terms, Fraction(1), ishift)
        kernels.poly_isubmul(sterms, Fraction(1), jshift, ej.terms)
        scofs = []
        for ci, cj in zip(ei.cofs, ej.cofs):
            c = kernels.poly_term_mul(ci, Fraction(1), ishift)
            kernels.poly_isubmul(c, Fraction(1), jshift, cj)
            scofs.append(c)
        remainder = _reduce(sterms, scofs, basis, key, cap)
        if remainder and push_elem(remainder, scofs):
            return basis
    return basis


def contains_one(
    generators: Sequence[Polynomial],
    order: MonomialOrder = DEFAULT_ORDER,
    term_cap: Optional[int] = None,
) -> Optional[BezoutCertificate]:
    """Decide 1 in <generators> over Q with an explicit certificate.

    Runs Buchberger on the values alone until a nonzero constant enters the
    basis or the basis is complete (then 1 is not a member).  Only when a
    constant turns up is the run replayed with cofactors, which makes the
    same choices; the tracked cofactors, rescaled, are the certificate.  The
    returned certificate is checked exactly before being handed out, never
    trusted.

    The term cap bounds cofactors only in the replay: a search that ends
    without 1 runs to the end even where its cofactors would have passed
    the cap, and one that finds 1 raises ResourceLimitError in the replay.
    """
    cap = resolve_term_cap(term_cap)
    probe = _run_buchberger(generators, order, cap, track=False)
    if any(probe[-1].lead_exp):  # a run stopped on 1 ends with that constant
        return None
    unit = _run_buchberger(generators, order, cap, track=True)[-1]
    nvars = generators[0].variable_count
    inv = Fraction(1) / unit.terms[unit.lead_exp]
    cert = BezoutCertificate(tuple(
        Polynomial._wrap({e: c * inv for e, c in cof.items()}, nvars)
        for cof in unit.cofs))
    if not cert.verify(generators):
        raise VerificationError(
            "internal error: tracked Bezout certificate failed its exact check")
    return cert
