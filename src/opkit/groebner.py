"""Buchberger's algorithm over Q[x], for deciding whether 1 is in an ideal.

:func:`contains_one` is the only entry point.  It probes the ideal with a
run on the values alone, and only when the probe finds 1 does it replay a
run that carries cofactors over the input generators through S-polynomial
formation and reduction, so membership of 1 comes with a
machine-checkable Bezout certificate instead of a bare yes/no.  Every run
stops as soon as a nonzero constant enters the basis, and ends on a
complete Groebner basis otherwise.

Both runs take one pair policy and are deterministic for a fixed input and
order.  Pairs are pruned by the Gebauer-Moller criteria (Gebauer & Moller
1988), which drop only pairs that other pairs cover (Buchberger's chain
criterion), and ranked by sugar, the degree an S-polynomial would have on
homogenized generators (Giovini et al. 1991); ties go by creation index,
reduction uses the first applicable divisor, and new elements are
normalized to be monic.  So the replay repeats the probe step for step and
only adds the cofactors.

Coefficient growth is uncontrolled in exact arithmetic, so a per-polynomial
term-count cap (default 100000, override with OPKIT_TERM_CAP) aborts
runaway computations.  The cap applies to every polynomial a run carries:
values always, cofactors only in the replay.  A membership search that
ends without 1 carries no cofactors, so it may finish under a cap that its
cofactors would pass; a search that finds 1 still stops at the cap in its
replay.  Coefficient size is capped by ``poly.CERTIFICATE_BITS_CAP``:
both runs refuse a value coefficient past it, checked on the coefficient
each reduction step cancels and on every new element, and the replay also
refuses a new element whose cofactors have a coefficient past it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import kernels
from .errors import InputError, ResourceLimitError, VerificationError
from .poly import (CERTIFICATE_BITS_CAP, DEFAULT_ORDER, TERM_CAP_ENV,
                   MonomialOrder, Polynomial, _check_certificate_bits,
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
                if (coeff.numerator.bit_length() > CERTIFICATE_BITS_CAP
                        or coeff.denominator.bit_length() > CERTIFICATE_BITS_CAP):
                    _check_certificate_bits((coeff,), "a Buchberger value")
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


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _divides(a: tuple, b: tuple) -> bool:
    """True if the monomial a divides the monomial b."""
    return all(x <= y for x, y in zip(a, b))


def _gebauer_moller(leads: list[tuple],
                    queued: dict[tuple[int, int], tuple]) -> list[int]:
    """Pairs for the newest element, ``leads[-1]``, by the Gebauer-Moller
    criteria; returns the indices of the elements it is paired with.

    Criterion B drops the queued pairs whose lcm the new leading monomial
    divides, unless that lcm equals the lcm of either one's pair with the
    new element.  Of the new pairs, criterion M keeps those of minimal lcm,
    and F keeps one (the oldest) per lcm, none where a pair of that lcm has
    coprime leading monomials (the product criterion).
    """
    lead = leads[-1]
    for pair, lcm in list(queued.items()):
        if (_divides(lead, lcm) and _lcm(leads[pair[0]], lead) != lcm
                and _lcm(leads[pair[1]], lead) != lcm):
            del queued[pair]
    groups: dict[tuple, tuple[int, bool]] = {}  # lcm -> (oldest, coprime)
    for i, other in enumerate(leads[:-1]):
        lcm = _lcm(other, lead)
        oldest, coprime = groups.get(lcm, (i, False))
        groups[lcm] = (oldest, coprime or all(
            a == 0 or b == 0 for a, b in zip(other, lead)))
    return sorted(
        oldest for lcm, (oldest, coprime) in groups.items()
        if not coprime and not any(other != lcm and _divides(other, lcm)
                                   for other in groups))


def _run_buchberger(generators: Sequence[Polynomial], order: MonomialOrder,
                    cap: int, track: bool) -> list[_BasisElem]:
    """One Buchberger run, stopped as soon as a nonzero constant enters.

    The run ends with that constant when the generators reach 1, and with a
    complete Groebner basis otherwise.  The Gebauer-Moller criteria decide
    which pairs are formed and kept, and sugar ranks them.  With
    ``track=True`` every element carries its cofactors; with ``track=False``
    every element's cofs is [].
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
    leads: list[tuple] = []
    sugars: list[int] = []  # a generator's total degree, else its pair's rank
    pairs: list[tuple[int, int, int, int]] = []  # (rank, index, i, j)
    queued: dict[tuple[int, int], tuple] = {}  # (i, j) -> lcm, pairs not yet dropped
    counter = 0

    def push_elem(terms: dict, cofs: list[dict], sugar: int) -> bool:
        """Monic-normalize and append; True if the element is a nonzero constant."""
        nonlocal counter
        lead = max(terms, key=key)
        lc = terms[lead]
        if lc != 1:
            inv = Fraction(1) / lc
            terms = {e: c * inv for e, c in terms.items()}
            cofs = [{e: c * inv for e, c in cof.items()} for cof in cofs]
        _check_certificate_bits(terms.values(), "a Buchberger value")
        for cof in cofs:
            _check_certificate_bits(cof.values(), "a Bezout cofactor")
        m = len(basis)
        basis.append(_BasisElem(terms, cofs, lead))
        leads.append(lead)
        sugars.append(sugar)
        for i in _gebauer_moller(leads, queued):
            lcm = _lcm(leads[i], lead)
            rank = sum(lcm) + max(sugars[i] - sum(leads[i]), sugar - sum(lead))
            heapq.heappush(pairs, (rank, counter, i, m))
            queued[i, m] = lcm
            counter += 1
        return not any(lead)

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        cofs: list[dict] = []
        if track:
            cofs = [{} for _ in range(ngens)]
            cofs[i] = {(0,) * nvars: Fraction(1)}
        if push_elem(dict(g._terms), cofs, g.total_degree()):
            return basis

    while pairs:
        rank, _, i, j = heapq.heappop(pairs)
        lcm = queued.pop((i, j), None)
        if lcm is None:
            continue  # removed by criterion B
        ei, ej = basis[i], basis[j]
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
        if remainder and push_elem(remainder, scofs, rank):
            return basis
    return basis


def contains_one(
    generators: Sequence[Polynomial],
    order: MonomialOrder = DEFAULT_ORDER,
    term_cap: Optional[int] = None,
) -> Optional[BezoutCertificate]:
    """Decide 1 in <generators> over Q with an explicit certificate.

    Probes with a Buchberger run on the values alone until a nonzero
    constant enters the basis or the basis is complete (then 1 is not a
    member, and None is returned).  When it finds 1, the same run is
    replayed with cofactors; the tracked cofactors, rescaled, are the
    certificate.  The returned certificate is checked exactly before being
    handed out, never trusted.

    The term cap bounds cofactors only in the replay, so a search that ends
    without 1 may finish under a cap that its cofactors would pass; one that
    finds 1 raises ResourceLimitError in the replay, as it does when a
    cofactor coefficient passes ``poly.CERTIFICATE_BITS_CAP``.  Either run
    raises it when a value coefficient passes that cap.
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
