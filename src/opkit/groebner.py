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
and reduction uses the first applicable divisor.  So the replay repeats the
probe step for step and only adds the cofactors.

The arithmetic is fraction-free: every polynomial is an integer term map.
A basis element is divided by the content of its terms and cofactors
together and leads positive, so its monic value is ``terms / lc`` and its
cofactors are ``cofs / lc``.  An S-polynomial under reduction, with its
cofactors, is an integer term map over one integer scale, and a reduction
step is ``acc = a*acc - c*x^shift*q`` (``kernels.poly_isubmul_int``) with
``a`` and ``c`` free of common factors.  The exact values are those of a
run on monic Fraction polynomials.

Coefficient growth is uncontrolled in exact arithmetic, so a per-polynomial
term-count cap (default 100000, override with OPKIT_TERM_CAP) aborts
runaway computations.  The cap applies to every polynomial a run carries:
values always, cofactors only in the replay.  A membership search that
ends without 1 carries no cofactors, so it may finish under a cap that its
cofactors would pass; a search that finds 1 still stops at the cap in its
replay.  Coefficient size is capped by ``poly.CERTIFICATE_BITS_CAP``:
both runs refuse a value coefficient past it, checked on the coefficient
each reduction step cancels and on every new element's monic value, and
the replay also refuses a new element whose cofactors have a coefficient
past it.  The cap is checked on the exact reduced Fractions, which are
built only when an unreduced integer passes it.
"""

from __future__ import annotations

import heapq
import math
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


def _reduce(terms: dict, cofs: list[dict], scale: int,
            basis: list["_BasisElem"], key: Callable, cap: int) -> dict:
    """Full normal form of ``terms / scale`` against basis.

    ``terms`` and each of ``cofs`` are integer term maps over the one
    positive integer ``scale``.  ``terms`` is consumed and each of ``cofs``
    is updated in place with the same steps (none when the run does not
    track cofactors); the returned remainder is over the scale the cofs end
    on.
    """
    remainder = []  # (exp, coefficient, scale when it was set aside)
    while terms:
        exp = max(terms, key=key)
        for elem in basis:
            lexp = elem.lead_exp
            if all(e >= le for e, le in zip(exp, lexp)):
                coeff = terms[exp]
                if (coeff.bit_length() > CERTIFICATE_BITS_CAP
                        or scale.bit_length() > CERTIFICATE_BITS_CAP):
                    _check_certificate_bits((Fraction(coeff, scale),),
                                            "a Buchberger value")
                g = math.gcd(coeff, elem.lc)
                a, c = elem.lc // g, coeff // g
                scale *= a
                shift = tuple(e - le for e, le in zip(exp, lexp))
                kernels.poly_isubmul_int(terms, a, c, shift, elem.terms)
                _check_cap(terms, cap)
                for wc, bc in zip(cofs, elem.cofs):
                    kernels.poly_isubmul_int(wc, a, c, shift, bc)
                    _check_cap(wc, cap)
                break
        else:
            remainder.append((exp, terms.pop(exp), scale))
    return {exp: v * (scale // at) for exp, v, at in remainder}


def _check_value_bits(values, lc: int, what: str) -> None:
    """The certificate bits cap on the exact values ``v / lc``, built only
    when an unreduced integer passes the cap."""
    if (lc.bit_length() > CERTIFICATE_BITS_CAP
            or any(v.bit_length() > CERTIFICATE_BITS_CAP for v in values)):
        _check_certificate_bits([Fraction(v, lc) for v in values], what)


class _BasisElem:
    """Integer term maps with no content common to the terms and cofactors,
    and a positive leading coefficient ``lc``: the monic value is
    ``terms / lc`` and its cofactors are ``cofs / lc``."""

    __slots__ = ("terms", "cofs", "lead_exp", "lc")

    def __init__(self, terms: dict, cofs: list[dict], lead_exp: tuple):
        self.terms = terms
        self.cofs = cofs
        self.lead_exp = lead_exp
        self.lc = terms[lead_exp]


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
        """Append terms with cofs, divided by their common content and made
        to lead positive; True if the element is a nonzero constant."""
        nonlocal counter
        lead = max(terms, key=key)
        content = math.gcd(*terms.values(), *(v for cof in cofs
                                         for v in cof.values()))
        if terms[lead] < 0:
            content = -content
        if content != 1:
            terms = {e: v // content for e, v in terms.items()}
            cofs = [{e: v // content for e, v in cof.items()} for cof in cofs]
        lc = terms[lead]
        _check_value_bits(terms.values(), lc, "a Buchberger value")
        for cof in cofs:
            _check_value_bits(cof.values(), lc, "a Bezout cofactor")
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
        den = math.lcm(*(c.denominator for c in g._terms.values()))
        cofs: list[dict] = []
        if track:
            cofs = [{} for _ in range(ngens)]
            cofs[i] = {(0,) * nvars: den}
        terms = {e: c.numerator * (den // c.denominator)
                 for e, c in g._terms.items()}
        if push_elem(terms, cofs, g.total_degree()):
            return basis

    while pairs:
        rank, _, i, j = heapq.heappop(pairs)
        lcm = queued.pop((i, j), None)
        if lcm is None:
            continue  # removed by criterion B
        ei, ej = basis[i], basis[j]
        ishift = tuple(l - a for l, a in zip(lcm, ei.lead_exp))
        jshift = tuple(l - b for l, b in zip(lcm, ej.lead_exp))
        g = math.gcd(ei.lc, ej.lc)
        a, c = ej.lc // g, ei.lc // g  # over the scale lcm(ei.lc, ej.lc)
        sterms = kernels.poly_term_mul(ei.terms, a, ishift)
        kernels.poly_isubmul_int(sterms, 1, c, jshift, ej.terms)
        scofs = []
        for ci, cj in zip(ei.cofs, ej.cofs):
            cof = kernels.poly_term_mul(ci, a, ishift)
            kernels.poly_isubmul_int(cof, 1, c, jshift, cj)
            scofs.append(cof)
        remainder = _reduce(sterms, scofs, ei.lc * a, basis, key, cap)
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
    cert = BezoutCertificate(tuple(
        Polynomial._wrap({e: Fraction(c, unit.lc) for e, c in cof.items()},
                         nvars)
        for cof in unit.cofs))
    if not cert.verify(generators):
        raise VerificationError(
            "internal error: tracked Bezout certificate failed its exact check")
    return cert
