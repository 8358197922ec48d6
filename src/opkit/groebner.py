"""Buchberger's algorithm over Q[x], for deciding whether 1 is in an ideal,
and multivariate division on the same reduction step.

There are two kinds of run.  The probe, :func:`is_unit`, runs on the values
alone and answers yes or no.  The tracked run, :func:`bezout_certificate`,
replays the probe while it carries cofactors over the input generators
through S-polynomial formation and reduction, so membership of 1 comes with
a machine-checkable Bezout certificate instead of a bare yes/no; it is
checked exactly before it is handed out.  A caller that searches many
ideals (``planner``) probes each one and runs the tracked run only on the
ones it keeps; :func:`contains_one` does both for one ideal, the tracked
run only when the probe finds 1.  Every run stops as soon as a nonzero
constant enters the basis, and ends on a complete Groebner basis otherwise.

Both runs take one pair policy and are deterministic for a fixed input and
order.  Pairs are pruned by the Gebauer-Moller criteria (Gebauer & Moller
1988), which drop only pairs that other pairs cover (Buchberger's chain
criterion), and ranked by sugar, the degree an S-polynomial would have on
homogenized generators (Giovini et al. 1991); ties go by creation index,
and reduction uses the first applicable divisor.  So the replay repeats the
probe step for step and only adds the cofactors.

A run packs its monomials with a ``poly.Packing`` for its order, packs
the generators when it starts, and unpacks only what leaves it.  Each
element keeps the largest degree among its terms and cofactors, and
packing, every lcm, S-pair shift and reduction shift check the degree
field's guard bit.  A set guard bit (``poly.FieldOverflow``) restarts the
run with fields twice as wide; the first run's fields fit the input
degrees with room to double, in one 30-bit int digit when they can.

The arithmetic is fraction-free: every polynomial is an integer term map.
A basis element is divided by the content of its terms and cofactors
together and leads positive, so its monic value is ``terms / lc`` and its
cofactors are ``cofs / lc``.  An S-polynomial under reduction, with its
cofactors, is an integer term map over one integer scale, and a reduction
step is ``acc = a*acc - c*x^shift*q`` (``kernels.poly_isubmul``) with
``a`` and ``c`` free of common factors.  The exact values are those of a
run on monic Fraction polynomials.  :func:`divide_multi` is the same
reduction, on the same widening packings, with the divisors as the basis:
one integer reduction step serves Buchberger and division.

Coefficient growth is uncontrolled in exact arithmetic, so a per-polynomial
term-count cap (default 100000, override with OPKIT_TERM_CAP) aborts
runaway computations.  The cap applies to every polynomial a run carries:
values always, cofactors only in the replay; and in a division to the
dividend under reduction and to the quotients.  A membership search that
ends without 1 carries no cofactors, so it may finish under a cap that its
cofactors would pass; a search that finds 1 still stops at the cap in its
replay.  Coefficient size is capped by ``poly.CERTIFICATE_BITS_CAP``:
both runs refuse a value coefficient past it, checked on the coefficient
each reduction step cancels (a division's too) and on every new element's
monic value, and
the replay also refuses a new element whose cofactors have a coefficient
past it.  The cap is checked on the exact reduced Fractions, which are
built only when an unreduced integer passes it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import kernels, poly
from .errors import (InputError, MembershipError, ResourceLimitError,
                     VerificationError)
from .poly import (CERTIFICATE_BITS_CAP, DEFAULT_ORDER, TERM_CAP_ENV,
                   MonomialOrder, Packing, Polynomial,
                   _check_certificate_bits, resolve_term_cap,
                   sum_of_products)


@dataclass(frozen=True)
class BezoutCertificate:
    """Cofactors expressing 1 as a combination of the generators."""

    cofactors: tuple[Polynomial, ...]

    def verify(self, generators: Sequence[Polynomial]) -> bool:
        """Exact check that sum cofactor_i * generator_i is 1, as one
        ``poly.sum_of_products`` call on integers over packed monomials."""
        nvars = generators[0].variable_count
        return sum_of_products(
            ([gen, cof] for cof, gen in zip(self.cofactors, generators)),
            nvars) == Polynomial.one(nvars)


def _check_cap(terms: dict, cap: int) -> None:
    if len(terms) > cap:
        raise ResourceLimitError(
            f"term count {len(terms)} exceeds cap {cap}; "
            f"raise {TERM_CAP_ENV} to continue")


def _reduce(terms: dict, cofs: list[dict], scale: int,
            basis: list["_BasisElem"], packing: Packing,
            cap: int) -> tuple[dict, int]:
    """Full normal form of ``terms / scale`` against basis.

    ``terms`` and each of ``cofs`` are integer term maps over the one
    positive integer ``scale``.  ``terms`` is consumed and each of ``cofs``
    is updated in place with the same steps (none when the run does not
    track cofactors).  Returns the remainder and the scale it and the cofs
    end on.
    """
    key, guards, deg_guard = packing.key, packing.guards, packing.deg_guard
    remainder = []  # (monomial, coefficient, scale when it was set aside)
    while terms:
        m = max(terms, key=key)
        for elem in basis:
            shift = m - elem.lead
            if shift & guards:
                continue
            if (elem.top + shift) & deg_guard:
                raise poly.FieldOverflow("reduction shift")
            coeff = terms[m]
            if (coeff.bit_length() > CERTIFICATE_BITS_CAP
                    or scale.bit_length() > CERTIFICATE_BITS_CAP):
                _check_certificate_bits((Fraction(coeff, scale),),
                                        "a Buchberger value")
            g = math.gcd(coeff, elem.lc)
            a, c = elem.lc // g, coeff // g
            scale *= a
            kernels.poly_isubmul(terms, a, c, shift, elem.terms)
            _check_cap(terms, cap)
            for wc, bc in zip(cofs, elem.cofs):
                kernels.poly_isubmul(wc, a, c, shift, bc)
                _check_cap(wc, cap)
            break
        else:
            remainder.append((m, terms.pop(m), scale))
    return {m: v * (scale // at) for m, v, at in remainder}, scale


def _check_value_bits(values, lc: int, what: str) -> None:
    """The certificate bits cap on the exact values ``v / lc``, built only
    when an unreduced integer passes the cap."""
    if (lc.bit_length() > CERTIFICATE_BITS_CAP
            or any(v.bit_length() > CERTIFICATE_BITS_CAP for v in values)):
        _check_certificate_bits([Fraction(v, lc) for v in values], what)


class _BasisElem:
    """Integer term maps on packed monomials with no content common to the
    terms and cofactors, and a positive leading coefficient ``lc``: the
    monic value is ``terms / lc`` and its cofactors are ``cofs / lc``.
    ``top`` holds, in the degree field alone, the largest degree among the
    terms and cofactors."""

    __slots__ = ("terms", "cofs", "lead", "lc", "top")

    def __init__(self, terms: dict, cofs: list[dict], packing: Packing):
        """The element of nonzero ``terms`` with ``cofs``, divided by their
        common content and made to lead positive."""
        lead = max(terms, key=packing.key)
        content = math.gcd(*terms.values(), *(v for cof in cofs
                                         for v in cof.values()))
        if terms[lead] < 0:
            content = -content
        if content != 1:
            terms = {m: v // content for m, v in terms.items()}
            cofs = [{m: v // content for m, v in cof.items()} for cof in cofs]
        deg_values = packing.deg_guard - (1 << packing.deg_shift)
        self.terms = terms
        self.cofs = cofs
        self.lead = lead
        self.lc = terms[lead]
        self.top = max(m & deg_values for poly in (terms, *cofs) for m in poly)


def _gebauer_moller(leads: list[int], queued: dict[tuple[int, int], int],
                    packing: Packing) -> list[int]:
    """Pairs for the newest element, ``leads[-1]``, by the Gebauer-Moller
    criteria; returns the indices of the elements it is paired with.

    Criterion B drops the queued pairs whose lcm the new leading monomial
    divides, unless that lcm equals the lcm of either one's pair with the
    new element.  Of the new pairs, criterion M keeps those of minimal lcm,
    and F keeps one (the oldest) per lcm, none where a pair of that lcm has
    coprime leading monomials (the product criterion).
    """
    lead, lcm_of, guards = leads[-1], packing.lcm, packing.guards
    for pair, lcm in list(queued.items()):
        if (not (lcm - lead) & guards
                and lcm_of(leads[pair[0]], lead) != lcm
                and lcm_of(leads[pair[1]], lead) != lcm):
            del queued[pair]
    groups: dict[int, tuple[int, bool]] = {}  # lcm -> (oldest, coprime)
    for i, other in enumerate(leads[:-1]):
        lcm = lcm_of(other, lead)
        oldest, coprime = groups.get(lcm, (i, False))
        groups[lcm] = (oldest, coprime or lcm == other + lead)
    return sorted(
        oldest for lcm, (oldest, coprime) in groups.items()
        if not coprime and not any(other != lcm and not (lcm - other) & guards
                                   for other in groups))


def _start_bits(generators: Sequence[Polynomial]) -> int:
    """Value bits per field of a run's first try: room for twice the
    largest input degree, and at least what fills one 30-bit int digit (or
    one bit, past 28 variables)."""
    degree = max(g.total_degree() for g in generators)
    nvars = generators[0].variable_count
    return max((2 * degree).bit_length(), 30 // (nvars + 1) - 1, 1)


def _widening(polys: Sequence[Polynomial], order: MonomialOrder, run):
    """``run(packing)`` on a packing for ``order`` whose fields start at
    ``_start_bits(polys)`` and double each time a degree reaches a guard
    bit; returns its result and the packing it ran on."""
    bits = _start_bits(polys)
    while True:
        packing = Packing(polys[0].variable_count, order, bits)
        try:
            return run(packing), packing
        except poly.FieldOverflow:
            bits *= 2


def _run_buchberger(generators: Sequence[Polynomial], order: MonomialOrder,
                    cap: int, track: bool) -> tuple[list[_BasisElem], Packing]:
    """One Buchberger run, stopped as soon as a nonzero constant enters.

    The run ends with that constant when the generators reach 1, and with a
    complete Groebner basis otherwise.  Returns the basis, on packed
    monomials, and the packing that unpacks them.  With ``track=True`` every
    element carries its cofactors; with ``track=False`` every element's cofs
    is [].  A degree that reaches a guard bit restarts the run with fields
    twice as wide.
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
    return _widening(gens, order,
                     lambda packing: _run_at_width(gens, packing, cap, track))


def _run_at_width(gens: list[Polynomial], packing: Packing, cap: int,
                  track: bool) -> list[_BasisElem]:
    """The run of :func:`_run_buchberger` at one field width."""
    ngens = len(gens)
    degree, deg_guard = packing.degree, packing.deg_guard

    basis: list[_BasisElem] = []
    leads: list[int] = []
    sugars: list[int] = []  # a generator's total degree, else its pair's rank
    pairs: list[tuple[int, int, int, int]] = []  # (rank, index, i, j)
    queued: dict[tuple[int, int], int] = {}  # (i, j) -> lcm, pairs not yet dropped
    counter = 0

    def push_elem(terms: dict, cofs: list[dict], sugar: int) -> bool:
        """Append terms with cofs as an element; True if it is a nonzero
        constant."""
        nonlocal counter
        elem = _BasisElem(terms, cofs, packing)
        _check_value_bits(elem.terms.values(), elem.lc, "a Buchberger value")
        for cof in elem.cofs:
            _check_value_bits(cof.values(), elem.lc, "a Bezout cofactor")
        lead = elem.lead
        m = len(basis)
        basis.append(elem)
        leads.append(lead)
        sugars.append(sugar)
        lead_degree = degree(lead)
        for i in _gebauer_moller(leads, queued, packing):
            lcm = packing.lcm(leads[i], lead)
            rank = degree(lcm) + max(sugars[i] - degree(leads[i]),
                                     sugar - lead_degree)
            heapq.heappush(pairs, (rank, counter, i, m))
            queued[i, m] = lcm
            counter += 1
        return not lead

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        terms, den = packing.pack_terms(g._terms)
        cofs: list[dict] = []
        if track:
            cofs = [{} for _ in range(ngens)]
            cofs[i] = {0: den}  # 0 packs the constant monomial
        if push_elem(terms, cofs, g.total_degree()):
            return basis

    while pairs:
        rank, _, i, j = heapq.heappop(pairs)
        lcm = queued.pop((i, j), None)
        if lcm is None:
            continue  # removed by criterion B
        ei, ej = basis[i], basis[j]
        ishift, jshift = lcm - ei.lead, lcm - ej.lead
        if (ei.top + ishift) & deg_guard or (ej.top + jshift) & deg_guard:
            raise poly.FieldOverflow("S-pair shift")
        g = math.gcd(ei.lc, ej.lc)
        a, c = ej.lc // g, ei.lc // g  # over the scale lcm(ei.lc, ej.lc)
        sterms = kernels.poly_term_mul(ei.terms, a, ishift)
        kernels.poly_isubmul(sterms, 1, c, jshift, ej.terms)
        scofs = []
        for ci, cj in zip(ei.cofs, ej.cofs):
            cof = kernels.poly_term_mul(ci, a, ishift)
            kernels.poly_isubmul(cof, 1, c, jshift, cj)
            scofs.append(cof)
        remainder, _ = _reduce(sterms, scofs, ei.lc * a, basis, packing, cap)
        if remainder and push_elem(remainder, scofs, rank):
            return basis
    return basis


def is_unit(generators: Sequence[Polynomial],
            order: MonomialOrder = DEFAULT_ORDER) -> bool:
    """The probe: whether 1 is in <generators> over Q, from a Buchberger run
    on the values alone.

    The run stops as soon as a nonzero constant enters the basis, and ends
    on a complete Groebner basis otherwise.  It carries no cofactors, so the
    term cap bounds only its values: a search that ends without 1 may
    finish under a cap that its cofactors would pass.  It raises
    ResourceLimitError when a value passes the term cap or a value
    coefficient passes ``poly.CERTIFICATE_BITS_CAP``.
    """
    probe, _ = _run_buchberger(generators, order, resolve_term_cap(),
                               track=False)
    # A run stopped on 1 ends with that constant, packed 0.
    return not probe[-1].lead


def bezout_certificate(generators: Sequence[Polynomial],
                       order: MonomialOrder = DEFAULT_ORDER) -> BezoutCertificate:
    """The tracked run: the probe of :func:`is_unit` replayed with cofactors.

    The tracked cofactors of the constant the run stops on, rescaled, are
    the certificate, checked exactly before being handed out, never
    trusted.  Raises MembershipError when 1 is not in <generators>, and
    ResourceLimitError when a value or cofactor passes the term cap or a
    coefficient passes ``poly.CERTIFICATE_BITS_CAP``.
    """
    basis, packing = _run_buchberger(generators, order, resolve_term_cap(),
                                     track=True)
    unit = basis[-1]
    if unit.lead:
        raise MembershipError("1 is not in the ideal of the generators")
    nvars = generators[0].variable_count
    cert = BezoutCertificate(tuple(
        Polynomial._wrap(packing.unpack_terms(cof, unit.lc), nvars)
        for cof in unit.cofs))
    if not cert.verify(generators):
        raise VerificationError(
            "internal error: tracked Bezout certificate failed its exact check")
    return cert


def contains_one(
    generators: Sequence[Polynomial],
    order: MonomialOrder = DEFAULT_ORDER,
) -> Optional[BezoutCertificate]:
    """Decide 1 in <generators> over Q with an explicit certificate: the
    probe, and the tracked run only when the probe finds 1.  Returns None
    when 1 is not a member."""
    if not is_unit(generators, order):
        return None
    return bezout_certificate(generators, order)


def divide_multi(
    p: Polynomial,
    divisors: Sequence[Polynomial],
    order: MonomialOrder = DEFAULT_ORDER,
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division of p by an ordered list of divisors.

    Returns (quotients, remainder) with p = sum(q_i * d_i) + r and no
    monomial of r divisible by any divisor leading monomial.  Deterministic:
    each step reduces by the first applicable divisor in list order.

    It is Buchberger's reduction: divisor i is a basis element carrying the
    cofactor e_i, so the cofactors the dividend ends on, over its final
    scale, are minus the quotients.  Like every reduction it raises
    ResourceLimitError when the dividend or a quotient passes the term cap
    or a coefficient it cancels passes ``poly.CERTIFICATE_BITS_CAP``; so
    does a coefficient of the remainder or a quotient it would return.
    """
    if not divisors:
        raise InputError("need at least one divisor")
    nvars = p.variable_count
    for i, d in enumerate(divisors):
        if d.is_zero():
            raise InputError(f"divisor {i} is the zero polynomial")
        if d.variable_count != nvars:
            raise InputError("variable-count mismatch between dividend and divisors")
    cap = resolve_term_cap()

    def divide(packing: Packing) -> tuple[list[dict], dict, int]:
        basis = []
        for i, d in enumerate(divisors):
            terms, den = packing.pack_terms(d._terms)
            cofs: list[dict] = [{} for _ in divisors]
            cofs[i] = {0: den}
            basis.append(_BasisElem(terms, cofs, packing))
        terms, scale = packing.pack_terms(p._terms)
        cofs = [{} for _ in divisors]
        return (cofs, *_reduce(terms, cofs, scale, basis, packing, cap))

    (cofs, remainder, scale), packing = _widening([p, *divisors], order, divide)
    _check_value_bits(remainder.values(), scale, "a division remainder")
    for cof in cofs:
        _check_value_bits(cof.values(), scale, "a division quotient")
    return ([Polynomial._wrap(packing.unpack_terms(cof, -scale), nvars)
             for cof in cofs],
            Polynomial._wrap(packing.unpack_terms(remainder, scale), nvars))
