"""Exact sparse multivariate polynomials over the rationals.

A polynomial in k variables is stored as a map from exponent vectors
(length-k tuples of non-negative ints) to nonzero Fraction coefficients:

    x^2*y + 3  ->  {(2, 1): Fraction(1), (0, 0): Fraction(3)}

The zero polynomial is the empty map.  Canonical form (no stored zero
coefficient) is maintained by every operation, so equality is plain
term-map equality and "identity equals 1" is a reliable exact test.

The expression grammar accepted by :func:`parse_polynomial`:

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' INTEGER)*
    atom   := NUMBER | NAME | '(' expr ')'

NUMBER is an integer or a contiguous rational literal ``a/b``; NAME matches
``[a-zA-Z][a-zA-Z0-9_]*``, ASCII only (``is_name``).  Implicit
multiplication is rejected ("x y" is a syntax error), and '/' only appears
inside rational literals.  Parentheses nest at most NESTING_CAP (100,
fixed) deep: a deeper '(' is a ParseError at its position, so the
recursive descent stays far from Python's recursion limit.

Parsing is bounded by the term cap (default 100000, override with
OPKIT_TERM_CAP, a positive integer): a product of a t-term and a u-term
polynomial forms t*u terms, and one that would form more than the cap
raises ResourceLimitError before it is expanded.  Powers of a polynomial
with two or more terms are built from such products, so "(x+y+1)^3000" is
refused after a few small squarings, and no single product costs more
than cap multiply-adds.  A
product or power whose total degree would pass DEGREE_CAP (10000, fixed)
raises ResourceLimitError too: the term cap does not bound "x^100000000",
but Buchberger would then reduce its leading term one degree at a time.
So does a literal, product, power or sum with a coefficient whose
numerator or denominator would pass COEFFICIENT_BITS_CAP (4096 bits,
fixed).  A monomial times a monomial, and a monomial to a power, are
formed directly; such a power is refused from its degree and from the bit
length of its coefficient before it is formed, so "2^10000000" is never
computed.  A literal too long for the cap is refused before it is
converted.  Digits are ASCII only.  Certificates built from capped
inputs have their own cap, CERTIFICATE_BITS_CAP (14000 bits, fixed), which
groebner and certify check on the cofactors they build, and groebner on the
values its runs carry: every coefficient within it prints.

Buchberger (``groebner``) and ``kernels.poly_sum_of_products`` run on one
packed form, :class:`Packing` (Bachmann & Schonemann, ISSAC 1998): a
monomial is one int, a total-degree field and one field per variable, each
``bits`` value bits under a guard bit.  Multiplying monomials is adding
ints, ``a`` divides ``b`` exactly when ``(b - a)`` has no guard bit set,
and the lcm is a per-field max under a mask.  Lex puts x_1 highest and the
degree lowest, grlex the degree highest and then x_1 .. x_n, so the int is
the sort key; grevlex puts the degree highest and then x_n .. x_1, and its
key is the int with the variable fields complemented.  A field can only
wrap if the degree field does, so packing and the lcm raise FieldOverflow
when the degree reaches its guard bit.  ``pack_terms`` clears a Fraction
term map over the lcm of its denominators; ``unpack_terms`` inverts it.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import kernels
from .errors import InputError, ParseError, ResourceLimitError

Exponent = tuple[int, ...]
RationalLike = Fraction | int | str

DEFAULT_TERM_CAP = 100_000
DEGREE_CAP = 10_000
COEFFICIENT_BITS_CAP = 4096
# A literal with more significant digits is at least 10^1365 > 2^4096.
_LITERAL_DIGITS_CAP = COEFFICIENT_BITS_CAP // 3
# A numerator or denominator within 14000 bits has at most 4215 decimal
# digits, so every certificate coefficient under the cap prints.
CERTIFICATE_BITS_CAP = 14_000
TERM_CAP_ENV = "OPKIT_TERM_CAP"
# Each open parenthesis costs the parser five Python frames.
NESTING_CAP = 100
_ZERO = Fraction(0)
_ONE = Fraction(1)


def resolve_term_cap() -> int:
    """The per-polynomial term-count cap: OPKIT_TERM_CAP, a positive
    integer, else DEFAULT_TERM_CAP."""
    env = os.environ.get(TERM_CAP_ENV)
    if not env:
        return DEFAULT_TERM_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0  # refused below, with the value as given
    if cap < 1:
        raise InputError(
            f"{TERM_CAP_ENV} must be a positive integer, got {env!r}")
    return cap


class MonomialOrder(enum.Enum):
    """Total orders on monomials compatible with multiplication."""

    LEX = "lex"
    GRLEX = "grlex"
    GREVLEX = "grevlex"

    @classmethod
    def from_name(cls, name: str) -> "MonomialOrder":
        try:
            return cls(name)
        except ValueError:
            raise InputError(
                f"unknown monomial order {name!r}; expected one of "
                f"{', '.join(o.value for o in cls)}") from None


DEFAULT_ORDER = MonomialOrder.GREVLEX


class FieldOverflow(Exception):
    """A degree reached its field's guard bit: the packing is too narrow."""


class Packing:
    """Packed-int monomials in ``nvars`` variables under ``order``, with
    ``bits`` value bits per field: the layout, masks and sort key, and the
    conversions from and to Fraction term maps."""

    __slots__ = ("bits", "mask", "shifts", "deg_shift", "guards", "deg_guard",
                 "exp_guards", "exp_values", "exp_low", "ones", "sum_shift",
                 "key")

    def __init__(self, nvars: int, order: MonomialOrder, bits: int):
        width = bits + 1
        if order is MonomialOrder.LEX:
            fields, deg_field = range(nvars, 0, -1), 0
        elif order is MonomialOrder.GRLEX:
            fields, deg_field = range(nvars - 1, -1, -1), nvars
        else:
            fields, deg_field = range(nvars), nvars
        self.bits = bits
        self.mask = mask = (1 << bits) - 1
        self.shifts = tuple(f * width for f in fields)
        self.deg_shift = deg_field * width
        self.deg_guard = 1 << (self.deg_shift + bits)
        self.exp_guards = sum(1 << (s + bits) for s in self.shifts)
        self.guards = self.exp_guards | self.deg_guard
        self.exp_values = sum(mask << s for s in self.shifts)
        self.exp_low = min(self.shifts)
        self.ones = sum(1 << (k * width) for k in range(nvars))
        self.sum_shift = (nvars - 1) * width
        self.key = (self.exp_values.__xor__
                    if order is MonomialOrder.GREVLEX else None)

    def pack(self, exp: tuple) -> int:
        degree = sum(exp)
        if degree >> self.bits:
            raise FieldOverflow("packing")
        m = degree << self.deg_shift
        for e, s in zip(exp, self.shifts):
            m |= e << s
        return m

    def unpack(self, m: int) -> tuple:
        mask = self.mask
        return tuple([(m >> s) & mask for s in self.shifts])

    def degree(self, m: int) -> int:
        return (m >> self.deg_shift) & self.mask

    def lcm(self, a: int, b: int) -> int:
        # The guard stays set in the variable fields where a >= b, and no
        # field borrows from its neighbour; those fields take a, the rest b.
        wins = ((a | self.guards) - b) & self.exp_guards
        keep = wins - (wins >> self.bits)
        m = (a & keep) | (b & (self.exp_values ^ keep))
        # Multiplying by one 1 per field sums the fields into the top one;
        # no partial sum passes deg a + deg b, so none carries.
        degree = ((((m >> self.exp_low) * self.ones) >> self.sum_shift)
                  & ((2 << self.bits) - 1))
        if degree >> self.bits:
            raise FieldOverflow("lcm")
        return m | (degree << self.deg_shift)

    def pack_terms(self, terms: Mapping[Exponent, Fraction]
                   ) -> tuple[dict, int]:
        """A Fraction term map as (packed monomial -> int, den), cleared
        over the lcm ``den`` of its denominators."""
        den = math.lcm(*[c.denominator for c in terms.values()])
        pack = self.pack
        return ({pack(e): c.numerator * (den // c.denominator)
                 for e, c in terms.items()}, den)

    def unpack_terms(self, terms: Mapping[int, int], den: int) -> dict:
        """The Fraction term map of an integer map over ``den``, its zero
        entries dropped."""
        unpack = self.unpack
        return {unpack(m): Fraction(v, den) for m, v in terms.items() if v}


def _check_variable_count(variable_count: int) -> None:
    if not isinstance(variable_count, int) or variable_count < 1:
        raise InputError("variable_count must be a positive integer")


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise InputError(f"cannot interpret {value!r} as an exact rational")


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_nvars")

    def __init__(self, terms: Mapping[Exponent, RationalLike], variable_count: int):
        _check_variable_count(variable_count)
        canon: dict = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != variable_count:
                raise InputError(
                    f"exponent vector {exp} has length {len(exp)}, "
                    f"expected {variable_count}")
            if any((not isinstance(e, int)) or e < 0 for e in exp):
                raise InputError(f"exponents must be non-negative ints: {exp}")
            c = _as_fraction(coeff)
            if c:
                canon[exp] = c
        self._terms = canon
        self._nvars = variable_count

    @classmethod
    def _wrap(cls, terms: dict, variable_count: int) -> "Polynomial":
        # Fast path for results of kernel operations, already canonical.
        self = object.__new__(cls)
        self._terms = terms
        self._nvars = variable_count
        return self

    @classmethod
    def zero(cls, variable_count: int) -> "Polynomial":
        _check_variable_count(variable_count)
        return cls._wrap({}, variable_count)

    @classmethod
    def one(cls, variable_count: int) -> "Polynomial":
        return cls.constant(_ONE, variable_count)

    @classmethod
    def constant(cls, value: RationalLike, variable_count: int) -> "Polynomial":
        _check_variable_count(variable_count)
        c = _as_fraction(value)
        return cls._wrap({(0,) * variable_count: c} if c else {},
                         variable_count)

    @classmethod
    def variable(cls, index: int, variable_count: int) -> "Polynomial":
        _check_variable_count(variable_count)
        if not (isinstance(index, int) and 0 <= index < variable_count):
            raise InputError(
                f"variable index {index} out of range for {variable_count} variables")
        exp = [0] * variable_count
        exp[index] = 1
        return cls._wrap({tuple(exp): _ONE}, variable_count)

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        return MappingProxyType(self._terms)

    @property
    def variable_count(self) -> int:
        return self._nvars

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(exp) for exp in self._terms), default=-1)

    def term_count(self) -> int:
        return len(self._terms)

    def _check_compatible(self, other: "Polynomial") -> None:
        if self._nvars != other._nvars:
            raise InputError(
                f"variable-count mismatch: {self._nvars} vs {other._nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        return Polynomial._wrap(kernels.poly_add(self._terms, other._terms), self._nvars)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        return Polynomial._wrap(kernels.poly_sub(self._terms, other._terms), self._nvars)

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap(kernels.poly_neg(self._terms), self._nvars)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return Polynomial._wrap(kernels.poly_mul(self._terms, other._terms), self._nvars)
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, coeff: RationalLike) -> "Polynomial":
        return Polynomial._wrap(
            kernels.poly_scale(self._terms, _as_fraction(coeff)), self._nvars)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("polynomial powers must be non-negative integers")
        result = Polynomial.one(self._nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self._nvars == other._nvars
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self._nvars, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self._nvars)]
        return f"Polynomial({format_polynomial(self, names)!r}, {self._nvars})"


def sum_of_products(groups: Iterable[Iterable[Polynomial]],
                    variable_count: int) -> Polynomial:
    """The sum over the groups of the product of each group, in one integer
    pass (``kernels.poly_sum_of_products``); an empty group is 1.  Its
    :class:`Packing` has fields wide enough for the largest sum of total
    degrees over a group, so no product of a group can overflow one.

    Raises InputError if a polynomial has another variable count.
    """
    maps, degree = [], 0
    for g in groups:
        row, total = [], 0
        for p in g:
            if p._nvars != variable_count:
                raise InputError(
                    f"variable-count mismatch: {variable_count} vs {p._nvars}")
            row.append(p._terms)
            total += max(p.total_degree(), 0)
        maps.append(row)
        degree = max(degree, total)
    packing = Packing(variable_count, DEFAULT_ORDER, degree.bit_length() or 1)
    return Polynomial._wrap(
        kernels.poly_sum_of_products(maps, packing), variable_count)


def product(polys: Iterable[Polynomial], variable_count: int) -> Polynomial:
    """Product of a (possibly empty) collection; the empty product is 1.

    Formed in one integer pass over packed monomials, like every identity
    check (:func:`sum_of_products`); binary ``*`` stays on Fractions.
    """
    return sum_of_products([polys], variable_count)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_OPS = set("+-*^()")
_DIGITS = set("0123456789")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | _DIGITS | {"_"}
_OPERANDS = {"name", "number", "("}
# The key of format_polynomial's first sort.
_REVERSED = operator.itemgetter(slice(None, None, -1))


def _coefficient_bits(coeffs: Iterable[Fraction]) -> int:
    """The largest numerator or denominator bit length among coeffs."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coeffs), default=0)


def _check_certificate_bits(coeffs: Iterable[Fraction], what: str) -> None:
    """Raise ResourceLimitError if a coefficient passes CERTIFICATE_BITS_CAP."""
    bits = _coefficient_bits(coeffs)
    if bits > CERTIFICATE_BITS_CAP:
        raise ResourceLimitError(
            f"{what} has a {bits}-bit coefficient, more than the "
            f"certificate cap {CERTIFICATE_BITS_CAP}")


def _check_bits(terms: dict, what: str, pos: int) -> dict:
    bits = _coefficient_bits(terms.values())
    if bits > COEFFICIENT_BITS_CAP:
        raise ResourceLimitError(
            f"{what} at position {pos} has a {bits}-bit coefficient, more "
            f"than the cap {COEFFICIENT_BITS_CAP}")
    return terms


def _degree(terms: dict) -> int:
    """Total degree of a term map; -1 for the empty one."""
    return max(map(sum, terms), default=-1)


def _literal(digits: str, where: str) -> int:
    """A run of ASCII digits as an int, refused past COEFFICIENT_BITS_CAP,
    before conversion when too long; ``where`` places it in the message."""
    digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) <= _LITERAL_DIGITS_CAP else None
    if value is None or value.bit_length() > COEFFICIENT_BITS_CAP:
        raise ResourceLimitError(
            f"number {where} has {len(digits)} digits, more than "
            f"a {COEFFICIENT_BITS_CAP}-bit coefficient holds")
    return value


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            num = _literal(text[start:i], f"at position {start}")
            if i < n and text[i] == "/" and i + 1 < n and text[i + 1] in _DIGITS:
                i += 1
                dstart = i
                while i < n and text[i] in _DIGITS:
                    i += 1
                den = _literal(text[dstart:i], f"at position {dstart}")
                if den == 0:
                    raise ParseError("zero denominator in rational literal", start)
                tokens.append(("number", Fraction(num, den), start))
            else:
                tokens.append(("number", Fraction(num), start))
        elif ch in _NAME_START:
            start = i
            i += 1
            while i < n and text[i] in _NAME_CHARS:
                i += 1
            tokens.append(("name", text[start:i], start))
        elif ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def is_name(text: str) -> bool:
    """True when text is a NAME of the expression grammar."""
    return (isinstance(text, str) and text[:1] in _NAME_START
            and all(ch in _NAME_CHARS for ch in text))


class _Parser:
    """Recursive descent over the tokens of one expression.  Every value is
    a Fraction term map in canonical form that its caller owns, so a sum
    is accumulated in place; only the result becomes a Polynomial."""

    def __init__(self, text: str, variables: Sequence[str]):
        if not variables:
            raise InputError("at least one variable name is required")
        if len(set(variables)) != len(variables):
            raise InputError("duplicate variable names")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.nvars = nvars = len(variables)
        self.constant_exp = (0,) * nvars
        self.units = {name: tuple(int(i == k) for i in range(nvars))
                      for k, name in enumerate(variables)}
        self.cap = resolve_term_cap()

    def multiply(self, a: dict, b: dict, pos: int) -> dict:
        """a * b, refused before expansion if it forms more terms than the
        cap or has a total degree above DEGREE_CAP, and after it if a
        coefficient passes COEFFICIENT_BITS_CAP.  Both factors are within
        the caps, so forming the product is bounded work.  A monomial times
        a monomial is formed directly."""
        formed = len(a) * len(b)
        if formed > self.cap:
            raise ResourceLimitError(
                f"product at position {pos} forms {formed} terms, more than "
                f"the cap {self.cap}; raise {TERM_CAP_ENV} to continue")
        if formed == 1:
            (ea, ca), = a.items()
            (eb, cb), = b.items()
            degree = sum(ea) + sum(eb)
        else:
            degree = _degree(a) + _degree(b)
        if degree > DEGREE_CAP:
            raise ResourceLimitError(
                f"product at position {pos} has total degree {degree}, more "
                f"than the cap {DEGREE_CAP}")
        if formed != 1:
            return _check_bits(kernels.poly_mul(a, b), "product", pos)
        exp = tuple(map(operator.add, ea, eb))
        # Every operand is within the bit cap, so its product by 1 is too;
        # each variable's coefficient is _ONE itself.
        if cb is _ONE:
            return {exp: ca}
        if ca is _ONE:
            return {exp: cb}
        return _check_bits({exp: ca * cb}, "product", pos)

    def monomial_power(self, m: dict, k: int, pos: int) -> dict:
        """m^k for a one-term m, formed directly.  It is refused before it
        is formed if its total degree passes DEGREE_CAP, or if its
        coefficient must pass COEFFICIENT_BITS_CAP: a nonzero integer of b
        bits has a k-th power of at least (b - 1) * k + 1 bits.  Otherwise
        the power has at most twice the cap's bits, and it is checked
        exactly once formed."""
        (exp, coeff), = m.items()
        degree = sum(exp) * k
        if degree > DEGREE_CAP:
            raise ResourceLimitError(
                f"power at position {pos} has total degree {degree}, more "
                f"than the cap {DEGREE_CAP}")
        bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
        least = (bits - 1) * k + 1
        if least > COEFFICIENT_BITS_CAP:
            raise ResourceLimitError(
                f"power at position {pos} has an at least {least}-bit "
                f"coefficient, more than the cap {COEFFICIENT_BITS_CAP}")
        if coeff is _ONE:
            return {tuple(e * k for e in exp): _ONE}
        return _check_bits({tuple(e * k for e in exp): coeff ** k},
                           "power", pos)

    def parse(self) -> Polynomial:
        value = self.parse_expr()
        kind, _, pos = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing {kind!r}", pos)
        return Polynomial._wrap(value, self.nvars)

    def parse_expr(self) -> dict:
        tokens = self.tokens
        start = tokens[self.pos][2]
        value = self.parse_term()
        while True:
            kind = tokens[self.pos][0]
            if kind != "+" and kind != "-":
                return _check_bits(value, "expression", start)
            self.pos += 1
            term = self.parse_term()
            if kind == "-":
                term = kernels.poly_neg(term)
            for exp, c in term.items():
                new = value[exp] + c if exp in value else c
                if new:
                    value[exp] = new
                else:
                    del value[exp]

    def parse_term(self) -> dict:
        tokens = self.tokens
        value = self.parse_unary()
        while True:
            kind, _, pos = tokens[self.pos]
            if kind == "*":
                self.pos += 1
                value = self.multiply(value, self.parse_unary(), pos)
            elif kind in _OPERANDS:
                raise ParseError("implicit multiplication is not allowed", pos)
            else:
                return value

    def parse_unary(self) -> dict:
        # A run of '-' negates once per sign: -(-(...)).
        tokens, start = self.tokens, self.pos
        while tokens[self.pos][0] == "-":
            self.pos += 1
        signs = self.pos - start
        value = self.parse_power()
        return kernels.poly_neg(value) if signs % 2 else value

    def parse_power(self) -> dict:
        tokens = self.tokens
        value = self.parse_atom()
        while tokens[self.pos][0] == "^":
            kind, val, pos = tokens[self.pos + 1]
            self.pos += 2
            if kind != "number" or val.denominator != 1:
                raise ParseError("exponent must be a non-negative integer", pos)
            k = val.numerator
            if len(value) == 1:
                value = self.monomial_power(value, k, pos)
                continue
            # Binary powering here, so that every product is checked
            # against the cap before it is formed.
            base, value = value, {self.constant_exp: _ONE}
            for bit in bin(k)[2:]:
                value = self.multiply(value, value, pos)
                if bit == "1":
                    value = self.multiply(value, base, pos)
        return value

    def parse_atom(self) -> dict:
        kind, val, pos = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            return {self.constant_exp: val} if val else {}
        if kind == "name":
            exp = self.units.get(val)
            if exp is None:
                raise ParseError(f"unknown variable {val!r}", pos)
            return {exp: _ONE}
        if kind == "(":
            if self.depth == NESTING_CAP:
                raise ParseError(
                    f"parentheses nest deeper than {NESTING_CAP}", pos)
            self.depth += 1
            value = self.parse_expr()
            self.depth -= 1
            kind, _, pos = self.tokens[self.pos]
            self.pos += 1
            if kind != ")":
                raise ParseError(f"expected ')', found {kind!r}", pos)
            return value
        raise ParseError(f"unexpected {kind!r}", pos)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression into canonical form.  Raises ParseError on bad input."""
    if not isinstance(text, str):
        raise InputError(
            f"an expression must be a string, got {type(text).__name__}")
    return _Parser(text, variables).parse()


def format_polynomial(p: Polynomial, variables: Sequence[str]) -> str:
    """Canonical printing: descending default order, 'a/b' rationals.

    Round-trips through :func:`parse_polynomial` exactly.
    """
    if len(variables) != p.variable_count:
        raise InputError(
            f"got {len(variables)} variable names for a "
            f"{p.variable_count}-variable polynomial")
    if p.is_zero():
        return "0"
    terms = p._terms
    # Grevlex descending (DEFAULT_ORDER) in two stable sorts on native
    # keys: the reversed exponent vector ascending, then the total degree
    # descending.
    exps = sorted(terms, key=_REVERSED)
    exps.sort(key=sum, reverse=True)
    pieces = []
    for exp in exps:
        # The coefficient is printed from its numerator and denominator,
        # as str(abs(coeff)) would print it.
        coeff = terms[exp]
        num, den = coeff.numerator, coeff.denominator
        negative = num < 0
        if negative:
            num = -num
        body = "*".join([name if e == 1 else f"{name}^{e}"
                         for name, e in zip(variables, exp) if e])
        if den != 1:
            body = f"{num}/{den}*{body}" if body else f"{num}/{den}"
        elif not body:
            body = str(num)
        elif num != 1:
            body = f"{num}*{body}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
