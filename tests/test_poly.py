"""Polynomial arithmetic, division, parsing and printing."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opkit import poly
from opkit.errors import (InputError, OpkitError, ParseError,
                          ResourceLimitError)
from opkit.groebner import divide_multi
from opkit.poly import (DEFAULT_ORDER, DEGREE_CAP, MonomialOrder, Polynomial,
                        format_polynomial, parse_polynomial)

from conftest import (leading_term, order_key, random_polynomial,
                      reference_parse, to_sympy)

V2 = ["x", "y"]


def P(text, variables=V2):
    return parse_polynomial(text, variables)


class TestArithmetic:
    def test_add_cancellation(self):
        assert P("x+1") + P("-1") == P("x")

    def test_add_identity(self):
        p = P("x^2*y - 3*x + 1/2")
        assert p + Polynomial.zero(2) == p

    def test_add_collapses_bezout_pair(self):
        # (xy+y+1) + (-y)(x+1) collapses to 1
        left = P("x*y+y+1") + P("-y") * P("x+1")
        assert left == Polynomial.one(2)

    def test_mul_simple(self):
        assert P("x+1") * P("x") == P("x^2+x")

    def test_mul_identity(self):
        p = P("x^3*y - 7*y + 2")
        assert p * Polynomial.one(2) == p

    def test_mul_sixth_order_operator(self):
        product = P("(x+1)*(x*y+y+1)*x*(x^2+x*y+x+y-1)")
        expanded = P("x^5*y + x^4*y^2 + 3*x^4*y + x^4 + 3*x^3*y^2 + 3*x^3*y"
                     " + 2*x^3 + 3*x^2*y^2 + x^2*y + x*y^2 - x")
        assert product == expanded
        # independent oracle
        assert to_sympy(product, V2) == to_sympy(expanded, V2)

    def test_variable_count_mismatch(self):
        with pytest.raises(InputError):
            P("x", ["x"]) + P("x", ["x", "y"])

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(1000):
            nvars = rng.randint(1, 3)
            a = random_polynomial(rng, nvars)
            b = random_polynomial(rng, nvars)
            c = random_polynomial(rng, nvars)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Polynomial.zero(nvars) == a
            assert a * Polynomial.one(nvars) == a

    def test_scalar_products(self):
        # Polynomial * Fraction, int * Polynomial, and no float either side.
        p = P("x^2*y - 3*x + 1/2")
        assert p * Fraction(2, 3) == P("2/3*x^2*y - 2*x + 1/3")
        assert 3 * p == p * 3 == P("3*x^2*y - 9*x + 3/2")
        assert 0 * p == Polynomial.zero(2)
        with pytest.raises(TypeError):
            p * 1.5
        with pytest.raises(TypeError):
            1.5 * p

    @pytest.mark.parametrize("build", [
        lambda: Polynomial.zero(0), lambda: Polynomial.one(-1),
        lambda: Polynomial.constant(3, 0), lambda: Polynomial.constant(3, 1.5),
        lambda: Polynomial.constant(1.5, 2), lambda: Polynomial.variable(2, 2),
        lambda: Polynomial.variable(-1, 2), lambda: Polynomial.variable(0, 0),
        lambda: Polynomial.variable(1.0, 2),
    ])
    def test_constructors_refuse_bad_arguments(self, build):
        with pytest.raises(InputError):
            build()

    def test_constructors_are_canonical(self):
        assert Polynomial.zero(2) == Polynomial({}, 2)
        assert Polynomial.constant(0, 2).terms == {}
        assert Polynomial.constant("3/6", 2) == Polynomial({(0, 0): "1/2"}, 2)
        assert Polynomial.one(3) == Polynomial({(0, 0, 0): 1}, 3)
        assert Polynomial.variable(1, 3) == Polynomial({(0, 1, 0): 1}, 3)

    def test_pow(self):
        assert P("x+1") ** 2 == P("x^2+2*x+1")
        assert P("x+y") ** 0 == Polynomial.one(2)


class TestDivision:
    def test_single_divisor(self):
        q, r = divide_multi(P("x^2+x"), [P("x")])
        assert q == [P("x+1")]
        assert r.is_zero()

    def test_unit_not_reducible(self):
        q, r = divide_multi(Polynomial.one(2), [P("x+1"), P("x")])
        assert all(qi.is_zero() for qi in q)
        assert r == Polynomial.one(2)

    def test_lex_example(self):
        q, r = divide_multi(P("x^2+x*y+x+y-1"), [P("x+1")], MonomialOrder.LEX)
        assert q == [P("x+y")]
        assert r == P("-1")
        # reconstruction oracle
        assert P("x+1") * P("x+y") + P("-1") == P("x^2+x*y+x+y-1")

    def test_zero_divisor_rejected(self):
        with pytest.raises(InputError):
            divide_multi(P("x"), [Polynomial.zero(2)])

    @pytest.mark.parametrize("order", list(MonomialOrder))
    def test_reconstruction_random(self, order):
        rng = random.Random(4 + hash(order.value) % 100)
        for _ in range(150):
            nvars = rng.randint(1, 3)
            p = random_polynomial(rng, nvars, max_terms=6)
            divisors = [random_polynomial(rng, nvars, max_terms=3, allow_zero=False)
                        for _ in range(rng.randint(1, 3))]
            quotients, r = divide_multi(p, divisors, order)
            acc = Polynomial.zero(nvars)
            for q, d in zip(quotients, divisors):
                acc = acc + q * d
            assert acc + r == p
            leads = [leading_term(d, order)[0] for d in divisors]
            for exp in r.terms:
                assert not any(all(e >= le for e, le in zip(exp, lexp))
                               for lexp in leads)


class TestParsePrint:
    def test_parse_factor(self):
        assert P("x*y + y + 1") == Polynomial(
            {(1, 1): 1, (0, 1): 1, (0, 0): 1}, 2)

    def test_parse_zero(self):
        assert P("0").is_zero()

    def test_parse_power_of_sum(self):
        assert P("(x+1)^2") == P("x^2+2*x+1")

    def test_parse_rational_literal(self):
        assert P("3/2") == Polynomial.constant(Fraction(3, 2), 2)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            P("x y")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            P("x + z")

    def test_stray_slash_rejected(self):
        with pytest.raises(ParseError):
            P("x/2")

    def test_rational_exponent_rejected(self):
        with pytest.raises(ParseError):
            P("x^1/2")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            P("x^-1")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            P("1/0")

    @pytest.mark.parametrize("text, exponent", [
        ("x+y+1", 0), ("x+y+1", 1), ("x+y+1", 13), ("2*x-y", 8), ("x", 10**4),
        ("0", 0), ("0", 3), ("3/2*x^2*y", 5), ("-2", 7), ("-1/3*y", 0),
        ("-1", 10**30 + 1),
    ])
    def test_power_matches_pow(self, text, exponent):
        assert P(f"({text})^{exponent}") == P(text) ** exponent

    def test_coefficient_cap_refuses_power_from_bit_length(self):
        assert P("2^4095") == Polynomial.constant(2**4095, 2)    # 4096 bits
        assert P("(1/3*x)^2584").terms[(2584, 0)] == Fraction(1, 3**2584)
        # 4097 bits by the bound; 3^2585 has 4098 bits, found once formed.
        for text in ("2^4096", "3^2585", "(2/3)^" + "9" * 1000):
            with pytest.raises(ResourceLimitError) as err:
                P(text)
            assert "-bit coefficient" in str(err.value)

    def test_term_cap_refuses_power_before_expanding(self, monkeypatch):
        monkeypatch.setenv("OPKIT_TERM_CAP", "100")
        assert P("(x+1)^19").term_count() == 20      # largest product 10*10
        with pytest.raises(ResourceLimitError) as err:
            P("(x+1)^20")                            # 11*11 terms
        assert "forms 121 terms" in str(err.value)

    def test_term_cap_refuses_product(self, monkeypatch):
        monkeypatch.setenv("OPKIT_TERM_CAP", "100")
        assert P("(x+y+1)^3*(x-y)^2") == P("x+y+1") ** 3 * P("x-y") ** 2  # 10*3
        with pytest.raises(ResourceLimitError):
            P("(x+y+1)^3*(x+y+1)^4")           # 10*15 terms

    def test_degree_cap_refuses_power(self):
        assert P(f"(x*y)^{DEGREE_CAP // 2}").total_degree() == DEGREE_CAP
        for text in (f"x^{DEGREE_CAP + 1}", "x^1000000000000",
                     f"(x*y)^{DEGREE_CAP // 2 + 1}"):
            with pytest.raises(ResourceLimitError) as err:
                P(text)
            assert "total degree" in str(err.value)

    def test_degree_cap_refuses_product(self):
        assert P(f"x^{DEGREE_CAP - 1}*y").total_degree() == DEGREE_CAP
        with pytest.raises(ResourceLimitError):
            P(f"x^{DEGREE_CAP}*(y+1)")

    @pytest.mark.parametrize("text", [5, None, ["x"]])
    def test_non_string_refused(self, text):
        with pytest.raises(InputError):
            parse_polynomial(text, V2)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            P("x + $")
        assert err.value.position == 4

    def test_nesting_cap_refuses_the_opening_parenthesis(self):
        cap = poly.NESTING_CAP
        assert P("(" * cap + "x" + ")" * cap) == P("x")
        for text in ("(" * (cap + 1) + "x" + ")" * (cap + 1),
                     "x + " + "-(" * 400 + "y" + ")" * 400):
            with pytest.raises(ParseError) as err:
                P(text)
            opening = [i for i, ch in enumerate(text) if ch == "("][cap]
            assert err.value.position == opening
            assert f"nest deeper than {cap}" in str(err.value)

    @pytest.mark.parametrize("name", ["ß", "x²", "é1", "٣", "xß"])
    def test_names_are_ascii(self, name):
        assert not poly.is_name(name)
        with pytest.raises(ParseError, match="unexpected character"):
            parse_polynomial(name, ["x"])

    @pytest.mark.parametrize("name, ok", [
        ("x", True), ("Xy_1", True), ("a__", True), ("", False),
        ("1x", False), ("_x", False), ("x y", False), ("x-1", False),
        (5, False),
    ])
    def test_is_name(self, name, ok):
        assert poly.is_name(name) is ok

    def test_unary_minus_binds_looser_than_power(self):
        assert P("-x^2") == -(P("x") ** 2)
        assert P("-2^2") == Polynomial.constant(-4, 2)
        assert P("(-x)^2") == P("x^2")

    def test_power_chains_left_to_right(self):
        assert P("x^2^3") == P("x^6")
        assert P("2^3^2") == Polynomial.constant(64, 2)     # (2^3)^2, not 2^9
        assert P("(x+1)^2^2") == P("(x+1)^4")

    def test_print_examples(self):
        assert format_polynomial(P("0"), V2) == "0"
        assert format_polynomial(P("x - 1"), V2) == "x - 1"
        assert format_polynomial(P("-x + 1"), V2) == "-x + 1"
        assert format_polynomial(P("3/2*x^2*y - y"), V2) == "3/2*x^2*y - y"
        assert format_polynomial(Polynomial.constant(1, 2), V2) == "1"

    @pytest.mark.parametrize("terms, text", [
        ({(2, 0): Fraction(-1), (0, 1): Fraction(1)}, "-x^2 + y"),
        ({(1, 1): Fraction(-7, 3), (0, 0): Fraction(-1)}, "-7/3*x*y - 1"),
        ({(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 5)}, "1/2*x - 1/5*y"),
        ({(3, 0): Fraction(-12), (0, 2): Fraction(12)}, "-12*x^3 + 12*y^2"),
        ({(0, 0): Fraction(-5, 2)}, "-5/2"),
        ({(0, 0): Fraction(-1)}, "-1"),
        ({(0, 0): Fraction(10**20 + 39, 3)}, f"{10**20 + 39}/3"),
    ], ids=["negative-lead", "rational-lead", "unit-numerators",
            "non-unit-ints", "constant-rational", "constant-minus-one",
            "constant-big"])
    def test_print_coefficients(self, terms, text):
        p = Polynomial(terms, 2)
        assert format_polynomial(p, V2) == text
        assert parse_polynomial(text, V2) == p

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_print_parse_roundtrip(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        nvars = rng.randint(1, 3)
        p = random_polynomial(rng, nvars, max_terms=7, max_exp=5)
        names = ["x", "y", "z"][:nvars]
        text = format_polynomial(p, names)
        assert parse_polynomial(text, names) == p
        # Terms print in descending DEFAULT_ORDER.
        printed = [] if p.is_zero() else [
            next(iter(parse_polynomial(piece, names).terms))
            for piece in re.split(r" [+-] ", text)]
        assert printed == sorted(p.terms, key=order_key(DEFAULT_ORDER),
                                 reverse=True)


# Expressions over x, y, z with the names w and x1 unknown: sums, products
# and powers nest, with optional spaces; unary minus, parentheses and
# power chains such as "x^2^3" come from nesting, and one literal has a
# zero denominator.  Exponents are mostly small; the large ones reach the
# degree and bit caps, and the term cap through squarings of the sums.
_ATOMS = st.one_of(
    st.sampled_from(["x", "y", "z", "w", "x1"]),
    st.integers(0, 40).map(str),
    st.tuples(st.integers(0, 30), st.integers(1, 12)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["2" * 30, "7" * 60, "000", "0/5", "12/36", "1/0",
                     "(x+y+1)", "(x - 2*z)", "(1/2*y + 3)"]),
)
_EXPONENTS = st.one_of(st.integers(0, 5).map(str),
                       st.sampled_from(["13", "400", "10001", "9" * 31]))


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " - ", " * "]),
                  inner).map("".join),
        st.tuples(inner, st.sampled_from(["^", " ^ "]), _EXPONENTS
                  ).map("".join),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})*({t[1]})"),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
    )


_EXPRESSIONS = st.recursive(_ATOMS, _extend, max_leaves=10)
_NOISE = list("+-*^()/ 0123456789xyzw_$.\t") + ["²", "٣", "ß"]


@st.composite
def _fuzzed_text(draw):
    """An expression, kept whole, truncated, or with one character
    inserted, deleted or replaced."""
    text = draw(_EXPRESSIONS)
    edit = draw(st.sampled_from(["keep", "truncate", "insert", "delete",
                                 "replace"]))
    if edit == "keep" or not text:
        return text
    i = draw(st.integers(0, len(text) - 1))
    if edit == "truncate":
        return text[:i]
    if edit == "delete":
        return text[:i] + text[i + 1:]
    char = draw(st.sampled_from(_NOISE))
    if edit == "insert":
        return text[:i] + char + text[i:]
    return text[:i] + char + text[i + 1:]


def _outcome(parse, text, names):
    """The term map in insertion order, or the error's class, message and
    position."""
    try:
        p = parse(text, names)
    except OpkitError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return p.variable_count, list(p.terms.items())


class TestParserAgainstReference:
    """parse_polynomial against the Polynomial-level recursive descent it
    replaced (conftest.reference_parse), with the caps as shipped and
    lowered: each text gives the same term map, or the same error at the
    same position."""

    @given(_fuzzed_text(),
           st.sampled_from([None, "1", "2", "6", "40"]),
           st.sampled_from([DEGREE_CAP, 3, 7, 20]),
           st.sampled_from([poly.COEFFICIENT_BITS_CAP, 6, 40, 150]))
    @settings(max_examples=1500, deadline=None, derandomize=True)
    def test_same_result_or_error(self, text, term_cap, degree_cap,
                                  bits_cap):
        names = ["x", "y", "z"]
        with pytest.MonkeyPatch.context() as mp:
            if term_cap is None:
                mp.delenv("OPKIT_TERM_CAP", raising=False)
            else:
                mp.setenv("OPKIT_TERM_CAP", term_cap)
            mp.setattr(poly, "DEGREE_CAP", degree_cap)
            mp.setattr(poly, "COEFFICIENT_BITS_CAP", bits_cap)
            expected = _outcome(reference_parse, text, names)
            assert _outcome(parse_polynomial, text, names) == expected

    @pytest.mark.parametrize("text", [
        "-x^2", "x^2^3", "--x", "---x*-y", "(x+1)^0", "0^0", "(x-x)^3",
        "(0)^9999999999", "2*x*1*y", "x*1^5", "1/2*x - 1/2*x", "x + $",
        "x x $", "(x", "x)", "^2", "x^", "x^y", "x^1/2", "x/2", "1/0 + $",
        "", " ", "w", "x y", "(x+y+1)^3*(x+y+1)^4", "2^4096", "3^2585",
        "(2/3)^12", "x^10001", "(x*y)^5001", "9" * 1300, "1/" + "9" * 1300,
        "ß", "x²", "xß", "x_1ß", "٣", "(" * 100 + "x" + ")" * 100,
        "(" * 101 + "x" + ")" * 101, "(" * 400 + "x" + ")" * 400,
        "-(" * 101 + "x" + ")" * 101, "(" * 101 + "$", "(" * 100 + "x",
        "(x)*" * 200 + "x", "((x)+(" * 60 + "x" + "))" * 60,
    ])
    @pytest.mark.parametrize("term_cap", [None, "5"])
    def test_cases(self, text, term_cap, monkeypatch):
        if term_cap is None:
            monkeypatch.delenv("OPKIT_TERM_CAP", raising=False)
        else:
            monkeypatch.setenv("OPKIT_TERM_CAP", term_cap)
        names = ["x", "y"]
        assert (_outcome(parse_polynomial, text, names)
                == _outcome(reference_parse, text, names))
