import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from a2bundle.errors import (
    ExprSyntaxError,
    NegativeExponentNotAllowed,
    NotDivisible,
    UnknownVariable,
)
from a2bundle.exprio import field_from_descriptor, parse, to_expr
from a2bundle.fields import QQ, PrimeField, QuotientExtension
from a2bundle.poly import MultiPoly, VarTable

T2 = VarTable(("x", "y"))
TAB = VarTable(("a", "b", "x"), laurent=("a", "b"))
EXT = QuotientExtension((Fraction(-1), Fraction(0), Fraction(5)))


def mk(table, terms):
    return MultiPoly(table, QQ, {e: Fraction(c) for e, c in terms.items()})


def test_parse_basic():
    assert parse("x^2 + 2*x*y - 7", T2) == mk(T2, {(2, 0): 1, (1, 1): 2, (0, 0): -7})
    assert parse("-x + y", T2) == mk(T2, {(1, 0): -1, (0, 1): 1})
    assert parse("0", T2).is_zero()
    assert parse("(x + y)^2", T2) == mk(T2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_parse_rational_coefficients():
    assert parse("5/4*x^4", T2) == mk(T2, {(4, 0): Fraction(5, 4)})
    assert parse("x/2 - 1/3", T2) == mk(T2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(-1, 3)})


def test_parse_laurent_powers():
    p = parse("x*a^-1*b^-2 - x^2*a^-3*b^-1", TAB)
    assert p == mk(TAB, {(-1, -2, 1): 1, (-3, -1, 2): -1})
    assert parse("x/(a*b^2)", TAB) == mk(TAB, {(-1, -2, 1): 1})


def test_negative_power_needs_laurent_flag():
    with pytest.raises(NegativeExponentNotAllowed):
        parse("x^-1", T2)
    with pytest.raises(NegativeExponentNotAllowed):
        parse("1/x", T2)
    with pytest.raises(NegativeExponentNotAllowed):
        parse("x^-2", TAB)
    # cancelling uses are fine: the final result is polynomial in x
    assert parse("(x^2 + x)/x", TAB) == mk(TAB, {(0, 0, 1): 1, (0, 0, 0): 1})


def test_parse_errors_carry_position():
    with pytest.raises(UnknownVariable) as exc:
        parse("x + zz", T2)
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse("x +", T2)
    with pytest.raises(ExprSyntaxError):
        parse("x ~ y", T2)
    with pytest.raises(ExprSyntaxError):
        parse("(x", T2)
    with pytest.raises(ExprSyntaxError):
        parse("x y", T2)
    with pytest.raises(NotDivisible):
        parse("(x^2 + 1)/(x + 1)", T2)


def test_parse_extension_generator():
    p = parse("t*x + 1", T2, EXT)
    assert p.terms == {(1, 0): ((0, 1), 1), (0, 0): ((1, 0), 1)}
    # t^2 reduces to the base rational 1/5
    q = parse("t^2", T2, EXT)
    assert q.terms == {(0, 0): ((1, 0), 5)}
    with pytest.raises(ExprSyntaxError):
        parse("t", VarTable(("t",)), EXT)


def test_print_golden_canonical_order():
    p = mk(TAB, {(-1, -2, 1): 1, (-3, -1, 2): -1})
    assert to_expr(p) == "x*a^-1*b^-2 - x^2*a^-3*b^-1"
    q = mk(TAB, {(-1, -3, 4): Fraction(5, 4)})
    assert to_expr(q) == "5/4*x^4*a^-1*b^-3"


def test_print_misc_forms():
    assert to_expr(MultiPoly.zero(T2, QQ)) == "0"
    assert to_expr(mk(T2, {(0, 0): -3})) == "-3"
    assert to_expr(mk(T2, {(1, 0): -1, (0, 0): 1})) == "-x + 1"
    assert to_expr(mk(T2, {(2, 1): 1, (0, 0): Fraction(1, 2)})) == "x^2*y + 1/2"
    # graded order: higher total degree first, ties by exponent tuple
    assert to_expr(mk(T2, {(1, 1): 1, (2, 0): 1, (0, 1): 1})) == "x^2 + x*y + y"


def test_print_extension_coefficients():
    one_minus_t = ((1, -1), 1)
    p = MultiPoly(T2, EXT, {(1, 0): one_minus_t})
    assert to_expr(p) == "-(t - 1)*x"
    assert parse(to_expr(p), T2, EXT) == p
    q = MultiPoly(T2, EXT, {(0, 0): ((0, 3), 1)})
    assert to_expr(q) == "3*t"


def test_print_prime_field_never_signs():
    F7 = PrimeField(7)
    p = MultiPoly(T2, F7, {(1, 0): 6, (0, 0): 3})
    assert to_expr(p) == "6*x + 3"
    assert parse(to_expr(p), T2, F7) == p


def random_poly(rng, table, field, laurent_idx):
    terms = {}
    for _ in range(rng.randrange(0, 9)):
        exps = []
        for i in range(len(table)):
            lo = -4 if i in laurent_idx else 0
            exps.append(rng.randrange(lo, 6))
        c = Fraction(rng.randrange(-60, 60), rng.randrange(1, 11))
        if field is not QQ:
            c = field.coerce(c.numerator) if rng.random() < 0.5 else field.coerce(c)
        terms[tuple(exps)] = c
    return MultiPoly(table, field, terms)


def test_roundtrip_seeded_batch():
    """1000 seeded random polynomials survive print -> parse exactly."""
    rng = random.Random(20260814)
    fields = [QQ, PrimeField(11), EXT]
    for i in range(1000):
        field = fields[i % 3]
        p = random_poly(rng, TAB, field, laurent_idx={0, 1})
        s = to_expr(p)
        assert parse(s, TAB, field) == p, f"case {i}: {s}"
        assert to_expr(parse(s, TAB, field)) == s


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
exps = st.tuples(st.integers(-4, 5), st.integers(-5, 4), st.integers(0, 6))


@given(st.dictionaries(exps, coeffs, max_size=9))
@settings(max_examples=80, derandomize=True)
def test_roundtrip_property(d):
    p = mk(TAB, d)
    assert parse(to_expr(p), TAB) == p


def test_field_descriptors_roundtrip():
    assert field_from_descriptor("q") is QQ
    assert field_from_descriptor("fp:11") == PrimeField(11)
    assert field_from_descriptor("ext:5t^2-1") == EXT
    assert field_from_descriptor("ext:t^2-1/5") == EXT
    assert field_from_descriptor(EXT.descriptor()) == EXT
    with pytest.raises(ExprSyntaxError):
        field_from_descriptor("zz:1")
