"""The one-pass parser against the recursive-descent reference it replaced,
its limits, and the ASCII-only tokens."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from a2bundle import exprio
from a2bundle.errors import (
    AlgebraError,
    ExprSyntaxError,
    NegativeExponentNotAllowed,
    NegativePowerOfNonMonomial,
    UnknownVariable,
)
from a2bundle.exprio import parse
from a2bundle.fields import QQ, FieldSpec, PrimeField, QuotientExtension
from a2bundle.poly import MultiPoly, VarTable, divide_exact

TAB = VarTable(("a", "b", "x"), laurent=("a", "b"))
EXT = QuotientExtension((Fraction(-1), Fraction(0), Fraction(5)))
FIELDS = (QQ, PrimeField(11), EXT)


# ------------------------------------------------- the reference parser


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("num", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j], i))
                i = j
            elif ch in "+-*/^()":
                self.toks.append(("op", ch, i))
                i += 1
            else:
                raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, found {val or 'end of input'!r}", pos)


class _Parser:
    """Recursive descent, one token of lookahead, one polynomial per factor."""

    def __init__(self, text: str, table: VarTable, field: FieldSpec):
        self.toks = _Tokens(text)
        self.table = table
        self.field = field
        self.has_generator = isinstance(field, QuotientExtension)
        if self.has_generator and "t" in table:
            raise ExprSyntaxError(
                "table has a variable named 't', which collides with the "
                "extension generator", 0)

    def parse(self) -> MultiPoly:
        out = self.expr()
        kind, val, pos = self.toks.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input starting at {val!r}", pos)
        return out

    def expr(self) -> MultiPoly:
        kind, val, pos = self.toks.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.toks.next()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, pos = self.toks.peek()
            if kind == "op" and val in "+-":
                self.toks.next()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def term(self) -> MultiPoly:
        acc = self.factor()
        while True:
            kind, val, pos = self.toks.peek()
            if kind == "op" and val in "*/":
                self.toks.next()
                rhs = self.factor()
                if val == "*":
                    acc = acc * rhs
                else:
                    if rhs.is_zero():
                        raise ExprSyntaxError("division by zero", pos)
                    acc = divide_exact(acc, rhs)
            else:
                return acc

    def factor(self) -> MultiPoly:
        base, base_pos, base_name = self.atom()
        kind, val, pos = self.toks.peek()
        if kind == "op" and val == "^":
            self.toks.next()
            kind, val, pos = self.toks.peek()
            sign = 1
            if kind == "op" and val == "-":
                self.toks.next()
                sign = -1
            kind, val, pos = self.toks.next()
            if kind != "num":
                raise ExprSyntaxError("expected integer exponent after '^'", pos)
            k = sign * int(val)
            if k < 0 and base_name is not None and not self.table.is_laurent(base_name):
                raise NegativeExponentNotAllowed(
                    f"variable {base_name!r} may not carry a negative exponent",
                    base_pos)
            return base ** k
        return base

    def atom(self):
        """Returns (poly, position, variable_name_or_None)."""
        kind, val, pos = self.toks.next()
        if kind == "num":
            return MultiPoly.const(self.table, self.field, int(val)), pos, None
        if kind == "name":
            if val == "t" and self.has_generator:
                return MultiPoly.const(self.table, self.field,
                                       self.field.generator), pos, None
            if val not in self.table:
                raise UnknownVariable(f"unknown variable {val!r}", pos)
            return MultiPoly.var(self.table, self.field, val), pos, val
        if kind == "op" and val == "(":
            inner = self.expr()
            self.toks.expect_op(")")
            return inner, pos, None
        raise ExprSyntaxError(f"expected a value, found {val or 'end of input'!r}", pos)


def reference_parse(text: str, table: VarTable, field: FieldSpec = QQ) -> MultiPoly:
    """The parser ``exprio.parse`` replaced: every factor a polynomial, every
    term folded in with ``+``, nesting on the Python stack."""
    out = _Parser(text, table, field).parse()
    for name in table.names:
        if not table.is_laurent(name) and (out.min_degree_in(name) or 0) < 0:
            raise NegativeExponentNotAllowed(
                f"expression has a negative power of {name!r}, which is "
                f"not flagged laurent", 0)
    return out


# ------------------------------------------------------ the oracle test


def outcome(parser, text, field):
    """The polynomial, or the class and position of the error raised."""
    try:
        return parser(text, TAB, field)
    except AlgebraError as exc:
        return type(exc), getattr(exc, "position", None)


atoms = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["a", "b", "x", "t"]))
powers = st.tuples(atoms, st.integers(-3, 3)).map(lambda p: f"{p[0]}^{p[1]}")


def grow(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", "/"]), inner).map("".join),
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"-{s}"),
        st.tuples(inner, st.integers(-1, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
        pair.map(lambda p: f"({p[0]})*({p[1]})/({p[1]})"),  # an exact divisor
        pair.map(lambda p: f"{p[0]}/({p[1]})"),
    )


exprs = st.recursive(st.one_of(atoms, powers), grow, max_leaves=6)
# a stray character or a dropped one puts errors at every kind of position
mangled = st.tuples(exprs, st.integers(0, 40), st.sampled_from(list("()+-*/^ 0x") + [""]))


@given(mangled, st.sampled_from(FIELDS), st.booleans())
@settings(max_examples=600, derandomize=True, deadline=None)
def test_parse_matches_reference(case, field, mangle):
    text, at, ch = case
    if mangle:
        at = min(at, len(text))
        text = text[:at] + ch + text[at + (ch == ""):]
    got, want = outcome(parse, text, field), outcome(reference_parse, text, field)
    assert got == want, text


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_parse_matches_reference_on_edges(field):
    for text in ["0^-1", "(x - x)^-1", "x/0", "x/(a - a)", "x/0^0", "x/11", "11^-1",
                 "0*(x + 1)/(x + 2)", "(x^2 - 1)/(x + 1)/(x - 1)", "(x + 1)^0/(a + b)^0",
                 "(0*x)^-1", "1/x*x", "x*a/(a*x)", "(-1/2)*a^-2", "t^-2*(t + 1)",
                 "(a + b)*x^2/(x*(a + b))", "x^-1", "(x)^-1*x", "x^", "x^-", "x^^2",
                 "()", "x)", "(x", "-(-x)", "+x - +y", "x y", "2x", "a^-1^2", "",
                 "0/x + 1", "(0*x + a)^-1", "x/(0*a + b)", "(a - a + b)^2"]:
        assert outcome(parse, text, field) == outcome(reference_parse, text, field), text


def test_flat_terms_build_no_polynomial(monkeypatch):
    """A certificate-style string of flat terms parses without one
    polynomial sum, product or power."""
    def refuse(*args):
        raise AssertionError("a flat term reached polynomial arithmetic")
    for op in ("__add__", "__mul__", "__pow__"):
        monkeypatch.setattr(MultiPoly, op, refuse)
    got = parse("(-1/2)*a^-2*b^-2*x^1 + (2)*a^-1*b^-1*x^1", TAB)
    assert got.terms == {(-2, -2, 1): Fraction(-1, 2), (-1, -1, 1): Fraction(2)}


# ------------------------------------------------------------ the limits


def test_nesting_depth_bound(monkeypatch):
    monkeypatch.setattr(exprio, "MAX_DEPTH", 3)
    assert parse("(((x)))", TAB) == parse("x", TAB)
    with pytest.raises(ExprSyntaxError, match="deeper than 3") as exc:
        parse("x + ((((x))))", TAB)
    assert exc.value.position == 7


def test_deep_nesting_is_a_syntax_error():
    depth = exprio.MAX_DEPTH + 1
    with pytest.raises(ExprSyntaxError) as exc:
        parse("(" * depth + "x" + ")" * depth, TAB)
    assert exc.value.position == depth - 1


def test_power_of_a_sum_bound(monkeypatch):
    monkeypatch.setattr(exprio, "MAX_POWER", 3)
    assert parse("(a + b)^3", TAB) == parse("a^3 + 3*a^2*b + 3*a*b^2 + b^3", TAB)
    assert parse("(2*a)^9 + (3)^9", TAB) == parse("512*a^9 + 19683", TAB)
    with pytest.raises(ExprSyntaxError, match="at most the power 3") as exc:
        parse("x*(a + b)^4", TAB)
    assert exc.value.position == 10


@pytest.mark.parametrize("text, field, what", [
    ("0^-1", QQ, "zero"), ("11^-1", PrimeField(11), "zero"),
    ("(z - z)^-1", QQ, "zero"), ("(z + 1)^-2", QQ, "a 2-term polynomial")])
def test_negative_power_names_its_base(text, field, what):
    with pytest.raises(NegativePowerOfNonMonomial) as exc:
        parse(text, VarTable(("z",)), field)
    assert str(exc.value) == f"cannot raise {what} to power {text[-2:]}"
    assert getattr(exc.value, "position", None) is None


def test_default_limits_admit_common_inputs():
    z = VarTable(("z",))
    assert parse("(z + 1)^20", z).coefficient_in("z", 10).constant_value() == 184756


# ---------------------------------------------------------- ASCII tokens


@pytest.mark.parametrize("text, ch, pos", [("z^²", "²", 2), ("٣*z^2", "٣", 0)])
def test_non_ascii_characters_are_rejected(text, ch, pos):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text, VarTable(("z",)))
    assert exc.value.position == pos
    assert repr(ch) in str(exc.value)
