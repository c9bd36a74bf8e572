"""Parse and print polynomial expressions in a stable canonical form.

Input grammar (recursive descent, one token of lookahead):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' ['-'] digits]
    atom   := digits | name | '(' expr ')'

``/`` is exact division (so ``5/4`` is the rational literal and ``x^2/x``
is legal); ``t`` names the generator when the field is an extension of Q.
Writing a negative power of a variable requires that variable's laurent
flag in the table — directly via ``^`` or indirectly via ``/``.

Printing: terms in canonical order (exponent sum, then exponent tuple,
descending); within a term the positively-powered variables come first in
table order, then the negatively-powered ones; multi-piece coefficients are
parenthesized. ``to_expr(parse(s)) == to_expr(p)`` whenever ``parse(s) == p``.
"""

from __future__ import annotations

import re

from .errors import (
    ExprSyntaxError,
    NegativeExponentNotAllowed,
    UnknownVariable,
)
from .fields import FieldSpec, PrimeField, QuotientExtension, QQ
from .poly import MultiPoly, VarTable, divide_exact


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


def parse(text: str, table: VarTable, field: FieldSpec = QQ) -> MultiPoly:
    """Parse ``text`` into a polynomial over ``table`` and ``field``."""
    out = _Parser(text, table, field).parse()
    for name in table.names:
        if not table.is_laurent(name) and (out.min_degree_in(name) or 0) < 0:
            raise NegativeExponentNotAllowed(
                f"expression has a negative power of {name!r}, which is "
                f"not flagged laurent", 0)
    return out


def to_expr(poly: MultiPoly) -> str:
    """Canonical string form; ``parse(to_expr(p)) == p`` always holds."""
    if poly.is_zero():
        return "0"
    table = poly.table
    field = poly.field
    pieces = []
    for exps, coeff in poly.sorted_terms():
        neg, body, parens = field.coeff_str(coeff)
        vars_pos = [(n, k) for n, k in zip(table.names, exps) if k > 0]
        vars_neg = [(n, k) for n, k in zip(table.names, exps) if k < 0]
        var_bits = [n if k == 1 else f"{n}^{k}" for n, k in vars_pos + vars_neg]
        if parens:
            body = f"({body})"
        if var_bits:
            head = "" if body in ("1", "(1)") else body + "*"
            pieces.append((neg, head + "*".join(var_bits)))
        else:
            pieces.append((neg, body))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def field_from_descriptor(desc: str) -> FieldSpec:
    """Build a field from a CLI descriptor: ``q``, ``fp:<p>``, or
    ``ext:<minpoly in t>`` (e.g. ``ext:5t^2-1`` or ``ext:t^2-1/5``)."""
    desc = desc.strip()
    if desc == "q":
        return QQ
    if desc.startswith("fp:"):
        return PrimeField(int(desc[3:]))
    if desc.startswith("ext:"):
        # allow the compact juxtaposition 5t^2 for 5*t^2
        text = re.sub(r"(?<=\d)t", "*t", desc[4:])
        ttable = VarTable(("t",))
        p = parse(text, ttable, QQ)
        deg = p.degree_in("t")
        if deg is None:
            raise ExprSyntaxError("minimal polynomial must not be zero", 0)
        coeffs = tuple(p.coefficient_in("t", k).constant_value()
                       for k in range(deg + 1))
        return QuotientExtension(coeffs)
    raise ExprSyntaxError(
        f"unknown field descriptor {desc!r} (expected q, fp:<p>, or ext:<minpoly>)", 0)
