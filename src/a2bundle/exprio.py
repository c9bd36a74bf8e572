"""Parse and print polynomial expressions in a stable canonical form.

Input grammar, in ASCII characters only:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' ['-'] digits]
    atom   := digits | name | '(' expr ')'

``/`` is exact division (so ``5/4`` is the rational literal and ``x^2/x``
is legal); ``t`` names the generator when the field is an extension of Q.
Writing a negative power of a variable requires that variable's laurent
flag in the table — directly via ``^`` or indirectly via ``/``.

Parsing is one pass over the tokens of one regular expression. A term of
numbers, ``t``, variables, integer powers and single-term groups is one
raw coefficient and one exponent list, added straight into the term dict
of its expression; no polynomial is built for it. A factor of several
terms (a parenthesised sum, or a power of one) makes the term's product so
far a polynomial and multiplies or exactly divides it, in the order
written; later flat factors join it at the next such factor or at the end
of the term. Parentheses nest on an explicit stack at most
:data:`MAX_DEPTH` deep, and a sum is raised to at most the
:data:`MAX_POWER`-th power; beyond either bound :class:`ExprSyntaxError`
names the offending token.

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
    NegativePowerOfNonMonomial,
    UnknownVariable,
)
from .fields import FieldSpec, PrimeField, QuotientExtension, QQ
from .poly import MultiPoly, VarTable, _accumulate, _coeff_power, divide_exact


#: the deepest nesting of parentheses that :func:`parse` accepts
MAX_DEPTH = 100
#: the largest power that :func:`parse` raises a sum of several terms to
MAX_POWER = 32

_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()]")
_FOREIGN = re.compile(r"[^-+*/^()0-9A-Za-z_ \t\n\r\f\v]")


def _fail(text, i, message, cls=ExprSyntaxError):
    """Raise ``cls`` at the ``i``-th token of ``text``, or at its end."""
    raise cls(message, ([m.start() for m in _TOKEN.finditer(text)] + [len(text)])[i])


def parse(text: str, table: VarTable, field: FieldSpec = QQ) -> MultiPoly:
    """Parse ``text`` into a polynomial over ``table`` and ``field``."""
    bad = _FOREIGN.search(text)
    if bad:
        raise ExprSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    gen = field.generator if isinstance(field, QuotientExtension) else None
    if gen is not None and "t" in table:
        raise ExprSyntaxError("table has a variable named 't', which collides with the "
                              "extension generator", 0)
    toks = _TOKEN.findall(text) + [""]  # "" is the end of input
    index = {name: j for j, name in enumerate(table.names)}
    w, one, is_zero = len(table), field.one, field.is_zero
    # the open expression: its term dict, the sign of its current term, and
    # that term: the polynomial ``tp`` (None until a sum joins it) times the
    # coefficient ``c`` (None for 1) times x^e; ``op`` applies the next
    # factor, a ``/`` at token ``slash``
    stack, out, neg, c, e, tp, op, slash = [], {}, False, None, [0] * w, None, "*", 0
    i, start = 0, True
    while True:
        tok = toks[i]
        if start and tok in ("+", "-"):
            neg, i = tok == "-", i + 1
            tok = toks[i]
        at, name, many, start = i, None, None, False
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                _fail(text, i, f"parentheses nest deeper than {MAX_DEPTH}")
            stack.append((out, neg, c, e, tp, op, slash))
            out, neg, c, e, tp, op, i, start = {}, False, None, [0] * w, None, "*", i + 1, True
            continue
        if tok in index:
            v, d, name = None, ((index[tok], 1),), tok
        elif tok.isdigit():
            v, d = field.coerce(int(tok)), ()
        elif tok == "t" and gen is not None:
            v, d = gen, ()
        elif tok.isidentifier():
            _fail(text, i, f"unknown variable {tok!r}", UnknownVariable)
        else:
            _fail(text, i, f"expected a value, found {tok or 'end of input'!r}")
        i += 1
        while True:  # the atom ``v * x^d`` (or ``many``) is read: power, apply
            k = 1
            if toks[i] == "^":
                i += 2 if toks[i + 1] == "-" else 1
                if not toks[i].isdigit():
                    _fail(text, i, "expected integer exponent after '^'")
                k, i = (-1 if toks[i - 1] == "-" else 1) * int(toks[i]), i + 1
            if k < 0 and name is not None and name not in table.laurent:
                _fail(text, at, f"variable {name!r} may not carry a negative exponent",
                      NegativeExponentNotAllowed)
            s = -k if op == "/" else k  # the power the term is multiplied by
            zero = v is not None and is_zero(v)
            if k < 0 and (many is not None or zero):
                raise NegativePowerOfNonMonomial(
                    f"cannot raise a {len(many or ())}-term polynomial to power {k}")
            if k and many is not None:
                if k > MAX_POWER:
                    _fail(text, i - 1, f"a sum may be raised to at most the power {MAX_POWER}")
                m = MultiPoly(table, field, {tuple(e): one if c is None else c})
                tp, c, e = m if tp is None else tp * m, None, [0] * w
                tp = divide_exact(tp, many ** k) if s < 0 else tp * many ** k
            elif k:
                if zero and s < 0:
                    _fail(text, slash, "division by zero")
                if s != 1 and v is not None and not zero:
                    v = _coeff_power(field, v, s)
                c = v if c is None else c if v is None else field.mul(c, v)
                for j, x in d:
                    e[j] += x * s
            tok = toks[i]
            if tok in ("*", "/"):
                op, slash, i = tok, i, i + 1
                break
            m = ((tuple(e), one if c is None else c),)
            if tp is not None:  # the factors since the last sum join it
                m = (tp * MultiPoly(table, field, dict(m))).sorted_terms()
            elif c is not None and is_zero(c):
                m = ()
            _accumulate(out, m, field, neg)  # which keeps no zero in ``out``
            c, e, tp, op = None, [0] * w, None, "*"
            if tok in ("+", "-"):
                neg, i = tok == "-", i + 1
                break
            if not stack:
                if tok:
                    _fail(text, i, f"trailing input starting at {tok!r}")
                for name, low in zip(table.names, map(min, zip(*out))):
                    if low < 0 and name not in table.laurent:
                        raise NegativeExponentNotAllowed(
                            f"expression has a negative power of {name!r}, which is "
                            f"not flagged laurent", 0)
                return MultiPoly(table, field, out)
            if tok != ")":
                _fail(text, i, f"expected ')', found {tok or 'end of input'!r}")
            group, (out, neg, c, e, tp, op, slash) = out, stack.pop()
            i, name, many = i + 1, None, None
            (g, v), *more = group.items() or [((), field.zero)]
            d = tuple([(j, x) for j, x in enumerate(g) if x])
            if more:  # a sum; a single term, or none, folds into the open term
                v, d, many = None, (), MultiPoly(table, field, group)


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
