"""Sparse exact multivariate Laurent polynomials.

Terms are stored as ``{exponent_tuple: raw_coefficient}`` with exponents
aligned to a :class:`VarTable`. Exponents may be any integers (negative
included); whether a *user* is allowed to write a negative power for a given
variable is an expression-IO concern (the table's ``laurent`` flags), not an
arithmetic one.

Only this module reads that term dict; other modules go through
:class:`MultiPoly` methods. ``MultiPoly.terms`` stays a public dict of
tuple keys because the benchmark reads it.

Coefficients are raw field values (see :mod:`a2bundle.fields`). Over Q and
Q[t]/(m) a :class:`MultiPoly` has a second view, held as in FLINT's
``fmpq_mpoly``: the pair ``({exps: c}, den)``, where ``c`` is an int over Q
and a tuple of deg(m) ints over Q[t]/(m), with ``den > 0``, no zero entry
and a ``gcd`` of 1 over ``den`` and every int, a unique normal form. Each
view is built from the other on first use and then kept. Sums, negation,
shifts, products and substitution run held, in ints with one ``gcd`` per
result, over Q[t]/(m) and whenever an operand already has its pair. A sum
of two Q polynomials that have only their terms stays on the field's
``add``: the benchmark's traced ``certs`` run requires calls to it.

A product of two multi-term polynomials runs one integer convolution,
:func:`_convolve`, for every field, with no pass through the field's own
``add``/``mul``: over F_p on residues, each output then taken mod p; over Q
on the held ints; over Q[t]/(m) on the held vectors packed into ints at
t = 2^w, each output then reduced mod m by one big-int remainder
(:func:`_mul_vectors`). Products of at least :data:`PACK_PAIRS` term pairs
also pack their exponent tuples into ints inside the convolution.

Exact division by a single term, a unit of the Laurent ring, is a shift; by
any other divisor it keeps one remainder dictionary and pops a heap.

Substitution never raises an image to a power. A single-term image acts on
each term's exponents and coefficient directly. The terms are then grouped
by their exponents on the variables whose images have several terms, and
the groups are evaluated by Horner's rule, one product per degree. Over F_p,
and over Q on held ints, a large evaluation packs the groups and images once
and runs every step as one integer convolution on packed keys; the result is
unpacked and normalised once.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm, prod
from operator import add, lshift, neg, sub

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NegativeExponentAtZero,
    NegativePowerOfNonMonomial,
    NonInvertibleImageForLaurentVariable,
    NotDivisible,
    Record,
    UnexpectedVariable,
    VarTableMismatch,
)
from .fields import FieldElem, FieldSpec, PrimeField, QuotientExtension, Rationals


class VarTable(Record):
    """Ordered variable names plus which ones may be *written* inverted.

    The ``laurent`` entry is consulted only by the expression parser/printer;
    internally any variable can carry negative exponents.
    """

    __slots__ = ("names", "laurent")

    def __init__(self, names: tuple[str, ...], laurent: tuple[str, ...] = ()):
        if len(set(names)) != len(names):
            raise VarTableMismatch(f"duplicate variable names in {names}")
        for v in laurent:
            if v not in names:
                raise UnexpectedVariable(f"laurent flag for unknown variable {v!r}")
        super().__init__(names, laurent)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnexpectedVariable(f"variable {name!r} not in table {self.names}") from None

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.names

    def is_laurent(self, name: str) -> bool:
        return name in self.laurent


def _term_sort_key(item):
    exps, _ = item
    return (sum(exps), exps)


def _accumulate(out, pairs, field, subtract=False):
    """Add (or subtract) the ``(exponents, coefficient)`` pairs into the term
    dict ``out`` in place and return it, dropping keys that cancel."""
    fadd, fneg, is_zero = field.sub if subtract else field.add, field.neg, field.is_zero
    for e, c in pairs:
        prior = out.get(e)
        if prior is None:
            out[e] = fneg(c) if subtract else c
        else:
            nc = fadd(prior, c)
            if is_zero(nc):
                del out[e]
            else:
                out[e] = nc
    return out


def _add_into(out, pairs, k, vec):
    """Add ``k`` times each held ``(exponents, value)`` pair into the dict
    ``out`` in place and return it; cancelled values stay, as zeros. Values
    are int vectors if ``vec``, else ints."""
    get = out.get
    if not vec:
        for e, c in pairs:
            out[e] = get(e, 0) + c * k
    elif k == -1:
        for e, c in pairs:
            prior = get(e)
            out[e] = tuple(map(neg, c)) if prior is None else tuple(map(sub, prior, c))
    else:
        for e, c in pairs:
            if k != 1:
                c = tuple([x * k for x in c])
            prior = get(e)
            out[e] = c if prior is None else tuple(map(add, prior, c))
    return out


#: the fewest term pairs a product needs to multiply on packed keys
PACK_PAIRS = 512


def _layout(bounds):
    """Bit fields packing exponent tuples within the per-variable ``(lo, hi)``
    bounds into ints: ``(shift, mask, lo)`` per variable, the field as wide as
    ``(hi - lo).bit_length()``, and the bias, the key of the least tuple. A
    key is ``sum(e_i << shift_i)``, so keys add as their tuples do, and two
    tuples within the bounds never share one."""
    fields, bias, shift = [], 0, 0
    for lo, hi in bounds:
        width = (hi - lo).bit_length()
        fields.append((shift, (1 << width) - 1, lo))
        bias += lo << shift
        shift += width
    return fields, bias


def _pack(pairs, fields):
    return [(sum([x << s for x, (s, _, _) in zip(e, fields)]), c) for e, c in pairs]


def _unpack(out, fields, bias):
    return {tuple([(((k - bias) >> s) & m) + lo for s, m, lo in fields]): c
            for k, c in out.items()}


def _mul_packed(a, b):
    """Integer product of the packed ``(key, int)`` pairs ``a`` and ``b``,
    ``b`` outer and ``a`` inner, cancelled keys kept as 0."""
    out = {}
    get = out.get
    for k2, c2 in b:
        for k1, c1 in a:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _convolve(a, b):
    """Integer product of two term lists, cancelled terms kept as 0.

    The outer loop runs over ``b``: keys appear in the order of the
    term-by-term product, ``b`` outer and ``a`` inner.

    A product of at least :data:`PACK_PAIRS` term pairs packs each exponent
    tuple into one int (:func:`_layout`, bounded by the two operands' summed
    exponent spans) and unpacks each output key once. On the products of one
    ``verify all --field fp:11``, packing was 1.5-5.9x slower below 128
    pairs, about even up to 511 and twice as fast from 512.
    """
    if len(a) * len(b) >= PACK_PAIRS:
        fields, bias = _layout([(min(ca) + min(cb), max(ca) + max(cb)) for ca, cb in
                                zip(zip(*[e for e, _ in a]), zip(*[e for e, _ in b]))])
        return _unpack(_mul_packed(_pack(a, fields), _pack(b, fields)), fields, bias)
    out = {}
    get = out.get
    for e2, c2 in b:
        for e1, c1 in a:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return out


def _mul_vectors(a, b, field):
    """``(ints, scale)``: the product of the held Q[t]/(m) dicts ``a`` and
    ``b``, ``b`` the shorter, as int vectors over ``scale``. Each vector is
    packed into one int; an output component sums at most ``len(b)`` pairs
    of d products, and each output is reduced mod m at once."""
    d = field.degree
    top = [max(map(abs, chain.from_iterable(t.values())), default=0) for t in (a, b)]
    w = (d * len(b) * top[0] * top[1] * field._mod[1] ** (d - 1)).bit_length() + 3
    shifts = range(0, w * d, w)
    pa, pb = ([(e, sum(map(lshift, u, shifts))) for e, u in t.items()] for t in (a, b))
    return field._reduce_packed(_convolve(pa, pb).items(), w, d - 1)


class MultiPoly:
    """Sparse Laurent polynomial over a fixed VarTable and field, built from
    its ``terms`` or, by :meth:`_from_pair`, from its held ``_pair``; the
    other view is built on first use (:attr:`terms`, :meth:`_held`)."""

    __slots__ = ("table", "field", "_terms", "_pair")

    def __init__(self, table: VarTable, field: FieldSpec, terms: dict | None = None,
                 _clean: bool = True):
        self.table = table
        self.field = field
        if terms is None:
            terms = {}
        if _clean:
            is_zero = field.is_zero
            terms = {e: c for e, c in terms.items() if not is_zero(c)}
        self._terms = terms
        self._pair = None

    # ---------------------------------------------------------- construction

    @classmethod
    def _from_pair(cls, table, field, pair):
        """The held polynomial of the normal-form pair ``(ints, den)``."""
        self = object.__new__(cls)
        self.table, self.field, self._terms, self._pair = table, field, None, pair
        return self

    @classmethod
    def zero(cls, table, field):
        return cls(table, field, {}, _clean=False)

    @classmethod
    def const(cls, table, field, value):
        return cls.monomial(table, field, (0,) * len(table), value)

    @classmethod
    def var(cls, table, field, name, power=1):
        i = table.index(name)
        exps = tuple(power if j == i else 0 for j in range(len(table)))
        return cls(table, field, {exps: field.one}, _clean=False)

    @classmethod
    def gens(cls, table, field):
        """The table's variables, in table order."""
        return tuple(cls.var(table, field, n) for n in table.names)

    @classmethod
    def monomial(cls, table, field, exps, coeff=1):
        raw = field.coerce(coeff)
        if field.is_zero(raw):
            return cls.zero(table, field)
        return cls(table, field, {tuple(exps): raw}, _clean=False)

    # -------------------------------------------------------------- plumbing

    def _same_context(self, other: "MultiPoly"):
        if self.table.names != other.table.names:
            raise VarTableMismatch(
                f"mixing tables {self.table.names} and {other.table.names}")
        if self.field != other.field:
            raise FieldMismatch(f"mixing {self.field} and {other.field}")

    def _coerce_operand(self, other):
        if isinstance(other, MultiPoly):
            self._same_context(other)
            return other
        if isinstance(other, (int, Fraction, FieldElem, tuple)):
            return MultiPoly.const(self.table, self.field, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            other = self._coerce_operand(other)
            if other is NotImplemented:
                return NotImplemented
        if self.table.names != other.table.names or self.field != other.field:
            return False
        if self._pair is not None or other._pair is not None:
            return self._held() == other._held()
        return self._terms == other._terms

    __hash__ = None

    @property
    def terms(self):
        """The raw ``{exps: coefficient}`` dict, each value in the field's own
        normal form; a held polynomial builds it from its pair on first read."""
        terms = self._terms
        if terms is None:
            ints, den = self._pair
            view = Fraction if isinstance(self.field, Rationals) else self.field._from_ints
            self._terms = terms = {e: view(c, den) for e, c in ints.items()}
        return terms

    def _stored(self):
        """A dict with this polynomial's exponents as keys, read only for
        those: ``terms`` if it is built, else the held ints."""
        terms = self._terms
        return self._pair[0] if terms is None else terms

    def _held(self):
        """The held pair of a Q or Q[t]/(m) polynomial, lifted once and kept:
        each term over the lcm of the terms' denominators."""
        pair = self._pair
        if pair is None:
            terms = self._terms
            if isinstance(self.field, Rationals):
                den = lcm(*[c.denominator for c in terms.values()])
                ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
            else:
                den = lcm(*[dv for _, dv in terms.values()])
                ints = {e: u if dv == den else tuple([x * (den // dv) for x in u])
                        for e, (u, dv) in terms.items()}
            self._pair = pair = (ints, den)
        return pair

    def is_zero(self):
        return not self._stored()

    def constant_value(self):
        """Raw coefficient of the constant term (0 if absent)."""
        return self.terms.get((0,) * len(self.table), self.field.zero)

    def is_monomial(self):
        return len(self._stored()) == 1

    def involves(self, name: str) -> bool:
        i = self.table.index(name)
        return any(e[i] != 0 for e in self._stored())

    def __bool__(self):
        return bool(self._stored())

    def __len__(self):
        return len(self._stored())

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other, subtract=False):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        vec = isinstance(self.field, QuotientExtension)
        if vec or self._pair is not None or other._pair is not None:
            (a, da), (b, db) = self._held(), other._held()
            g = gcd(da, db)
            ka, kb = db // g, (-da if subtract else da) // g
            out = dict(a) if ka == 1 else _add_into({}, a.items(), ka, vec)
            return _held_poly(self.table, self.field,
                              _add_into(out, b.items(), kb, vec), da * ka)
        out = _accumulate(dict(self._terms), other._terms.items(), self.field, subtract)
        return MultiPoly(self.table, self.field, out, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        if self._pair is not None:
            return self._scaled(-1, 1, ())
        fneg = self.field.neg
        return MultiPoly(self.table, self.field,
                         {e: fneg(c) for e, c in self._terms.items()}, _clean=False)

    def __sub__(self, other):
        return self.__add__(other, subtract=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._stored(), other._stored()
        if not a or not b:
            return MultiPoly.zero(self.table, self.field)
        if len(a) == 1:
            return other._mul_monomial(self)
        if len(b) == 1:
            return self._mul_monomial(other)
        return self._mul_dict(other)

    __rmul__ = __mul__

    def _mul_monomial(self, mono: "MultiPoly"):
        (me, mc), = mono.terms.items()
        if mc == self.field.one:
            return self.shift_exponents(me)
        if self._pair is None and not isinstance(self.field, QuotientExtension):
            fmul = self.field.mul
            out = {tuple(map(add, e, me)): fmul(c, mc) for e, c in self._terms.items()}
            return MultiPoly(self.table, self.field, out, _clean=False)
        ints, d = mono._held()
        (_, n), = ints.items()
        if type(n) is tuple:  # over Q[t]/(m): a scalar only if n is rational
            if any(n[1:]):
                return self._mul_dict(mono)
            n = n[0]
        return self._scaled(n, d, me)

    def _scaled(self, n, d, delta):
        """This polynomial times ``n/d * x^delta``, held."""
        ints, den = self._held()
        if any(delta):
            ints = {tuple(map(add, e, delta)): c for e, c in ints.items()}
        if n != 1:
            ints = _add_into({}, ints.items(), n, isinstance(self.field, QuotientExtension))
        if d == 1 and n in (1, -1):
            return MultiPoly._from_pair(self.table, self.field, (ints, den))
        return _held_poly(self.table, self.field, ints, den * d)

    def _mul_dict(self, other: "MultiPoly"):
        f = self.field
        if isinstance(f, PrimeField):
            a, b = self._terms, other._terms
            if len(a) < len(b):
                a, b = b, a
            p = f.p
            out = _convolve(list(a.items()), list(b.items()))
            return MultiPoly(self.table, f, {e: r for e, c in out.items() if (r := c % p)},
                             _clean=False)
        (a, da), (b, db) = self._held(), other._held()
        if len(a) < len(b):
            a, b = b, a
        if isinstance(f, Rationals):
            return _held_poly(self.table, f, _convolve(
                list(a.items()), list(b.items())), da * db)
        ints, scale = _mul_vectors(a, b, f)
        return _held_poly(self.table, f, ints, da * db * scale)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return MultiPoly.const(self.table, self.field, 1)
        if len(self) == 1:
            (e, c), = self.terms.items()
            c = c if c == self.field.one else _coeff_power(self.field, c, n)
            return MultiPoly(self.table, self.field, {tuple([n * x for x in e]): c},
                             _clean=False)
        if n < 0:
            what = f"a {len(self)}-term polynomial" if self else "zero"
            raise NegativePowerOfNonMonomial(f"cannot raise {what} to power {n}")
        return _power(MultiPoly.__mul__, self, n)

    def scale(self, value):
        """Multiply by a scalar (raw value, int, Fraction or FieldElem)."""
        c = MultiPoly.const(self.table, self.field, value)
        return self._mul_monomial(c) if c else c

    def shift_exponents(self, delta):
        """Multiply by the monomial with exponent vector ``delta``."""
        delta = tuple(delta)
        if not any(delta):
            return self
        if self._pair is not None:
            return self._scaled(1, 1, delta)
        return MultiPoly(self.table, self.field,
                         {tuple(map(add, e, delta)): c for e, c in self._terms.items()},
                         _clean=False)

    # --------------------------------------------------------------- queries

    def total_degree(self):
        """Max over terms of the exponent sum; None for the zero polynomial."""
        if not self:
            return None
        return max(sum(e) for e in self._stored())

    def degree_in(self, name: str):
        if not self:
            return None
        i = self.table.index(name)
        return max(e[i] for e in self._stored())

    def min_degree_in(self, name: str):
        if not self:
            return None
        i = self.table.index(name)
        return min(e[i] for e in self._stored())

    def sorted_terms(self):
        """Terms in canonical order: graded by exponent sum, then exponent
        tuple, both descending."""
        return sorted(self.terms.items(), key=_term_sort_key, reverse=True)

    def leading_term(self):
        if not self.terms:
            return None
        return max(self.terms.items(), key=_term_sort_key)

    def coefficient_in(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of ``name**power``, as a polynomial with that variable
        cleared."""
        i = self.table.index(name)
        out = {e[:i] + (0,) + e[i + 1:]: c for e, c in self.terms.items() if e[i] == power}
        return MultiPoly(self.table, self.field, out, _clean=False)

    def exponents_in(self, name: str):
        i = self.table.index(name)
        return sorted({e[i] for e in self._stored()})

    def partial_derivative(self, name: str) -> "MultiPoly":
        i = self.table.index(name)
        fmul, coerce, is_zero = self.field.mul, self.field.coerce, self.field.is_zero
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            nc = fmul(c, coerce(k))
            if is_zero(nc):
                continue  # exponent divisible by the characteristic
            out[e[:i] + (k - 1,) + e[i + 1:]] = nc
        return MultiPoly(self.table, self.field, out, _clean=False)

    def evaluate(self, point: dict) -> FieldElem:
        """Evaluate at a full point; values are coerced into the field.

        Negative exponents at a zero coordinate raise
        :class:`NegativeExponentAtZero`.
        """
        f = self.field
        raws = []
        for name in self.table.names:
            if name not in point:
                raise UnexpectedVariable(f"no value supplied for {name!r}")
            raws.append(f.coerce(point[name]))
        total = f.zero
        for e, c in self.terms.items():
            for base, k in zip(raws, e):
                if not k:
                    continue
                if f.is_zero(base):
                    if k < 0:
                        raise NegativeExponentAtZero("negative exponent evaluated at zero")
                    c = f.zero
                    break
                c = f.mul(c, _coeff_power(f, base, k))
            total = f.add(total, c)
        return FieldElem(f, total)

    def set_vars_to_zero(self, names) -> "MultiPoly":
        """Substitute 0 for the listed variables (kills positive powers,
        keeps exponent-0 terms, rejects negative powers)."""
        idxs = [self.table.index(n) for n in names]
        out = {}
        for e, c in self.terms.items():
            bad = [i for i in idxs if e[i] < 0]
            if bad:
                raise NegativeExponentAtZero(
                    f"term with exponents {e} has a negative power of "
                    f"{self.table.names[bad[0]]}")
            if any(e[i] > 0 for i in idxs):
                continue
            out[e] = c
        return MultiPoly(self.table, self.field, out, _clean=False)

    # ------------------------------------------------------------- printing

    def __str__(self):
        from .exprio import to_expr  # local import; exprio imports this module
        return to_expr(self)

    def __repr__(self):
        body = str(self) if len(self) <= 12 else f"<{len(self)} terms>"
        return f"MultiPoly({body!r}, vars={self.table.names}, field={self.field})"


def _held_poly(table, field, ints, den):
    """The held ``sum(ints[e] * x^e) / den`` in normal form: one ``gcd``
    over the denominator and all ints (zero entries leave it unchanged),
    then one pass that divides by it and drops zero entries, if needed."""
    vec = isinstance(field, QuotientExtension)
    g = 1 if den == 1 else gcd(den, *(chain.from_iterable(ints.values()) if vec
                                      else ints.values()))
    if g != 1:
        ints, den = ({e: tuple([x // g for x in v]) for e, v in ints.items() if any(v)} if vec
                     else {e: c // g for e, c in ints.items() if c}), den // g
    elif not all(map(any, ints.values()) if vec else ints.values()):
        ints = {e: c for e, c in ints.items() if (any(c) if vec else c)}
    return MultiPoly._from_pair(table, field, (ints, den))


# --------------------------------------------------------------- operations


def substitute(poly: MultiPoly, images: dict, into: VarTable | None = None
               ) -> MultiPoly:
    """Substitute polynomials for variables.

    ``images`` maps variable names of ``poly`` to MultiPoly values over a
    common target table and over ``poly``'s own field (or to constants); an
    image over another field raises :class:`FieldMismatch`. Variables without
    an image map to themselves, so the target table must contain them by
    name. A variable occurring with a negative exponent must have an
    invertible image: a single term with unit coefficient — anything else
    raises :class:`NonInvertibleImageForLaurentVariable`.

    Single-term images (constants, variables without an image, Laurent
    monomials) are exponent maps: a term ``c * v^k`` with ``v -> m * u^d``
    becomes ``c * m^k * u^(k*d)``, with ``inv(m)`` when ``k < 0``. The mapped
    terms are grouped by their exponents on the variables with multi-term
    images; terms colliding in a group add up, and cancel, before any
    product. The groups are then evaluated by Horner's rule in the first
    multi-term image ``X``, ``sum C_k X^k = (C_n*X + C_(n-1))*X + ... + C_0``,
    where each ``C_k`` is evaluated the same way over the remaining images.
    Over F_p, and over held Q ints that no image scales, an evaluation of at
    least :data:`PACK_PAIRS` estimated pairs (group terms times the longest
    image times the top degree) runs on packed keys (:func:`_packed_horner`).
    """
    f = poly.field
    target = into
    img_polys = {}
    for name, val in images.items():
        poly.table.index(name)  # raises UnexpectedVariable for stray keys
        if isinstance(val, MultiPoly):
            if target is None:
                target = val.table
            elif target.names != val.table.names:
                raise VarTableMismatch(
                    f"images use tables {target.names} and {val.table.names}")
            if val.field != f:
                raise FieldMismatch(f"image of {name!r} lives over {val.field}, not {f}")
        img_polys[name] = val  # a constant is coerced once the table is known
    if target is None:
        target = poly.table
    for name, val in img_polys.items():
        if not isinstance(val, MultiPoly):
            img_polys[name] = MultiPoly.const(target, f, val)

    # one pass over the occurring variables: those without an image keep
    # their name; monomial images act on a term's exponents and coefficient,
    # the other images are evaluated by Horner's rule over groups of terms
    keys = poly._stored()
    one, fmul = f.one, f.mul
    maps, multi = [], []
    for i, name in enumerate(poly.table.names):
        col = {e[i] for e in keys}
        if col <= {0}:
            continue
        img = img_polys[name] if name in img_polys else MultiPoly.var(target, f, name)
        if len(img) == 1:
            (me, mc), = img.terms.items()
            moves = [(j, x) for j, x in enumerate(me) if x]
            maps.append((i, moves, None if mc == one else {1: mc}))
        elif min(col) < 0:
            raise NonInvertibleImageForLaurentVariable(
                f"{name!r} occurs with negative exponent but its image has "
                f"{len(img)} terms")
        else:
            multi.append((i, img))

    # a held polynomial maps its held values when no image scales them
    vec = isinstance(f, QuotientExtension)
    held = (vec or poly._pair is not None) and all(p is None for _, _, p in maps)
    terms, den = poly._held() if held else (poly.terms, None)
    width = len(target)
    grouped: dict[tuple, list] = {}
    for e, c in terms.items():
        exps = [0] * width
        for i, moves, powers in maps:
            k = e[i]
            if k:
                for j, x in moves:
                    exps[j] += k * x
                if powers is not None:
                    ck = powers.get(k)
                    if ck is None:
                        ck = powers[k] = _coeff_power(f, powers[1], k)
                    c = fmul(c, ck)
        key = tuple(e[i] for i, _ in multi)
        grouped.setdefault(key, []).append((tuple(exps), c))
    if not grouped:
        return MultiPoly.zero(target, f)
    groups = {key: _add_into({}, pairs, 1, vec) if held else _accumulate({}, pairs, f)
              for key, pairs in grouped.items()}
    images = [img for _, img in multi]
    if images and (held and not vec or isinstance(f, PrimeField)) and PACK_PAIRS <= (
            sum(map(len, groups.values())) * max(map(len, images)) * max(map(sum, groups))):
        return _packed_horner(groups, images, target, f, den)
    for key, g in groups.items():
        groups[key] = (_held_poly(target, f, g, den) if held
                       else MultiPoly(target, f, g, _clean=False))
    return _horner(groups, images, MultiPoly.__mul__, MultiPoly.__add__)


def _coeff_power(field, c, k):
    """``c**k`` for a raw nonzero field value and a nonzero integer ``k``."""
    if k < 0:
        c, k = field.inv(c), -k
    return _power(field.mul, c, k)


def _power(mul, x, k):
    """``x**k`` for ``k >= 1`` by repeated squaring under the product ``mul``."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


def _horner(groups, images, mul, add):
    """Evaluate ``sum over keys of groups[key] * prod(images[i] ** key[i])``.

    ``groups`` maps exponent tuples on ``images`` (never negative) to
    polynomials; ``mul(acc, image)`` and ``add(acc, c)`` are their product and
    sum, and either may reuse ``acc``. The first image is the Horner
    variable: the coefficient of each of its powers is evaluated recursively
    over the remaining images, then ``((C_n*X + C_{n-1})*X + ...)*X + C_0``
    takes one product by ``X`` per degree.
    """
    if not images:
        return groups[()]
    x, rest = images[0], images[1:]
    by_degree: dict[int, dict] = {}
    for key, terms in groups.items():
        by_degree.setdefault(key[0], {})[key[1:]] = terms
    acc = None
    for k in range(max(by_degree), -1, -1):
        if acc is not None:
            acc = mul(acc, x)
        part = by_degree.get(k)
        if part is not None:
            ck = _horner(part, rest, mul, add)
            acc = ck if acc is None else add(acc, ck)
    return acc


def _packed_horner(groups, images, target, field, den):
    """:func:`_horner` on int dicts with packed keys, for the int groups of
    :func:`substitute`: held ints over ``den`` over Q, residues over F_p.

    One :func:`_layout` covers every partial sum, a group's exponents plus up
    to ``top_i`` (image i's highest power) exponents of each image i. With
    image i held as ints over ``d_i``, a group of key k is scaled by
    ``prod(d_i ** (top_i - k_i))``, so each partial sum is ints over
    ``den * prod(d_i ** top_i)``; each step is one :func:`_mul_packed`,
    taken mod p over F_p, and the result is unpacked and normalised once."""
    prime = isinstance(field, PrimeField)
    xs, dens = zip(*[(img.terms, 1) if prime else img._held() for img in images])
    top = [max(key[i] for key in groups) for i in range(len(images))]
    lo, hi = [0] * len(target), [0] * len(target)
    for exps, t in [(chain.from_iterable(groups.values()), 1), *zip(xs, top)]:
        for v, col in enumerate(zip(*exps)):
            lo[v] += t * min(0, *col)
            hi[v] += t * max(0, *col)
    fields, bias = _layout(zip(lo, hi))
    for key, g in groups.items():
        s = prod([d ** (t - k) for d, t, k in zip(dens, top, key)])
        groups[key] = {k: c * s for k, c in _pack(g.items(), fields)}

    def reduced(out):
        return {k: r for k, c in out.items() if (r := c % field.p)} if prime else out

    acc = _unpack(reduced(_horner(groups, [_pack(x.items(), fields) for x in xs],
                                  lambda acc, x: reduced(_mul_packed(acc.items(), x)),
                                  lambda acc, c: _add_into(acc, c.items(), 1, False))),
                  fields, bias)
    if prime:
        return MultiPoly(target, field, acc, _clean=False)
    return _held_poly(target, field, acc, den * prod([d ** t for d, t in zip(dens, top)]))


def divide_exact(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact division of Laurent polynomials; raises NotDivisible otherwise.

    A single-term divisor is a unit of the Laurent ring, and the quotient is
    the shift ``num * den ** -1``. Otherwise: strip the per-variable monomial
    content off both operands so they become honest polynomials, run
    leading-term long division under the graded order, and re-apply the
    content shift (which may be negative) to the quotient. Because the
    graded order is multiplicative, exactness guarantees every intermediate
    leading term is divisible, so hitting a non-divisible leading term is a
    proof of failure, not a search dead end.
    """
    num._same_context(den)
    if den.is_zero():
        raise DivisionByZero("exact division by the zero polynomial")
    if num.is_zero():
        return MultiPoly.zero(num.table, num.field)
    if len(den) == 1:
        return num * den ** -1

    # per-variable minimum exponent of each operand
    cn, cd = (tuple(map(min, zip(*p.terms))) for p in (num, den))
    shift = tuple(a - b for a, b in zip(cn, cd))
    nn = num.shift_exponents(tuple(-x for x in cn))
    dd = den.shift_exponents(tuple(-x for x in cd))

    f = num.field
    fadd, fmul, fneg, is_zero = f.add, f.mul, f.neg, f.is_zero
    (de, dc), *tail = dd.sorted_terms()
    inv_dc = f.inv(dc)
    rem = dict(nn.terms)
    # max-heap on the graded order: negated (exponent sum, exponents); keys
    # that cancelled or were already reduced are skipped when popped
    heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
    heapify(heap)
    quot: dict[tuple, object] = {}
    while heap:
        re_ = heappop(heap)[2]
        rc = rem.pop(re_, None)
        if rc is None:
            continue
        qe = tuple(a - b for a, b in zip(re_, de))
        if any(x < 0 for x in qe):
            raise NotDivisible(
                f"leading term exponents {re_} not divisible by {de}")
        qc = fmul(rc, inv_dc)
        quot[qe] = qc
        nqc = fneg(qc)
        for e, c in tail:
            e = tuple(map(add, e, qe))
            prior = rem.get(e)
            if prior is None:
                rem[e] = fmul(c, nqc)
                heappush(heap, (-sum(e), tuple(-x for x in e), e))
            else:
                nc = fadd(prior, fmul(c, nqc))
                if is_zero(nc):
                    del rem[e]
                else:
                    rem[e] = nc
    return MultiPoly(num.table, f, quot, _clean=False).shift_exponents(shift)


def truncate_var(f: MultiPoly, bounds: dict) -> MultiPoly:
    """Keep the terms in which some variable named in ``bounds`` has an
    exponent below its bound: ``f`` mod the monomial ``prod(v ** k)``."""
    cols = [(f.table.index(name), k) for name, k in bounds.items()]
    keep = lambda e: any(e[i] < k for i, k in cols)
    if f._pair is not None:
        ints, den = f._pair
        return _held_poly(f.table, f.field, {e: c for e, c in ints.items() if keep(e)}, den)
    return MultiPoly(f.table, f.field, {e: c for e, c in f.terms.items() if keep(e)}, _clean=False)


def residual_mod(f: MultiPoly, g: MultiPoly, name: str, moved: MultiPoly, bounds: dict):
    """``g(moved) - f`` for ``moved`` put in for ``name``, truncated by
    ``bounds`` at every Horner step. Exact when no input inverts a variable
    named in ``bounds``: the dropped terms then form an ideal."""
    moved = truncate_var(moved, bounds)
    acc = MultiPoly.zero(moved.table, moved.field)
    for i in range(g.degree_in(name) or 0, -1, -1):
        acc = truncate_var(acc * moved + g.coefficient_in(name, i), bounds)
    return truncate_var(acc - f, bounds)


def split_negative_parts(f: MultiPoly, a_name: str, b_name: str
                         ) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Three-way split of a Laurent polynomial by the signs of two exponents.

    Returns ``(doubly_negative, b_nonneg, a_nonneg_b_neg)``:

    * ``doubly_negative`` -- terms with both exponents negative;
    * ``b_nonneg``        -- terms with exponent of ``b_name`` >= 0 (this part
      absorbs the terms where neither exponent is negative);
    * ``a_nonneg_b_neg``  -- terms with ``a_name`` >= 0 but ``b_name`` < 0.

    The three parts sum back to ``f``.
    """
    ia, ib = f.table.index(a_name), f.table.index(b_name)
    dneg, b_ok, a_ok = {}, {}, {}
    for e, c in f.terms.items():
        if e[ib] >= 0:
            b_ok[e] = c
        elif e[ia] >= 0:
            a_ok[e] = c
        else:
            dneg[e] = c
    mk = lambda d: MultiPoly(f.table, f.field, d, _clean=False)
    return mk(dneg), mk(b_ok), mk(a_ok)


# ------------------------------------------------------------- memberships


class RingDescriptor(Record):
    """A subring of the Laurent ring cut out by exponent conditions.

    ``lower`` holds a per-variable lower bound (0) or None for no bound;
    ``sums`` holds extra linear conditions ``sum(coeffs * exps) >= rhs`` used
    for rings like the blow-up algebra where only the combined exponent of
    two variables must stay nonnegative.
    """

    __slots__ = ("table", "lower", "sums")

    @classmethod
    def polynomials(cls, table: VarTable):
        return cls(table, (0,) * len(table), ())

    def allow_negative(self, *names):
        idxs = {self.table.index(n) for n in names}
        lower = tuple(None if i in idxs else b for i, b in enumerate(self.lower))
        return RingDescriptor(self.table, lower, self.sums)

    def require_sum(self, names, rhs=0):
        coeffs = [0] * len(self.table)
        for n in names:
            coeffs[self.table.index(n)] = 1
        return RingDescriptor(self.table, self.lower,
                              self.sums + ((tuple(coeffs), rhs),))

    def _offenders(self, poly: MultiPoly, terms):
        """The (exponents, coefficient) pairs of ``terms`` outside the ring,
        lazily, in the order given."""
        if poly.table.names != self.table.names:
            raise VarTableMismatch(
                f"membership check across tables {poly.table.names} vs {self.table.names}")
        lower, sums = self.lower, self.sums
        return ((e, c) for e, c in terms
                if not (all(b is None or x >= b for x, b in zip(e, lower))
                        and all(sum(k * x for k, x in zip(coeffs, e)) >= rhs
                                for coeffs, rhs in sums)))

    def violations(self, poly: MultiPoly):
        """Offending (exponents, coefficient) pairs, in canonical order."""
        return list(self._offenders(poly, poly.sorted_terms()))

    def contains(self, poly: MultiPoly) -> bool:
        """Whether every term lies in the ring; stops at the first that does
        not, without sorting."""
        return next(self._offenders(poly, poly._stored().items()), None) is None
