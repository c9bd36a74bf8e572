"""Sparse exact multivariate Laurent polynomials.

Terms are stored as ``{exponent_tuple: raw_coefficient}`` with exponents
aligned to a :class:`VarTable`. Exponents may be any integers (negative
included); whether a *user* is allowed to write a negative power for a given
variable is an expression-IO concern (the table's ``laurent`` flags), not an
arithmetic one.

Only this module reads that term dict; other modules go through
:class:`MultiPoly` methods. ``MultiPoly.terms`` stays a public dict of
tuple keys because the benchmark reads it.

Coefficients are raw field values (see :mod:`a2bundle.fields`). A product of
two multi-term polynomials runs one integer convolution, :func:`_convolve`,
for every field, with no pass through the field's own ``add``/``mul``. Its
integer coefficients are the residues over F_p; over Q the numerators, and
over Q[t]/(m) each integer vector packed into one int at t = 2^w, both over
one common denominator per operand. Each output becomes one residue mod p,
one ``Fraction``, or one vector reduced mod m in integers with one
``Fraction`` per component. Products of at least :data:`PACK_PAIRS` term pairs also pack
their exponent tuples into ints inside the convolution.

Exact division keeps its remainder in one dictionary and finds each leading
term by popping a heap.

Substitution never raises an image to a power. A single-term image acts on
each term's exponents and coefficient directly. The terms are then grouped
by their exponents on the variables whose images have several terms, and
the groups are evaluated by Horner's rule, one product per degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from operator import add

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NegativeExponentAtZero,
    NegativePowerOfNonMonomial,
    NonInvertibleImageForLaurentVariable,
    NotDivisible,
    NotInAmbientRing,
    UnexpectedVariable,
    VarTableMismatch,
)
from .fields import FieldElem, FieldSpec, PrimeField, Rationals


@dataclass(frozen=True)
class VarTable:
    """Ordered variable names plus which ones may be *written* inverted.

    The ``laurent`` entry is consulted only by the expression parser/printer;
    internally any variable can carry negative exponents.
    """

    names: tuple[str, ...]
    laurent: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise VarTableMismatch(f"duplicate variable names in {self.names}")
        for v in self.laurent:
            if v not in self.names:
                raise UnexpectedVariable(f"laurent flag for unknown variable {v!r}")

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


def _add_exps(e1, e2):
    return tuple(map(add, e1, e2))


def _term_sort_key(item):
    exps, _ = item
    return (sum(exps), exps)


def _accumulate(out, pairs, field, subtract=False):
    """Add (or subtract) the ``(exponents, coefficient)`` pairs into the term
    dict ``out`` in place, dropping keys whose coefficient cancels."""
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


def _lift(terms):
    """Rational terms as ``([(exps, int numerator)], common denominator)``."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return [(e, c.numerator) for e, c in terms.items()], 1
    return [(e, c.numerator * (den // c.denominator))
            for e, c in terms.items()], den


#: the fewest term pairs a product needs to multiply on packed keys
PACK_PAIRS = 512


def _convolve(a, b):
    """Integer product of two term lists, cancelled terms kept as 0.

    The outer loop runs over ``b``: keys appear in the order of the
    term-by-term product, ``b`` outer and ``a`` inner.

    A product of at least :data:`PACK_PAIRS` term pairs packs each exponent
    tuple into one int and unpacks each output key once. Each variable gets a
    bit field as wide as the ``bit_length`` of the two operands' summed
    exponent spans, read biased by the least exponent sum, so no field
    overflows. On the products of one ``verify all --field fp:11``, packing
    was 1.5-5.9x slower below 128 pairs, about even up to 511 and twice as
    fast from 512.
    """
    out = {}
    get = out.get
    if len(a) * len(b) < PACK_PAIRS:
        for e2, c2 in b:
            for e1, c1 in a:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return out
    fields, bias, shift = [], 0, 0
    for col_a, col_b in zip(zip(*[e for e, _ in a]), zip(*[e for e, _ in b])):
        lo = min(col_a) + min(col_b)
        width = (max(col_a) + max(col_b) - lo).bit_length()
        fields.append((shift, (1 << width) - 1, lo))
        bias += lo << shift
        shift += width
    pa = [(sum([x << s for x, (s, _, _) in zip(e, fields)]), c) for e, c in a]
    for e2, c2 in b:
        k2 = sum([x << s for x, (s, _, _) in zip(e2, fields)])
        for k1, c1 in pa:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {tuple([(((k - bias) >> s) & m) + lo for s, m, lo in fields]): c
            for k, c in out.items()}


def _pack_vectors(a, b, d):
    """Extension-field terms of both operands as ``(w, denominator, packed a,
    packed b)``: each operand's coefficient tuples are lifted to integer
    vectors ``u`` over one common denominator and packed into ints ``u(2^w)``.
    An output component sums at most ``min(len(a), len(b))`` pairs of ``d``
    products, so ``w``, one bit wider than that bound, leaves no carry."""
    lifted, den, bound = [], 1, d * min(len(a), len(b))
    for terms in (a, b):
        dt = lcm(*[x.denominator for v in terms.values() for x in v])
        lifted.append([(e, [x.numerator * (dt // x.denominator) for x in v])
                       for e, v in terms.items()])
        bound *= max([abs(x) for _, u in lifted[-1] for x in u], default=0)
        den *= dt
    w = bound.bit_length() + 1
    return w, den, *[[(e, sum([x << (w * i) for i, x in enumerate(u)])) for e, u in terms]
                   for terms in lifted]


def _digits(s, w, n):
    """The ``n`` signed base-``2**w`` digits of ``s``, lowest first."""
    half, mask, out = 1 << (w - 1), (1 << w) - 1, []
    for _ in range(n):
        out.append(((s + half) & mask) - half)
        s = (s - out[-1]) >> w
    return out


class MultiPoly:
    """Sparse Laurent polynomial over a fixed VarTable and field."""

    __slots__ = ("table", "field", "terms")

    def __init__(self, table: VarTable, field: FieldSpec, terms: dict | None = None,
                 _clean: bool = True):
        self.table = table
        self.field = field
        if terms is None:
            terms = {}
        if _clean:
            is_zero = field.is_zero
            terms = {e: c for e, c in terms.items() if not is_zero(c)}
        self.terms = terms

    # ---------------------------------------------------------- construction

    @classmethod
    def zero(cls, table, field):
        return cls(table, field, {}, _clean=False)

    @classmethod
    def const(cls, table, field, value):
        raw = field.coerce(value)
        if field.is_zero(raw):
            return cls.zero(table, field)
        return cls(table, field, {(0,) * len(table): raw}, _clean=False)

    @classmethod
    def var(cls, table, field, name, power=1):
        i = table.index(name)
        exps = tuple(power if j == i else 0 for j in range(len(table)))
        return cls(table, field, {exps: field.one}, _clean=False)

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
        return (self.table.names == other.table.names
                and self.field == other.field
                and self.terms == other.terms)

    __hash__ = None

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        """Raw coefficient of the constant term (0 if absent)."""
        return self.terms.get((0,) * len(self.table), self.field.zero)

    def is_monomial(self):
        return len(self.terms) == 1

    def involves(self, name: str) -> bool:
        i = self.table.index(name)
        return any(e[i] != 0 for e in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other, subtract=False):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        _accumulate(out, other.terms.items(), self.field, subtract)
        return MultiPoly(self.table, self.field, out, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        fneg = self.field.neg
        return MultiPoly(self.table, self.field,
                         {e: fneg(c) for e, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        return self.__add__(other, subtract=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.table, self.field)
        if len(self.terms) == 1:
            return other._mul_monomial(self)
        if len(other.terms) == 1:
            return self._mul_monomial(other)
        return self._mul_dict(other)

    __rmul__ = __mul__

    def _mul_monomial(self, mono: "MultiPoly"):
        (me, mc), = mono.terms.items()
        if mc == self.field.one:
            return self.shift_exponents(me)
        fmul = self.field.mul
        return MultiPoly(self.table, self.field,
                         {_add_exps(e, me): fmul(c, mc) for e, c in self.terms.items()},
                         _clean=False)

    def _mul_dict(self, other: "MultiPoly"):
        f = self.field
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if isinstance(f, Rationals):
            ai, da = _lift(a)
            bi, db = _lift(b)
            out = _convolve(ai, bi)
            den = da * db
            terms = {e: Fraction(c, den) for e, c in out.items() if c}
        elif isinstance(f, PrimeField):
            p = f.p
            out = _convolve(list(a.items()), list(b.items()))
            terms = {e: r for e, c in out.items() if (r := c % p)}
        else:
            w, den, ai, bi = _pack_vectors(a, b, f.degree)
            out = _convolve(ai, bi)
            n, from_ints, zero = 2 * f.degree - 1, f._from_ints, f.zero
            terms = {e: r for e, s in out.items()
                     if (r := from_ints(_digits(s, w, n), den)) is not zero}
        return MultiPoly(self.table, f, terms, _clean=False)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return MultiPoly.const(self.table, self.field, 1)
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            c = c if c == self.field.one else _coeff_power(self.field, c, n)
            return MultiPoly(self.table, self.field, {tuple([n * x for x in e]): c},
                             _clean=False)
        if n < 0:
            raise NegativePowerOfNonMonomial(
                f"cannot raise a {len(self.terms)}-term polynomial to power {n}")
        return _power(MultiPoly.__mul__, self, n)

    def scale(self, value):
        """Multiply by a scalar (raw value, int, Fraction or FieldElem)."""
        raw = self.field.coerce(value)
        if self.field.is_zero(raw):
            return MultiPoly.zero(self.table, self.field)
        fmul = self.field.mul
        return MultiPoly(self.table, self.field,
                         {e: fmul(c, raw) for e, c in self.terms.items()}, _clean=False)

    def shift_exponents(self, delta):
        """Multiply by the monomial with exponent vector ``delta``."""
        delta = tuple(delta)
        if not any(delta):
            return self
        return MultiPoly(self.table, self.field,
                         {_add_exps(e, delta): c for e, c in self.terms.items()},
                         _clean=False)

    # --------------------------------------------------------------- queries

    def total_degree(self):
        """Max over terms of the exponent sum; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str):
        if not self.terms:
            return None
        i = self.table.index(name)
        return max(e[i] for e in self.terms)

    def min_degree_in(self, name: str):
        if not self.terms:
            return None
        i = self.table.index(name)
        return min(e[i] for e in self.terms)

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
        out = {}
        for e, c in self.terms.items():
            if e[i] == power:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return MultiPoly(self.table, self.field, out, _clean=False)

    def exponents_in(self, name: str):
        i = self.table.index(name)
        return sorted({e[i] for e in self.terms})

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
        vals = {}
        for name in self.table.names:
            if name not in point:
                raise UnexpectedVariable(f"no value supplied for {name!r}")
            vals[name] = f.coerce(point[name])
        raws = [vals[n] for n in self.table.names]
        total = f.zero
        for e, c in self.terms.items():
            acc = c
            for base, k in zip(raws, e):
                if k == 0:
                    continue
                if f.is_zero(base):
                    if k < 0:
                        raise NegativeExponentAtZero(
                            "negative exponent evaluated at zero")
                    acc = f.zero
                    break
                b = base if k > 0 else f.inv(base)
                for _ in range(abs(k)):
                    acc = f.mul(acc, b)
            total = f.add(total, acc)
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
        body = str(self) if len(self.terms) <= 12 else f"<{len(self.terms)} terms>"
        return f"MultiPoly({body!r}, vars={self.table.names}, field={self.field})"


# --------------------------------------------------------------- operations


def substitute(poly: MultiPoly, images: dict, into: VarTable | None = None,
               field: FieldSpec | None = None) -> MultiPoly:
    """Substitute polynomials for variables.

    ``images`` maps variable names of ``poly`` to MultiPoly values over a
    common target table (or to constants). Variables without an image map to
    themselves, so the target table must contain them by name. A variable
    occurring with a negative exponent must have an invertible image: a
    single term with unit coefficient — anything else raises
    :class:`NonInvertibleImageForLaurentVariable`.

    Single-term images (constants, variables without an image, Laurent
    monomials) are exponent maps: a term ``c * v^k`` with ``v -> m * u^d``
    becomes ``c * m^k * u^(k*d)``, with ``inv(m)`` when ``k < 0``. The mapped
    terms are grouped by their exponents on the variables with multi-term
    images; terms colliding in a group add up, and cancel, before any
    product. The groups are then evaluated by Horner's rule in the first
    multi-term image ``X``, ``sum C_k X^k = (C_n*X + C_(n-1))*X + ... + C_0``,
    where each ``C_k`` is evaluated the same way over the remaining images.
    """
    f = field or poly.field
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
            img_polys[name] = val
        else:
            img_polys[name] = val  # constant; coerced once the table is known
    if target is None:
        target = poly.table
    for name, val in img_polys.items():
        if not isinstance(val, MultiPoly):
            img_polys[name] = MultiPoly.const(target, f, val)

    # variables that keep their own name
    n = len(poly.table)
    for i, name in enumerate(poly.table.names):
        if name not in img_polys and any(e[i] for e in poly.terms):
            img_polys[name] = MultiPoly.var(target, f, name)

    # Laurent safety check
    neg_vars = set()
    for e in poly.terms:
        for i, k in enumerate(e):
            if k < 0:
                neg_vars.add(poly.table.names[i])
    for name in neg_vars:
        img = img_polys[name]
        if not img.is_monomial():
            raise NonInvertibleImageForLaurentVariable(
                f"{name!r} occurs with negative exponent but its image has "
                f"{len(img.terms)} terms")

    # monomial images act on a term's exponents and coefficient; the other
    # images are evaluated by Horner's rule over groups of terms
    names = poly.table.names
    one, fmul, is_zero = f.one, f.mul, f.is_zero
    maps, multi = [], []
    for i in range(n):
        if not any(e[i] for e in poly.terms):
            continue
        img = img_polys[names[i]]
        if len(img.terms) == 1:
            (me, mc), = img.terms.items()
            moves = [(j, x) for j, x in enumerate(me) if x]
            maps.append((i, moves, None if mc == one else {1: mc}))
        else:
            multi.append((i, img))

    coerce = None if poly.field == f else f.coerce
    width = len(target)
    grouped: dict[tuple, list] = {}
    for e, c in poly.terms.items():
        if coerce is not None:
            c = coerce(c)
            if is_zero(c):
                continue
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
    groups = {}
    for key, pairs in grouped.items():
        groups[key] = terms = {}
        _accumulate(terms, pairs, f)
    return _horner(groups, [img for _, img in multi], target, f)


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


def _horner(groups, images, target, field):
    """Evaluate ``sum over keys of groups[key] * prod(images[i] ** key[i])``.

    ``groups`` maps exponent tuples on ``images`` (never negative) to term
    dicts over ``target``. The first image is the Horner variable: the
    coefficient of each of its powers is evaluated recursively over the
    remaining images, then ``((C_n*X + C_{n-1})*X + ...)*X + C_0`` takes
    one product by ``X`` per degree.
    """
    if not images:
        return MultiPoly(target, field, groups[()], _clean=False)
    x, rest = images[0], images[1:]
    by_degree: dict[int, dict] = {}
    for key, terms in groups.items():
        by_degree.setdefault(key[0], {})[key[1:]] = terms
    acc = None
    for k in range(max(by_degree), -1, -1):
        if acc is not None:
            acc = acc * x
        sub = by_degree.get(k)
        if sub is not None:
            ck = _horner(sub, rest, target, field)
            acc = ck if acc is None else acc + ck
    return acc


def divide_exact(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact division of Laurent polynomials; raises NotDivisible otherwise.

    Strategy: strip the per-variable monomial content off both operands so
    they become honest polynomials, run leading-term long division under the
    graded order, and re-apply the content shift (which may be negative) to
    the quotient. Because the graded order is multiplicative, exactness
    guarantees every intermediate leading term is divisible, so hitting a
    non-divisible leading term is a proof of failure, not a search dead end.
    """
    num._same_context(den)
    if den.is_zero():
        raise DivisionByZero("exact division by the zero polynomial")
    if num.is_zero():
        return MultiPoly.zero(num.table, num.field)

    def content(p):
        mins = None
        for e in p.terms:
            mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
        return mins

    cn, cd = content(num), content(den)
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


def congruent_mod_power(f: MultiPoly, g: MultiPoly, name: str, k: int,
                        ambient: "RingDescriptor | None" = None) -> bool:
    """True iff f - g lies in the ideal (name**k), i.e. every term of the
    difference carries exponent >= k on that variable.

    The difference must have nonnegative exponents in ``name`` (congruences
    are only meaningful where the variable is not inverted); if ``ambient``
    is given the difference must lie in that ring. Violations raise
    :class:`NotInAmbientRing`.
    """
    diff = f - g
    i = f.table.index(name)
    if any(e[i] < 0 for e in diff.terms):
        raise NotInAmbientRing(
            f"difference has a negative power of {name!r}; congruence mod "
            f"{name}^{k} is not defined")
    if ambient is not None and not ambient.contains(diff):
        bad = ambient.violations(diff)[0]
        raise NotInAmbientRing(
            f"difference leaves the ambient ring at exponents {bad[0]}")
    return all(e[i] >= k for e in diff.terms)


def truncate_var(f: MultiPoly, name: str, k: int) -> MultiPoly:
    """Drop all terms with exponent >= k on the named variable."""
    i = f.table.index(name)
    return MultiPoly(f.table, f.field,
                     {e: c for e, c in f.terms.items() if e[i] < k}, _clean=False)


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


@dataclass(frozen=True)
class RingDescriptor:
    """A subring of the Laurent ring cut out by exponent conditions.

    ``lower`` holds a per-variable lower bound (0) or None for no bound;
    ``sums`` holds extra linear conditions ``sum(coeffs * exps) >= rhs`` used
    for rings like the blow-up algebra where only the combined exponent of
    two variables must stay nonnegative.
    """

    table: VarTable
    lower: tuple
    sums: tuple = ()

    @classmethod
    def polynomials(cls, table: VarTable):
        return cls(table, (0,) * len(table))

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
        return next(self._offenders(poly, poly.terms.items()), None) is None
