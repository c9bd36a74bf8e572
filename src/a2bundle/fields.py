"""Exact coefficient fields: Q, F_p, and quadratic/cubic extensions of Q.

Raw element values are deliberately lightweight so the polynomial layer can
store them directly in term dictionaries:

* rationals      -> ``fractions.Fraction``
* prime fields   -> ``int`` residue in ``[0, p)``
* Q[t]/(m(t))    -> ``tuple[Fraction, ...]`` of length deg(m) (low to high)

A :class:`FieldSpec` bundles the operations on raw values; :class:`FieldElem`
is the small wrapper used at API boundaries.
All arithmetic is exact; nothing here ever touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import BadFieldSpec, DivisionByZero, FieldMismatch


#: Miller-Rabin with the prime bases 2..41 is deterministic below this bound
#: (Sorenson and Webster, 2015); at or above it no answer is given
_MR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n < _MR_BOUND``; raises BadFieldSpec
    at or above the bound instead of guessing."""
    if n >= _MR_BOUND:
        raise BadFieldSpec(
            f"{n} is too large: primality is only decided below {_MR_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Common interface of the three concrete field kinds."""

    def elem(self, value) -> "FieldElem":
        return FieldElem(self, self.coerce(value))

    # concrete specs implement: zero, one, characteristic, coerce, add, sub,
    # mul, neg, inv, div, is_zero, to_str, coeff_str, descriptor


@dataclass(frozen=True)
class Rationals(FieldSpec):
    """The rational numbers with arbitrary-precision Fraction arithmetic."""

    zero = Fraction(0)
    one = Fraction(1)
    characteristic = 0

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, FieldElem):
            if value.spec != self:
                raise FieldMismatch(f"cannot coerce element of {value.spec} into Q")
            return value.value
        raise FieldMismatch(f"cannot interpret {value!r} as a rational")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0 in Q")
        return a / b

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def coeff_str(self, a):
        """(is_negative, printed absolute value, needs_parens) for printing."""
        return a < 0, str(abs(a)), False

    def descriptor(self):
        return "q"

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField(FieldSpec):
    """F_p for a prime p; elements are canonical residues in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise BadFieldSpec(f"{self.p} is not prime")

    zero = 0
    one = 1

    @property
    def characteristic(self):
        return self.p

    def coerce(self, value):
        if isinstance(value, FieldElem):
            if value.spec != self:
                raise FieldMismatch(f"cannot coerce element of {value.spec} into F_{self.p}")
            return value.value
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        raise FieldMismatch(f"cannot interpret {value!r} as an element of F_{self.p}")

    def from_fraction(self, q: Fraction):
        den = q.denominator % self.p
        if den == 0:
            raise DivisionByZero(f"denominator {q.denominator} vanishes in F_{self.p}")
        return q.numerator * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def coeff_str(self, a):
        return False, str(a % self.p), False

    def descriptor(self):
        return f"fp:{self.p}"

    def __str__(self):
        return f"F_{self.p}"


def _rational_roots_exist(coeffs: tuple[Fraction, ...]) -> bool:
    """True iff the polynomial (low-to-high coefficients, degree 2 or 3) has a
    rational root; enough to decide irreducibility over Q in these degrees.

    The work grows with the number of digits, not with their value: a
    quadratic has a rational root iff its discriminant is a square, and
    ``X = c3*r`` turns each rational root ``r`` of a cubic into an integer
    root of the monic ``h`` below, found by bisection on its monotone pieces.
    """
    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    if len(ints) == 3:
        disc = ints[1] ** 2 - 4 * ints[0] * ints[2]
        return disc >= 0 and isqrt(disc) ** 2 == disc
    c0, c1, b, c3 = ints
    c, d = c1 * c3, c0 * c3 * c3
    h = lambda x: ((x + b) * x + c) * x + d

    def root_in(lo, hi, sign):  # sign * h is nondecreasing on lo..hi
        while lo <= hi:
            mid = (lo + hi) // 2
            v = sign * h(mid)
            if v == 0:
                return True
            lo, hi = (mid + 1, hi) if v < 0 else (lo, mid - 1)
        return False

    bound = 1 + max(abs(b), abs(c), abs(d))  # Cauchy's bound on the roots
    disc = b * b - 3 * c
    if disc <= 0:  # h' >= 0 everywhere
        return root_in(-bound, bound, 1)
    # h' vanishes at (-b -+ sqrt(disc))/3, within 1/3 above (-b-s-1)/3 and
    # (-b+s)/3: h rises to lo1, falls on hi1..lo2 and rises from hi2, and
    # each gap between the pieces holds at most one integer
    s = isqrt(disc)
    lo1, hi1 = (-b - s - 1) // 3, -((b + s) // 3)
    lo2, hi2 = (s - b) // 3, -((b - s - 1) // 3)
    return (any(h(x) == 0 for x in (*range(lo1 + 1, hi1), *range(lo2 + 1, hi2)))
            or root_in(-bound, lo1, 1) or root_in(hi1, lo2, -1)
            or root_in(hi2, bound, 1))


def _power_rows(minpoly, top):
    """``(den, rows)``: t^d, ..., t^top modulo the monic ``minpoly`` of degree
    d, each as the nonzero ``(i, int)`` components of ``den`` times its
    residue, over one common denominator ``den``."""
    d = len(minpoly) - 1
    row = [-c for c in minpoly[:d]]  # t^d
    fracs = []
    for _ in range(d, top + 1):
        fracs.append(row)
        row = [Fraction(0)] + row[:-1]
        lead = fracs[-1][-1]
        row = [x - lead * c for x, c in zip(row, minpoly)]
    den = lcm(*[x.denominator for r in fracs for x in r])
    return den, [[(i, int(x * den)) for i, x in enumerate(r) if x]
                 for r in fracs]


@dataclass(frozen=True)
class QuotientExtension(FieldSpec):
    """Q[t]/(m(t)) for an irreducible m of degree 2 or 3.

    ``minpoly`` stores the *monic* generator low-to-high; the constructor
    accepts any nonzero leading coefficient and normalizes (so 5t^2 - 1 and
    t^2 - 1/5 describe the same field). Irreducibility is decided by the
    rational root test, which is complete in these degrees; higher degrees
    are rejected.
    """

    minpoly: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.minpoly)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        deg = len(coeffs) - 1
        if deg < 2:
            raise BadFieldSpec("minimal polynomial must have degree >= 2")
        if deg > 3:
            raise BadFieldSpec("minimal polynomials of degree > 3 are not supported")
        lead = coeffs[-1]
        coeffs = tuple(c / lead for c in coeffs)
        if _rational_roots_exist(coeffs):
            raise BadFieldSpec("minimal polynomial is reducible over Q (rational root)")
        object.__setattr__(self, "minpoly", coeffs)
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "zero", (Fraction(0),) * deg)
        object.__setattr__(self, "one", (Fraction(1),) + self.zero[1:])
        object.__setattr__(self, "_rows", _power_rows(coeffs, 2 * deg - 2))

    @property
    def generator(self):
        """The class of t."""
        return tuple(Fraction(1) if i == 1 else Fraction(0) for i in range(self.degree))

    characteristic = 0

    def coerce(self, value):
        if isinstance(value, FieldElem):
            if value.spec != self:
                raise FieldMismatch(f"cannot coerce element of {value.spec} into {self}")
            return value.value
        if isinstance(value, (int, Fraction)):
            return (Fraction(value),) + self.zero[1:]
        if isinstance(value, tuple):
            vals = [Fraction(c) for c in value]
            if len(vals) > self.degree:
                return self._reduce(vals)
            return tuple(vals) + self.zero[len(vals):]
        raise FieldMismatch(f"cannot interpret {value!r} as an element of {self}")

    def _from_ints(self, v, den):
        """The element ``sum(v[i] * t^i) / den`` for an integer vector ``v`` of
        any length: one integer pass against the rows of t^d, t^(d+1), ...
        mod m, then one ``Fraction`` per nonzero component. A zero result is
        the ``zero`` constant itself."""
        d, zero = self.degree, self.zero
        out = list(v[:d]) + [0] * (d - len(v))
        if len(v) > d:
            scale, rows = (self._rows if len(v) < 2 * d
                           else _power_rows(self.minpoly, len(v) - 1))
            if scale != 1:
                out = [x * scale for x in out]
                den *= scale
            for c, row in zip(v[d:], rows):
                if c:
                    for i, r in row:
                        out[i] += c * r
        if not any(out):
            return zero
        return tuple([Fraction(x, den) if x else zero[0] for x in out])

    def _reduce(self, coeffs):
        """Reduce a list of rational coefficients (any length) modulo the
        minpoly."""
        den = lcm(*[c.denominator for c in coeffs])
        return self._from_ints(
            [c.numerator * (den // c.denominator) for c in coeffs], den)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        da = lcm(*[x.denominator for x in a])
        db = lcm(*[y.denominator for y in b])
        w = [y.numerator * (db // y.denominator) for y in b]
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                x = x.numerator * (da // x.denominator)
                for j, y in enumerate(w):
                    prod[i + j] += x * y
        return self._from_ints(prod, da * db)

    def is_zero(self, a):
        return not any(a)

    def inv(self, a):
        """Extended Euclid in Q[t] against the minimal polynomial."""
        if self.is_zero(a):
            raise DivisionByZero(f"inverse of 0 in {self}")
        # run extended Euclid on (minpoly, a), tracking only the s-cofactor
        # of a since we never need the minpoly cofactor
        r0 = [Fraction(c) for c in self.minpoly]
        r1 = [Fraction(c) for c in a]
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def _trim(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        def _sub_scaled(p, q, c, shift):
            # p -= c * t^shift * q, in place
            while len(p) < len(q) + shift:
                p.append(Fraction(0))
            for i, qc in enumerate(q):
                p[i + shift] -= c * qc
            return _trim(p)

        r0, r1 = _trim(r0), _trim(r1)
        while len(r1) > 1:
            # divide r0 by r1, folding the quotient into the s-cofactors
            while len(r0) >= len(r1) and r0:
                c = r0[-1] / r1[-1]
                shift = len(r0) - len(r1)
                r0 = _sub_scaled(r0, r1, c, shift)
                s0 = _sub_scaled(s0, s1, c, shift)
            r0, r1 = r1, r0
            s0, s1 = s1, s0
        if not r1:
            raise DivisionByZero("element shares a factor with the minimal polynomial")
        c = r1[0]
        inv = [x / c for x in s1]
        return self._reduce(inv)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def to_str(self, a):
        neg, body, parens = self.coeff_str(a)
        s = ("-" if neg else "") + body
        return s

    def coeff_str(self, a):
        """(is_negative, abs-value string in t, needs_parens).

        The sign is the sign of the highest nonzero t-coefficient, so that
        the polynomial printer can pull it into the +/- joiner.
        """
        terms = [(k, c) for k, c in enumerate(a) if c != 0]
        if not terms:
            return False, "0", False
        lead_neg = terms[-1][1] < 0
        sign = -1 if lead_neg else 1
        pieces = []
        for k, c in reversed(terms):
            c = c * sign
            if k == 0:
                body = str(abs(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            pieces.append((c < 0, body))
        out = pieces[0][1]
        for negative, body in pieces[1:]:
            out += (" - " if negative else " + ") + body
        needs_parens = len(pieces) > 1
        return lead_neg, out, needs_parens

    def descriptor(self):
        # minpoly is monic by construction so never prints a leading minus
        _, body, _ = self.coeff_str(self.minpoly)
        return "ext:" + body.replace(" ", "")

    def __str__(self):
        return f"Q[t]/({self.descriptor()[4:]})"


QQ = Rationals()


@dataclass(frozen=True)
class FieldElem:
    """A field element tagged with its field; thin wrapper over raw values."""

    spec: FieldSpec
    value: object

    def _check(self, other):
        if not isinstance(other, FieldElem):
            other = self.spec.elem(other)
        if other.spec != self.spec:
            raise FieldMismatch(f"mixing elements of {self.spec} and {other.spec}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElem(self.spec, self.spec.add(self.value, other.value))

    def __sub__(self, other):
        other = self._check(other)
        return FieldElem(self.spec, self.spec.sub(self.value, other.value))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElem(self.spec, self.spec.mul(self.value, other.value))

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElem(self.spec, self.spec.div(self.value, other.value))

    def __neg__(self):
        return FieldElem(self.spec, self.spec.neg(self.value))

    def is_zero(self):
        return self.spec.is_zero(self.value)

    def __str__(self):
        return self.spec.to_str(self.value)
