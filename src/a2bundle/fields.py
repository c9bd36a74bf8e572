"""Exact coefficient fields: Q, F_p, and quadratic/cubic extensions of Q.

Raw element values are deliberately lightweight so the polynomial layer can
store them directly in term dictionaries:

* rationals      -> ``fractions.Fraction`` (a Q polynomial may hold its
  terms as ints over one denominator instead; see :mod:`a2bundle.poly`)
* prime fields   -> ``int`` residue in ``[0, p)``
* Q[t]/(m(t))    -> ``(ints, den)``: the residue's deg(m) coefficients (low
  to high) times ``den``, as ints over a positive int ``den``, with
  ``gcd(den, *ints) == 1`` (a polynomial's terms may share one denominator
  instead; see :mod:`a2bundle.poly`), printed as a polynomial in t over Q
  by :func:`a2bundle.exprio.to_expr`

A :class:`FieldSpec` bundles the operations on raw values; :class:`FieldElem`
is the small wrapper used at API boundaries.
All arithmetic is exact; nothing here ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import lshift

from .errors import BadFieldSpec, DivisionByZero, FieldMismatch, Record


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


class FieldSpec(Record):
    """Common interface of the three concrete field kinds."""

    __slots__ = ()

    def elem(self, value) -> "FieldElem":
        return FieldElem(self, self.coerce(value))

    # concrete specs implement: zero, one, characteristic, coerce, add, sub,
    # mul, neg, inv, div, is_zero, coeff_str, descriptor


class Rationals(FieldSpec):
    """The rational numbers with arbitrary-precision Fraction arithmetic."""

    __slots__ = ()
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
        return Fraction(a.denominator, a.numerator)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0 in Q")
        return a / b

    def is_zero(self, a):
        return a == 0

    def coeff_str(self, a):
        """(is_negative, printed absolute value, needs_parens) for printing."""
        return a < 0, str(abs(a)), False

    def descriptor(self):
        return "q"

    def __str__(self):
        return "Q"


class PrimeField(FieldSpec):
    """F_p for a prime p; elements are canonical residues in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise BadFieldSpec(f"{p} is not prime")
        super().__init__(p)

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


def _in_t(coeffs):
    """The rational ``coeffs``, low to high, as a polynomial in t over Q,
    printed by :func:`a2bundle.exprio.to_expr`."""
    from .exprio import to_expr  # local import; exprio imports this module
    from .poly import MultiPoly, VarTable
    return to_expr(MultiPoly(VarTable(("t",)), QQ, {(k,): c for k, c in enumerate(coeffs)}))


class QuotientExtension(FieldSpec):
    """Q[t]/(m(t)) for an irreducible m of degree 2 or 3.

    ``minpoly`` stores the *monic* generator low-to-high; the constructor
    accepts any nonzero leading coefficient and normalizes (so 5t^2 - 1 and
    t^2 - 1/5 describe the same field). Irreducibility is decided by the
    rational root test, which is complete in these degrees; higher degrees
    are rejected.

    A raw element is the pair ``(ints, den)``: the d = deg(m) coefficients
    of its residue, low to high, times ``den``, over the least positive
    ``den`` that makes them ints. That form is unique, so ``==`` on raw
    values is element equality. ``zero`` is ``((0,) * d, 1)``, and every
    zero result is that constant. Element arithmetic runs on ints with at
    most one ``gcd`` per result; ``Fraction`` appears only in ``coerce``,
    ``inv`` and ``coeff_str``. Polynomials hold int vectors over one
    denominator and call none of these for sums or products. ``_mod`` is the
    primitive integer multiple of m, low to high, and ``L + C``: its leading
    coefficient plus the largest absolute value of the others.
    """

    __slots__ = ("minpoly", "degree", "zero", "one", "generator", "_mod")

    def __init__(self, minpoly: tuple[Fraction, ...]):
        coeffs = tuple(Fraction(c) for c in minpoly)
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
        zeros = (0,) * deg
        den = lcm(*[c.denominator for c in coeffs])  # m * den is primitive
        ints = [int(c * den) for c in coeffs]
        super().__init__(coeffs, deg, (zeros, 1), ((1,) + zeros[1:], 1),
                         ((0, 1) + zeros[2:], 1), (ints, den + max(map(abs, ints[:-1]))))

    def _key(self):  # the other slots are derived from minpoly
        return (self.minpoly,)

    characteristic = 0

    def coerce(self, value):
        """A raw value from an int, a Fraction, a raw ``(ints, den)`` pair,
        a tuple of rational coefficients low to high (reduced mod m when
        longer than d) or a FieldElem of this field."""
        if isinstance(value, FieldElem):
            if value.spec != self:
                raise FieldMismatch(f"cannot coerce element of {value.spec} into {self}")
            return value.value
        if isinstance(value, (int, Fraction)):
            return self._from_ints([value.numerator], value.denominator)
        if isinstance(value, tuple):
            if len(value) == 2 and isinstance(value[0], tuple):
                return self._from_ints(*value)
            return self._reduce([Fraction(c) for c in value])
        raise FieldMismatch(f"cannot interpret {value!r} as an element of {self}")

    def _reduce_packed(self, items, w, k):
        """``({key: r}, L^k)`` for ``(key, u(2^w))`` items: ``r`` is the
        pseudo-remainder of ``L^k * u`` by the primitive integer ``m`` for an
        int vector ``u`` of length d + k. Each of the k steps multiplies the
        components' bound by at most ``L + C``; with ``w`` 3 bits above the
        result, ``L^k * u(2^w)`` mod ``m(2^w)`` is the balanced ``r(2^w)``,
        whose d signed digits, each offset by ``2^(w-1)``, are plain bit
        fields. Zeros are left out."""
        m, shifts = self._mod[0], range(0, w * self.degree, w)
        mod, half, mask, scale = (sum(map(lshift, m, range(0, w * len(m), w))), 1 << (w - 1),
                                  (1 << w) - 1, m[-1] ** k)
        bias, zero = mod >> 1, sum(map(lshift, [half] * self.degree, shifts))
        out, off = {}, zero - bias
        for key, s in items:
            r = (s * scale + bias) % mod + off
            if r != zero:
                out[key] = tuple([((r >> i) & mask) - half for i in shifts])
        return out, scale

    def _from_ints(self, v, den):
        """The element ``sum(v[i] * t^i) / den`` for an integer vector ``v`` of
        any length and a positive ``den``: pseudo-division by the primitive
        integer ``m``, one step per coefficient past the d-th, then one
        ``gcd`` to bring the pair to normal form. A zero result is the
        ``zero`` constant itself."""
        m, d = self._mod[0], self.degree
        v = list(v) + [0] * (d - len(v))
        while len(v) > d:
            top = v.pop()
            if top:
                v = [x * m[-1] for x in v]
                for i, c in enumerate(m[:-1], len(v) - d):
                    v[i] -= top * c
                den *= m[-1]
        if not any(v):
            return self.zero
        g = gcd(den, *v)
        if g == 1:
            return tuple(v), den
        return tuple([x // g for x in v]), den // g

    def _reduce(self, coeffs):
        """Reduce a list of rational coefficients (any length) modulo the
        minpoly."""
        den = lcm(*[c.denominator for c in coeffs])
        return self._from_ints(
            [c.numerator * (den // c.denominator) for c in coeffs], den)

    def add(self, a, b):
        (u, du), (v, dv) = a, b
        return self._from_ints([x * dv + y * du for x, y in zip(u, v)], du * dv)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if a is self.zero:
            return a
        return tuple([-x for x in a[0]]), a[1]

    def mul(self, a, b):
        (u, du), (v, dv) = a, b
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    prod[i + j] += x * y
        return self._from_ints(prod, du * dv)

    def is_zero(self, a):
        return not any(a[0])

    def inv(self, a):
        """Gauss-Jordan elimination on the matrix of multiplication by ``a``,
        with columns a, a*t, ..., a*t^(d-1), solving for the preimage of 1;
        m is irreducible, so every nonzero ``a`` gives an invertible matrix."""
        if self.is_zero(a):
            raise DivisionByZero(f"inverse of 0 in {self}")
        d, cols = self.degree, [a]
        for _ in range(d - 1):
            cols.append(self.mul(cols[-1], self.generator))
        rows = [[Fraction(u[i], du) for u, du in cols] + [Fraction(i == 0)] for i in range(d)]
        for c in range(d):
            p = next(r for r in range(c, d) if rows[r][c])
            piv = [x / rows[p][c] for x in rows[p]]
            rows[p], rows[c] = rows[c], piv
            rows = [r if i == c or not r[c] else [x - r[c] * y for x, y in zip(r, piv)]
                    for i, r in enumerate(rows)]
        return self._reduce([r[d] for r in rows])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coeff_str(self, a):
        """(is_negative, abs-value string in t, needs_parens): the residue
        printed by :func:`_in_t`, the sign of its leading coefficient pulled
        out for the polynomial printer's +/- joiner."""
        ints, den = a
        neg = next((x < 0 for x in reversed(ints) if x), False)
        den = -den if neg else den
        return neg, _in_t([Fraction(x, den) for x in ints]), sum(map(bool, ints)) > 1

    def descriptor(self):
        # minpoly is monic by construction so never prints a leading minus
        return "ext:" + _in_t(self.minpoly).replace(" ", "")

    def __str__(self):
        return f"Q[t]/({self.descriptor()[4:]})"


QQ = Rationals()


class FieldElem(Record):
    """A field element tagged with its field; thin wrapper over raw values."""

    __slots__ = ("spec", "value")

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
        neg, body, parens = self.spec.coeff_str(self.value)
        return f"-({body})" if neg and parens else "-" * neg + body
