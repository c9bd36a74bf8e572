import contextlib
import io
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from a2bundle import poly
from a2bundle.cli import VERIFY_IDS, main
from a2bundle.errors import (
    DivisionByZero,
    FieldMismatch,
    NegativeExponentAtZero,
    NegativePowerOfNonMonomial,
    NonInvertibleImageForLaurentVariable,
    NotDivisible,
    UnexpectedVariable,
    VarTableMismatch,
)
from a2bundle.exprio import field_from_descriptor
from a2bundle.fields import QQ, PrimeField, QuotientExtension
from a2bundle.poly import (
    MultiPoly,
    RingDescriptor,
    VarTable,
    divide_exact,
    substitute,
    truncate_var,
)

T2 = VarTable(("x", "y"))
T3 = VarTable(("a", "b", "x"), laurent=("a", "b"))
F11 = PrimeField(11)


def mk(table, terms):
    return MultiPoly(table, QQ, {e: Fraction(c) for e, c in terms.items()})


# ------------------------------------------------------- hypothesis helpers

exps2 = st.tuples(st.integers(-4, 6), st.integers(-4, 6))
coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys2 = st.dictionaries(exps2, coeffs, max_size=8).map(lambda d: mk(T2, d))

nn_exps2 = st.tuples(st.integers(0, 6), st.integers(0, 6))
nn_polys2 = st.dictionaries(nn_exps2, coeffs, max_size=8).map(lambda d: mk(T2, d))

sub_exps2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
sub_polys = st.dictionaries(sub_exps2, coeffs, max_size=4).map(lambda d: mk(T2, d))


def to_sympy(p, syms):
    x, y = syms
    return sympy.Add(*(sympy.Rational(c) * x**i * y**j
                       for (i, j), c in p.terms.items()))


def from_sympy(expr, table, syms):
    x, y = syms
    poly = sympy.expand(expr)
    out = {}
    for term in sympy.Add.make_args(poly):
        c, mon = term.as_coeff_Mul()
        d = mon.as_powers_dict()
        out[(int(d.get(x, 0)), int(d.get(y, 0)))] = Fraction(str(sympy.nsimplify(c)))
    return mk(table, out)


X, Y = sympy.symbols("x y")


# ------------------------------------------------------------- basic algebra


def test_vartable_validation():
    with pytest.raises(VarTableMismatch):
        VarTable(("x", "x"))
    with pytest.raises(UnexpectedVariable):
        VarTable(("x",), laurent=("y",))


def test_context_mixing_raises():
    p = MultiPoly.var(T2, QQ, "x")
    q = MultiPoly.var(T3, QQ, "x")
    with pytest.raises(VarTableMismatch):
        p + q
    r = MultiPoly.var(T2, F11, "x")
    with pytest.raises(FieldMismatch):
        p * r


def test_constants_and_int_coercion():
    p = MultiPoly.var(T2, QQ, "x") + 3
    assert p.terms == {(1, 0): Fraction(1), (0, 0): Fraction(3)}
    assert (p - p).is_zero()
    assert (0 * p).is_zero()


@given(polys2, polys2, polys2)
@settings(max_examples=60, derandomize=True)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == MultiPoly.zero(T2, QQ)


@given(polys2, polys2)
@settings(max_examples=30, derandomize=True)
def test_mul_matches_sympy(p, q):
    lhs = to_sympy(p * q, (X, Y))
    rhs = sympy.expand(to_sympy(p, (X, Y)) * to_sympy(q, (X, Y)))
    assert sympy.expand(lhs - rhs) == 0


EXT_I = QuotientExtension((Fraction(1), Fraction(0), Fraction(1)))  # t^2 + 1

f11_coeffs = st.integers(0, 10)
ext_coeffs = st.tuples(coeffs, coeffs)


def polys_over(table, field, cs, exps, **kw):
    return st.dictionaries(exps, cs, **kw).map(
        lambda d: MultiPoly(table, field, {e: field.coerce(c) for e, c in d.items()}))


def laurent_polys(field, cs, **kw):
    return polys_over(T2, field, cs, exps2, **kw)


def generic_product(p, q):
    """The field-generic convolution through ``add``/``mul``, as an oracle."""
    f = p.field
    a, b = p.terms, q.terms
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = f.mul(c1, c2) if e not in out else f.add(out[e], f.mul(c1, c2))
    return {e: c for e, c in out.items() if not f.is_zero(c)}


def assert_kernel_matches_oracle(p, q):
    got = p._mul_dict(q).terms
    want = generic_product(p, q)
    assert got == want
    assert list(got) == list(want)  # same key order as the generic path
    assert all(type(c) is type(p.field.one) for c in got.values())


@given(laurent_polys(QQ, coeffs, min_size=1, max_size=10),
       laurent_polys(QQ, coeffs, min_size=1, max_size=10))
@settings(max_examples=60, derandomize=True)
def test_integer_kernel_matches_generic_over_q(p, q):
    assert_kernel_matches_oracle(p, q)


@given(laurent_polys(F11, f11_coeffs, min_size=1, max_size=10),
       laurent_polys(F11, f11_coeffs, min_size=1, max_size=10))
@settings(max_examples=60, derandomize=True)
def test_integer_kernel_matches_generic_over_f11(p, q):
    assert_kernel_matches_oracle(p, q)


def test_integer_kernel_cancellation():
    for field in (QQ, F11):
        x = MultiPoly.var(T2, field, "x")
        y = MultiPoly.var(T2, field, "y")
        # (x^-1/3 + y/2)(x^-1/3 - y/2): mixed denominators, cross terms cancel
        third = field.inv(field.coerce(3))
        half = field.inv(field.coerce(2))
        u, v = (x ** -1).scale(third), y.scale(half)
        p, q = u + v, u - v
        assert_kernel_matches_oracle(p, q)
        assert (p * q).terms.keys() == {(-2, 0), (0, 2)}
    # over F_11 the cross term of (x + y)(x + 10y) is 11*xy, which is 0
    x = MultiPoly.var(T2, F11, "x")
    y = MultiPoly.var(T2, F11, "y")
    p, q = x + y, x + y.scale(10)
    assert_kernel_matches_oracle(p, q)
    assert (p * q).terms == {(2, 0): 1, (0, 2): 10}
    # over Q[t]/(t^2 + 1), (x + t*y)(y + t*x) = t*x^2 + t*y^2: the xy term
    # accumulates 1 + t^2, nonzero in Q[t] but zero after reduction
    x = MultiPoly.var(T2, EXT_I, "x")
    y = MultiPoly.var(T2, EXT_I, "y")
    t = EXT_I.generator
    p, q = x + y.scale(t), y + x.scale(t)
    assert_kernel_matches_oracle(p, q)
    assert (p * q).terms == {(0, 2): t, (2, 0): t}


@given(laurent_polys(EXT_I, ext_coeffs, min_size=1, max_size=10),
       laurent_polys(EXT_I, ext_coeffs, min_size=1, max_size=10))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_integer_kernel_matches_generic_over_ext(p, q):
    assert_kernel_matches_oracle(p, q)


EXT_CBRT2 = QuotientExtension((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)))
EXT_5 = QuotientExtension((Fraction(-1), Fraction(0), Fraction(5)))  # t^2 - 1/5


@pytest.mark.parametrize("field", [EXT_CBRT2, EXT_5], ids=["ext:t^3-2", "ext:5t^2-1"])
def test_integer_kernel_matches_generic_fixed_extensions(field):
    assert field.minpoly[-1] == 1  # stored monic: 5t^2 - 1 becomes t^2 - 1/5

    def poly(terms):
        return MultiPoly(T2, field, {e: field.coerce(c) for e, c in terms.items()})

    # full-length coefficients, so products reach t^(2d-2) and every
    # reduction row is used
    u = (Fraction(1, 2), Fraction(3), Fraction(-2, 7))
    w = (Fraction(5), Fraction(-1, 3), Fraction(4))
    p = poly({(2, 0): u, (1, -1): w, (0, 0): Fraction(3, 5), (-1, 2): (0, 1)})
    q = poly({(1, 0): w, (0, 1): u, (-2, 0): (Fraction(7, 4), 0, 1)})
    assert_kernel_matches_oracle(p, q)
    assert_kernel_matches_oracle(p, p)
    assert_kernel_matches_oracle(q, p + q)


# exponents near -2^40, 0 and 2^40: wide bit fields, and products that collide
big_exps = st.tuples(st.sampled_from([-2 ** 40, 0, 2 ** 40]),
                     st.integers(-2, 2)).map(sum)


def packed_polys(field, cs, held):
    """24 to 40 terms, so a product has at least 576 pairs; the last variable
    has exponent ``held`` in every term, which gives it a zero-width field."""
    exps = st.tuples(big_exps, big_exps, st.just(held))
    return polys_over(T3, field, nonzero(field, cs), exps, min_size=24, max_size=40)


@pytest.mark.parametrize("field, cs", [(QQ, coeffs), (F11, f11_coeffs),
                                       (EXT_I, ext_coeffs)],
                         ids=["q", "fp:11", "ext:t^2+1"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_kernel_matches_generic(field, cs, data):
    p = data.draw(packed_polys(field, cs, 3))
    q = data.draw(packed_polys(field, cs, -5))
    assert len(p) * len(q) >= poly.PACK_PAIRS
    assert_kernel_matches_oracle(p, q)


@pytest.mark.parametrize("field", [QQ, F11, EXT_I], ids=["q", "fp:11", "ext:t^2+1"])
def test_packed_threshold_boundary(monkeypatch, field):
    def c(k):
        return field.coerce((Fraction(k, 3), Fraction(1 - k)) if field is EXT_I else k % 10 + 1)

    for m, n in ((7, 73), (16, 32)):  # 511 and 512 pairs
        p = MultiPoly(T3, field, {(i, i % 3 - 1, -i): c(i) for i in range(m)})
        q = MultiPoly(T3, field, {(j % 5, -j, j % 2): c(j + 2) for j in range(n)})
        assert_kernel_matches_oracle(p, q)
        for threshold in (m * n, m * n + 1):  # packed keys, then tuple keys
            monkeypatch.setattr(poly, "PACK_PAIRS", threshold)
            assert_kernel_matches_oracle(p, q)
        monkeypatch.undo()


def big(k):
    """A 40-digit fraction."""
    return Fraction(3 ** 83 + k, 7 ** 47 - k)


@pytest.mark.parametrize("field", [EXT_CBRT2, EXT_5], ids=["ext:t^3-2", "ext:5t^2-1"])
def test_packed_extension_width(field):
    d = field.degree
    x = MultiPoly.var(T2, field, "x")
    y = MultiPoly.var(T2, field, "y")
    u = tuple(big(i) for i in range(d))
    w = tuple(-big(i + 5) for i in range(d))
    # (u*x + u*y)(w*x - w*y): the xy components cancel to 0 in Z[t]
    p, q = x.scale(u) + y.scale(u), x.scale(w) - y.scale(w)
    assert_kernel_matches_oracle(p, q)
    assert (1, 1) not in (p * q).terms
    # the primitive integer multiple of m, which the kernel reduces by
    den = lcm(*[c.denominator for c in field.minpoly])
    mod = [int(c * den) for c in field.minpoly]
    # every component of every pair is M * -N: the x^(k-1) output sums k pairs
    # of d products each, so its middle component is the most negative value
    # the packing width allows for
    m, n = big(0), big(1)
    for k in (3, 23):  # 9 pairs on tuple keys, 529 on packed keys
        p = sum((x ** i).scale((m,) * d) for i in range(k))
        q = sum((x ** j).scale((-n,) * d) for j in range(k))
        assert_kernel_matches_oracle(p, q)
        (a, _), (b, _) = p._held(), q._held()
        # the product in Z[t] by schoolbook, then its pseudo-remainder by mod
        # in d - 1 steps, each step multiplying by the leading coefficient
        want = {}
        for e1, u in a.items():
            for e2, v in b.items():
                e = tuple(map(sum, zip(e1, e2)))
                prod = want.setdefault(e, [0] * (2 * d - 1))
                for i, ui in enumerate(u):
                    for j, vj in enumerate(v):
                        prod[i + j] += ui * vj
        comps = [c for prod in want.values() for c in prod]
        assert min(comps) == -m.numerator * n.numerator * d * k
        for prod in want.values():
            for top in range(2 * d - 2, d - 1, -1):
                lead = prod[top]
                prod[:] = [c * mod[-1] for c in prod]
                for i, c in enumerate(mod):
                    prod[top - d + i] -= lead * c
            del prod[d:]
        ints, scale = poly._mul_vectors(a, b, field)
        assert scale == mod[-1] ** (d - 1)
        assert ints == {e: tuple(r) for e, r in want.items() if any(r)}


@pytest.mark.parametrize("field", [QQ, F11, EXT_I], ids=["q", "fp:11", "ext:t^2+1"])
def test_monomial_by_one_matches_multiply(field):
    c = field.coerce((Fraction(2, 3), Fraction(5)) if field is EXT_I else 7)
    p = MultiPoly(T3, field, {(1, 0, 2): c, (0, -1, 0): field.one,
                              (-2, 3, 1): field.coerce(4)})
    for me in ((0, 0, 0), (1, -2, 3)):
        want = {tuple(x + y for x, y in zip(e, me)): field.mul(v, field.one)
                for e, v in p.terms.items()}
        one = MultiPoly.monomial(T3, field, me, 1)
        for got in ((p * one).terms, (one * p).terms):
            assert got == want
            assert list(got) == list(want)
            assert all(type(v) is type(field.one) for v in got.values())


@pytest.mark.parametrize("field", [QQ, F11, EXT_I], ids=["q", "fp:11", "ext:t^2+1"])
def test_monomial_power_scales_exponents(monkeypatch, field):
    want = []
    for c in (field.coerce((Fraction(2, 3), Fraction(5)) if field is EXT_I else 7),
              field.one):
        m = MultiPoly.monomial(T3, field, (2, -1, 3), c)
        for n in (1, 2, 5, -1, -3):
            base = c if n > 0 else field.inv(c)
            coeff = base
            for _ in range(abs(n) - 1):
                coeff = field.mul(coeff, base)
            want.append((m, n, {(2 * n, -n, 3 * n): coeff}))
    calls = []
    monkeypatch.setattr(MultiPoly, "_mul_monomial",
                        lambda self, mono: calls.append(mono))
    for m, n, terms in want:
        got = (m ** n).terms
        assert got == terms
        assert all(type(v) is type(field.one) for v in got.values())
    assert calls == []


def test_negative_power_of_zero_names_zero():
    with pytest.raises(NegativePowerOfNonMonomial,
                       match=r"^cannot raise zero to power -2$"):
        MultiPoly.zero(T2, QQ) ** -2
    with pytest.raises(NegativePowerOfNonMonomial,
                       match=r"^cannot raise a 2-term polynomial to power -1$"):
        (MultiPoly.var(T2, QQ, "x") + 1) ** -1


def test_pow_negative_monomial():
    m = MultiPoly.monomial(T3, QQ, (2, -1, 0), Fraction(3, 2))
    inv = m ** -1
    assert inv.terms == {(-2, 1, 0): Fraction(2, 3)}
    p = MultiPoly.var(T2, QQ, "x") + 1
    with pytest.raises(NegativePowerOfNonMonomial):
        p ** -1


@pytest.mark.parametrize("field", [QQ, F11, EXT_I], ids=["q", "fp:11", "ext:t^2+1"])
def test_pow_matches_repeated_multiplication(field):
    x = MultiPoly.var(T3, field, "x")
    a = MultiPoly.var(T3, field, "a")
    c = field.coerce((Fraction(2, 3), Fraction(5)) if field is EXT_I else 7)
    multi = (x * a).scale(c) + a ** 2 + MultiPoly.const(T3, field, 3)
    laurent = MultiPoly.monomial(T3, field, (-2, 1, 3), c)
    for p in (multi, laurent):
        acc = MultiPoly.const(T3, field, 1)
        for k in range(6):
            assert p ** k == acc
            acc = acc * p


def test_freshmans_dream_in_f11():
    x = MultiPoly.var(T2, F11, "x")
    y = MultiPoly.var(T2, F11, "y")
    lhs = (x + y) ** 11
    assert lhs == x ** 11 + y ** 11


@pytest.mark.parametrize("field", [QQ, F11, EXT_I], ids=["q", "fp:11", "ext:t^2+1"])
def test_sub_matches_add_of_negation(field):
    c = (lambda k: field.coerce((Fraction(k, 3), Fraction(1 - k))
                                if field is EXT_I else k))
    # Laurent in a and b; the (0, 1, 1) and (-1, 2, 0) terms cancel
    p = MultiPoly(T3, field, {(1, 0, 2): c(2), (0, 1, 1): c(5),
                              (-1, 2, 0): c(4), (0, -3, 0): c(7)})
    q = MultiPoly(T3, field, {(0, 1, 1): c(5), (2, 2, 2): c(3),
                              (-1, 2, 0): c(4), (0, 0, 0): c(1)})
    for u, v in ((p, q), (q, p), (p, p), (p, MultiPoly.zero(T3, field))):
        got, want = (u - v).terms, (u + (-v)).terms
        assert got == want
        assert list(got) == list(want)
        assert [type(x) for x in got.values()] == [type(x) for x in want.values()]
    assert (p - p).terms == {}
    assert set((p - q).terms) == {(1, 0, 2), (0, -3, 0), (2, 2, 2), (0, 0, 0)}


def test_extension_coeff_arithmetic():
    ext = QuotientExtension((Fraction(-1), Fraction(0), Fraction(5)))  # 5t^2 = 1
    x = MultiPoly.var(T2, ext, "x")
    tx = x.scale(ext.generator)
    assert (tx * tx).scale(5) == x * x


# ------------------------------------------------------------------ queries


def test_degrees_and_leading():
    p = mk(T3, {(-1, -2, 1): 1, (-3, -1, 2): -1})
    assert p.degree_in("a") == -1
    assert p.degree_in("x") == 2
    assert p.min_degree_in("a") == -3
    # graded tie broken by exponent tuple, descending
    assert p.leading_term() == ((-1, -2, 1), Fraction(1))


def test_coefficient_in_and_exponents():
    p = mk(T2, {(2, 1): 3, (2, 0): 5, (0, 1): -1})
    cx2 = p.coefficient_in("x", 2)
    assert cx2 == mk(T2, {(0, 1): 3, (0, 0): 5})
    assert p.exponents_in("x") == [0, 2]


@given(nn_polys2)
@settings(max_examples=30, derandomize=True)
def test_derivative_matches_sympy(p):
    got = to_sympy(p.partial_derivative("x"), (X, Y))
    want = sympy.diff(to_sympy(p, (X, Y)), X)
    assert sympy.expand(got - want) == 0


def test_derivative_laurent_term():
    p = mk(T3, {(-2, 0, 0): 3})
    assert p.partial_derivative("a") == mk(T3, {(-3, 0, 0): -6})


def test_evaluate():
    p = mk(T2, {(2, 0): 1, (0, 1): 2, (0, 0): -7})
    v = p.evaluate({"x": 3, "y": Fraction(1, 2)})
    assert v.value == Fraction(3)
    q = mk(T3, {(-1, 0, 1): 1})
    assert q.evaluate({"a": 2, "b": 5, "x": 4}).value == Fraction(2)
    with pytest.raises(NegativeExponentAtZero):
        q.evaluate({"a": 0, "b": 1, "x": 1})
    with pytest.raises(UnexpectedVariable):
        p.evaluate({"x": 1})


# ------------------------------------------------------------ exact division


@given(nn_polys2, nn_polys2)
@settings(max_examples=40, derandomize=True)
def test_divide_exact_roundtrip(p, q):
    if q.is_zero():
        with pytest.raises(DivisionByZero):
            divide_exact(p, q)
        return
    assert divide_exact(p * q, q) == p


def test_divide_exact_laurent_shift():
    x = MultiPoly.var(T3, QQ, "x")
    x2 = x * x
    assert divide_exact(x, x2) == MultiPoly.monomial(T3, QQ, (0, 0, -1))
    a = MultiPoly.var(T3, QQ, "a")
    num = (a + x) * MultiPoly.monomial(T3, QQ, (-5, 0, 0))
    assert divide_exact(num, a + x) == MultiPoly.monomial(T3, QQ, (-5, 0, 0))


def test_divide_exact_failure():
    x = MultiPoly.var(T2, QQ, "x")
    with pytest.raises(NotDivisible):
        divide_exact(x * x + 1, x + 1)


@pytest.mark.parametrize("field, cs", [(QQ, coeffs), (F11, f11_coeffs),
                                       (EXT_I, ext_coeffs)],
                         ids=["q", "fp:11", "ext:t^2+1"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_divide_exact_roundtrip_laurent(field, cs, data):
    p = data.draw(laurent_polys(field, cs, max_size=6))
    q = data.draw(laurent_polys(field, cs, min_size=1, max_size=6))
    if q.is_zero():
        return
    assert divide_exact(p * q, q) == p


def non_unit_coeffs(field, cs):
    return cs.map(field.coerce).filter(lambda c: not field.is_zero(c) and c != field.one)


@pytest.mark.parametrize("field, cs", [(QQ, coeffs), (F11, f11_coeffs),
                                       (EXT_I, ext_coeffs)],
                         ids=["q", "fp:11", "ext:t^2+1"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_divide_exact_by_monomial_is_a_shift(field, cs, data):
    num = data.draw(laurent_polys(field, cs, max_size=8))
    e = data.draw(st.tuples(st.integers(-4, -1), st.integers(1, 6)))
    if data.draw(st.booleans()):
        e = e[::-1]
    den = MultiPoly.monomial(T2, field, e, data.draw(non_unit_coeffs(field, cs)))
    want = num * den ** -1

    def no_heap(heap):
        raise AssertionError("a single-term divisor reached the heap")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "heapify", no_heap)
        got = divide_exact(num, den)
    assert got.terms == want.terms
    assert [type(c) for c in got.terms.values()] == \
        [type(c) for c in want.terms.values()]
    assert all(type(c) is type(field.one) for c in got.terms.values())
    assert got * den == num


@pytest.mark.parametrize("field", [QQ, F11, EXT_I], ids=["q", "fp:11", "ext:t^2+1"])
def test_divide_exact_rejects_non_multiple(field):
    x = MultiPoly.var(T2, field, "x")
    y = MultiPoly.var(T2, field, "y")
    q = x + y ** -1
    num = (x * x - y) * q + 1
    with pytest.raises(NotDivisible):
        divide_exact(num, q)


def test_divide_exact_inverts_leading_coefficient_once(monkeypatch):
    x = MultiPoly.var(T2, EXT_I, "x")
    y = MultiPoly.var(T2, EXT_I, "y")
    one_plus_t = ((1, 1), 1)
    q = (x * x).scale(one_plus_t) + y.scale(EXT_I.generator) + 3  # leads with (1+t)x^2
    assert q.leading_term() == ((2, 0), one_plus_t)
    p = (x * y).scale((Fraction(2, 3), Fraction(-1))) + x ** -1 + y.scale(one_plus_t) + 5
    num = p * q
    calls = []
    inv = QuotientExtension.inv

    def counting_inv(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(QuotientExtension, "inv", counting_inv)
    for k in (1, 2):
        assert divide_exact(num, q) == p
        assert calls == [one_plus_t] * k


# -------------------------------------------------------------- substitution


def test_substitute_basic():
    p = mk(T2, {(2, 0): 1, (0, 1): 1})  # x^2 + y
    x = MultiPoly.var(T2, QQ, "x")
    y = MultiPoly.var(T2, QQ, "y")
    got = substitute(p, {"x": y, "y": x + 1})
    assert got == mk(T2, {(0, 2): 1, (1, 0): 1, (0, 0): 1})


def test_substitute_into_other_table():
    p = mk(T2, {(1, 1): 1})  # x*y
    a = MultiPoly.var(T3, QQ, "a")
    xx = MultiPoly.var(T3, QQ, "x")
    got = substitute(p, {"x": a, "y": xx + 1}, into=T3)
    assert got == mk(T3, {(1, 0, 1): 1, (1, 0, 0): 1})


def test_substitute_identity_for_missing_images():
    p = mk(T2, {(1, 1): 1, (0, 2): 3})
    y = MultiPoly.var(T2, QQ, "y")
    assert substitute(p, {"x": y}) == mk(T2, {(0, 2): 4})


def test_substitute_laurent_requires_invertible_image():
    p = mk(T3, {(-1, 0, 0): 1})  # a^-1
    x = MultiPoly.var(T3, QQ, "x")
    with pytest.raises(NonInvertibleImageForLaurentVariable):
        substitute(p, {"a": x + 1})
    got = substitute(p, {"a": x.scale(2)})
    assert got == mk(T3, {(0, 0, -1): Fraction(1, 2)})


def test_substitute_names_the_first_laurent_variable_in_table_order():
    p = mk(T3, {(-1, -1, 0): 1})  # a^-1*b^-1
    x = MultiPoly.var(T3, QQ, "x")
    with pytest.raises(NonInvertibleImageForLaurentVariable, match="^'a' occurs"):
        substitute(p, {"b": x + 1, "a": x + 2})


@given(sub_polys, sub_polys, sub_polys)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_substitute_matches_sympy(p, img_x, img_y):
    got = substitute(p, {"x": img_x, "y": img_y})
    want = to_sympy(p, (X, Y)).subs(
        [(X, to_sympy(img_x, (X, Y))), (Y, to_sympy(img_y, (X, Y)))],
        simultaneous=True)
    assert sympy.expand(to_sympy(got, (X, Y)) - want) == 0


def naive_substitute(poly, images, into=None):
    """Term-by-term substitution, as an oracle: each term becomes its
    coefficient times a power of every image, and the terms are summed."""
    f = poly.field
    target = into or next((v.table for v in images.values()
                           if isinstance(v, MultiPoly)), poly.table)

    def image(name):
        if name not in images:
            return MultiPoly.var(target, f, name)
        v = images[name]
        return v if isinstance(v, MultiPoly) else MultiPoly.const(target, f, v)

    out = MultiPoly.zero(target, f)
    for e, c in poly.terms.items():
        term = MultiPoly.const(target, f, c)
        for name, k in zip(poly.table.names, e):
            if k:
                term = term * image(name) ** k
        out = out + term
    return out.terms


T4 = VarTable(("a", "b", "x", "y"), laurent=("a", "b"))
FIELDS = [(QQ, coeffs), (F11, f11_coeffs), (EXT_I, ext_coeffs)]
FIELD_IDS = ["q", "fp:11", "ext:t^2+1"]
laurent3 = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3))
nn3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
small4 = st.tuples(*[st.integers(-2, 2)] * 4)


def nonzero(field, cs):
    return cs.filter(lambda c: not field.is_zero(field.coerce(c)))


@pytest.mark.parametrize("field, cs", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_substitute_matches_naive_laurent_monomials(field, cs, data):
    # a and b occur inverted, so their images are Laurent monomials with
    # any nonzero coefficient; x gets any image, the zero image included
    p = data.draw(polys_over(T3, field, cs, laurent3, max_size=8))
    small3 = st.tuples(*[st.integers(-2, 2)] * 3)
    images = {"a": data.draw(polys_over(T3, field, nonzero(field, cs), small3,
                                        min_size=1, max_size=1)),
              "x": data.draw(polys_over(T3, field, cs, small3, max_size=5))}
    kind = data.draw(st.sampled_from(["identity", "constant", "monomial"]))
    if kind == "constant":
        images["b"] = data.draw(nonzero(field, cs))
    elif kind == "monomial":
        images["b"] = data.draw(polys_over(T3, field, nonzero(field, cs), small3,
                                           min_size=1, max_size=1))
    assert substitute(p, images).terms == naive_substitute(p, images)


@pytest.mark.parametrize("field, cs", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_substitute_matches_naive_multi_term_images(field, cs, data):
    # up to three multi-term images into a wider table; variables left out
    # keep their names there
    p = data.draw(polys_over(T3, field, cs, nn3, max_size=8))
    names = data.draw(st.sets(st.sampled_from(T3.names)))
    images = {n: data.draw(polys_over(T4, field, cs, small4, max_size=4))
              for n in sorted(names)}
    assert substitute(p, images, into=T4).terms == naive_substitute(p, images, into=T4)


F2 = PrimeField(2)


def count_calls(monkeypatch, owner, names):
    """Wrap each named attribute of ``owner`` to count its calls."""
    counts = dict.fromkeys(names, 0)

    def counting(name):
        inner = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return inner(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counting(name))
    return counts


# a scalar near 2^200 over a denominator near 2^200
wide = st.builds(Fraction, st.integers(2 ** 199, 2 ** 200), st.integers(2 ** 199, 2 ** 200))


@pytest.mark.parametrize("field, cs", [(QQ, coeffs), (F11, f11_coeffs), (F2, st.integers(-5, 5)),
                                       (EXT_I, ext_coeffs), (EXT_5, ext_coeffs),
                                       (EXT_CBRT2, st.tuples(coeffs, coeffs, coeffs))],
                         ids=["q", "fp:11", "fp:2", "ext:t^2+1", "ext:5t^2-1", "ext:t^3-2"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_substitute_matches_naive(field, cs, data):
    # a occurs inverted and maps to a Laurent monomial (of coefficient 1 over
    # Q and Q[t]/(m), where a scaling image leaves the held ints), so target
    # exponents go negative; b, x and y map to up to three multi-term images
    src = st.tuples(st.integers(-3, 3), *[st.integers(0, 3)] * 3)
    p = data.draw(polys_over(T4, field, cs, src, max_size=10))
    c = data.draw(nonzero(field, cs))
    held = not isinstance(field, PrimeField)
    images = {"a": MultiPoly.monomial(T4, field, data.draw(small4), 1 if held else c)}
    for n in "bxy":
        images[n] = data.draw(polys_over(T4, field, nonzero(field, cs), small4,
                                         min_size=2, max_size=4))
    kinds = ["plain", "zero image", "cancelling group"] + held * ["wide"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "wide":
        # held ints near 2^400, so that a packed vector's width comes from
        # its bound and not from slack
        scalars = wide if field is QQ else st.tuples(*[wide] * field.degree)
        p = p.scale(data.draw(scalars))
        images["x"] = images["x"].scale(data.draw(scalars))
    elif kind == "zero image":
        images["b"] = MultiPoly.zero(T4, field)
    elif kind == "cancelling group":
        # with a -> 1, c*a*y^4 and -c*y^4 are the whole group of y^4
        images["a"] = MultiPoly.const(T4, field, 1)
        a_y4 = MultiPoly.monomial(T4, field, (1, 0, 0, 4), c)
        p = p + a_y4 - a_y4.shift_exponents((-1, 0, 0, 0))
    if held:
        p = int_held(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "PACK_PAIRS", 1)
        counts = count_calls(mp, poly, ["_packed_horner"])
        got = substitute(p, images)
    assert got.terms == naive_substitute(p, images)
    if p.degree_in("x") and got:
        assert counts["_packed_horner"] == 1


@pytest.mark.parametrize("field", [QQ, F11, EXT_I], ids=["q", "fp:11", "ext:t^2+1"])
def test_packed_substitute_threshold_boundary(monkeypatch, field):
    def c(k):
        return field.coerce((Fraction(k, 3), Fraction(1 - k)) if field is EXT_I else k % 10 + 1)

    # 16 terms of x-degree up to 8 and a 4-term image: 512 estimated pairs
    p = MultiPoly(T2, field, {(k % 9, k // 9 - 1): c(k) for k in range(16)})
    if field is QQ:
        p = int_held(p)
    x = MultiPoly(T2, field, {(1, 0): c(1), (0, 1): c(2), (0, 0): c(3), (2, -1): c(4)})
    assert len(p) * len(x) * p.degree_in("x") == 512
    want = naive_substitute(p, {"x": x})
    for threshold in (512, 513):  # packed Horner, then products of MultiPolys
        monkeypatch.setattr(poly, "PACK_PAIRS", threshold)
        counts = count_calls(monkeypatch, poly, ["_packed_horner", "_held_poly"])
        muls = count_calls(monkeypatch, MultiPoly, ["__mul__"])
        assert substitute(p, {"x": x}).terms == want
        packs = threshold == 512
        assert counts["_packed_horner"] == packs
        # a packed evaluation multiplies no MultiPoly and normalises once
        assert muls["__mul__"] == (0 if packs else 8)
        if packs and field is not F11:
            assert counts["_held_poly"] == 1
        monkeypatch.undo()


def test_substitute_rejects_image_over_another_field():
    p = MultiPoly.var(T2, QQ, "x") * MultiPoly.var(T2, QQ, "y")
    with pytest.raises(FieldMismatch):
        substitute(p, {"y": MultiPoly.var(T4, F11, "a")}, into=T4)


def test_substitute_cancels_after_exponent_map():
    x = MultiPoly.var(T3, QQ, "x")
    a = MultiPoly.var(T3, QQ, "a")
    b = MultiPoly.var(T3, QQ, "b")
    swap = {"a": b, "b": -b}
    assert substitute(a + b, swap).is_zero()
    # the cancelling terms share a power of x, whose image has two terms
    images = dict(swap, x=x + 1)
    p = (a + b) * x ** 2 + a * x
    assert substitute(p, images).terms == naive_substitute(p, images)
    assert substitute(p, images) == b * (x + 1)


def test_substitute_multiplies_once_per_degree(monkeypatch):
    x = MultiPoly.var(T2, QQ, "x")
    y = MultiPoly.var(T2, QQ, "y")
    p = sum((x ** k for k in range(9)), MultiPoly.zero(T2, QQ))
    want = naive_substitute(p, {"x": x + y})
    counts = count_calls(monkeypatch, MultiPoly, ["__pow__", "_mul_dict"])
    assert substitute(p, {"x": x + y}).terms == want
    assert counts["__pow__"] == 0
    assert counts["_mul_dict"] <= 8


# ------------------------------------------------------------------ filters


def test_truncate_var():
    p = mk(T2, {(0, 0): 1, (1, 0): 2, (2, 0): 3})
    assert truncate_var(p, {"x": 2}) == mk(T2, {(0, 0): 1, (1, 0): 2})


def test_truncate_var_is_mod_a_monomial():
    # mod x^2*y: a term is kept when x or y stays below its bound
    p = mk(T2, {(0, 3): 1, (1, 1): 2, (2, 0): 3, (2, 1): 4, (3, 2): 5})
    assert truncate_var(p, {"x": 2, "y": 1}) == mk(T2, {(0, 3): 1, (1, 1): 2, (2, 0): 3})
    assert truncate_var(p, {}) == mk(T2, {})


@pytest.mark.parametrize("field, cs", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncate_var_matches_generic_filter(field, cs, data):
    # one bound and two bounds, on raw terms and on held ints alike, keep
    # exactly the terms with some bounded exponent below its bound
    p = data.draw(polys_over(T3, field, cs, laurent3, max_size=8))
    names = data.draw(st.lists(st.sampled_from(T3.names), min_size=2, max_size=2, unique=True))
    ks = data.draw(st.tuples(st.integers(-2, 3), st.integers(-2, 3)))
    for bounds in ({names[0]: ks[0]}, dict(zip(names, ks))):
        cols = [(T3.index(n), k) for n, k in bounds.items()]
        want = {e: c for e, c in p.terms.items() if any(e[i] < k for i, k in cols)}
        assert truncate_var(p, bounds).terms == want
        if not isinstance(field, PrimeField):
            held = int_held(MultiPoly(T3, field, dict(p.terms)))  # p stays raw
            assert truncate_var(held, bounds).terms == want


def set_vars_to_zero(p, names):
    """``p`` with 0 put in for the named variables, none of which may occur
    with a negative power, as an oracle for ``coefficient_in(name, 0)``."""
    idxs = [p.table.index(n) for n in names]
    assert all(e[i] >= 0 for e in p.terms for i in idxs)
    return MultiPoly(p.table, p.field,
                     {e: c for e, c in p.terms.items() if not any(e[i] for i in idxs)})


@pytest.mark.parametrize("field, cs", FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_coefficient_at_zero_is_setting_the_variable_to_zero(field, cs, data):
    p = data.draw(polys_over(T3, field, cs, nn3, max_size=8))
    assert p.coefficient_in("x", 0) == set_vars_to_zero(p, ("x",))
    assert (p.coefficient_in("a", 0).coefficient_in("b", 0)
            == set_vars_to_zero(p, ("a", "b")))


def test_ring_descriptor():
    ring = RingDescriptor.polynomials(T3).allow_negative("a")
    p = mk(T3, {(-2, 0, 1): 1})
    assert ring.contains(p)
    q = mk(T3, {(0, -1, 0): 1})
    assert not ring.contains(q)
    assert ring.violations(q) == [((0, -1, 0), Fraction(1))]
    blowup = RingDescriptor.polynomials(T3).allow_negative("a", "b").require_sum(["a", "b"])
    assert blowup.contains(mk(T3, {(-2, 2, 0): 1, (3, -3, 1): 5}))
    assert not blowup.contains(mk(T3, {(-2, 1, 0): 1}))


# ------------------------------------------------------ the int-held Q store


def int_held(p):
    """``p`` over Q or Q[t]/(m) as a held polynomial. It lifts ``p``, which
    from then on computes held as well."""
    return MultiPoly._from_pair(p.table, p.field, p._held())


def frac_held(p):
    """``p`` over Q as a Fraction-held polynomial."""
    return MultiPoly(p.table, p.field, dict(p.terms))


def frac_sum(p, q, sign=1):
    """``p + sign*q`` by Fraction arithmetic on the term dicts."""
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def assert_int_held(got, want):
    """``got`` is int-held, its pair is in normal form, and its ``terms``
    read as the Fraction dict ``want``, key for key and in order."""
    assert got._pair is not None
    ints, den = got._pair
    assert den > 0 and all(ints.values())
    assert gcd(den, *ints.values()) == 1
    assert list(got.terms.items()) == list(want.items())
    assert all(type(c) is Fraction for c in got.terms.values())
    assert got.terms.keys() == ints.keys()


@given(polys2, polys2)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_int_held_sums_match_fraction_sums(p, q):
    for u, v in ((int_held(p), int_held(q)), (int_held(p), q), (p, int_held(q))):
        assert_int_held(u + v, frac_sum(p, q))
        assert_int_held(u - v, frac_sum(p, q, -1))
    assert_int_held(int_held(p) - int_held(p), {})
    assert_int_held(-int_held(p), {e: -c for e, c in p.terms.items()})
    # two Fraction-held operands, never lifted, stay on the field's own add
    total = frac_held(p) + frac_held(q)
    assert total._pair is None and total.terms == frac_sum(p, q)


@given(polys2.filter(lambda p: len(p) > 1), polys2.filter(lambda p: len(p) > 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_int_held_products_match_generic(p, q):
    want = generic_product(p, q)
    for u, v in ((p, q), (int_held(p), q), (p, int_held(q)),
                 (int_held(p), int_held(q))):
        assert_int_held(u * v, want)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_int_held_packed_products_match_generic(data):
    p = data.draw(packed_polys(QQ, coeffs, 3))
    q = data.draw(packed_polys(QQ, coeffs, -5))
    assert len(p) * len(q) >= poly.PACK_PAIRS
    assert_int_held(int_held(p) * q, generic_product(p, q))


@given(polys2.filter(lambda p: len(p) > 1), exps2, nonzero(QQ, coeffs))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_int_held_monomial_shift_scale_and_truncate(p, me, c):
    shifted = {tuple(x + y for x, y in zip(e, me)): v for e, v in p.terms.items()}
    mono = MultiPoly.monomial(T2, QQ, me, c)
    want = {e: v * c for e, v in shifted.items()}
    for m in (mono, int_held(mono)):
        assert_int_held(int_held(p) * m, want)
        assert_int_held(m * int_held(p), want)
    assert_int_held(int_held(p).shift_exponents(me), shifted)
    assert_int_held(int_held(p).scale(c), {e: v * c for e, v in p.terms.items()})
    assert_int_held(truncate_var(int_held(p), {"x": me[0]}),
                    {e: v for e, v in p.terms.items() if e[0] < me[0]})


@given(polys2.filter(bool), polys2.filter(bool))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_int_held_exact_division_matches_fraction_path(p, q):
    prod = p * q
    want = divide_exact(frac_held(prod), frac_held(q))
    assert want == p
    for n, d in ((prod, q), (prod, int_held(q)), (frac_held(prod), int_held(q))):
        got = divide_exact(n, d)
        assert got.terms == want.terms
        if got._pair is not None:
            assert_int_held(got, want.terms)


@given(polys2, polys2)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_int_held_equality_both_ways(p, q):
    same = p.terms == q.terms
    for u in (p, int_held(p)):
        for v in (q, int_held(q)):
            assert (u == v) is same and (v == u) is same
            assert (u != v) is not same
    assert int_held(p) == p and p == int_held(p)
    assert (int_held(p) == MultiPoly(T3, QQ, {})) is False


@pytest.mark.parametrize("field", ["fp:11", "ext:t^2+1"])
def test_verify_off_q_holds_no_q_polynomial_beyond_ex23_ex24(monkeypatch, field):
    """Every check of ``verify all`` over another field leaves the Q store
    alone, except ex23 and ex24, which build their samples over Q whatever
    the field. Over F_p nothing else is held; over Q[t]/(m) polynomials
    are held over that field, and over ext:5t^2-1 in ex47."""
    built = {}
    lift = MultiPoly._held

    def recording(self):
        built.setdefault(check_id, set()).add(self.field)
        return lift(self)

    monkeypatch.setattr(MultiPoly, "_held", recording)
    for check_id in VERIFY_IDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", check_id, "--field", field]) == 0
    assert {c for c, fields in built.items() if QQ in fields} <= {"ex23", "ex24"}
    own = {f for fields in built.values() for f in fields} - {QQ}
    if field == "fp:11":
        assert own == set()
    else:
        assert own == {field_from_descriptor(field), field_from_descriptor("ext:5t^2-1")}


# ------------------------------------------------- the held Q[t]/(m) store

HELD_EXTS = [EXT_I, EXT_CBRT2, EXT_5, field_from_descriptor("ext:2t^3-3")]
HELD_EXT_IDS = ["ext:t^2+1", "ext:t^3-2", "ext:5t^2-1", "ext:2t^3-3"]


@pytest.mark.parametrize("field", [QQ, *HELD_EXTS], ids=["q", *HELD_EXT_IDS])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_pair_and_terms_views_agree(field, data):
    """A polynomial built from its pair reads back the terms it was lifted
    from, key order included; one built from the terms of a held polynomial
    lifts to the same normal-form pair. The zero polynomial is one case."""
    cs = coeffs if field is QQ else st.tuples(*[coeffs] * field.degree)
    p = data.draw(polys_over(T2, field, cs, exps2, max_size=8))
    for q in (p, MultiPoly.zero(T2, field)):
        held = MultiPoly._from_pair(T2, field, q._held())
        assert list(held.terms.items()) == list(q.terms.items())
    vals = st.integers(-60, 60)
    raw = data.draw(st.dictionaries(
        exps2, vals if field is QQ else st.tuples(*[vals] * field.degree), max_size=8))
    for held in (poly._held_poly(T2, field, raw, data.draw(st.integers(1, 90))),
                 MultiPoly._from_pair(T2, field, ({}, 1))):
        ints, den = held._pair
        back = MultiPoly(T2, field, held.terms)._held()
        assert back == (ints, den) and list(back[0]) == list(ints)


def ext_polys(field, **kw):
    """Laurent polynomials over ``field`` with full-length coefficient
    vectors, built term by term."""
    cs = st.tuples(*[coeffs] * field.degree)
    return polys_over(T2, field, cs, exps2, **kw)


def field_sum(p, q, sign=1):
    """``p + sign*q`` through the field's own ``add``/``neg``, as an oracle."""
    f = p.field
    out = dict(p.terms)
    for e, c in q.terms.items():
        c = c if sign == 1 else f.neg(c)
        out[e] = f.add(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if not f.is_zero(c)}


def assert_held_ext(got, want, is_held=True):
    """``got``'s held pair is in normal form and its ``terms`` read as the raw
    dict ``want``; with ``is_held``, ``got`` is held itself (a zero operand,
    or a monomial with coefficient 1, may short-cut a product to a plain
    result)."""
    assert got._pair is not None or not is_held
    ints, den = got._held()
    d = got.field.degree
    assert type(den) is int and den > 0
    assert all(type(v) is tuple and len(v) == d and any(v) for v in ints.values())
    assert all(type(x) is int for v in ints.values() for x in v)
    assert gcd(den, *[x for v in ints.values() for x in v]) == 1
    assert got.terms == want
    assert got.terms.keys() == ints.keys()


@pytest.mark.parametrize("field", HELD_EXTS, ids=HELD_EXT_IDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_held_ext_products_match_generic(field, data):
    p = data.draw(ext_polys(field, min_size=1, max_size=8))
    q = data.draw(ext_polys(field, min_size=1, max_size=8))
    want = generic_product(p, q)
    for u, v in ((p, q), (int_held(p), q), (p, int_held(q)), (int_held(p), int_held(q))):
        assert_held_ext(u * v, want, len(p) > 1 and len(q) > 1)


@pytest.mark.parametrize("field", HELD_EXTS, ids=HELD_EXT_IDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_held_ext_sums_negation_and_monomials(field, data):
    p = data.draw(ext_polys(field, max_size=8))
    q = data.draw(ext_polys(field, max_size=8))
    for u, v in ((p, q), (int_held(p), q), (p, int_held(q)), (int_held(p), int_held(q))):
        assert_held_ext(u + v, field_sum(p, q))
        assert_held_ext(u - v, field_sum(p, q, -1))
    # sums that cancel to zero, in full and in part
    for u in (p, int_held(p)):
        assert_held_ext(u - p, {})
        assert (u - p)._pair == ({}, 1)
    assert_held_ext((p + q) - q, {e: c for e, c in p.terms.items()})
    assert_held_ext(-int_held(p), {e: field.neg(c) for e, c in p.terms.items()})
    assert_held_ext(-p, {e: field.neg(c) for e, c in p.terms.items()}, False)
    # monomial products and shifts: a vector coefficient, a rational one
    me = data.draw(exps2)
    shifted = {tuple(x + y for x, y in zip(e, me)): c for e, c in p.terms.items()}
    assert_held_ext(int_held(p).shift_exponents(me), shifted)
    vector = data.draw(nonzero(field, st.tuples(*[coeffs] * field.degree)))
    rational = data.draw(nonzero(field, coeffs))
    for c in (vector, rational):
        raw = field.coerce(c)
        mono = MultiPoly.monomial(T2, field, me, raw)
        want = {e: field.mul(v, raw) for e, v in shifted.items()}
        unit = raw == field.one
        for m in (mono, int_held(mono)):
            for u in (p, int_held(p)):
                assert_held_ext(u * m, want, not unit and len(p) > 0)
                assert_held_ext(m * u, want, not unit and len(p) > 0)
        assert_held_ext(int_held(p).scale(raw),
                        {e: field.mul(v, raw) for e, v in p.terms.items()})
    k = data.draw(st.integers(-4, 6))
    assert_held_ext(truncate_var(int_held(p), {"x": k}),
                    {e: c for e, c in p.terms.items() if e[0] < k})


@pytest.mark.parametrize("field", HELD_EXTS, ids=HELD_EXT_IDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_held_ext_equality_and_substitution(field, data):
    p = data.draw(ext_polys(field, max_size=8))
    q = data.draw(ext_polys(field, max_size=8))
    same = p.terms == q.terms
    for u in (p, int_held(p)):
        for v in (q, int_held(q)):
            assert (u == v) is same and (v == u) is same
    assert int_held(p) == p and p == int_held(p)
    # per-term built and held forms of one sum compare equal both ways
    built = MultiPoly(T2, field, field_sum(p, q))
    assert p + q == built and built == p + q
    # substitution against the term-by-term oracle: on the held values, and
    # through the terms when an image scales them
    vectors = st.tuples(*[coeffs] * field.degree)
    r = data.draw(polys_over(T2, field, vectors, nn_exps2, max_size=8))
    img = data.draw(ext_polys(field, min_size=2, max_size=4))
    y = MultiPoly.var(T2, field, "y")
    scaled = y.scale(data.draw(nonzero(field, vectors)))
    for u in (r, int_held(r)):
        for images in ({"x": img}, {"x": int_held(img), "y": y * y + 1}, {"y": scaled}):
            assert_held_ext(substitute(u, images), naive_substitute(r, images),
                            bool(r) and images.get("y") is not scaled)


@pytest.mark.parametrize("field", HELD_EXTS, ids=HELD_EXT_IDS)
def test_held_ext_products_and_sums_build_no_field_element(monkeypatch, field):
    x = MultiPoly.var(T2, field, "x")
    y = MultiPoly.var(T2, field, "y")
    t = MultiPoly.const(T2, field, field.generator)
    p = int_held(t * x ** 2 + y - x.scale(Fraction(2, 3)))
    q = int_held(x * y.scale(Fraction(5, 7)) + t * t * y + 1)
    want = generic_product(p, q)

    def refuse(self, v, den):
        raise AssertionError("a held product or sum built a field element")

    monkeypatch.setattr(QuotientExtension, "_from_ints", refuse)
    prod, total = p * q, p + q - q
    monkeypatch.undo()
    assert_held_ext(prod, want)
    assert_held_ext(total, p.terms)
