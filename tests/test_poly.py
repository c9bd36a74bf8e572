from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from a2bundle import poly
from a2bundle.errors import (
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
from a2bundle.fields import QQ, PrimeField, QuotientExtension
from a2bundle.poly import (
    MultiPoly,
    RingDescriptor,
    VarTable,
    congruent_mod_power,
    divide_exact,
    split_negative_parts,
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
    acc = sympy.Integer(0)
    for (i, j), c in p.terms.items():
        acc += sympy.Rational(c) * x**i * y**j
    return acc


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
    # every component of every pair is M * -N: the x^(k-1) output sums k pairs
    # of d products each, so its middle component is the most negative value
    # the packing width allows for
    m, n = big(0), big(1)
    for k in (3, 23):  # 9 pairs on tuple keys, 529 on packed keys
        p = sum((x ** i).scale((m,) * d) for i in range(k))
        q = sum((x ** j).scale((-n,) * d) for j in range(k))
        assert_kernel_matches_oracle(p, q)
        width, _, ai, bi = poly._pack_vectors(p.terms, q.terms, d)
        comps = [c for s in poly._convolve(ai, bi).values()
                 for c in poly._digits(s, width, 2 * d - 1)]
        assert min(comps) == -m.numerator * n.numerator * d * k


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
    assert p.total_degree() == -2
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


def test_set_vars_to_zero():
    p = mk(T2, {(2, 1): 1, (0, 2): 4, (0, 0): 9})
    assert p.set_vars_to_zero(["x"]) == mk(T2, {(0, 2): 4, (0, 0): 9})
    q = mk(T3, {(-1, 0, 0): 1})
    with pytest.raises(NegativeExponentAtZero):
        q.set_vars_to_zero(["a"])


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
    one_plus_t = (Fraction(1), Fraction(1))
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


@given(sub_polys, sub_polys, sub_polys)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_substitute_matches_sympy(p, img_x, img_y):
    got = substitute(p, {"x": img_x, "y": img_y})
    want = to_sympy(p, (X, Y)).subs(
        [(X, to_sympy(img_x, (X, Y))), (Y, to_sympy(img_y, (X, Y)))],
        simultaneous=True)
    assert sympy.expand(to_sympy(got, (X, Y)) - want) == 0


def naive_substitute(poly, images, into=None, field=None):
    """Term-by-term substitution, as an oracle: each term becomes its
    coefficient times a power of every image, and the terms are summed."""
    f = field or poly.field
    target = into or next((v.table for v in images.values()
                           if isinstance(v, MultiPoly)), poly.table)

    def image(name):
        if name not in images:
            return MultiPoly.var(target, f, name)
        v = images[name]
        return v if isinstance(v, MultiPoly) else MultiPoly.const(target, f, v)

    out = MultiPoly.zero(target, f)
    for e, c in poly.terms.items():
        term = MultiPoly.const(target, f, f.coerce(c))
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


@pytest.mark.parametrize("field, cs", FIELDS[1:], ids=FIELD_IDS[1:])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_substitute_matches_naive_into_another_field(field, cs, data):
    # rational coefficients are carried into the target field; over F_11
    # some of them vanish there
    q_coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=10)
    p = data.draw(polys_over(T2, QQ, q_coeffs, nn_exps2, max_size=8))
    images = {"y": data.draw(polys_over(T4, field, cs, small4, max_size=4))}
    got = substitute(p, images, into=T4, field=field)
    assert got.field == field
    assert got.terms == naive_substitute(p, images, into=T4, field=field)


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
    counts = {"__pow__": 0, "_mul_dict": 0}

    def counting(name):
        inner = getattr(MultiPoly, name)

        def wrapper(*args):
            counts[name] += 1
            return inner(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(MultiPoly, name, counting(name))
    assert substitute(p, {"x": x + y}).terms == want
    assert counts["__pow__"] == 0
    assert counts["_mul_dict"] <= 8


# -------------------------------------------------- congruences and filters


def test_congruent_mod_power():
    p = mk(T2, {(3, 0): 1, (1, 1): 2})
    q = mk(T2, {(1, 1): 2, (4, 2): -9})
    assert congruent_mod_power(p, q, "x", 3)
    assert not congruent_mod_power(p, q, "x", 4)
    assert congruent_mod_power(p, p, "x", 100)


def test_congruent_mod_power_ambient():
    # the difference must stay inside the declared ambient ring
    p = mk(T3, {(2, 0, 1): 1})
    q = mk(T3, {(2, -1, 0): 5})
    ok = RingDescriptor.polynomials(T3).allow_negative("b")
    assert congruent_mod_power(p, q, "a", 2, ambient=ok)
    strict = RingDescriptor.polynomials(T3)
    with pytest.raises(NotInAmbientRing):
        congruent_mod_power(p, q, "a", 2, ambient=strict)
    # negative powers of the congruence variable itself are always rejected
    r = mk(T3, {(-1, 0, 0): 1})
    with pytest.raises(NotInAmbientRing):
        congruent_mod_power(r, MultiPoly.zero(T3, QQ), "a", 1)


def test_truncate_var():
    p = mk(T2, {(0, 0): 1, (1, 0): 2, (2, 0): 3})
    assert truncate_var(p, "x", 2) == mk(T2, {(0, 0): 1, (1, 0): 2})


def test_split_negative_parts():
    p = mk(T3, {(-1, -1, 0): 1, (-1, 2, 0): 2, (0, 0, 3): 3, (2, -3, 1): 4})
    dneg, b_ok, a_only = split_negative_parts(p, "a", "b")
    assert dneg == mk(T3, {(-1, -1, 0): 1})
    # terms with e_b >= 0 land in the middle part even when e_a < 0
    assert b_ok == mk(T3, {(-1, 2, 0): 2, (0, 0, 3): 3})
    assert a_only == mk(T3, {(2, -3, 1): 4})
    assert dneg + b_ok + a_only == p


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
