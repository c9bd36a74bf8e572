import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from a2bundle.errors import BadFieldSpec, DivisionByZero, FieldMismatch, Record
from a2bundle.exprio import field_from_descriptor, parse
from a2bundle.fields import (
    QQ,
    FieldElem,
    PrimeField,
    QuotientExtension,
    Rationals,
    _rational_roots_exist,
)
from a2bundle.poly import VarTable

F11 = PrimeField(11)
# t^2 - 1/5, handed over as 5t^2 - 1 to exercise the monic normalization
EXT = QuotientExtension((Fraction(-1), Fraction(0), Fraction(5)))


def test_rationals_basic():
    a = QQ.elem(Fraction(5, 4))
    b = QQ.elem(-2)
    assert str(a * b) == "-5/2"
    assert str(a - b) == "13/4"
    assert (a / a).value == 1
    with pytest.raises(DivisionByZero):
        a / QQ.elem(0)


@given(st.fractions(max_denominator=10 ** 6).filter(bool))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rational_inverse_keeps_the_sign_in_the_numerator(a):
    for x in (a, -a, Fraction(a.numerator)):
        inv = QQ.inv(x)
        assert inv == 1 / x and inv.denominator > 0


def test_prime_field_requires_prime():
    with pytest.raises(BadFieldSpec):
        PrimeField(12)
    PrimeField(2)
    PrimeField(101)


def test_prime_field_rejects_strong_pseudoprimes():
    # 399165290221 * 798330580441: a strong pseudoprime to every prime base
    # up to 37, caught by base 41
    with pytest.raises(BadFieldSpec, match="not prime"):
        PrimeField(318665857834031151167461)
    # 1287836182261 * 2575672364521: a strong pseudoprime to every prime base
    # up to 41, and the bound below which those bases decide primality
    with pytest.raises(BadFieldSpec, match="too large"):
        PrimeField(3317044064679887385961981)
    PrimeField(3317044064679887385961813)


def test_prime_field_residues():
    a = F11.elem(7)
    b = F11.elem(8)
    assert (a + b).value == 4
    assert (a * b).value == 1  # 56 = 55 + 1
    assert (a / b).value == F11.mul(7, F11.inv(8))
    # fractions parse through numerator * denominator^-1
    assert F11.from_fraction(Fraction(1, 5)) == 9  # 5 * 9 = 45 = 1 mod 11
    with pytest.raises(DivisionByZero):
        F11.from_fraction(Fraction(3, 22))


def test_extension_normalizes_to_monic():
    # 5t^2 - 1 = 0  and  t^2 - 1/5 = 0 define the same field element t
    other = QuotientExtension((Fraction(-1, 5), Fraction(0), Fraction(1)))
    assert EXT.minpoly == other.minpoly == (Fraction(-1, 5), Fraction(0), Fraction(1))
    t = EXT.elem(EXT.generator)
    assert (t * t).value == ((1, 0), 5)  # 1/5


def test_extension_rejects_reducible_and_big():
    with pytest.raises(BadFieldSpec):
        QuotientExtension((Fraction(-1), Fraction(0), Fraction(1)))  # t^2 - 1
    with pytest.raises(BadFieldSpec):
        QuotientExtension((Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)))  # roots 1,2,3
    with pytest.raises(BadFieldSpec):
        QuotientExtension((Fraction(2), Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
    # t^3 - 2 is fine
    QuotientExtension((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)))


def _roots_by_scan(coeffs):
    """Rational root theorem by trial division: the oracle for small inputs."""
    if coeffs[0] == 0:
        return True
    den = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return out

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    return True
    return False


def test_rational_roots_agree_with_the_scan():
    rng = random.Random(7)
    small = lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 4))
    found = {2: 0, 3: 0}
    for _ in range(3000):
        deg = rng.choice((2, 3))
        lead = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        if rng.random() < 0.5:
            # plant a rational root so both answers occur often
            r = small()
            rest = [small() for _ in range(deg - 1)] + [lead]
            coeffs = [Fraction(0)] * (deg + 1)
            for i, c in enumerate(rest):  # (t - r) * rest
                coeffs[i + 1] += c
                coeffs[i] -= r * c
        else:
            coeffs = [small() for _ in range(deg)] + [lead]
        monic = tuple(c / coeffs[-1] for c in coeffs)
        expect = _roots_by_scan(monic)
        assert _rational_roots_exist(monic) == expect, monic
        found[deg] += expect
    assert min(found.values()) > 100


def test_extension_with_huge_constants_is_decided_fast():
    c = 10 ** 30 + 1  # 31 digits; neither a square nor a cube
    t0 = time.perf_counter()
    QuotientExtension((Fraction(-c), Fraction(0), Fraction(1)))
    QuotientExtension((Fraction(-c), Fraction(3), Fraction(0), Fraction(1)))
    QuotientExtension((Fraction(-c), Fraction(0), Fraction(0), Fraction(1)))
    assert time.perf_counter() - t0 < 1.0
    r = 10 ** 20
    with pytest.raises(BadFieldSpec):  # (t - 10^20)(t^2 + 1)
        QuotientExtension((Fraction(-r), Fraction(1), Fraction(-r), Fraction(1)))
    with pytest.raises(BadFieldSpec):  # t^2 - 10^40
        QuotientExtension((Fraction(-r * r), Fraction(0), Fraction(1)))


def test_extension_inverse():
    t = EXT.elem(EXT.generator)
    one = EXT.elem(1)
    # 1/t = 5t since t^2 = 1/5
    assert (one / t).value == ((0, 5), 1)
    x = EXT.elem((Fraction(3, 2), Fraction(-7)))
    assert (x / x).value == EXT.one
    assert ((one / x) * x).value == EXT.one


def test_extension_square_root_of_fifth():
    # in F_11, 1/5 has square root 3 (9 * 5 = 45 = 1); the extension mirrors
    # the same identity symbolically: t^2 * 5 = 1
    t = EXT.elem(EXT.generator)
    five = EXT.elem(5)
    assert (t * t * five).value == EXT.one
    assert F11.mul(F11.mul(3, 3), 5) == 1


def test_coeff_str_shapes():
    assert QQ.coeff_str(Fraction(-5, 4)) == (True, "5/4", False)
    assert F11.coeff_str(9) == (False, "9", False)
    neg, body, parens = EXT.coeff_str(((1, -1), 1))  # 1 - t
    assert neg is True and body == "t - 1" and parens is True
    neg, body, parens = EXT.coeff_str(EXT.generator)
    assert (neg, body, parens) == (False, "t", False)


def test_element_str_keeps_the_sign_of_every_term():
    assert str(QQ.elem(Fraction(-5, 4))) == "-5/4"
    assert str(F11.elem(-2)) == "9"
    assert str(EXT.elem((Fraction(1), Fraction(-1)))) == "-(t - 1)"
    assert str(EXT.elem((Fraction(-1), Fraction(0)))) == "-1"
    assert str(EXT.elem(EXT.generator)) == "t"


def test_descriptors():
    assert QQ.descriptor() == "q"
    assert F11.descriptor() == "fp:11"
    assert EXT.descriptor() == "ext:t^2-1/5"


def test_equal_specs_built_apart_compare_and_hash_equal():
    pairs = [(PrimeField(11), PrimeField(11)), (Rationals(), QQ),
             (field_from_descriptor("ext:5t^2-1"), field_from_descriptor("ext:t^2-1/5"))]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert str(a) == str(b) and repr(a) == repr(b)
    assert PrimeField(11) != PrimeField(13)
    assert field_from_descriptor("ext:t^2+1") != EXT
    for a, b in itertools.combinations([QQ, F11, EXT, FieldElem(F11, 1)], 2):
        assert a != b and b != a
    assert F11 != 11 and EXT != EXT.minpoly and QQ != ()
    assert len({PrimeField(11), F11, QQ, Rationals(), EXT,
                QuotientExtension((Fraction(-1, 5), 0, 1))}) == 3


def test_specs_compare_by_identity_first(monkeypatch):
    """A spec compared with itself, as every polynomial operation does,
    never reads its fields; neither do specs of different kinds."""
    def refuse(self):
        raise AssertionError("compared fields")

    for cls in (Record, QuotientExtension):
        monkeypatch.setattr(cls, "_key", refuse)
    table = VarTable(("x", "y"))
    for F in (QQ, F11, EXT):
        assert F == F and not F != F
        x, y = (parse(v, table, F) for v in "xy")
        assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert QQ != F11 and F11 != EXT and EXT != QQ


def test_field_specs_are_immutable():
    for F, name in ((F11, "p"), (EXT, "minpoly"), (EXT, "zero"), (QQ, "zero")):
        with pytest.raises(AttributeError):
            setattr(F, name, None)
    with pytest.raises(AttributeError):
        del F11.p
    assert F11.p == 11 and F11.elem(3).value == 3


def test_field_mismatch_and_arith_dispatch():
    with pytest.raises(FieldMismatch):
        QQ.elem(1) + F11.elem(1)


@pytest.mark.parametrize("descriptor,other,message", [
    ("q", F11.elem(3), "cannot coerce element of F_11 into Q"),
    ("fp:11", QQ.elem(3), "cannot coerce element of Q into F_11"),
    ("ext:t^2+1", EXT.elem(3), "cannot coerce element of Q[t]/(t^2-1/5) into Q[t]/(t^2+1)"),
    ("ext:t^2+1", QQ.elem(3), "cannot coerce element of Q into Q[t]/(t^2+1)"),
])
def test_coerce_names_both_fields_of_a_foreign_element(descriptor, other, message):
    F = field_from_descriptor(descriptor)
    with pytest.raises(FieldMismatch) as err:
        F.coerce(other)
    assert str(err.value) == message
    own = F.elem(Fraction(3, 2))
    assert F.coerce(own) is own.value


small_rats = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


@given(small_rats, small_rats, small_rats)
def test_rationals_field_axioms(a, b, c):
    A, B, C = QQ.elem(a), QQ.elem(b), QQ.elem(c)
    assert ((A + B) + C).value == (A + (B + C)).value
    assert (A * (B + C)).value == (A * B + A * C).value
    if not B.is_zero():
        assert ((A / B) * B).value == A.value


ext_elems = st.tuples(small_rats, small_rats)


@given(ext_elems, ext_elems, ext_elems)
def test_extension_field_axioms(a, b, c):
    A, B, C = EXT.elem(a), EXT.elem(b), EXT.elem(c)
    assert ((A * B) * C).value == (A * (B * C)).value
    assert (A * (B + C)).value == (A * B + A * C).value
    if not B.is_zero():
        assert ((A / B) * B).value == A.value


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_f11_axioms(a, b, c):
    A, B, C = F11.elem(a), F11.elem(b), F11.elem(c)
    assert ((A + B) + C).value == (A + (B + C)).value
    assert (A * (B + C)).value == (A * B + A * C).value
    if not B.is_zero():
        assert ((A / B) * B).value == A.value


# ------------------------------------------- integer reduction in Q[t]/(m)


def fraction_reduce(field, coeffs):
    """The Fraction-by-Fraction reduction modulo the minpoly, top degree
    first, as an oracle for the integer reduction."""
    d, m = field.degree, field.minpoly
    coeffs = list(coeffs) + [Fraction(0)] * max(0, d - len(coeffs))
    for k in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        coeffs[k] = Fraction(0)
        for i in range(d):
            coeffs[k - d + i] -= c * m[i]
    return tuple(coeffs[:d])


def fraction_mul(field, a, b):
    prod = [Fraction(0)] * (2 * field.degree - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return fraction_reduce(field, prod)


EXTS = [QuotientExtension((Fraction(1), Fraction(0), Fraction(1))),
        QuotientExtension((Fraction(-2), Fraction(0), Fraction(0), Fraction(1))),
        EXT]
EXT_IDS = ["ext:t^2+1", "ext:t^3-2", "ext:5t^2-1"]
# mixed denominators, with zero components common enough to matter
components = st.one_of(st.just(Fraction(0)), small_rats)


def as_fractions(value):
    """The residue coefficients of a raw ``(ints, den)`` value, low to high."""
    ints, den = value
    return tuple(Fraction(x, den) for x in ints)


def assert_element(field, got, want):
    """``got`` is the normal form of the element with coefficients ``want``."""
    assert as_fractions(got) == want
    ints, den = got
    assert type(ints) is tuple and len(ints) == field.degree
    assert all(type(x) is int for x in (den, *ints))
    assert den >= 1 and gcd(den, *ints) == 1
    assert any(ints) or got is field.zero


def test_reduction_modulus_is_primitive():
    # the primitive integer multiple of m, low to high, and the growth
    # factor L + C of one pseudo-division step: its leading coefficient L
    # plus the largest absolute value C among the others
    assert EXTS[0]._mod == ([1, 0, 1], 2)  # t^2 + 1
    assert EXTS[1]._mod == ([-2, 0, 0, 1], 3)  # t^3 - 2
    assert EXT._mod == ([-1, 0, 5], 6)  # 5t^2 - 1, not the monic t^2 - 1/5
    assert QuotientExtension((Fraction(-3), 0, 0, Fraction(2)))._mod == ([-3, 0, 0, 2], 5)


@pytest.mark.parametrize("field", EXTS, ids=EXT_IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_reduction_matches_fraction_oracle(field, data):
    d = field.degree
    v = data.draw(st.lists(components, min_size=1, max_size=2 * d - 1))
    want = fraction_reduce(field, v)
    assert_element(field, field._reduce(v), want)
    ints = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=1,
                              max_size=2 * d - 1))
    den = data.draw(st.integers(1, 60))
    assert_element(field, field._from_ints(ints, den),
                   fraction_reduce(field, [Fraction(x, den) for x in ints]))
    if len(v) > d:
        assert_element(field, field.coerce(tuple(v)), want)


@pytest.mark.parametrize("field", EXTS, ids=EXT_IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_mul_matches_fraction_oracle(field, data):
    elems = st.lists(components, min_size=field.degree, max_size=field.degree)
    a, b = tuple(data.draw(elems)), tuple(data.draw(elems))
    assert_element(field, field.mul(field.coerce(a), field.coerce(b)),
                   fraction_mul(field, a, b))


@pytest.mark.parametrize("field", EXTS, ids=EXT_IDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_arithmetic_matches_fraction_oracles(field, data):
    elems = st.lists(components, min_size=field.degree, max_size=field.degree)
    a, b = tuple(data.draw(elems)), tuple(data.draw(elems))
    x, y = field.coerce(a), field.coerce(b)
    assert_element(field, x, a)
    assert_element(field, field.add(x, y), tuple(p + q for p, q in zip(a, b)))
    assert_element(field, field.add(x, x), tuple(2 * p for p in a))
    assert_element(field, field.sub(x, y), tuple(p - q for p, q in zip(a, b)))
    assert_element(field, field.neg(x), tuple(-p for p in a))
    assert_element(field, field.mul(x, y), fraction_mul(field, a, b))
    zero = as_fractions(field.zero)
    assert_element(field, field.sub(x, x), zero)
    assert_element(field, field.add(x, field.neg(x)), zero)
    if not any(b):
        with pytest.raises(DivisionByZero):
            field.inv(y)
        return
    inv, quo = field.inv(y), field.div(x, y)
    assert_element(field, inv, as_fractions(inv))
    assert fraction_mul(field, as_fractions(inv), b) == as_fractions(field.one)
    assert_element(field, quo, as_fractions(quo))
    assert fraction_mul(field, as_fractions(quo), b) == a


@pytest.mark.parametrize("field", EXTS, ids=EXT_IDS)
def test_reduction_of_long_tuples(field):
    # longer than 2d - 1, beyond the precomputed rows
    v = tuple(Fraction(k + 1, k + 2) for k in range(3 * field.degree))
    assert_element(field, field.coerce(v), fraction_reduce(field, v))
    assert field._from_ints([0] * (2 * field.degree - 1), 3) is field.zero


@pytest.mark.parametrize("field", EXTS, ids=EXT_IDS)
def test_generator_is_a_constant(field):
    assert field.generator is field.generator
    assert as_fractions(field.generator) == (0, 1) + (0,) * (field.degree - 2)
    t = field.generator
    assert field.mul(t, t) == field.coerce((0, 0, 1))  # the class of t^2


@pytest.mark.parametrize("field", EXTS, ids=EXT_IDS)
def test_one_and_zero_are_constants(field):
    assert field.one is field.one
    assert field.zero is field.zero
    assert field.one == ((1,) + (0,) * (field.degree - 1), 1)
    assert field.zero == ((0,) * field.degree, 1)
