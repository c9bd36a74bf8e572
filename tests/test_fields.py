from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from a2bundle.errors import BadFieldSpec, DivisionByZero, FieldMismatch
from a2bundle.fields import (
    QQ,
    FieldElem,
    PrimeField,
    QuotientExtension,
)

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
        a / QQ.zero_elem()


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
    assert (t * t).value == (Fraction(1, 5), Fraction(0))


def test_extension_rejects_reducible_and_big():
    with pytest.raises(BadFieldSpec):
        QuotientExtension((Fraction(-1), Fraction(0), Fraction(1)))  # t^2 - 1
    with pytest.raises(BadFieldSpec):
        QuotientExtension((Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)))  # roots 1,2,3
    with pytest.raises(BadFieldSpec):
        QuotientExtension((Fraction(2), Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
    # t^3 - 2 is fine
    QuotientExtension((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)))


def test_extension_inverse():
    t = EXT.elem(EXT.generator)
    one = EXT.one_elem()
    # 1/t = 5t since t^2 = 1/5
    assert (one / t).value == (Fraction(0), Fraction(5))
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
    neg, body, parens = EXT.coeff_str((Fraction(1), Fraction(-1)))  # 1 - t
    assert neg is True and body == "t - 1" and parens is True
    neg, body, parens = EXT.coeff_str((Fraction(0), Fraction(1)))
    assert (neg, body, parens) == (False, "t", False)


def test_descriptors():
    assert QQ.descriptor() == "q"
    assert F11.descriptor() == "fp:11"
    assert EXT.descriptor() == "ext:t^2-1/5"


def test_field_mismatch_and_arith_dispatch():
    with pytest.raises(FieldMismatch):
        QQ.elem(1) + F11.elem(1)


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
