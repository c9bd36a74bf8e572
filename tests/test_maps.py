import random
from fractions import Fraction

import pytest

from a2bundle.errors import (
    CongruenceFailed,
    InvalidGenerator,
    MembershipError,
)
from a2bundle.fields import QQ
from a2bundle.maps import (
    Lemma41Block,
    Permute,
    Scale,
    Triangular,
    check_membership,
    flatten,
    invert,
    lemma41_build,
)
from a2bundle.poly import MultiPoly, RingDescriptor, VarTable
from a2bundle.exprio import parse

TAB = VarTable(("a", "b", "x", "y"), laurent=("a", "b"))
BASE = ("a", "b")


def p(expr):
    return parse(expr, TAB, QQ)


def var(name):
    return MultiPoly.var(TAB, QQ, name)


def one():
    return MultiPoly.const(TAB, QQ, 1)


# ------------------------------------------------------------- generators


def test_triangular_validation():
    Triangular("x", p("a*y^2 + 1"))  # fine
    with pytest.raises(InvalidGenerator):
        Triangular("x", p("x + y"))
    with pytest.raises(InvalidGenerator):
        Triangular("z", p("y"))


def test_scale_validation():
    Scale("x", p("a^-2*b"))  # fine
    with pytest.raises(InvalidGenerator):
        Scale("x", p("a + b"))
    with pytest.raises(InvalidGenerator):
        Scale("x", p("a*x"))
    with pytest.raises(InvalidGenerator):
        Scale("y", MultiPoly.zero(TAB, QQ))


def test_permute_validation():
    Permute({"x": "y", "y": "x"})  # fine
    with pytest.raises(InvalidGenerator):
        Permute({"x": "y"})
    with pytest.raises(InvalidGenerator):
        Permute({"x": "y", "y": "y"})


def test_triangular_apply_and_inverse():
    w = (Triangular("x", p("a*y + 1")),)
    m = flatten(w, TAB, QQ, BASE)
    assert m.comps["x"] == p("x + a*y + 1")
    assert m.comps["y"] == var("y")
    assert flatten(w + invert(w), TAB, QQ, BASE).is_identity()


def test_scale_apply_and_inverse():
    w = (Scale("y", p("a^-1*b^2")),)
    m = flatten(w, TAB, QQ, BASE)
    assert m.comps["y"] == p("a^-1*b^2*y")
    assert flatten(invert(w) + w, TAB, QQ, BASE).is_identity()


def test_permute_apply_is_simultaneous():
    w = (Permute({"x": "y", "y": "x"}),)
    m = flatten(w, TAB, QQ, BASE)
    assert m.comps["x"] == var("y")
    assert m.comps["y"] == var("x")
    assert flatten(w + w, TAB, QQ, BASE).is_identity()


def test_permute_parity():
    swap = Permute({"x": "y", "y": "x"})
    assert swap.sign() == -1
    cyc = Permute({"a": "b", "b": "x", "x": "a"})
    assert cyc.sign() == 1


# ---------------------------------------------------------------- the block


def test_block_congruence_checked_on_construction():
    f = p("x^2")
    # partner produced by the builder passes...
    phi = lemma41_build(TAB, QQ, "x", "y", var("a"), 2, p("x"), f)
    block = phi[0]
    assert isinstance(block, Lemma41Block)
    # ...but pairing f with a wrong partner fails the stored congruence
    with pytest.raises(CongruenceFailed):
        Lemma41Block("x", "y", var("a"), 2, p("x"), f, p("x^2 + a*x"))


def test_block_shape_validation():
    f = p("x^2")
    with pytest.raises(InvalidGenerator):
        Lemma41Block("x", "x", var("a"), 1, p("x"), f, f)
    with pytest.raises(InvalidGenerator):
        Lemma41Block("x", "y", var("a"), -1, p("x"), f, f)
    with pytest.raises(InvalidGenerator):
        Lemma41Block("x", "y", var("a"), 1, p("x*y"), f, f)
    with pytest.raises(InvalidGenerator):
        Lemma41Block("x", "y", MultiPoly.zero(TAB, QQ), 1, p("x"), f, f)


def test_lemma41_build_m1_keeps_f():
    phi = lemma41_build(TAB, QQ, "x", "y", var("a"), 1, p("x"), p("x^2"))
    psi = invert(phi)
    assert phi[0].g == p("x^2")
    m = flatten(phi, TAB, QQ, BASE)
    assert m.comps["x"] == p("x + a^2*y + a*x^2")
    assert flatten(phi + psi, TAB, QQ, BASE).is_identity()
    assert flatten(psi + phi, TAB, QQ, BASE).is_identity()


def test_lemma41_build_zero_q_is_identity():
    phi = lemma41_build(TAB, QQ, "x", "y", var("a"), 3,
                        MultiPoly.zero(TAB, QQ), p("x^3 - x"))
    assert flatten(phi, TAB, QQ, BASE).is_identity()


def test_lemma41_build_roundtrip_m3():
    # q is kept linear: the partner polynomial has degree
    # deg(f)*(deg(f)*deg(q))^(m-1), which explodes for higher q
    f = p("x^2 + b^-1*x")
    q = p("x + 1")
    phi = lemma41_build(TAB, QQ, "x", "y", var("a"), 3, q, f)
    psi = invert(phi)
    assert flatten(phi + psi, TAB, QQ, BASE).is_identity()
    assert flatten(psi + phi, TAB, QQ, BASE).is_identity()


def test_block_jacobian_is_one():
    phi = lemma41_build(TAB, QQ, "x", "y", var("a"), 2, p("x^2"), p("x^2 + x"))
    m = flatten(phi, TAB, QQ, BASE)
    assert m.jac == one()
    assert m.jacobian_det() == one()


# ------------------------------------------------------- flattened PolyMaps


def _rand_poly(rng, names, deg, n_terms, laurent=False):
    """Small random polynomial in the given variables."""
    terms = {}
    for _ in range(n_terms):
        exps = [0, 0, 0, 0]
        for nm in names:
            i = TAB.index(nm)
            lo = -2 if (laurent and nm in ("a", "b")) else 0
            exps[i] = rng.randint(lo, deg)
        c = rng.choice([-2, -1, 1, 2])
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    out = MultiPoly(TAB, QQ, {e: Fraction(c) for e, c in terms.items() if c})
    return out


def _rand_word(rng, length):
    # at most one block per word: nesting blocks compounds composed degrees
    # multiplicatively and random chains blow up fast
    block_at = rng.randrange(length + 2)
    word = []
    for i in range(length):
        if i == block_at:
            m = rng.randint(1, 2)
            q = _rand_poly(rng, ["x"], 1, 2)
            f = _rand_poly(rng, ["b", "x"], 2, 2, laurent=True)
            phi = lemma41_build(TAB, QQ, "x", "y", var("a"), m, q, f)
            word.append(phi[0])
            continue
        kind = rng.randrange(3)
        if kind == 0:
            v = rng.choice(["x", "y"])
            other = "y" if v == "x" else "x"
            shift = _rand_poly(rng, ["a", "b", other], 2, 3, laurent=True)
            word.append(Triangular(v, shift))
        elif kind == 1:
            v = rng.choice(["x", "y"])
            e_a, e_b = rng.randint(-2, 2), rng.randint(-2, 2)
            unit = MultiPoly.monomial(
                TAB, QQ, (e_a, e_b, 0, 0), Fraction(rng.choice([-2, -1, 1, 2])))
            word.append(Scale(v, unit))
        else:
            word.append(Permute({"x": "y", "y": "x"}))
    return tuple(word)


def test_random_words_invert_and_chain_rule():
    rng = random.Random(42)
    for trial in range(50):
        word = _rand_word(rng, rng.randint(1, 4))
        m = flatten(word, TAB, QQ, BASE)
        # word followed by its inverse collapses to the identity
        assert flatten(word + invert(word), TAB, QQ, BASE).is_identity()
        # chain-rule Jacobian agrees with the full-matrix determinant
        assert m.jac == m.jacobian_det()
        # continuing a flattened prefix equals folding the whole word
        for k in range(len(word) + 1):
            head = flatten(word[:k], TAB, QQ, BASE)
            cont = flatten(word[k:], TAB, QQ, BASE, start=head)
            assert cont == m and cont.jac == m.jac


def test_scale_pushes_its_unit_through_once(monkeypatch):
    # the Jacobian factor of a scale is the pushforward its own apply
    # computes, so the image of ``a`` is raised to the unit's power once
    unit = p("2*a^-3")
    powers = []
    real_pow = MultiPoly.__pow__

    def counting_pow(self, n):
        powers.append(n)
        return real_pow(self, n)

    monkeypatch.setattr(MultiPoly, "__pow__", counting_pow)
    m = flatten((Scale("x", unit),), TAB, QQ, BASE)
    assert powers.count(-3) == 1
    assert m.jac == unit


def test_triangular_and_block_words_multiply_no_jacobian_factor():
    # continuing a map in hand: its jac object comes back untouched
    scale = (Scale("x", p("2*a")),)
    head = flatten(scale, TAB, QQ, BASE)
    word = ((Triangular("x", p("a*y^2 + b^-1")),)
            + lemma41_build(TAB, QQ, "x", "y", var("a"), 2, p("x"), p("x^2"))
            + (Triangular("y", p("x - a")),))
    cont = flatten(word, TAB, QQ, BASE, start=head)
    assert cont.jac is head.jac
    assert cont == flatten(scale + word, TAB, QQ, BASE)
    assert cont.jacobian_det() == p("2*a")


def test_flatten_rejects_moving_base_vars():
    with pytest.raises(InvalidGenerator):
        flatten((Triangular("a", p("x")),), TAB, QQ, BASE)


# ------------------------------------------------------------- memberships


def test_check_membership():
    ring = RingDescriptor.polynomials(TAB).allow_negative("a", "b")
    m = flatten((Scale("x", p("a^-1")),), TAB, QQ, BASE)
    check_membership(m, ring)  # passes

    strict = RingDescriptor.polynomials(TAB)
    with pytest.raises(MembershipError) as ei:
        check_membership(m, strict)
    assert ei.value.component == "x"
