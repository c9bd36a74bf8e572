import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2bundle import bundles, maps, poly
from a2bundle.bivariable import lemma44_bivariable, to_glue
from a2bundle.bundles import congruence_data, prop45_check
from a2bundle.errors import (
    CongruenceFailed,
    InvalidGenerator,
    MembershipError,
)
from a2bundle.fibration import PLANE, PVAR
from a2bundle.fields import QQ
from a2bundle.maps import (
    Lemma41Block,
    Permute,
    PolyMap,
    Scale,
    Triangular,
    check_membership,
    flatten,
    invert,
    lemma41_build,
)
from a2bundle.poly import MultiPoly, RingDescriptor, VarTable, substitute
from a2bundle.exprio import field_from_descriptor, parse

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


def test_generators_are_immutable_values_of_their_own_kind():
    shift = p("a*y + 1")
    tri, scale = Triangular("x", shift), Scale("x", p("a"))
    assert tri == Triangular("x", p("a*y + 1")) and tri != Triangular("y", p("x"))
    assert Triangular("x", p("a")) != Scale("x", p("a"))
    assert tri != ("x", shift) and Permute({"x": "y", "y": "x"}) != (("x", "y"), ("y", "x"))
    assert Permute({"x": "y", "y": "x"}) == Permute({"y": "x", "x": "y"})
    assert hash(Permute({"x": "y", "y": "x"})) == hash(Permute({"y": "x", "x": "y"}))
    assert repr(Permute({"x": "y", "y": "x"})) == "Permute(mapping=(('x', 'y'), ('y', 'x')))"
    with pytest.raises(TypeError):
        iter(tri)
    for gen, name in ((tri, "shift"), (scale, "var")):
        with pytest.raises(AttributeError):
            setattr(gen, name, one())
    with pytest.raises(TypeError):
        RingDescriptor(TAB, (0, 0, 0, 0))  # a missing field, not an unset slot


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


def full_expansion_accepts(scalar, m, q, f, g):
    """The block congruence decided on the full partner, the oracle for the
    block's truncated check: with ``t = A^m*y + f`` and
    ``v = x + A*Q(t)``, ``(t - g(v)) * A^-m`` has no negative power of a
    variable of ``A``."""
    _, _, x, y = MultiPoly.gens(TAB, scalar.field)
    t = scalar ** m * y + f
    v = x + scalar * substitute(q, {"x": t})
    quot = (t - substitute(g, {"x": v})) * scalar ** -m
    return all((quot.min_degree_in(n) or 0) >= 0 for n in TAB.names if scalar.involves(n))


@pytest.mark.parametrize("desc", ["q", "fp:11", "ext:t^2+1"])
def test_block_accepts_exactly_what_the_full_expansion_accepts(desc):
    F = field_from_descriptor(desc)
    a, b, _, _ = MultiPoly.gens(TAB, F)
    coeffs = [1, -1, 2, Fraction(1, 2)]
    if desc.startswith("ext"):
        coeffs.append(parse("t", TAB, F).constant_value())
    seen = set()

    def terms(data, a_deg, x_deg, most):
        drawn = data.draw(st.lists(st.tuples(
            st.sampled_from(coeffs), st.integers(0, a_deg), st.integers(0, 3),
            st.integers(0, x_deg)), min_size=1, max_size=most))
        return sum((MultiPoly.monomial(TAB, F, (i, j, k, 0), c) for c, i, j, k in drawn),
                   MultiPoly.zero(TAB, F))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def run(data):
        scalar = data.draw(st.sampled_from([a, b, a * b, a.scale(2)]))
        m = data.draw(st.integers(0, 3))
        q, f = terms(data, 1, 1, 2), terms(data, 1, 2, 2)
        # the builder's partner plus one term of random a-degree
        g = lemma41_build(TAB, F, "x", "y", scalar, m, q, f)[0].g + terms(data, 4, 2, 1)
        try:
            accepted = bool(Lemma41Block("x", "y", scalar, m, q, f, g))
        except CongruenceFailed:
            accepted = False
        assert accepted == full_expansion_accepts(scalar, m, q, f, g)
        seen.add(accepted)

    run()
    assert seen == {True, False}


@pytest.mark.parametrize("scalar, which, bad", [
    ("a", "f", "a^-1*x"), ("a", "q", "x/a"), ("a", "g", "x^2 + a^-2"),
    ("a*b", "f", "b^-1*x^2"), ("b", "g", "x*b^-1"), ("a^-1", "f", "x^2"),
])
def test_block_rejects_inverting_a_variable_of_its_scalar(scalar, which, bad):
    args = {"q": p("x"), "f": p("x^2"), "g": p("x^2"), which: p(bad)}
    with pytest.raises(InvalidGenerator, match="inverts a variable"):
        Lemma41Block("x", "y", p(scalar), 1, args["q"], args["f"], args["g"])
    # a variable outside the scalar may be inverted
    assert lemma41_build(TAB, QQ, "x", "y", p("a"), 2, p("b^-1*x"), p("x^2 + b^-1"))


def test_lemma44_block_substitutes_into_q_alone(monkeypatch):
    hat = lemma44_bivariable(parse("z^2", PVAR, QQ))
    block = next(gen for gen in hat.beta_word if isinstance(gen, Lemma41Block))
    seen, real = [], maps.substitute

    def recording(target, images, into=None):
        seen.append(target)
        return real(target, images, into)

    for module in (maps, poly):
        monkeypatch.setattr(module, "substitute", recording)
    Lemma41Block(*[getattr(block, name) for name in block.__slots__])
    assert seen and all(target is block.q for target in seen)


@pytest.mark.parametrize("field, payload, residual", [
    ("q", "x", "3/4*a^2*x^4*b^-3 + a*x^3*b^-2"),
    ("ext:t^2+1", "t*x", "(3*t - 1/4)*a^2*x^4*b^-3 + (2*t - 1)*a*x^3*b^-2"),
])
def test_block_failure_carries_the_residual_prop45_reports(monkeypatch, field, payload,
                                                           residual):
    F = field_from_descriptor(field)
    f_b, g_b, m, _ = congruence_data("ex46", F)
    q = parse(payload, PLANE, F)
    with pytest.raises(CongruenceFailed) as ei:
        Lemma41Block("x", "y", MultiPoly.var(TAB, F, "a"), m, to_glue(q), to_glue(f_b),
                     to_glue(g_b))
    assert str(ei.value.residual) == residual
    # prop45_check reports that residual from one congruence decision
    calls, real = [], poly.residual_mod
    monkeypatch.setattr(maps, "residual_mod", lambda *args: calls.append(1) or real(*args))
    assert prop45_check(f_b, g_b, m, q).residuals["congruence-mod-a^m"] == residual
    assert len(calls) == 1 and not hasattr(bundles, "_residual")


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


def test_scale_by_inverted_sum_divides_jacobian_exactly(monkeypatch):
    # the last scale inverts y, whose image a + y is not a monomial, so its
    # Jacobian factor has a denominator that flatten divides out exactly
    y = var("y")
    word = (Triangular("y", var("a")), Scale("x", y), Scale("x", y ** -1))

    def no_matrix(self):
        raise AssertionError("flatten recomputed the Jacobian matrix")

    with monkeypatch.context() as m:
        m.setattr(PolyMap, "jacobian_det", no_matrix)
        flat = flatten(word, TAB, QQ, BASE)
    assert flat.comps["x"] == var("x")
    assert flat.jac == one() == flat.jacobian_det()


def test_flatten_rejects_moving_base_vars():
    with pytest.raises(InvalidGenerator):
        flatten((Triangular("a", p("x")),), TAB, QQ, BASE)


def test_flatten_names_a_moved_variable_outside_the_table():
    with pytest.raises(InvalidGenerator, match="'q'"):
        flatten((Permute({"x": "q", "q": "x"}),), TAB, QQ, BASE)
    # a name the relabeling fixes is never read
    assert flatten((Permute({"q": "q"}),), TAB, QQ, BASE).is_identity()


def test_flatten_names_a_generator_over_another_table():
    # a Triangular's shift fails inside substitute, a Scale's unit inside the
    # product, unless flatten compares the tables first
    plane = parse("a*b", PLANE, QQ)
    for gen, slot in ((Triangular("x", plane), "shift"), (Scale("x", plane), "unit")):
        with pytest.raises(InvalidGenerator,
                           match=f"{slot} over \\('a', 'b', 'x'\\), not \\('a', 'b', 'x', 'y'\\)"):
            flatten((gen,), TAB, QQ, BASE)


# ------------------------------------------------------------- memberships


def test_check_membership():
    ring = RingDescriptor.polynomials(TAB).allow_negative("a", "b")
    m = flatten((Scale("x", p("a^-1")),), TAB, QQ, BASE)
    check_membership(m, ring)  # passes

    strict = RingDescriptor.polynomials(TAB)
    with pytest.raises(MembershipError) as ei:
        check_membership(m, strict)
    assert ei.value.component == "x"
