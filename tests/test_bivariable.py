import json

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from a2bundle import bivariable, bundles
from a2bundle.bivariable import (
    BLOWUP,
    GLUE,
    RING_A,
    RING_B,
    BivariableCert,
    basic_bivariable,
    cert_from_doc,
    cert_from_json,
    cert_to_doc,
    cert_to_json,
    certify,
    ex66_bivariable,
    extend_a,
    extend_b,
    lemma44_bivariable,
    p_shift_bivariable,
    to_glue,
    verify_basic_family,
    verify_constant_shift,
    verify_mixed_denominator,
    verify_p_shift,
    verify_quadratic_descent,
    with_constant,
)
from a2bundle.errors import (
    CharTwoField,
    CongruenceFailed,
    JacobianNotUnit,
    MembershipError,
    NegativeExponentNotAllowed,
    PreconditionViolated,
    ShapeError,
)
from a2bundle.exprio import field_from_descriptor, parse, to_expr
from a2bundle.fibration import (
    PLANE,
    PVAR,
    FibrationSpec,
    TransitionFunction,
    closed_form_m1,
)
from a2bundle.fields import QQ
from a2bundle.maps import (
    Lemma41Block,
    Permute,
    PolyMap,
    Scale,
    Triangular,
    flatten,
    invert,
)
from a2bundle.poly import MultiPoly, substitute


def gpoly(s, field=QQ):
    return parse(s, GLUE, field)


def ppoly(s, field=QQ):
    return parse(s, PLANE, field)


def zpoly(s, field=QQ):
    return parse(s, PVAR, field)


# ------------------------------------------------------------- sympy oracle

SA, SB, SX, SY = sympy.symbols("a b x y")


def glue_to_sympy(p):
    # one Add over all terms: summing them one by one is quadratic in sympy
    return sympy.Add(*(sympy.Rational(c) * SA**exps[0] * SB**exps[1]
                       * SX**exps[2] * SY**exps[3]
                       for exps, c in p.terms.items()))


def plane_to_sympy(p):
    return sympy.Add(*(sympy.Rational(c) * SA**exps[0] * SB**exps[1] * SX**exps[2]
                       for exps, c in p.terms.items()))


def fold_glueing(omega, alpha, beta):
    """Oracle for a certificate's glueing function: fold the composite word
    ``invert(beta) + alpha`` from the map sending ``y`` to 0, whose
    ``y``-image is ``f`` (the composite is ``(x, y + f(x))``)."""
    F = omega.field
    on_line = dict(zip(GLUE.names, MultiPoly.gens(GLUE, F)))
    on_line["y"] = MultiPoly.zero(GLUE, F)
    start = PolyMap(GLUE, F, ("a", "b"), on_line, MultiPoly.zero(GLUE, F))
    shift = flatten(invert(tuple(beta)) + tuple(alpha), GLUE, F, ("a", "b"),
                    start=start).comps["y"]
    return substitute(shift, {}, into=PLANE)


def assert_consistent_by_sympy(cert):
    """Independent check of the defining equations of a certificate:
    tau_a - tau_b == f(omega), tau_a has only a-denominators, tau_b only
    b-denominators."""
    omega = glue_to_sympy(cert.omega)
    tau_a = glue_to_sympy(cert.tau_a)
    tau_b = glue_to_sympy(cert.tau_b)
    f = plane_to_sympy(cert.f.f)
    lhs = sympy.expand(tau_a - tau_b - f.subs(SX, omega))
    assert lhs == 0
    _, den_a = sympy.fraction(sympy.together(tau_a))
    assert den_a.free_symbols <= {SA}
    _, den_b = sympy.fraction(sympy.together(tau_b))
    assert den_b.free_symbols <= {SB}


# ------------------------------------------------------------ basic families


def test_basic_frozen_values():
    cert = basic_bivariable(1, 2)
    assert cert.omega == gpoly("a*x + b^2*y")
    assert cert.tau_a == gpoly("a^-1*y")
    assert cert.tau_b == gpoly("-b^-2*x")
    assert cert.f.f == ppoly("a^-1*b^-2*x")
    assert (cert.f.m_min, cert.f.n_min) == (1, 2)
    assert_consistent_by_sympy(cert)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 1)])
def test_basic_family_shape(m, n):
    cert = basic_bivariable(m, n)
    assert cert.f.f == ppoly(f"a^-{m}*b^-{n}*x")
    assert cert.tau_a == gpoly(f"a^-{m}*y")
    assert cert.tau_b == gpoly(f"-b^-{n}*x")


def test_basic_rejects_nonpositive_exponents():
    with pytest.raises(PreconditionViolated, match="must be >= 1"):
        basic_bivariable(0, 1)
    with pytest.raises(PreconditionViolated, match="must be >= 1"):
        basic_bivariable(1, -2)


def test_basic_over_finite_field():
    F7 = field_from_descriptor("fp:7")
    cert = basic_bivariable(1, 2, field=F7)
    assert cert.f.f == ppoly("a^-1*b^-2*x", F7)
    assert cert.field.descriptor() == "fp:7"


def test_with_constant_frozen():
    cert = with_constant(2, 1, ppoly("1 + a*b"))
    assert cert.omega == gpoly("a^2*x + b*y + 1 + a*b")
    assert cert.f.f == ppoly("a^-2*b^-1*x - a^-2*b^-1 - a^-1")
    assert_consistent_by_sympy(cert)


def test_with_constant_rejects_fibre_variables():
    with pytest.raises(PreconditionViolated, match="only a and b"):
        with_constant(1, 1, ppoly("x"))
    with pytest.raises(PreconditionViolated, match="not invert"):
        with_constant(1, 1, ppoly("a^-1"))


def test_mixed_denominator_frozen():
    cert = ex66_bivariable()
    assert cert.omega == gpoly("a^2*x + b*y - a*y")
    assert cert.tau_a == gpoly("a^-2*y")
    assert cert.tau_b == gpoly("b^-2*y - b^-2*a*x - b^-1*x")
    assert cert.f.f == ppoly("a^-1*b^-2*x + a^-2*b^-1*x")
    assert (cert.f.m_min, cert.f.n_min) == (2, 2)
    assert_consistent_by_sympy(cert)


def test_p_shift_frozen():
    cert = p_shift_bivariable(zpoly("z^2"))
    assert cert.omega == gpoly("a*x + b^2*y + b*x^2")
    assert cert.tau_b == gpoly("-b^-2*x")
    assert cert.f.f == ppoly("a^-1*b^-2*x - a^-3*b^-1*x^2")
    assert_consistent_by_sympy(cert)


@pytest.mark.parametrize("p_text", ["z^2", "z^2 + z", "z^3 + 2*z"])
def test_p_shift_matches_one_step_closed_form(p_text):
    P = zpoly(p_text)
    cert = p_shift_bivariable(P)
    n = P.degree_in("z") + 1
    assert cert.f.f == closed_form_m1(FibrationSpec(P, n))
    # sympy cross-check of the closed form itself
    sp = sum(sympy.Rational(c) * sympy.Symbol("z") ** e[0]
             for e, c in P.terms.items())
    expected = SX / (SA * SB**2) \
        - sp.subs(sympy.Symbol("z"), SX / SA) / (SA * SB)
    assert sympy.expand(plane_to_sympy(cert.f.f) - expected) == 0


def test_p_shift_rejects_non_univariate():
    with pytest.raises(PreconditionViolated, match="univariate"):
        p_shift_bivariable(ppoly("a"))


# ------------------------------------------------------------ certify checks


def test_certify_normalises_unit_jacobian():
    # leave out the final y-scale; certify must supply it
    F = QQ
    a = MultiPoly.var(GLUE, F, "a")
    y = MultiPoly.var(GLUE, F, "y")
    omega = gpoly("a*x + b*y")
    alpha = (Scale("x", a), Triangular("x", gpoly("b") * y))
    beta = basic_bivariable(1, 1).beta_word
    cert = certify(omega, alpha, beta, ppoly("a^-1*b^-1*x"))
    assert cert.tau_a == gpoly("a^-1*y")
    assert cert.f.f == ppoly("a^-1*b^-1*x")
    jac = flatten(cert.alpha_word, GLUE, F, ("a", "b")).jacobian_det()
    assert jac == MultiPoly.const(GLUE, F, 1)


def test_certify_rejects_wrong_table():
    with pytest.raises(ShapeError, match="must live over"):
        certify(ppoly("x"), (), (), ppoly("0"))


def test_certify_rejects_inverted_omega():
    with pytest.raises(MembershipError, match="inverted variable"):
        certify(gpoly("a^-1*x"), (), (), ppoly("0"))


def test_certify_rejects_non_unit_jacobian():
    omega = gpoly("a*b*x")
    alpha = (Scale("x", gpoly("a*b")),)
    with pytest.raises(JacobianNotUnit, match="not a unit of the a-chart"):
        certify(omega, alpha, alpha, ppoly("0"))


def test_certify_rejects_wrong_image():
    c11 = basic_bivariable(1, 1)
    c12 = basic_bivariable(1, 2)
    with pytest.raises(ShapeError, match="not omega"):
        certify(c11.omega, c11.alpha_word, c12.beta_word, c11.f.f)


def test_certify_rejects_chart_escape():
    # a-word whose second coordinate picks up a b-denominator
    c11 = basic_bivariable(1, 1)
    bad = c11.alpha_word + (Triangular("y", gpoly("b^-1*x")),)
    with pytest.raises(MembershipError, match="leaves the ring"):
        certify(c11.omega, bad, c11.beta_word, c11.f.f)


def test_certify_rejects_tampered_chart_difference(monkeypatch):
    # tau_b gains a term that keeps it in the b-chart ring while f is the
    # true one: only the final f(omega) check can catch it
    cert = basic_bivariable(1, 2)
    real = bivariable.flatten
    seen = []

    def tampered(word, *args, **kw):
        flat = real(word, *args, **kw)
        if word == cert.beta_word:
            flat.comps["y"] = flat.comps["y"] + gpoly("x")
            seen.append("b-chart")
        return flat

    monkeypatch.setattr(bivariable, "flatten", tampered)
    with pytest.raises(ShapeError, match="do not differ by f\\(omega\\)"):
        certify(cert.omega, cert.alpha_word, cert.beta_word, cert.f.f)
    assert seen == ["b-chart"]


def test_certify_rejects_parent_that_is_not_a_prefix():
    c11, c12 = basic_bivariable(1, 1), basic_bivariable(1, 2)
    with pytest.raises(ShapeError, match="parent certificate's words"):
        certify(c12.omega, c12.alpha_word, c12.beta_word, c12.f.f, parent=c11)
    # one word continuing the parent is not enough
    longer = c11.alpha_word + (Triangular("x", gpoly("b")),)
    with pytest.raises(ShapeError, match="parent certificate's words"):
        certify(c11.omega + gpoly("b"), longer, c12.beta_word, c12.f.f, parent=c11)


CERT_BUILDERS = {
    "basic(1,2)": lambda F: basic_bivariable(1, 2, field=F),
    "ex66": ex66_bivariable,
    "p_shift(z^2+z)": lambda F: p_shift_bivariable(zpoly("z^2 + z", F)),
    "lemma44(z^2)": lambda F: lemma44_bivariable(zpoly("z^2", F)),
}


@pytest.mark.parametrize("descriptor", ["q", "fp:11", "ext:t^2+1"])
@pytest.mark.parametrize("name", list(CERT_BUILDERS))
def test_certify_f_on_line_matches_full_composite(name, descriptor):
    # the full composite alpha o beta^{-1}, with both variables free, fixes x
    # and shifts y by exactly the f that the builder passed to certify
    F = field_from_descriptor(descriptor)
    cert = CERT_BUILDERS[name](F)
    comp = flatten(invert(cert.beta_word) + cert.alpha_word, GLUE, F, ("a", "b"))
    assert comp.comps["x"] == MultiPoly.var(GLUE, F, "x")
    shift = comp.comps["y"] - MultiPoly.var(GLUE, F, "y")
    assert cert.f.f == substitute(shift, {}, into=PLANE)


# ------------------------------------------------------------ extension moves


def test_extend_b_block_grafts_cleanly():
    # quadratic payload on the (1, 1) element: the element grows, the
    # glueing function does not
    base = basic_bivariable(1, 1)
    hat = extend_b(base, 1, 1, gpoly("x^2"))
    assert hat.omega == gpoly("a*x + b*y + b*x^2")
    assert hat.f.f == base.f.f
    assert hat.tau_a == gpoly("a^-1*y + a^-1*x^2")
    assert hat.tau_b == base.tau_b
    assert any(isinstance(g, Lemma41Block) for g in hat.alpha_word)
    assert_consistent_by_sympy(hat)


def test_extend_a_mirror():
    base = basic_bivariable(1, 1)
    hat = extend_a(base, 1, 1, gpoly("x^2"))
    assert hat.omega == gpoly("a*x + b*y + a*y^2")
    assert hat.f.f == base.f.f
    assert any(isinstance(g, Lemma41Block) for g in hat.beta_word)
    assert_consistent_by_sympy(hat)


def test_extend_zero_payload_is_identity_move():
    base = basic_bivariable(1, 2)
    hat = extend_b(base, 1, 2, MultiPoly.zero(GLUE, QQ))
    assert hat.omega == base.omega
    assert hat.f.f == base.f.f
    assert hat.tau_a == base.tau_a
    assert hat.tau_b == base.tau_b


def test_extend_applies_no_generator_of_its_parent(monkeypatch):
    # the parent's chart maps seed both folds, so none of its generators is
    # replayed; identity, not equality, tells the parent's moves apart
    parent = with_constant(1, 1, ppoly("1 + a*b"))
    applied = []
    for cls in (Triangular, Scale, Permute, Lemma41Block):
        def counting(self, state, real=cls.apply):
            applied.append(self)
            return real(self, state)
        monkeypatch.setattr(cls, "apply", counting)
    hat = extend_a(parent, 1, 1, gpoly("x^2 + 2"))
    assert applied
    own = {id(g) for g in parent.alpha_word + parent.beta_word}
    assert not [g for g in applied if id(g) in own]
    assert hat.alpha_word[:len(parent.alpha_word)] == parent.alpha_word


def test_extend_requires_cleared_denominators():
    base = basic_bivariable(1, 2)  # f = x/(a*b^2)
    with pytest.raises(PreconditionViolated, match="denominators"):
        extend_a(base, 1, 1, gpoly("x"))


def test_extend_payload_validation():
    base = basic_bivariable(1, 1)
    with pytest.raises(PreconditionViolated, match="must not involve y"):
        extend_b(base, 1, 1, gpoly("y"))
    with pytest.raises(PreconditionViolated, match="must not invert"):
        extend_b(base, 1, 1, gpoly("a^-1*x"))


def test_extensions_compose():
    cert = basic_bivariable(1, 1)
    cert = extend_b(cert, 1, 1, gpoly("x^2"))
    cert = extend_a(cert, 1, 1, gpoly("2*x"))
    assert RING_A.contains(cert.tau_a)
    assert RING_B.contains(cert.tau_b)
    assert_consistent_by_sympy(cert)


# ------------------------------------------------------- quadratic descent


@pytest.mark.parametrize("p_text", ["z^2", "3*z^2"])
def test_quadratic_descent_constructs(p_text):
    hat = lemma44_bivariable(zpoly(p_text))
    assert isinstance(hat, BivariableCert)
    # the descended element sits three deep in the a-chart
    assert hat.omega.degree_in("a") >= 3
    assert_consistent_by_sympy(hat)


def test_quadratic_descent_rejects_char_two():
    F2 = field_from_descriptor("fp:2")
    with pytest.raises(CharTwoField):
        lemma44_bivariable(zpoly("z^2", F2))


def test_quadratic_descent_rejects_wrong_degree():
    with pytest.raises(PreconditionViolated, match="deg P == 2"):
        lemma44_bivariable(zpoly("z^3"))


@pytest.mark.parametrize("descriptor", ["q", "fp:11", "ext:t^2+1"])
@pytest.mark.parametrize("p_text", ["z^2", "3*z^2 + z"])
def test_descent_pullbacks_are_chart_differences(descriptor, p_text):
    # the congruence reuses a^3*(tau_a - tau_b) for f_b(omega) = a^3*f(omega)
    F = field_from_descriptor(descriptor)
    P = zpoly(p_text, F)
    a3 = gpoly("a^3", F)
    for cert in (p_shift_bivariable(P), lemma44_bivariable(P)):
        pulled = substitute(a3 * to_glue(cert.f.f), {"x": cert.omega})
        assert a3 * (cert.tau_a - cert.tau_b) == pulled


@pytest.mark.parametrize("shift, verdict", [
    ("a^-1*x", "failed"),
    # a^3 * a^2*x lies in (a^3), so this change is within the congruence
    ("a^2*x", "ok"),
])
def test_descent_pullback_congruence_sees_tau_a(monkeypatch, shift, verdict):
    def mutated(*args, **kw):
        hat = extend_a(*args, **kw)
        comps = {**hat.flat_a.comps, "y": hat.tau_a + gpoly(shift, hat.field)}
        flat_a = PolyMap(GLUE, hat.field, ("a", "b"), comps, hat.flat_a.jac)
        return BivariableCert(hat.omega, hat.alpha_word, hat.beta_word, hat.f,
                              flat_a, hat.flat_b)

    monkeypatch.setattr(bivariable, "extend_a", mutated)
    res = verify_quadratic_descent("z^2")
    assert res.residuals["pullback-congruence-mod-a^3"] == verdict
    assert res.status == ("fail" if verdict == "failed" else "pass")


# ------------------------------------------------------------- serialization


def test_cert_json_roundtrip_with_block():
    cert = extend_b(basic_bivariable(1, 1), 1, 1, gpoly("x^2"))
    text = cert_to_json(cert)
    back = cert_from_json(text)
    assert back.omega == cert.omega
    assert back.f.f == cert.f.f
    assert back.tau_a == cert.tau_a
    assert back.field.descriptor() == cert.field.descriptor()


def test_cert_doc_roundtrip_over_extension_field():
    F = field_from_descriptor("ext:5t^2-1")
    cert = basic_bivariable(2, 1, field=F)
    back = cert_from_doc(cert_to_doc(cert))
    assert back.f.f == cert.f.f
    assert back.field.descriptor() == cert.field.descriptor()
    assert back.field.characteristic == 0


def test_cert_doc_tamper_detected():
    cert = basic_bivariable(1, 1)
    doc = cert_to_doc(cert)
    doc["f"] = "x"
    with pytest.raises(ShapeError, match="disagrees"):
        cert_from_doc(doc)
    doc = cert_to_doc(cert)
    doc["omega"] = "a*x + b^2*y"
    with pytest.raises(ShapeError):
        cert_from_doc(doc)


def _block_cert(F=QQ):
    return extend_b(basic_bivariable(1, 1, field=F), 1, 1, gpoly("x^2", F))


def test_cert_doc_checks_zero_and_wrong_degree_f():
    # a certificate whose charts agree has f = 0, and only f = 0 passes
    x = gpoly("x")
    flat = certify(x, (), (), ppoly("0"))
    assert not flat.f.f
    for stored, ok in (("0", True), ("x", False), ("a^-1", False)):
        doc = cert_to_doc(flat)
        doc["f"] = stored
        if ok:
            assert cert_from_doc(doc) == flat
        else:
            with pytest.raises(ShapeError, match="disagrees"):
                cert_from_doc(doc)
    # and a certificate with f != 0 rejects f = 0 and every other degree
    cert = _block_cert()
    for stored in ("0", "x^2*a^-1*b^-1", "a^-1*b^-1", "x*a^-1*b^-1 + x^3"):
        doc = cert_to_doc(cert)
        doc["f"] = stored
        with pytest.raises(ShapeError, match="disagrees"):
            cert_from_doc(doc)


def test_cert_doc_rejects_f_that_inverts_x():
    cert = _block_cert()
    doc = cert_to_doc(cert)
    doc["f"] = "x^-1"
    with pytest.raises(NegativeExponentNotAllowed):
        cert_from_doc(doc)
    bad = MultiPoly(PLANE, QQ, {(0, 0, -1): QQ.coerce(1)})
    with pytest.raises(ShapeError, match="inverts x"):
        certify(cert.omega, cert.alpha_word, cert.beta_word, bad)


@pytest.mark.parametrize("side", ["alpha_word", "beta_word"])
def test_cert_doc_with_deleted_generator_does_not_certify(side):
    doc = cert_to_doc(_block_cert())
    for i in range(len(doc[side])):
        cut = json.loads(json.dumps(doc))
        del cut[side][i]
        with pytest.raises(ShapeError):
            cert_from_doc(cut)


def test_cert_doc_read_folds_each_word_once(monkeypatch):
    # a read checks the stored f: two folds, and no composite word exists
    doc = cert_to_doc(extend_a(_block_cert(), 1, 1, gpoly("x")))
    words = []
    real = bivariable.flatten

    def counted(word, *args, **kw):
        words.append(tuple(word))
        return real(word, *args, **kw)

    monkeypatch.setattr(bivariable, "flatten", counted)
    cert = cert_from_doc(doc)
    assert words == [cert.alpha_word, cert.beta_word]
    assert not hasattr(bivariable, "invert")


def test_cert_doc_degree_guard_runs_before_substitution(monkeypatch):
    seen = []
    real = bivariable.substitute

    def recorded(p, *args, **kw):
        seen.append(p)
        return real(p, *args, **kw)

    monkeypatch.setattr(bivariable, "substitute", recorded)
    doc = cert_to_doc(_block_cert())
    doc["f"] = "x^100"
    with pytest.raises(ShapeError, match="disagrees"):
        cert_from_doc(doc)
    assert ppoly("x^100") not in seen


def test_cert_doc_generator_fields_and_unknown_kinds():
    # basic_bivariable uses triangular, scale and permute; extend_b adds a block
    doc = cert_to_doc(extend_b(basic_bivariable(1, 1), 1, 1, gpoly("x^2")))
    fields = {"triangular": ["var", "shift"], "scale": ["var", "unit"],
              "permute": ["mapping"],
              "block": ["var_x", "var_y", "scalar", "m", "q", "f", "g"]}
    gens = doc["alpha_word"] + doc["beta_word"]
    assert {g["kind"] for g in gens} == set(fields)
    for g in gens:
        assert list(g) == ["kind"] + fields[g["kind"]]
    assert {"kind": "permute", "mapping": {"x": "y", "y": "x"}} in gens
    assert all(type(g["m"]) is int for g in gens if g["kind"] == "block")
    for kind in ("shear", ["block"]):
        doc["beta_word"][0]["kind"] = kind
        with pytest.raises(ShapeError, match="unknown generator kind"):
            cert_from_doc(doc)
    with pytest.raises(ShapeError, match="unknown generator kind object"):
        bivariable._gen_to_doc(object())


def test_cert_doc_generator_shape_names_the_slot():
    doc = cert_to_doc(basic_bivariable(1, 1))
    gen = next(g for g in doc["alpha_word"] if g["kind"] == "triangular")
    gen["shift"] = 3
    with pytest.raises(ShapeError, match="holding str at 'shift'"):
        cert_from_doc(doc)
    doc["alpha_word"] = ["triangular"]
    with pytest.raises(ShapeError, match="holding object at 'kind'"):
        cert_from_doc(doc)


def test_cert_doc_is_json_serialisable():
    doc = cert_to_doc(ex66_bivariable())
    json.dumps(doc)  # must not raise
    assert doc["version"] == "1"
    assert doc["field"] == "q"


# ------------------------------------------------------------ verify suites


def test_verify_basic_family_passes():
    res = verify_basic_family()
    assert res.check_id == "ex35"
    assert res.status == "pass"


def test_verify_basic_family_finite_field():
    res = verify_basic_family(field=field_from_descriptor("fp:7"))
    assert res.status == "pass"


def test_verify_constant_shift_passes():
    res = verify_constant_shift()
    assert res.check_id == "ex312"
    assert res.status == "pass"


def test_verify_p_shift_passes():
    res = verify_p_shift()
    assert res.check_id == "ex43"
    assert res.status == "pass"


def test_verify_quadratic_descent_passes():
    res = verify_quadratic_descent("z^2")
    assert res.check_id == "lemma44"
    assert res.status == "pass"


def test_verify_quadratic_descent_reports_char_two():
    # inapplicable input raises, so ``verify`` reports it as an error, not a
    # failed step
    with pytest.raises(CharTwoField, match="divides by 2"):
        verify_quadratic_descent("z^2", field=field_from_descriptor("fp:2"))
    with pytest.raises(PreconditionViolated, match="deg P == 2, got 9"):
        verify_quadratic_descent("z^9")


def test_verify_quadratic_descent_certifies_three_times(monkeypatch):
    calls = {"certify": 0, "a1_equiv": 0}

    def counting(name, fn):
        def wrapped(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(bivariable, "certify", counting("certify", certify))
    monkeypatch.setattr(bundles, "a1_equiv", counting("a1_equiv", bundles.a1_equiv))
    assert verify_quadratic_descent("z^2").status == "pass"
    assert calls == {"certify": 3, "a1_equiv": 1}


def test_quadratic_descent_failed_step_is_recorded_and_raised(monkeypatch):
    monkeypatch.setattr(bundles, "a1_equiv", lambda f, g: None)
    res = verify_quadratic_descent("z^2")
    assert res.status == "fail"
    step = "matches-two-step-closed-form"
    assert res.residuals[step] == "failed"
    others = {k: v for k, v in res.residuals.items() if k != step}
    assert set(others) == {"descent-constructs", "element-shift",
                           "shift-in-a^2-ring", "shift-square-mod-a^4",
                           "pullback-congruence-mod-a^3"}
    assert all(v in ("ok", "0") for v in others.values())
    with pytest.raises(CongruenceFailed, match=step):
        lemma44_bivariable(zpoly("z^2"))


def test_verify_mixed_denominator_passes():
    res = verify_mixed_denominator()
    assert res.check_id == "ex66"
    assert res.status == "pass"


# ------------------------------------------------------------ property tests

base_polys = st.builds(
    lambda coeffs: sum(
        (MultiPoly.monomial(PLANE, QQ, (i, j, 0), c)
         for (i, j), c in coeffs.items()),
        MultiPoly.zero(PLANE, QQ)),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3).filter(bool),
        max_size=3))


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 3), c=base_polys)
def test_constant_shift_glueing_property(m, n, c):
    cert = with_constant(m, n, c)
    x = MultiPoly.var(PLANE, QQ, "x")
    mono = MultiPoly.monomial(PLANE, QQ, (-m, -n, 0))
    assert cert.f.f == (x - c) * mono


payloads = st.builds(
    lambda c0, c1, c2: gpoly(f"({c0}) + ({c1})*x + ({c2})*x^2"),
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=15, deadline=None)
@given(q=payloads, side=st.booleans())
def test_extension_recertifies_property(q, side):
    # certify() re-derives everything, so surviving it *is* the property
    base = basic_bivariable(1, 1)
    hat = (extend_a if side else extend_b)(base, 1, 1, q)
    assert hat.f.f == base.f.f
    # chart change of the extended words still fixes x
    comp = flatten(invert(hat.beta_word) + hat.alpha_word, GLUE, QQ,
                   ("a", "b"))
    assert comp.comps["x"] == MultiPoly.var(GLUE, QQ, "x")


def _chain_start(F, start, m, n, c):
    if start == "basic":
        return basic_bivariable(m, n, field=F)
    return with_constant(m, n, ppoly(c, F))


chain_moves = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-1, 2), st.integers(-1, 2),
              st.sampled_from(["1", "a", "b"])),
    max_size=3)


@pytest.mark.parametrize("descriptor", ["q", "fp:11", "ext:t^2+1"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(start=st.sampled_from(["basic", "constant"]), m=st.integers(1, 2),
       n=st.integers(1, 2), c=st.sampled_from(["a", "1 + a*b", "b^2"]),
       moves=chain_moves)
def test_continued_certificates_match_parent_free_certify(
        descriptor, start, m, n, c, moves):
    # every link of a chain, certified as a continuation of its parent,
    # equals the certificate re-derived from its full words alone
    F = field_from_descriptor(descriptor)
    chain = [_chain_start(F, start, m, n, c)]
    for side, c0, c1, unit in moves:
        prev = chain[-1]
        payload = gpoly(f"({c0} + ({c1})*x)*{unit}", F)
        move = extend_a if side == "a" else extend_b
        chain.append(move(prev, max(1, prev.f.m_min), max(1, prev.f.n_min),
                          payload))
    for cert in chain:
        fresh = certify(cert.omega, cert.alpha_word, cert.beta_word,
                        fold_glueing(cert.omega, cert.alpha_word, cert.beta_word))
        assert fresh.omega == cert.omega
        assert (fresh.alpha_word, fresh.beta_word) == (cert.alpha_word, cert.beta_word)
        assert fresh.f == cert.f
        assert (fresh.tau_a, fresh.tau_b) == (cert.tau_a, cert.tau_b)
        for new, old in ((fresh.flat_a, cert.flat_a), (fresh.flat_b, cert.flat_b)):
            assert new.comps == old.comps
            assert new.jac == old.jac


@pytest.mark.parametrize("descriptor", ["q", "fp:11", "ext:t^2+1"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(start=st.sampled_from(["basic", "constant"]), m=st.integers(1, 2),
       n=st.integers(1, 2), c=st.sampled_from(["a", "1 + a*b", "b^2"]),
       moves=chain_moves,
       term=st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 3),
                      st.integers(1, 5)))
def test_reloaded_certificates_match_derived_and_reject_tampered_f(
        descriptor, start, m, n, c, moves, term):
    # a reload checks the stored f instead of deriving it; the oracle
    # derives it from the composite word
    F = field_from_descriptor(descriptor)
    cert = _chain_start(F, start, m, n, c)
    for side, c0, c1, unit in moves:
        payload = gpoly(f"({c0} + ({c1})*x)*{unit}", F)
        move = extend_a if side == "a" else extend_b
        cert = move(cert, max(1, cert.f.m_min), max(1, cert.f.n_min), payload)
    doc = cert_to_doc(cert)
    back = cert_from_doc(doc)
    derived = certify(back.omega, back.alpha_word, back.beta_word,
                      fold_glueing(back.omega, back.alpha_word, back.beta_word))
    assert (back.omega, back.f) == (derived.omega, derived.f) == (cert.omega, cert.f)
    assert (back.alpha_word, back.beta_word) == (derived.alpha_word, derived.beta_word)
    for new, old in ((back.flat_a, derived.flat_a), (back.flat_b, derived.flat_b)):
        assert (new.comps, new.jac) == (old.comps, old.jac)
    i, j, k, coeff = term
    doc["f"] = to_expr(cert.f.f + ppoly(f"{coeff}*a^{i}*b^{j}*x^{k}", F))
    with pytest.raises(ShapeError, match="disagrees"):
        cert_from_doc(doc)


def _oracle_start(F, start, m, n, c):
    if start in ("basic", "constant"):
        return _chain_start(F, start, m, n, c)
    if start == "ex66":
        return ex66_bivariable(F)
    if start == "lemma44":
        return lemma44_bivariable(zpoly(f"{m}*z^2 + z", F))
    # classify witnesses a glueing function with one denominator by a
    # certificate for x whose one move rides on the chart where f is regular
    denominator = f"a^-{m}" if start == "trivial_a" else f"b^-{n}"
    tf = TransitionFunction.from_poly(ppoly(f"({c})*x*{denominator}", F))
    return bundles.classify(tf).witness


@pytest.mark.parametrize("descriptor", ["q", "fp:11", "ext:t^2+1"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(start=st.sampled_from(["basic", "constant", "ex66", "lemma44", "trivial_a",
                              "trivial_b"]),
       m=st.integers(1, 2), n=st.integers(1, 2),
       c=st.sampled_from(["a", "1 + a*b", "b^2"]), moves=chain_moves)
def test_builders_pass_the_glueing_function_their_words_fold_to(
        descriptor, start, m, n, c, moves):
    # every builder hands certify the f it constructed; folding the composite
    # word alpha o beta^{-1} on y = 0 derives it independently
    F = field_from_descriptor(descriptor)
    chain = [_oracle_start(F, start, m, n, c)]
    # lemma44's f has deep denominators (a^-3*b^-11 for 2*z^2 + z), and the
    # untruncated partner of an extension clearing them takes over 100 s to
    # grow (ROADMAP item 1), so its chain stays empty
    for side, c0, c1, unit in moves if start != "lemma44" else ():
        prev = chain[-1]
        payload = gpoly(f"({c0} + ({c1})*x)*{unit}", F)
        move = extend_a if side == "a" else extend_b
        chain.append(move(prev, max(1, prev.f.m_min), max(1, prev.f.n_min), payload))
    for cert in chain:
        assert cert.f.f == fold_glueing(cert.omega, cert.alpha_word, cert.beta_word)


glue_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-1, 2),
              st.integers(-1, 2)),
    st.integers(-3, 3).filter(bool),
    max_size=6).map(lambda d: MultiPoly(GLUE, QQ, d))


@settings(max_examples=80, deadline=None)
@given(p=glue_polys)
def test_ring_contains_agrees_with_violations(p):
    # contains stops at the first offending term; violations lists them all,
    # in canonical order
    for ring in (RING_A, RING_B, BLOWUP):
        bad = [(e, c) for e, c in p.sorted_terms()
               if not ring.contains(MultiPoly(GLUE, QQ, {e: c}))]
        assert ring.violations(p) == bad
        assert ring.contains(p) == (not bad)
