from fractions import Fraction

import pytest
import sympy

from a2bundle.errors import NoPolynomialSInRange, PreconditionViolated
from a2bundle.exprio import parse, to_expr
from a2bundle.fields import QQ
from a2bundle.fibration import (
    CHART,
    CHART_EXT,
    PLANE,
    PVAR,
    FibrationSpec,
    TransitionFunction,
    build_omega,
    build_phi,
    build_phi_word,
    build_v,
    closed_form_m1,
    closed_form_m2,
    minimal_m,
    stable_variable,
    transition_formula,
    transition_function,
    verify_bundle_identity,
    verify_coordinate_facts,
    verify_frozen_instances,
    verify_small_m_shapes,
    verify_stable_variable,
)
from a2bundle import fibration
from a2bundle.maps import Triangular, flatten, invert
from a2bundle.poly import MultiPoly, RingDescriptor, VarTable, substitute


def zpoly(s):
    return parse(s, PVAR, QQ)


def tpoly(s):
    return parse(s, PLANE, QQ)


def spec(p_str, n):
    return FibrationSpec(zpoly(p_str), n)


# ------------------------------------------------------------- sympy oracle

SX, SY, SZ, SU = sympy.symbols("x y z u")


def chart_to_sympy(p):
    # one Add over all terms: summing them one by one is quadratic in sympy
    return sympy.Add(*(sympy.Rational(c) * SX**exps[0] * SY**exps[1]
                       * SZ**exps[2] * SU**exps[3]
                       for exps, c in p.terms.items()))


def composed_by_oracle(p_str, n):
    """Compose the four displayed coordinate maps with sympy substitutions
    (first map acts first) and return the four component expressions."""
    P = sympy.Poly(sympy.sympify(p_str.replace("^", "**")), SZ)

    def Pat(e):
        return P.as_expr().subs(SZ, e)

    stages = [
        {SU: SY * SU + Pat(SZ)},
        {SZ: SX * SZ + SY * SU, SU: SU / SX},
        {SU: (SU - Pat(SZ / SX) / SX) / SY},
        {SY: SY + SX**n * SZ},
    ]
    comps = {SX: SX, SY: SY, SZ: SZ, SU: SU}
    for stage in stages:
        full = {v: stage.get(v, v) for v in (SX, SY, SZ, SU)}
        comps = {v: sympy.together(full[v].subs(comps, simultaneous=True))
                 for v in comps}
    return comps


@pytest.mark.parametrize("p_str,n", [("z^2", 1), ("z^3 + 2*z", 2)])
def test_phi_components_against_sympy_oracle(p_str, n):
    oracle = composed_by_oracle(p_str, n)
    flat = build_phi(spec(p_str, n))
    for sym, name in ((SX, "x"), (SY, "y"), (SZ, "z"), (SU, "u")):
        mine = chart_to_sympy(flat.comps[name])
        assert sympy.simplify(mine - oracle[sym]) == 0, name


def test_phi_word_shape_and_roundtrip():
    s = spec("z^2", 1)
    word = build_phi_word(s)
    assert len(word) == 8
    flat = build_phi(s)
    assert flat.comps["x"] == MultiPoly.var(CHART, QQ, "x")
    assert flat.comps["y"] == build_v(s)
    assert flat.comps["z"] == build_omega(s)
    assert flatten(word + invert(word), CHART, QQ, base=("x",)).is_identity()
    # the inverse word flattens on its own as well (exact divisions inside)
    back = flatten(invert(word), CHART, QQ, base=("x",))
    for name in CHART.names:
        ident = MultiPoly.var(CHART, QQ, name)
        assert substitute(flat.comps[name], back.comps) == ident
        assert substitute(back.comps[name], flat.comps) == ident


def test_phi_jacobian_is_one():
    for p_str, n in (("z^2", 1), ("z^2 + z", 3)):
        flat = build_phi(spec(p_str, n))
        assert flat.jac == MultiPoly.const(CHART, QQ, 1)
        assert flat.jacobian_det() == MultiPoly.const(CHART, QQ, 1)


def test_v_and_omega_polynomial_u_image_laurent():
    s = spec("z^3 + 2*z", 2)
    ring = RingDescriptor.polynomials(CHART)
    assert ring.contains(build_v(s))
    assert ring.contains(build_omega(s))
    flat = build_phi(s)
    assert not ring.contains(flat.comps["u"])
    assert ring.allow_negative("x").contains(flat.comps["u"])


def test_spec_validation():
    with pytest.raises(PreconditionViolated):
        FibrationSpec(zpoly("z"), 1)  # degree 1
    with pytest.raises(PreconditionViolated):
        FibrationSpec(zpoly("3"), 1)  # constant
    with pytest.raises(PreconditionViolated):
        FibrationSpec(zpoly("z^2"), 0)
    with pytest.raises(PreconditionViolated):
        FibrationSpec(tpoly("x^2"), 1)  # wrong table


# ------------------------------------------------------ transition functions


def test_minimal_m():
    assert minimal_m(spec("z^2", 1)) == 3
    assert minimal_m(spec("z^2", 2)) == 2
    assert minimal_m(spec("z^2", 3)) == 1
    assert minimal_m(spec("z^3 + 2*z", 3)) == 2


def test_frozen_quadratic_family():
    # the classical three, frozen exactly
    f3 = transition_formula(spec("z^2", 3), 1)
    assert to_expr(f3) == "x*a^-1*b^-2 - x^2*a^-3*b^-1"
    f2 = transition_formula(spec("z^2", 2), 2)
    assert f2 == f3 - tpoly("x^3*a^-1*b^-2")
    f1 = transition_formula(spec("z^2", 1), 3)
    assert f1 == tpoly(
        "x*a^-1*b^-2 - x^2*a^-3*b^-1 - x^3*a^-2*b^-2 - x^4*a^-1*b^-3")


def test_transition_formula_against_sympy_oracle():
    a, bb, x = sympy.symbols("a b x")
    for p_str, n, m in (("z^2", 1, 3), ("z^2", 2, 2), ("z^3 + 2*z", 2, 4)):
        P = sympy.Poly(sympy.sympify(p_str.replace("^", "**")), SZ)
        f_oracle = x / (a * bb**2) - (bb**m - (a**n * x)**m) \
            / (bb - a**n * x) / (a * bb**m) * P.as_expr().subs(SZ, x / a)
        f = transition_formula(spec(p_str, n), m)
        mine = sympy.Add(*(sympy.Rational(c) * a**exps[0] * bb**exps[1] * x**exps[2]
                           for exps, c in f.terms.items()))
        assert sympy.simplify(mine - f_oracle) == 0


def test_transition_precondition():
    with pytest.raises(PreconditionViolated):
        transition_formula(spec("z^2", 1), 2)  # 2*1 = deg P, not >
    with pytest.raises(PreconditionViolated):
        transition_formula(spec("z^2", 1), 0)
    with pytest.raises(PreconditionViolated):
        transition_formula(spec("z^3 + 2*z", 3), 1)


def test_transition_minimality_data():
    tf = transition_function(spec("z^2", 3))  # defaults to m = 1
    assert (tf.m_min, tf.n_min) == (3, 2)
    assert tf.p_num == tpoly("a^2*x - b*x^2")
    # clearing exponents are minimal: dividing once more breaks polynomiality
    ring = RingDescriptor.polynomials(PLANE)
    assert ring.contains(tf.p_num)
    assert tf.p_num.min_degree_in("a") == 0
    assert tf.p_num.min_degree_in("b") == 0


def test_transition_function_from_poly_validation():
    all_laurent = VarTable(("a", "b", "x"), laurent=("a", "b", "x"))
    with pytest.raises(PreconditionViolated):
        TransitionFunction.from_poly(parse("x^-1", all_laurent, QQ))
    zero = MultiPoly.zero(PLANE, QQ)
    tf = TransitionFunction.from_poly(zero)
    assert (tf.m_min, tf.n_min) == (0, 0)


def test_closed_forms():
    for p_str, n in (("z^2", 3), ("z^3 + 2*z", 4)):
        s = spec(p_str, n)
        assert transition_formula(s, 1) == closed_form_m1(s)
    for p_str, n in (("z^2", 2), ("z^3 + 2*z", 2)):
        s = spec(p_str, n)
        assert transition_formula(s, 2) == closed_form_m2(s)


# ------------------------------------------------------------ machine checks


def test_coordinate_facts_check():
    for p_str in ("z^2", "z^2 + z", "z^3 + 2*z"):
        for n in (1, 2, 3):
            r = verify_coordinate_facts(spec(p_str, n))
            assert r.ok, (p_str, n, r.residuals)
            assert r.check_id == "lemma21"


def test_bundle_identity_nine_pairs():
    for p_str in ("z^2", "z^2 + z", "z^3 + 2*z"):
        for n in (1, 2, 3):
            r = verify_bundle_identity(spec(p_str, n))
            assert r.ok, (p_str, n, r.residuals)
            assert r.check_id == "thm12"


def test_bundle_identity_nonminimal_m():
    # any legal m works, not just the smallest
    r = verify_bundle_identity(spec("z^2", 2), m=3)
    assert r.ok


def test_frozen_instances_check():
    r = verify_frozen_instances()
    assert r.ok, r.residuals


def test_small_m_shapes_check():
    r = verify_small_m_shapes()
    assert r.ok, r.residuals


# ---------------------------------------------------------------- stability


def test_stable_exponent_frozen_for_quadratic_n1():
    # regression: the minimal stability exponent for (z^2, n=1) is 3
    s, word, flat = stable_variable(spec("z^2", 1))
    assert s == 3
    assert flat == flatten(word, CHART_EXT, QQ, base=("x",))
    ring = RingDescriptor.polynomials(CHART_EXT)
    assert all(ring.contains(c) for c in flat.comps.values())
    assert flat.jac == MultiPoly.const(CHART_EXT, QQ, 1)
    v = build_v(spec("z^2", 1), CHART_EXT)
    expected = v + parse("x^3*t", CHART_EXT, QQ)
    assert substitute(v, flat.comps) == expected


def test_stable_exponent_scan_is_minimal():
    # exponents below the found one do not give polynomial conjugates
    with pytest.raises(NoPolynomialSInRange):
        stable_variable(spec("z^2", 1), s_max=2)


def test_stable_variable_flattens_phi_once(monkeypatch):
    sp = spec("z^2", 1)
    phi_w = build_phi_word(sp, CHART_EXT)
    words = []

    def recording(word, *args, **kwargs):
        words.append(tuple(word))
        return flatten(word, *args, **kwargs)

    monkeypatch.setattr(fibration, "flatten", recording)
    s, word, _ = stable_variable(sp)
    assert words.count(phi_w) == 1
    # every candidate continues from phi: one shift plus the inverse word
    assert sum(map(len, words)) == len(phi_w) + s * (1 + len(phi_w))


def test_stable_variable_check():
    r = verify_stable_variable(spec("z^2", 1))
    assert r.ok, r.residuals
    assert r.witness["s"] == 3
    assert r.check_id == "prop22"


def test_stable_variable_check_records_non_polynomial_conjugate(monkeypatch):
    # s = 1 is below the stability exponent of (z^2, n=1): the conjugate
    # leaves the polynomial ring, which must be a recorded fail, not a raise
    sp = spec("z^2", 1)
    phi = build_phi_word(sp, CHART_EXT)
    x = MultiPoly.var(CHART_EXT, QQ, "x")
    t = MultiPoly.var(CHART_EXT, QQ, "t")
    word = phi + (Triangular("y", x * t),) + invert(phi)
    flat = flatten(word, CHART_EXT, QQ, base=("x",))
    monkeypatch.setattr(fibration, "stable_variable",
                        lambda spec, s_max: (1, word, flat))
    ring = RingDescriptor.polynomials(CHART_EXT)
    bad = [(name, c) for name, c in flat.comps.items() if not ring.contains(c)]
    assert bad
    r = verify_stable_variable(sp)
    assert r.status == "fail"
    assert r.residuals["components-polynomial"] == "; ".join(
        f"{name} = {c}" for name, c in bad)
