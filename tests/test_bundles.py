import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from a2bundle import bivariable, bundles
from a2bundle.bivariable import (
    GLUE,
    BivariableCert,
    cert_from_json,
    cert_to_json,
    extend_b,
    p_shift_bivariable,
    with_constant,
)
from a2bundle.bundles import (
    FIVE,
    _sqrt_inv5,
    TrivialityVerdict,
    a1_equiv,
    classify,
    congruence_data,
    ex47_field,
    hypersurface_embed,
    lemma62_variable,
    prop45_check,
    prop45_search,
    prop63_membership,
    verify_congruence_move,
    verify_geometric_ladder,
    verify_hypersurface_samples,
    verify_intersection_samples,
)
from a2bundle.cli import LADDER_RUNGS
from a2bundle.errors import DegreeNotOne, DivisionByZero, PreconditionViolated
from a2bundle.exprio import field_from_descriptor, parse
from a2bundle.fibration import (
    PLANE,
    PVAR,
    FibrationSpec,
    TransitionFunction,
    formal_transition,
    transition_function,
)
from a2bundle.fields import QQ, PrimeField, Rationals
from a2bundle.report import CheckBuilder, VerificationReport
from a2bundle.maps import flatten
from a2bundle.poly import (
    MultiPoly,
    residual_mod,
    split_negative_parts,
    substitute,
    truncate_var,
)


def ppoly(s, field=QQ):
    return parse(s, PLANE, field)


def zpoly(s, field=QQ):
    return parse(s, PVAR, field)


def tf_of(s, field=QQ):
    return TransitionFunction.from_poly(ppoly(s, field))


F3 = formal_transition(FibrationSpec(zpoly("z^2"), 3), 1)
F1 = formal_transition(FibrationSpec(zpoly("z^2"), 1), 3)


# ------------------------------------------------------- chart equivalence


def test_a1_equiv_scalar():
    eq = a1_equiv(TransitionFunction.from_poly(F3),
                  TransitionFunction.from_poly(F3.scale(Fraction(2))))
    assert eq is not None
    lam, r_a, r_b = eq
    assert lam.value == Fraction(2)
    assert r_a.is_zero() and r_b.is_zero()


def test_a1_equiv_chart_shift():
    g = F3 + ppoly("a^-1*x^3")
    eq = a1_equiv(TransitionFunction.from_poly(F3),
                  TransitionFunction.from_poly(g))
    assert eq is not None
    lam, r_a, r_b = eq
    assert lam.value == Fraction(1)
    assert r_a == ppoly("a^-1*x^3")
    assert r_b.is_zero()


def test_a1_equiv_detects_different_bundles():
    assert a1_equiv(tf_of("a^-1*b^-1*x"), tf_of("a^-1*b^-1*x^2")) is None


def test_a1_equiv_inverse_scale():
    f = TransitionFunction.from_poly(F3)
    g = TransitionFunction.from_poly(F3.scale(Fraction(3, 2)))
    assert a1_equiv(f, g)[0].value == Fraction(3, 2)
    assert a1_equiv(g, f)[0].value == Fraction(2, 3)


def test_a1_equiv_no_denominators_on_either_side():
    # both doubly-negative parts empty: scale 1, split the difference
    f = tf_of("a^-2*x")
    g = tf_of("a^-2*x + b^-1*x^2")
    lam, r_a, r_b = a1_equiv(f, g)
    assert lam.value == Fraction(1)
    assert r_a.is_zero()
    assert r_b == ppoly("b^-1*x^2")


def test_a1_equiv_same_leading_exponent_not_proportional():
    # the leading doubly-negative terms agree, the next ones do not
    f = tf_of("a^-1*b^-1*x^2 + a^-1*b^-1*x")
    g = tf_of("a^-1*b^-1*x^2 + 2*a^-1*b^-1*x")
    assert a1_equiv(f, g) is None
    assert a1_equiv(g, f) is None


def test_a1_equiv_one_sided_denominator_mismatch():
    assert a1_equiv(tf_of("a^-1*x"), tf_of("a^-1*b^-1*x")) is None
    assert a1_equiv(tf_of("a^-1*b^-1*x"), tf_of("a^-1*x")) is None


chart_a_parts = st.builds(
    lambda c, i, j, k: MultiPoly.monomial(PLANE, QQ, (-i, j, k), c),
    st.integers(-3, 3).filter(bool), st.integers(0, 2),
    st.integers(0, 2), st.integers(0, 3))

chart_b_parts = st.builds(
    lambda c, i, j, k: MultiPoly.monomial(PLANE, QQ, (i, -j, k), c),
    st.integers(-3, 3).filter(bool), st.integers(0, 2),
    st.integers(1, 2), st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(lam=st.fractions(min_value=Fraction(-4), max_value=Fraction(4))
       .filter(bool),
       r_a=chart_a_parts, r_b=chart_b_parts)
def test_a1_equiv_roundtrip_property(lam, r_a, r_b):
    # build g = lam*f + r_a + r_b with the parts already in split position;
    # the decision procedure must recover the data exactly
    f = TransitionFunction.from_poly(F3)
    g = TransitionFunction.from_poly(F3.scale(lam) + r_a + r_b)
    eq = a1_equiv(f, g)
    assert eq is not None
    got_lam, got_a, got_b = eq
    assert got_lam.value == lam
    assert got_a == r_a
    assert got_b == r_b


# ------------------------------------------------- congruence-move witness


def test_congruence_move_short_vs_quartic():
    res = verify_congruence_move("ex46")
    assert res.check_id == "ex46"
    assert res.status == "pass"
    assert "block" in res.witness


def test_congruence_move_cubic_needs_root_of_fifth():
    res = verify_congruence_move("ex47")
    assert res.status == "pass"
    assert res.inputs["field"] == ex47_field().descriptor()


def test_congruence_move_cubic_over_f11():
    res = verify_congruence_move("ex47", field=field_from_descriptor("fp:11"))
    assert res.status == "pass"
    assert res.inputs["field"] == "fp:11"


def test_sqrt_inv5_matches_scan_below_500():
    for p in sympy.primerange(2, 500):
        if p == 5:
            continue
        F = PrimeField(int(p))
        inv5 = F.inv(5)
        scan = next((r for r in range(p) if r * r % p == inv5), None)
        assert _sqrt_inv5(F) == scan, p


def test_sqrt_inv5_large_primes_are_fast():
    t0 = time.perf_counter()
    assert _sqrt_inv5(PrimeField(10**9 + 7)) is None  # 5 is a non-residue
    F = PrimeField(10**9 + 9)
    r = _sqrt_inv5(F)
    assert r is not None and F.mul(F.mul(r, r), 5) == 1
    assert time.perf_counter() - t0 < 0.5


def test_congruence_move_quartic_tail():
    res = verify_congruence_move("ex48")
    assert res.check_id == "ex48"
    assert res.status == "pass"


def test_congruence_move_unknown_name():
    with pytest.raises(PreconditionViolated, match="unknown"):
        verify_congruence_move("ex99")


def test_congruence_samples_evaluate_the_ladder_function():
    F = field_from_descriptor("fp:11")
    spec = FibrationSpec(parse("z^2", PVAR, F), 1)
    ladder = formal_transition(spec, 3).shift_exponents((3, 0, 0))
    for which in ("ex47", "ex48"):
        assert congruence_data(which, F)[1] == ladder


@pytest.mark.parametrize("which, desc", [("ex46", "fp:2"), ("ex47", "fp:2"),
                                         ("ex48", "fp:2"), ("ex47", "fp:5")])
def test_congruence_samples_name_the_missing_inverse(which, desc):
    with pytest.raises(DivisionByZero, match=f"inverse of 0 in F_{desc[3:]}$"):
        congruence_data(which, field_from_descriptor(desc))


def test_ex46_congruence_by_sympy():
    # independent replay of the defining congruence with sympy rationals
    f_b, g_b, m, q = congruence_data("ex46")
    sa, sb, sx = sympy.symbols("a b x")

    def to_sym(p):
        return sum(sympy.Rational(c) * sa**e[0] * sb**e[1] * sx**e[2]
                   for e, c in p.terms.items())

    sf, sg, sq = to_sym(f_b), to_sym(g_b), to_sym(q)
    moved = sx + sa * sq.subs(sx, sf)
    diff = sympy.expand((sg.subs(sx, moved) - sf) * sb**8)
    poly = sympy.Poly(diff, sa)
    for k in range(m):
        assert poly.coeff_monomial(sa**k) == 0


def test_prop45_reports_failed_congruence():
    f_b, g_b, m, _ = congruence_data("ex46")
    bad = prop45_check(f_b, g_b, m, ppoly("x"))
    assert bad.status == "fail"
    assert any("congruence-mod-a^m" in r for r in bad.residuals)
    assert bad.witness == {}


def test_prop45_trivial_move():
    f_b, _, m, _ = congruence_data("ex46")
    res = prop45_check(f_b, f_b, m, MultiPoly.zero(PLANE, QQ))
    assert res.status == "pass"


def test_prop45_rejects_bad_inputs():
    f_b, g_b, m, q = congruence_data("ex46")
    with pytest.raises(PreconditionViolated, match="must not invert a"):
        prop45_check(ppoly("a^-1*x"), g_b, m, q)
    with pytest.raises(PreconditionViolated, match="polynomial"):
        prop45_check(f_b, g_b, m, ppoly("b^-1*x"))
    with pytest.raises(PreconditionViolated, match="m must be"):
        prop45_check(f_b, g_b, 0, q)


def test_search_rediscovers_payload():
    f_b, g_b, m, q = congruence_data("ex46")
    found = prop45_search(f_b, g_b, m, 1, (0, Fraction(1, 2),
                                           Fraction(-1, 2), 1, -1))
    assert found == q


def test_search_confirmation_formats_nothing(monkeypatch):
    f_b, g_b, m, q = congruence_data("ex46")
    res = prop45_check(f_b, g_b, m, q)
    printed = {"f_b": str(f_b), "g_b": str(g_b), "m": str(m), "Q": str(q)}
    calls = []
    real = MultiPoly.__str__
    monkeypatch.setattr(MultiPoly, "__str__", lambda p: calls.append(1) or real(p))
    assert prop45_search(f_b, g_b, m, 1, (0, Fraction(1, 2), 1)) == q
    assert calls == []
    assert {k: res.inputs[k] for k in printed} == printed
    assert res.witness == {"pull_out": "x += -1/2*a^4*y", "block": "block[a^3](x,y; Q=1/2*x)",
                           "moved_variable": "1/2*a^3*x*b^-2 - 1/2*a*x^2*b^-1 + x"}


def test_search_exhausts_small_pool():
    f_b, g_b, m, _ = congruence_data("ex46")
    assert prop45_search(f_b, g_b, m, 1, (0, 1)) is None


def test_search_trivial_pair_finds_zero():
    f_b, _, m, _ = congruence_data("ex46")
    found = prop45_search(f_b, f_b, m, 1, (0,))
    assert found is not None and found.is_zero()


def test_search_candidate_cap_at_its_edge(monkeypatch):
    f_b, g_b, m, _ = congruence_data("ex46")
    # raised before any candidate, or 2^(10^9), is built
    with pytest.raises(PreconditionViolated,
                       match=f"more than {bundles.MAX_CANDIDATES} candidates"):
        prop45_search(f_b, g_b, m, 10 ** 9, (0, 1))
    monkeypatch.setattr(bundles, "MAX_CANDIDATES", 4)
    assert prop45_search(f_b, g_b, m, 1, (0, 1, 1, 0)) is None  # 2^2 = 4
    with pytest.raises(PreconditionViolated, match="more than 4 candidates"):
        prop45_search(f_b, g_b, m, 2, (0, 1))  # 2^3 = 8
    found = prop45_search(f_b, f_b, m, 3, (0,))  # one candidate, 4 coefficients
    assert found is not None and found.is_zero()
    with pytest.raises(PreconditionViolated, match="more than 4 candidates"):
        prop45_search(f_b, f_b, m, 4, (0,))  # 5 coefficients


@st.composite
def residual_inputs(draw, F):
    """``(f_b, g_b, moved, k)`` with ``moved = x + a*Q(f_b(x))``."""
    a, _, x = MultiPoly.gens(PLANE, F)
    f_b = plane_terms(draw, F, (0, 2), (0, 2))
    g_b = plane_terms(draw, F, (0, 2), (0, 3))
    q = plane_terms(draw, F, (0, 1), (0, 2))
    return f_b, g_b, x + a * substitute(q, {"x": f_b}), draw(st.integers(1, 4))


@pytest.mark.parametrize("desc", ["q", "fp:11", "ext:t^2+1"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_residual_is_the_truncated_composite(desc, data):
    f_b, g_b, moved, k = data.draw(residual_inputs(field_from_descriptor(desc)))
    want = truncate_var(substitute(g_b, {"x": moved}) - f_b, {"a": k})
    assert residual_mod(f_b, g_b, "x", moved, {"a": k}) == want


def enumerated_search(f_b, g_b, m, deg_bound, pool):
    """``prop45_search`` as a plain enumeration: every candidate is composed
    and truncated at every power of ``a`` up to ``a^m``, then confirmed."""
    bundles._chart_b_univariate(f_b, "f_b")
    bundles._chart_b_univariate(g_b, "g_b")
    if deg_bound < 0:
        raise PreconditionViolated("negative deg_bound")
    F = f_b.field
    a, _, x = MultiPoly.gens(PLANE, F)
    coeffs = []
    for c in pool:
        raw = F.coerce(c)
        if raw not in coeffs:
            coeffs.append(raw)
    if (deg_bound >= bundles.MAX_CANDIDATES
            or len(coeffs) ** (deg_bound + 1) > bundles.MAX_CANDIDATES):
        raise PreconditionViolated("too many candidates")

    def as_poly(cand):
        q = MultiPoly.zero(PLANE, F)
        for i, c in enumerate(cand):
            q = q + (x ** i).scale(c)
        return q

    def residual_mod(q, k):
        moved = truncate_var(x + a * substitute(q, {"x": f_b}), {"a": k})
        top = g_b.degree_in("x") or 0
        acc = MultiPoly.zero(PLANE, F)
        for i in range(top, -1, -1):
            acc = truncate_var(acc * moved + g_b.coefficient_in("x", i),
                               {"a": k})
        return truncate_var(acc - f_b, {"a": k})

    survivors = list(itertools.product(coeffs, repeat=deg_bound + 1))
    for k in range(1, m + 1):
        survivors = [c for c in survivors if not residual_mod(as_poly(c), k)]
        if not survivors:
            return None
    for cand in survivors:
        q = as_poly(cand)
        if prop45_check(f_b, g_b, m, q).ok:
            return q
    return None


SEARCH_FIELDS = (QQ, field_from_descriptor("fp:11"))
POOL_VALUES = (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def plane_terms(draw, F, a_range, x_range):
    """A sum of one to three random terms ``c*a^i*b^j*x^k``."""
    terms = draw(st.lists(st.tuples(st.sampled_from(POOL_VALUES[1:]),
                                    st.integers(*a_range),
                                    st.integers(-2, 1),
                                    st.integers(*x_range)),
                          min_size=1, max_size=3))
    return sum((MultiPoly.monomial(PLANE, F, e, c) for c, *e in terms),
               MultiPoly.zero(PLANE, F))


@st.composite
def search_inputs(draw):
    """``(f_b, g_b, m, deg, pool)``: a pool holding 0 and a duplicate; half
    of the pairs are built around a payload from the pool, possibly
    perturbed, the rest have a random ``g_b`` (sometimes inverting ``a``)."""
    F = draw(st.sampled_from(SEARCH_FIELDS))
    m, deg = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    drawn = draw(st.lists(st.sampled_from(POOL_VALUES), min_size=1,
                          max_size=3))
    pool = drawn + [0, drawn[0]]
    a, _, x = MultiPoly.gens(PLANE, F)
    f_b = plane_terms(draw, F, (0, 2), (1, 2))
    if draw(st.booleans()):
        q = sum(((x ** i).scale(draw(st.sampled_from(pool)))
                 for i in range(deg + 1)), MultiPoly.zero(PLANE, F))
        # psi inverts x -> x + a*Q(f_b(x)) mod a^m, so g_b = f_b(psi)
        # satisfies g_b(x + a*Q(f_b(x))) == f_b(x) mod a^m
        psi = x
        for _ in range(m):
            psi = truncate_var(
                x - a * substitute(q, {"x": substitute(f_b, {"x": psi})}),
                {"a": m})
        g_b = truncate_var(substitute(f_b, {"x": psi}), {"a": m})
        if draw(st.booleans()):
            g_b = g_b + plane_terms(draw, F, (0, 3), (0, 2))
    else:
        g_b = plane_terms(draw, F, (-1 if draw(st.booleans()) else 0, 2),
                          (0, 3))
    return f_b, g_b, m, deg, pool


def outcome(search, args):
    try:
        return search(*args)
    except Exception as exc:
        return type(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(args=search_inputs())
def test_search_matches_enumeration(args):
    want = outcome(enumerated_search, args)
    got = outcome(prop45_search, args)
    if want is None or isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, MultiPoly) and got == want


def test_traced_certs_run_records_every_boundary(tmp_path):
    """A short traced run of the benchmark's ``certs`` stream: no operation
    fails, every boundary the traced gate expects records calls, and each
    search that returns a payload confirmed it with ``prop45_check``."""
    root = Path(__file__).resolve().parents[1]
    bench = root / "perfbench"
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(root / "src"), str(bench))))
    proc = subprocess.run(
        [sys.executable, str(bench / "child.py"), "certs", "--seed", "1",
         "--ops", "16", "--spans", str(spans)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert [op[3] for op in out["ops"] if op[3]] == []
    sys.path.insert(0, str(bench))
    try:
        import layers
        import tracer
    finally:
        sys.path.remove(str(bench))
    assert layers.missing_boundaries("certs", out["calls"]) == []

    doc = tracer.load(spans)
    names, rows = doc["names"], doc["rows"]
    search = names.index("bundles.prop45_search")
    check = names.index("bundles.prop45_check")
    found = [r[tracer.ID] for r in rows
             if r[tracer.NAME] == search and r[tracer.WORK]]
    confirmed = {r[tracer.PARENT] for r in rows if r[tracer.NAME] == check}
    assert found and set(found) <= confirmed

@pytest.mark.parametrize("field", ["q", "fp:11", "ext:t^2+1"])
def test_traced_verify_run_records_every_boundary(tmp_path, field):
    """A traced ``verify all`` over each field of the benchmark's verify
    workloads: it exits 0 and every boundary of the traced verify gate
    records calls, the field's ``add``, ``mul``, ``div`` and ``inv``
    included, although held polynomials add and multiply without them."""
    root = Path(__file__).resolve().parents[1]
    bench = root / "perfbench"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(root / "src"), str(bench))))
    proc = subprocess.run(
        [sys.executable, str(bench / "child.py"), "verify", "--field",
         field, "--spans", str(tmp_path / "spans.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rc"] == 0
    sys.path.insert(0, str(bench))
    try:
        import layers
    finally:
        sys.path.remove(str(bench))
    assert layers.missing_boundaries("verify", out["calls"]) == []


@pytest.mark.parametrize("field, payload, residual", [
    ("q", "x", "3/4*a^2*x^4*b^-3 + a*x^3*b^-2"),
    ("ext:t^2+1", "t*x", "(3*t - 1/4)*a^2*x^4*b^-3 + (2*t - 1)*a*x^3*b^-2"),
])
def test_prop45_check_formats_details_only_on_failure(monkeypatch, field, payload,
                                                      residual):
    """Every detail ``prop45_check`` hands to ``expect`` is a callable; a
    passing check calls none of them, and a failing congruence reports the
    truncated residual, the same string as when details were formatted
    eagerly."""
    called, expect = [], CheckBuilder.expect

    def spying(self, name, cond, detail=""):
        assert callable(detail), name

        def counted():
            called.append(name)
            return detail()
        return expect(self, name, cond, counted)

    monkeypatch.setattr(CheckBuilder, "expect", spying)
    F = field_from_descriptor(field)
    f_b, g_b, m, q = congruence_data("ex46", F)
    assert prop45_check(f_b, g_b, m, q).ok
    assert called == []
    bad = prop45_check(f_b, g_b, m, ppoly(payload, F))
    assert called == ["congruence-mod-a^m"]
    assert bad.residuals["congruence-mod-a^m"] == residual


def test_certs_stream_calls_rational_add_and_mul(monkeypatch):
    """One operation of each kind of the benchmark's ``certs`` stream, over
    Q: a traced run fails when ``Rationals.add`` or ``Rationals.mul``
    records no call, so polynomial kernels that bypass the field must leave
    both on this path."""
    calls = {"add": 0, "mul": 0}
    for op in calls:
        def counting(self, a, b, _op=op, _real=getattr(Rationals, op)):
            calls[_op] += 1
            return _real(self, a, b)
        monkeypatch.setattr(Rationals, op, counting)

    hat = extend_b(with_constant(1, 1, ppoly("a + 1/2")), 1, 1,
                   parse("x^2/3 + x", GLUE, QQ))
    doc = cert_to_json(hat)
    assert cert_from_json(doc).omega == hat.omega
    f = "x*a^-1*b^-2 - x^2*a^-3*b^-1"
    assert a1_equiv(tf_of(f), tf_of("3/2*x*a^-1*b^-2 - 3/2*x^2*a^-3*b^-1"
                                    " + a^-1*x + x^2*b^-2/5")) is not None
    assert classify(tf_of("x^2*a^-1*b^-1")).status == "nontrivial"
    f_b, g_b, m, q = congruence_data("ex46")
    assert prop45_search(f_b, g_b, m, 1, (0, Fraction(1, 2))) == q
    assert calls["add"] >= 1 and calls["mul"] >= 1, calls


# ------------------------------------------------------------- classifier


def test_classify_no_a_denominator():
    verdict = classify(tf_of("b^-1*x"))
    assert verdict.status == "trivial"
    assert str(verdict) == "Trivial"
    assert isinstance(verdict.witness, BivariableCert)
    assert verdict.witness.f.f == ppoly("b^-1*x")


def test_classify_no_b_denominator():
    verdict = classify(tf_of("a^-2*x + a^-1*x^2"))
    assert verdict.status == "trivial"
    assert isinstance(verdict.witness, BivariableCert)


def test_classify_degree_one_numerator():
    tf = tf_of("a^-1*b^-3*x")
    verdict = classify(tf)
    assert verdict.status == "trivial"
    # the witness is a coordinate word on the hypersurface model; replay
    # its defining property
    word = verdict.witness
    F = QQ
    flat = flatten(word, FIVE, F, ("a", "b"))
    a = MultiPoly.var(FIVE, F, "a")
    b = MultiPoly.var(FIVE, F, "b")
    u = MultiPoly.var(FIVE, F, "u")
    v = MultiPoly.var(FIVE, F, "v")
    x = MultiPoly.var(FIVE, F, "x")
    eqn = a * u - b ** 3 * v - x
    assert substitute(eqn, flat.comps) == x


def test_classify_degree_obstruction():
    verdict = classify(tf_of("a^-1*b^-1*x^2"))
    assert verdict.status == "nontrivial"
    assert str(verdict) == "Nontrivial: deg P(0,0,x) = 2"
    assert verdict.witness is None


def test_classify_unknown_cases():
    assert classify(TransitionFunction.from_poly(F3)).status == "unknown"
    mixed = tf_of("a^-1*b^-2*x + a^-2*b^-1*x")
    verdict = classify(mixed)
    assert verdict.status == "unknown"
    assert str(verdict) == "Unknown"


def test_classify_constant_term_blocks_nothing():
    # P(0,0,x) of degree one with a constant part is still a coordinate
    verdict = classify(tf_of("a^-1*b^-1*x + a^-1*b^-1"))
    assert verdict.status == "trivial"


def test_verdict_and_poly_map_are_immutable_records():
    verdict = classify(tf_of("a^-1*b^-1*x^2"))
    assert verdict == TrivialityVerdict("nontrivial", None, "deg P(0,0,x) = 2")
    flat = flatten((), FIVE, QQ, ("a", "b"))
    # Record equality reads every slot, the base variables included
    assert flat == flatten((), FIVE, QQ, ("a", "b"))
    assert flat != flatten((), FIVE, QQ, ("a",))
    for obj, name in ((verdict, "status"), (flat, "jac")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


# ------------------------------------------------- hypersurface realisation


def test_hypersurface_samples_pass():
    for res in verify_hypersurface_samples():
        assert res.check_id == "lemma61"
        assert res.status == "pass"


def test_hypersurface_zero_function():
    res = hypersurface_embed(tf_of("0"), 0, 0)
    assert res.status == "pass"


def test_hypersurface_needs_cleared_denominators():
    with pytest.raises(PreconditionViolated, match="denominators"):
        hypersurface_embed(TransitionFunction.from_poly(F3), 1, 1)


def test_hypersurface_above_minimal_exponents():
    res = hypersurface_embed(TransitionFunction.from_poly(F3), 4, 3)
    assert res.status == "pass"


# ----------------------------------------------------- coordinate rewriting


@pytest.mark.parametrize("p_text,m,n", [
    ("x", 1, 1),
    ("x + a*x^2", 2, 1),
    ("2*x + 3 + a*x^2 + b*x^2", 2, 2),
    ("x + b*x^2", 1, 2),
    ("x + a*x^2 + b*x^3", 1, 1),
])
def test_lemma62_rewrites_to_plain_coordinate(p_text, m, n):
    F = QQ
    P = ppoly(p_text)
    word = lemma62_variable(P, m, n)
    flat = flatten(word, FIVE, F, ("a", "b"))
    a = MultiPoly.var(FIVE, F, "a")
    b = MultiPoly.var(FIVE, F, "b")
    u = MultiPoly.var(FIVE, F, "u")
    v = MultiPoly.var(FIVE, F, "v")
    x = MultiPoly.var(FIVE, F, "x")
    eqn = a ** m * u - b ** n * v - substitute(P, {}, into=FIVE)
    assert substitute(eqn, flat.comps) == x
    # the word is an automorphism: constant nonzero Jacobian
    jac = flat.jac
    assert jac and jac.is_monomial() and jac.degree_in("a") == 0
    assert not any(any(e) for e in jac.terms)


def test_lemma62_flattens_each_generator_once(monkeypatch):
    # the equation is pulled back one stage at a time, each through the
    # stage's own flattened word, so no generator is folded twice
    seen = []
    real = bundles.flatten

    def recorded(word, *args, **kw):
        seen.extend(word)
        return real(word, *args, **kw)

    monkeypatch.setattr(bundles, "flatten", recorded)
    word = lemma62_variable(ppoly("2*x + 3 + a*x^2 + b*x^2"), 2, 2)
    assert sorted(map(id, seen)) == sorted(map(id, word))


def test_lemma62_rejects_wrong_degree():
    with pytest.raises(DegreeNotOne):
        lemma62_variable(ppoly("x^2"), 1, 1)
    with pytest.raises(DegreeNotOne):
        lemma62_variable(ppoly("a*x"), 1, 1)


def test_lemma62_rejects_bad_exponents():
    with pytest.raises(PreconditionViolated, match=">= 1"):
        lemma62_variable(ppoly("x"), 0, 1)


# ----------------------------------------------------- intersection checks


def test_intersection_samples_pass():
    for res in verify_intersection_samples():
        assert res.check_id == "prop63"
        assert res.status == "pass"


def test_intersection_direct():
    res = prop63_membership(TransitionFunction.from_poly(F1), 3, 3)
    assert res.status == "pass"


# ------------------------------------------------------- geometric ladder


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)])
def test_geometric_ladder(n, m):
    (res,) = verify_geometric_ladder("z^2", [(n, m)])
    assert res.check_id == "lemma52"
    assert res.status == "pass"


def test_geometric_ladder_other_polynomial():
    (res,) = verify_geometric_ladder("z^2 + z", [(1, 2)])
    assert res.status == "pass"


def test_geometric_ladder_rungs_share_one_certificate(monkeypatch):
    singles = [verify_geometric_ladder("z^2", [rung])[0]
               for rung in LADDER_RUNGS]
    real = bivariable.certify
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(bivariable, "certify", counting)
    multi = verify_geometric_ladder("z^2", LADDER_RUNGS)
    # p_shift_bivariable certifies its basic element and its extension
    assert len(calls) == 2

    def stripped(res):
        check, = json.loads(VerificationReport("q", [res]).to_json())["checks"]
        return {k: v for k, v in check.items() if k != "millis"}

    assert [stripped(r) for r in multi] == [stripped(r) for r in singles]


def test_geometric_ladder_flattens_no_full_certificate_word(monkeypatch):
    # the certificate's chart maps come with it: the ladder folds only its
    # conjugating words, and certify folds only each link's new moves
    cert = p_shift_bivariable(zpoly("z^2"))
    real = bundles.flatten
    words = []

    def recording(word, *args, **kw):
        words.append(tuple(word))
        return real(word, *args, **kw)

    monkeypatch.setattr(bundles, "flatten", recording)
    monkeypatch.setattr(bivariable, "flatten", recording)
    results = verify_geometric_ladder("z^2", LADDER_RUNGS)
    assert all(r.status == "pass" for r in results)
    assert words
    assert cert.alpha_word not in words
    assert cert.beta_word not in words


# ----------------------------------------------------------- consistency


@pytest.mark.parametrize("p_text", ["z^2", "z^3 + 2*z"])
def test_certificates_agree_with_fibration_glueing(p_text):
    P = zpoly(p_text)
    cert = p_shift_bivariable(P)
    n = P.degree_in("z") + 1
    target = transition_function(FibrationSpec(P, n), 1)
    eq = a1_equiv(cert.f, target)
    assert eq is not None
    lam, r_a, r_b = eq
    assert lam.value == Fraction(1)
    assert r_a.is_zero() and r_b.is_zero()


def test_named_ladder_instances_frozen():
    # the three stock transition functions: n = 3, 2, 1 with the smallest
    # legal number of terms
    f2 = formal_transition(FibrationSpec(zpoly("z^2"), 2), 2)
    assert F3 == ppoly("a^-1*b^-2*x - a^-3*b^-1*x^2")
    assert f2 == F3 - ppoly("a^-1*b^-2*x^3")
    assert F1 == ppoly(
        "a^-1*b^-2*x - a^-3*b^-1*x^2 - a^-2*b^-2*x^3 - a^-1*b^-3*x^4")
