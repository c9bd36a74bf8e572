"""Acceptance gate: ten criteria, one pass/fail line printed per criterion.

Each test prints its verdict and wall time even under pytest's capture, and
separately asserts the criterion's runtime budget.
"""

import random
import time
from fractions import Fraction

import pytest

from a2bundle.bivariable import (
    GLUE,
    RING_ALL,
    basic_bivariable,
    ex66_bivariable,
    lemma44_bivariable,
    p_shift_bivariable,
)
from a2bundle.bundles import (
    FIVE,
    a1_equiv,
    classify,
    congruence_data,
    lemma62_variable,
    prop45_search,
    verify_congruence_move,
    verify_geometric_ladder,
    verify_hypersurface_samples,
)
from a2bundle.cli import main
from a2bundle.exprio import field_from_descriptor, parse, to_expr
from a2bundle.fibration import (
    PLANE,
    PVAR,
    FibrationSpec,
    TransitionFunction,
    closed_form_m1,
    closed_form_m2,
    closed_form_m2 as _cf2,
    minimal_m,
    transition_formula,
    verify_bundle_identity,
    verify_coordinate_facts,
    verify_stable_variable,
)
from a2bundle.fields import QQ
from a2bundle.maps import Scale, Triangular, flatten, invert, lemma41_build
from a2bundle.poly import MultiPoly, divide_exact, substitute

THREE_POLYS = ("z^2", "z^2 + z", "z^3 + 2*z")


def zpoly(s, field=QQ):
    return parse(s, PVAR, field)


def ppoly(s, field=QQ):
    return parse(s, PLANE, field)


class criterion:
    """Times the body, prints one verdict line, enforces the budget."""

    def __init__(self, capsys, num, label, budget=None):
        self.capsys, self.num, self.label = capsys, num, label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        over = (f"  [over budget: {dt:.2f}s > {self.budget}s]"
                if self.budget is not None and dt > self.budget else "")
        with self.capsys.disabled():
            print(f"acceptance {self.num:>2}/10 {self.label}: "
                  f"{verdict} ({dt:.2f}s){over}")
        if exc_type is None and self.budget is not None:
            assert dt < self.budget, f"criterion {self.num} took {dt:.2f}s"
        return False


def test_c01_transition_functions(capsys):
    with criterion(capsys, 1, "transition functions", budget=1.0):
        f3 = transition_formula(FibrationSpec(zpoly("z^2"), 3), 1)
        f2 = transition_formula(FibrationSpec(zpoly("z^2"), 2), 2)
        f1 = transition_formula(FibrationSpec(zpoly("z^2"), 1), 3)
        assert f3 == ppoly("a^-1*b^-2*x - a^-3*b^-1*x^2")
        assert len(f2.terms) == 3
        assert f2 == f3 - ppoly("a^-1*b^-2*x^3")
        assert len(f1.terms) == 4
        assert f1 == f3 - ppoly("a^-2*b^-2*x^3 + a^-1*b^-3*x^4")
        # the CLI front end prints the same canonical form
        assert main(["transition", "--P", "z^2", "--n", "1", "--m", "3"]) == 0
        assert capsys.readouterr().out.strip() == to_expr(f1)
        # closed forms collapse the defining sum for every stock P
        for p_text in THREE_POLYS:
            P = zpoly(p_text)
            d = P.degree_in("z")
            s1 = FibrationSpec(P, d + 1)
            assert transition_formula(s1, 1) == closed_form_m1(s1)
            s2 = FibrationSpec(P, d // 2 + 1)
            assert transition_formula(s2, 2) == closed_form_m2(s2)


def test_c02_coordinate_words(capsys):
    with criterion(capsys, 2, "coordinate words", budget=5.0):
        for p_text in THREE_POLYS:
            for n in (1, 2, 3):
                res = verify_coordinate_facts(
                    FibrationSpec(zpoly(p_text), n))
                assert res.ok, (p_text, n, res.residuals)
                assert res.residuals["jacobian-chain-minus-1"] == "0"
                assert res.residuals["word-times-inverse-is-identity"] == "ok"


def test_c03_bundle_identity(capsys):
    with criterion(capsys, 3, "glued bundle identity", budget=30.0):
        for p_text in THREE_POLYS:
            for n in (1, 2, 3):
                spec = FibrationSpec(zpoly(p_text), n)
                res = verify_bundle_identity(spec)  # smallest legal m
                assert res.ok, (p_text, n, res.residuals)
                assert res.residuals["numerator-at-x=0"] == "0"
                assert res.residuals["cleared-glueing-identity"] == "0"


def test_c04_stable_exponent(capsys):
    with criterion(capsys, 4, "stability exponent"):
        res = verify_stable_variable(FibrationSpec(zpoly("z^2"), 1),
                                     s_max=12)
        assert res.ok, res.residuals
        assert res.witness["s"] == 3  # frozen regression value
        assert res.residuals["jacobian-minus-1"] == "0"
        assert res.residuals["v-moves-by-x^s*t"] == "0"


def test_c05_block_roundtrips(capsys):
    with criterion(capsys, 5, "one-block roundtrips", budget=20.0):
        rng = random.Random(414243)
        F = QQ
        x = MultiPoly.var(GLUE, F, "x")
        a = MultiPoly.var(GLUE, F, "a")
        b = MultiPoly.var(GLUE, F, "b")
        scalars = (a, b, a * b)

        def rand_poly(deg):
            p = MultiPoly.zero(GLUE, F)
            for i in range(deg + 1):
                p = p + (x ** i).scale(Fraction(rng.randint(-2, 2)))
            return p

        done = 0
        while done < 20:
            m = rng.randint(1, 3)
            deg_q = rng.randint(0, 2)
            deg_f = rng.randint(1, 3)
            # the congruence partner's degree multiplies at each of the
            # m - 1 iterations; resample the draws whose partner degree
            # would dominate the whole suite's budget
            if deg_f * max(1, deg_f * deg_q) ** (m - 1) > 16:
                continue
            q, f = rand_poly(deg_q), rand_poly(deg_f)
            A = scalars[rng.randrange(3)]
            phi = lemma41_build(GLUE, F, "x", "y", A, m, q, f)
            psi = invert(phi)
            fwd = flatten(phi + psi, GLUE, F, ("a", "b"))
            bwd = flatten(psi + phi, GLUE, F, ("a", "b"))
            assert fwd.is_identity() and bwd.is_identity()
            # interior divisions by A^m were exact: both components of the
            # block itself are plain polynomials
            blk = flatten(phi, GLUE, F, ("a", "b"))
            assert RING_ALL.contains(blk.comps["x"])
            assert RING_ALL.contains(blk.comps["y"])
            done += 1


def test_c06_bivariable_chain(capsys):
    with criterion(capsys, 6, "bivariable chain", budget=10.0):
        for m, n in ((1, 1), (1, 2), (2, 3)):
            cert = basic_bivariable(m, n)
            assert cert.f.f == ppoly(f"a^-{m}*b^-{n}*x")
        hat = p_shift_bivariable(zpoly("z^2"))
        assert hat.omega == parse("a*x + b^2*y + b*x^2", GLUE, QQ)
        assert hat.f.f == ppoly("a^-1*b^-2*x - a^-3*b^-1*x^2")
        deep = lemma44_bivariable(zpoly("z^2"))  # raises if (<>) mod a^3 fails
        target = TransitionFunction.from_poly(
            _cf2(FibrationSpec(zpoly("z^2"), 2)))
        assert a1_equiv(deep.f, target) is not None


def test_c07_congruence_moves(capsys):
    with criterion(capsys, 7, "congruence moves", budget=30.0):
        for which in ("ex46", "ex48"):
            res = verify_congruence_move(which)
            assert res.ok, res.residuals
            assert res.residuals["composite-x"] == "0"
            assert res.residuals["composite-y"] == "0"
        ext = verify_congruence_move("ex47")
        assert ext.ok and ext.inputs["field"].startswith("ext:")
        fin = verify_congruence_move("ex47",
                                     field=field_from_descriptor("fp:11"))
        assert fin.ok and fin.inputs["field"] == "fp:11"
        f_b, g_b, m, q = congruence_data("ex46")
        found = prop45_search(f_b, g_b, m, 1,
                              (0, Fraction(1, 2), Fraction(-1, 2), 1, -1))
        assert found == q == ppoly("1/2*x")


def test_c08_ladder(capsys):
    with criterion(capsys, 8, "one-denominator ladder", budget=20.0):
        for n in (1, 2, 3):
            (res,) = verify_geometric_ladder("z^2", [(n, 1)])
            assert res.ok, (n, res.residuals)
            assert res.residuals["first-rung-conjugate-is-identity"] == "ok"
        for m in (1, 2, 3):
            (res,) = verify_geometric_ladder("z^2", [(1, m)])
            assert res.ok, (m, res.residuals)
            assert res.residuals["forward-conjugate-in-blow-up-ring"] == "ok"
            assert res.residuals["backward-conjugate-in-blow-up-ring"] == "ok"


def test_c09_triviality_suite(capsys):
    with criterion(capsys, 9, "hypersurfaces and verdicts", budget=10.0):
        for res in verify_hypersurface_samples():
            assert res.ok, res.residuals
        f3 = transition_formula(FibrationSpec(zpoly("z^2"), 3), 1)
        assert classify(TransitionFunction.from_poly(
            ppoly("a^-1*b^-1*x"))).status == "trivial"
        assert classify(TransitionFunction.from_poly(
            ppoly("a^-1*b^-3*x"))).status == "trivial"
        nt = classify(TransitionFunction.from_poly(ppoly("a^-1*b^-1*x^2")))
        assert str(nt) == "Nontrivial: deg P(0,0,x) = 2"
        assert classify(TransitionFunction.from_poly(f3)).status == "unknown"
        mixed = ex66_bivariable()
        assert classify(mixed.f).status == "unknown"
        assert mixed.f.f == ppoly("a^-1*b^-2*x + a^-2*b^-1*x")
        # degree-one numerator: replay the rewriting word's defining identity
        word = lemma62_variable(ppoly("x"), 1, 1)
        flat = flatten(word, FIVE, QQ, ("a", "b"))
        av, bv, xv, uv, vv = (MultiPoly.var(FIVE, QQ, s) for s in
                              ("a", "b", "x", "u", "v"))
        assert substitute(av * uv - bv * vv - xv, flat.comps) == xv


def test_c10_infrastructure(capsys):
    with criterion(capsys, 10, "infrastructure properties", budget=30.0):
        rng = random.Random(99991)

        def rand_fraction():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        def rand_plane_poly(n_terms=4):
            p = MultiPoly.zero(PLANE, QQ)
            for _ in range(rng.randint(0, n_terms)):
                e = (rng.randint(-3, 3), rng.randint(-3, 3),
                     rng.randint(0, 4))
                p = p + MultiPoly.monomial(PLANE, QQ, e, rand_fraction())
            return p

        # print/parse round trip on 1000 random polynomials
        for _ in range(1000):
            p = rand_plane_poly()
            assert parse(to_expr(p), PLANE, QQ) == p

        # field axioms on random triples, one field per kind
        for desc in ("q", "fp:11", "ext:5t^2-1"):
            F = field_from_descriptor(desc)

            def rand_elem():
                v = F.coerce(rng.randint(-20, 20))
                if F.characteristic == 0:
                    v = F.coerce(rand_fraction())
                if desc.startswith("ext") and rng.random() < 0.5:
                    v = F.add(v, F.mul(F.coerce(rng.randint(-3, 3)),
                                       F.generator))
                return v

            for _ in range(60):
                u, v, w = rand_elem(), rand_elem(), rand_elem()
                assert F.add(F.add(u, v), w) == F.add(u, F.add(v, w))
                assert F.mul(F.mul(u, v), w) == F.mul(u, F.mul(v, w))
                assert F.mul(u, F.add(v, w)) == F.add(F.mul(u, v),
                                                      F.mul(u, w))
                assert F.add(u, v) == F.add(v, u)
                assert F.mul(u, v) == F.mul(v, u)
                if not F.is_zero(u):
                    assert F.mul(u, F.inv(u)) == F.one

        # pointwise oracle at 50 random rational points: the symbolic
        # operations agree with evaluation
        def rand_point():
            nz = lambda: Fraction(rng.choice((1, -1)) * rng.randint(1, 7),
                                  rng.randint(1, 5))
            return {"a": nz(), "b": nz(), "x": rand_fraction()}

        for _ in range(50):
            pt = rand_point()
            f, g = rand_plane_poly(), rand_plane_poly()
            assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
            assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
            # substitution then evaluation == evaluation then substitution
            sub = substitute(f, {"x": g})
            inner = dict(pt)
            inner["x"] = g.evaluate(pt).value
            assert sub.evaluate(pt) == f.evaluate(inner)
            # exact division undoes multiplication, pointwise too
            if g:
                prod = f * g
                quot = divide_exact(prod, g)
                assert quot == f
                assert quot.evaluate(pt) == f.evaluate(pt)

        # flatten agrees with acting on points generator by generator
        F = QQ
        ag = MultiPoly.var(GLUE, F, "a")
        yg = MultiPoly.var(GLUE, F, "y")
        word = (Scale("x", ag ** 2), Triangular("x", yg * ag),
                Scale("y", ag ** -1), Triangular("y", parse("b*x^2", GLUE,
                                                            F)))
        flat = flatten(word, GLUE, F, ("a", "b"))
        for _ in range(50):
            pt = rand_point()
            pt["y"] = rand_fraction()
            state = dict(pt)
            for gen in word:
                one_step = flatten((gen,), GLUE, F, ("a", "b"))
                state = {k: v.evaluate(state).value
                         for k, v in one_step.comps.items()}
            for name in GLUE.names:
                assert flat.comps[name].evaluate(pt).value == state[name]
