"""Glueing-function calculus for plane bundles over the punctured base plane.

Everything here manipulates the glueing function ``f`` of a two-chart plane
bundle (see :mod:`.fibration`) and the certificates of :mod:`.bivariable`:

* :func:`a1_equiv` decides when two glueing functions present the same
  bundle for the evident reason -- equal doubly-negative parts up to a
  nonzero scalar, the discrepancy being regular on one chart or the other;
* :func:`prop45_check` upgrades a polynomial congruence
  ``g_b(x + a*Q(f_b(x))) == f_b(x) mod a^m`` into an explicit bundle
  isomorphism, exhibiting the witnessing automorphisms and re-verifying
  their composite identity;
* :func:`prop45_search` looks for such a ``Q`` by staged lifting through
  the powers of ``a``;
* :func:`classify` applies the known triviality/nontriviality criteria,
  never answering "trivial" without a re-verified witness;
* :func:`hypersurface_embed` realises a bundle inside the affine
  hypersurface ``a^m*u - b^n*v = P`` in five variables, and
  :func:`lemma62_variable` rewrites that hypersurface's defining equation
  to a plain coordinate when ``P(0, 0, x)`` has degree one;
* :func:`prop63_membership` checks the two generators of the intersection
  ring that pins the bundle down algebraically;
* :func:`verify_geometric_ladder` replays the one-denominator family
  ``f_m`` through a single certificate: identity at the first rung,
  blow-up-ring membership at every rung, and the closed form of the ladder
  difference.
"""

from __future__ import annotations

import itertools

from .bivariable import (
    BASE,
    BLOWUP,
    GLUE,
    RING_A,
    RING_B,
    certify,
    p_shift_bivariable,
    to_glue,
)
from .errors import (
    DegreeNotOne,
    PreconditionViolated,
    ShapeError,
)
from .exprio import parse
from .fibration import (
    PLANE,
    PVAR,
    FibrationSpec,
    TransitionFunction,
    formal_transition,
)
from .fields import QQ, FieldElem, FieldSpec
from .maps import (
    Lemma41Block,
    Scale,
    Triangular,
    flatten,
    invert,
    lemma41_build,
)
from .poly import (
    MultiPoly,
    RingDescriptor,
    VarTable,
    congruent_mod_power,
    split_negative_parts,
    substitute,
    truncate_var,
)
from .report import CheckBuilder, CheckResult

__all__ = [
    "FIVE", "TrivialityVerdict",
    "a1_equiv", "prop45_check", "prop45_search", "classify",
    "hypersurface_embed", "lemma62_variable", "prop63_membership",
    "verify_geometric_ladder", "verify_congruence_move",
    "verify_hypersurface_samples", "verify_intersection_samples",
    "ex47_field", "ex46_data", "ex47_data", "ex48_data",
]

#: base pair plus the three hypersurface coordinates ``x, u, v``
FIVE = VarTable(("a", "b", "x", "u", "v"), laurent=("a", "b"))


def _to_five(p: MultiPoly) -> MultiPoly:
    return substitute(p, {}, into=FIVE, field=p.field)


# ------------------------------------------------------- chart equivalence


def a1_equiv(f: TransitionFunction, g: TransitionFunction):
    """Equivalence of glueing data by inspection of denominators.

    Returns ``(scale, r_a, r_b)`` such that

        g = scale * f + r_a + r_b,

    with ``scale`` a nonzero constant, ``r_a`` regular on the ``a``-chart
    (no negative powers of ``b``) and ``r_b`` regular on the ``b``-chart
    (negative powers of ``b`` but none of ``a``) -- or ``None`` when the
    doubly-negative parts are not proportional.  Terms with both exponents
    nonnegative are absorbed into ``r_a``.
    """
    F = f.f.field
    f_dd, _, _ = split_negative_parts(f.f, "a", "b")
    g_dd, _, _ = split_negative_parts(g.f, "a", "b")
    if not f_dd and not g_dd:
        lam = F.one
    elif not f_dd or not g_dd:
        return None
    else:
        exps, f_c = f_dd.leading_term()
        g_exps, g_c = g_dd.leading_term()
        if g_exps != exps:
            return None
        lam = F.div(g_c, f_c)
        if g_dd != f_dd.scale(lam):
            return None
    diff = g.f - f.f.scale(lam)
    dd, r_a, r_b = split_negative_parts(diff, "a", "b")
    if dd:
        return None
    return FieldElem(F, lam), r_a, r_b


# ------------------------------------------------- congruence-move witness


def _chart_b_univariate(p: MultiPoly, what: str) -> None:
    if p.table.names != PLANE.names:
        raise PreconditionViolated(
            f"{what} must live over {PLANE.names}")
    if p and p.min_degree_in("a") < 0:
        raise PreconditionViolated(f"{what} must not invert a")
    if p and p.min_degree_in("x") < 0:
        raise PreconditionViolated(f"{what} must not invert x")


def prop45_check(f_b: MultiPoly, g_b: MultiPoly, m: int, Q: MultiPoly,
                 check_id: str = "prop45") -> CheckResult:
    """Certified congruence move between denominator-``a^m`` bundles.

    Inputs are ``f_b, g_b`` in ``k[a, b^{-1}, b][x]`` and a payload
    ``Q`` in ``k[a, b][x]``.  If ``g_b(x + a*Q(f_b(x))) == f_b(x) mod a^m``
    fails, the check reports the offending residual.  Otherwise it builds
    the two witnessing automorphisms -- a triangular pull-out and a
    torus-glueing block -- re-verifies the composite identity

        (x - a*Q(a^m*y)) o (y += g_b/a^m) o block == (y += f_b/a^m),

    and checks the block stays regular on the ``b``-chart with unit
    Jacobian.
    """
    _chart_b_univariate(f_b, "f_b")
    _chart_b_univariate(g_b, "g_b")
    if not RingDescriptor.polynomials(PLANE).contains(Q):
        raise PreconditionViolated("Q must be polynomial in a, b and x")
    if m < 1:
        raise PreconditionViolated(f"m must be >= 1, got {m}")

    F = f_b.field
    b = CheckBuilder(check_id, f_b=f_b, g_b=g_b, m=m, Q=Q,
                     field=F.descriptor())
    x = MultiPoly.var(PLANE, F, "x")
    a = MultiPoly.var(PLANE, F, "a")
    moved = x + a * substitute(Q, {"x": f_b})
    diff = substitute(g_b, {"x": moved}) - f_b
    cong = congruent_mod_power(diff, MultiPoly.zero(PLANE, F), "a", m)
    if not b.expect("congruence-mod-a^m", cong,
                    detail=str(truncate_var(diff, "a", m))):
        return b.done()

    qg, fg, gg = to_glue(Q), to_glue(f_b), to_glue(g_b)
    ag = MultiPoly.var(GLUE, F, "a")
    yg = MultiPoly.var(GLUE, F, "y")
    block = Lemma41Block("x", "y", ag, m, qg, fg, gg)
    pull_out = Triangular("x", -(ag * substitute(qg, {"x": ag ** m * yg})))
    am_inv = MultiPoly.var(GLUE, F, "a", -m)

    blk = flatten((block,), GLUE, F, BASE)
    lhs = flatten((Triangular("y", gg * am_inv), pull_out), GLUE, F, BASE,
                  start=blk)
    rhs = flatten((Triangular("y", fg * am_inv),), GLUE, F, BASE)
    b.expect_zero("composite-x", lhs.comps["x"] - rhs.comps["x"])
    b.expect_zero("composite-y", lhs.comps["y"] - rhs.comps["y"])

    b.expect("block-regular-on-b-chart",
             RING_B.contains(blk.comps["x"]) and RING_B.contains(blk.comps["y"]),
             detail=f"x -> {blk.comps['x']}; y -> {blk.comps['y']}")
    one = MultiPoly.const(GLUE, F, 1)
    b.expect_zero("block-jacobian-minus-1", blk.jac - one)
    b.witness(pull_out=str(pull_out), block=str(block),
              moved_variable=str(moved))
    return b.done()


def prop45_search(f_b: MultiPoly, g_b: MultiPoly, m: int, deg_bound: int,
                  pool) -> MultiPoly | None:
    """Staged-lifting search for a payload ``Q`` making
    :func:`prop45_check` pass.

    Candidates are all polynomials ``Q = sum c_i x^i`` of degree at most
    ``deg_bound`` with coefficients drawn from ``pool`` (in the given
    order, constant coefficient varying slowest).  Stage ``k`` keeps the
    candidates whose congruence holds mod ``a^k``; survivors of stage ``m``
    are confirmed with the full check.  Returns the first confirmed ``Q``
    or ``None``.
    """
    _chart_b_univariate(f_b, "f_b")
    _chart_b_univariate(g_b, "g_b")
    F = f_b.field
    x = MultiPoly.var(PLANE, F, "x")
    a = MultiPoly.var(PLANE, F, "a")
    coeffs = []
    for c in pool:
        raw = F.coerce(c)
        if raw not in coeffs:
            coeffs.append(raw)

    def as_poly(cand):
        q = MultiPoly.zero(PLANE, F)
        for i, c in enumerate(cand):
            q = q + (x ** i).scale(c)
        return q

    def residual_mod(q, k):
        moved = truncate_var(x + a * substitute(q, {"x": f_b}), "a", k)
        # Horner evaluation of g_b at the moved variable, truncating the
        # a-adic tail at every step (coefficients never divide by a)
        top = g_b.degree_in("x") or 0
        acc = MultiPoly.zero(PLANE, F)
        for i in range(top, -1, -1):
            acc = truncate_var(acc * moved + g_b.coefficient_in("x", i),
                               "a", k)
        return truncate_var(acc - f_b, "a", k)

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


# ------------------------------------------------------------- classifier


class TrivialityVerdict:
    """Outcome of :func:`classify`: ``status`` is ``"trivial"``,
    ``"nontrivial"`` or ``"unknown"``; trivial verdicts carry a re-verified
    ``witness`` (a certificate or a coordinate word), nontrivial ones a
    ``reason``."""

    __slots__ = ("status", "witness", "reason")

    def __init__(self, status, witness=None, reason=""):
        self.status = status
        self.witness = witness
        self.reason = reason

    def __str__(self):
        if self.status == "nontrivial" and self.reason:
            return f"Nontrivial: {self.reason}"
        return self.status.capitalize()


def classify(tf: TransitionFunction) -> TrivialityVerdict:
    """Decide triviality of the bundle glued by ``tf`` where the known
    criteria apply.

    * no ``a``-denominator or no ``b``-denominator: trivial, witnessed by a
      certificate with element ``x`` (re-certified here);
    * denominator exponent 1 on either side and ``P(0,0,x)`` nonzero: the
      bundle is trivial iff ``deg P(0,0,x) == 1``; the trivial case is
      witnessed by the rewriting word of :func:`lemma62_variable`
      (re-verified here), the other by the degree obstruction;
    * anything else: unknown.
    """
    F = tf.f.field
    m, n = tf.m_min, tf.n_min
    fg = to_glue(tf.f)
    xg = MultiPoly.var(GLUE, F, "x")
    if m == 0 or n == 0:
        # the shift rides on the word of the chart where f is regular
        words = (((), (Triangular("y", -fg),)) if m == 0
                 else ((Triangular("y", fg),), ()))
        cert = certify(xg, *words)
        if cert.f.f != tf.f:
            raise ShapeError("triviality witness recomputed a different f")
        return TrivialityVerdict("trivial", witness=cert)
    if m == 1 or n == 1:
        p00 = tf.p_num.set_vars_to_zero(("a", "b"))
        if p00:
            deg = p00.degree_in("x")
            if deg == 1:
                word = lemma62_variable(tf.p_num, m, n)
                return TrivialityVerdict("trivial", witness=word)
            return TrivialityVerdict(
                "nontrivial", reason=f"deg P(0,0,x) = {deg}")
    return TrivialityVerdict("unknown")


# ------------------------------------------------- hypersurface realisation


def hypersurface_embed(tf: TransitionFunction, m: int, n: int) -> CheckResult:
    """Realise the bundle of ``tf`` on the hypersurface
    ``a^m*u - b^n*v = P`` with ``P = a^m*b^n*f``.

    Checks that the two chart maps

        phi: (x, y) -> (x, u = b^n*y + P/a^m, v = a^m*y)
        psi: (x, y) -> (x, u = b^n*y,         v = a^m*y - P/b^n)

    land on the hypersurface, invert correctly from either side, and that
    crossing from one to the other shifts ``y`` by exactly ``f``.
    """
    F = tf.f.field
    tf.require_cleared_by(m, n)
    b = CheckBuilder("lemma61", f=tf.f, m=m, n=n, field=F.descriptor())
    p_plane = tf.f.shift_exponents((m, n, 0))
    p4, p5 = to_glue(p_plane), _to_five(p_plane)

    a4 = MultiPoly.var(GLUE, F, "a")
    b4 = MultiPoly.var(GLUE, F, "b")
    y4 = MultiPoly.var(GLUE, F, "y")
    phi = {"u": b4 ** n * y4 + a4 ** -m * p4, "v": a4 ** m * y4}
    psi = {"u": b4 ** n * y4, "v": a4 ** m * y4 - b4 ** -n * p4}

    a5 = MultiPoly.var(FIVE, F, "a")
    b5 = MultiPoly.var(FIVE, F, "b")
    u5 = MultiPoly.var(FIVE, F, "u")
    v5 = MultiPoly.var(FIVE, F, "v")
    eqn = a5 ** m * u5 - b5 ** n * v5 - p5

    b.expect_zero("a-chart-lands-on-hypersurface",
                  substitute(eqn, phi, into=GLUE, field=F))
    b.expect_zero("b-chart-lands-on-hypersurface",
                  substitute(eqn, psi, into=GLUE, field=F))

    b.expect_zero("a-chart-roundtrip",
                  substitute(a5 ** -m * v5, phi, into=GLUE, field=F) - y4)
    b.expect_zero("b-chart-roundtrip",
                  substitute(b5 ** -n * u5, psi, into=GLUE, field=F) - y4)
    # the inverse formulas recover the other fibre coordinate modulo the
    # defining equation (exactly: the discrepancy times the denominator
    # monomial is the equation itself)
    b.expect_zero("a-chart-inverse-relation",
                  a5 ** m * (u5 - (b5 ** n * a5 ** -m * v5 + a5 ** -m * p5))
                  - eqn)
    b.expect_zero("b-chart-inverse-relation",
                  b5 ** n * ((a5 ** m * u5 - p5) * b5 ** -n - v5) - eqn)

    cross = substitute(b5 ** -n * u5, phi, into=GLUE, field=F)
    b.expect_zero("chart-crossing-shifts-y-by-f", cross - y4 - to_glue(tf.f))
    b.witness(equation=f"a^{m}*u - b^{n}*v = {p_plane}")
    return b.done()


def lemma62_variable(P: MultiPoly, m: int, n: int):
    """Rewrite the hypersurface equation ``a^m*u - b^n*v - P(a,b,x)`` into
    the plain coordinate ``x`` when ``deg_x P(0,0,x) == 1``.

    Returns a generator word ``W`` over the five-variable table such that
    substituting the flattened components of ``W`` into the defining
    equation gives exactly ``x``.  The word is: an affine normalisation of
    ``x``, then two inverse torus-glueing blocks -- one absorbing
    ``a^m*u + a*(...)`` into ``x`` (scalar ``a``, exponent ``m - 1``), one
    absorbing ``-b^n*v + b*(...)`` (scalar ``b``, exponent ``n - 1``).
    Raises :class:`DegreeNotOne` when the criterion does not apply.
    """
    F = P.field
    _positive_pair(m, n)
    p5 = _to_five(P) if P.table.names != FIVE.names else P
    if p5.involves("u") or p5.involves("v"):
        raise PreconditionViolated("P must involve only a, b and x")
    if not RingDescriptor.polynomials(FIVE).contains(p5):
        raise PreconditionViolated("P must be polynomial in a, b and x")
    p00 = p5.set_vars_to_zero(("a", "b"))
    if p00.degree_in("x") != 1:
        raise DegreeNotOne(
            f"P(0,0,x) = {p00} must have degree exactly 1 in x")
    xi = p00.coefficient_in("x", 1).constant_value()
    mu = p00.coefficient_in("x", 0).constant_value()

    a5 = MultiPoly.var(FIVE, F, "a")
    b5 = MultiPoly.var(FIVE, F, "b")
    x5 = MultiPoly.var(FIVE, F, "x")
    u5 = MultiPoly.var(FIVE, F, "u")
    v5 = MultiPoly.var(FIVE, F, "v")
    eqn = a5 ** m * u5 - b5 ** n * v5 - p5

    # affine normalisation: after it the equation pulls back to
    # x + a^m*u - b^n*v + a*(...) + b*(...)
    norm = (Triangular("x", MultiPoly.const(FIVE, F, mu)),
            Scale("x", MultiPoly.const(FIVE, F, F.neg(F.inv(xi)))))
    q1 = substitute(eqn, flatten(norm, FIVE, F, BASE).comps)
    tail = q1 - x5 - a5 ** m * u5 + b5 ** n * v5
    part_b = truncate_var(tail, "a", 1)
    part_a = tail - part_b
    if part_b and part_b.min_degree_in("b") < 1:
        raise ShapeError(f"normalised tail {tail} has a bare constant")
    p1 = part_a * a5 ** -1
    p2 = part_b * b5 ** -1

    # absorb a^m*u + a*p1(x) into x: inverse block with scalar a
    w1 = invert(lemma41_build(FIVE, F, "x", "u", a5, m - 1, x5, p1))
    q2 = substitute(q1, flatten(w1, FIVE, F, BASE).comps)
    tail2 = q2 - x5 + b5 ** n * v5
    if tail2 and tail2.min_degree_in("b") < 1:
        raise ShapeError(f"after the a-block the tail {tail2} kept a term")
    p3 = tail2 * b5 ** -1

    # absorb -b^n*v + b*p3(x) into x: inverse block with scalar b
    w2 = invert(lemma41_build(FIVE, F, "x", "v", b5, n - 1, -x5, -p3))
    # pulling the equation back through a flattened word composes the
    # generators in reverse, so the normalisation goes last
    word = w2 + w1 + norm
    final = substitute(eqn, flatten(word, FIVE, F, BASE).comps)
    if final != x5:
        raise ShapeError(f"rewriting word left {final}, not x")
    return word


def _positive_pair(m, n):
    if m < 1 or n < 1:
        raise PreconditionViolated(
            f"denominator exponents must be >= 1, got ({m}, {n})")


# ----------------------------------------------------- intersection checks


def prop63_membership(tf: TransitionFunction, m: int, n: int) -> CheckResult:
    """The two ring generators that pin the bundle down.

    With ``P = a^m*b^n*f``, the functions ``b^n*y + P/a^m`` and
    ``a^m*y - P/b^n`` must be regular on their own charts, and carrying
    each across the glueing (``y -> y -+ f``) must land it in the other
    chart's polynomial ring -- on the nose, as ``b^n*y`` resp. ``a^m*y``.
    """
    F = tf.f.field
    tf.require_cleared_by(m, n)
    b = CheckBuilder("prop63", f=tf.f, m=m, n=n, field=F.descriptor())
    p4 = to_glue(tf.f.shift_exponents((m, n, 0)))
    fg = to_glue(tf.f)
    a4 = MultiPoly.var(GLUE, F, "a")
    b4 = MultiPoly.var(GLUE, F, "b")
    y4 = MultiPoly.var(GLUE, F, "y")

    gen_a = b4 ** n * y4 + a4 ** -m * p4
    b.expect("a-generator-in-a-chart", RING_A.contains(gen_a), str(gen_a))
    b.expect_zero("a-generator-crosses-to-b^n*y",
                  substitute(gen_a, {"y": y4 - fg}) - b4 ** n * y4)

    gen_b = a4 ** m * y4 - b4 ** -n * p4
    b.expect("b-generator-in-b-chart", RING_B.contains(gen_b), str(gen_b))
    b.expect_zero("b-generator-crosses-to-a^m*y",
                  substitute(gen_b, {"y": y4 + fg}) - a4 ** m * y4)
    b.witness(a_generator=str(gen_a), b_generator=str(gen_b))
    return b.done()


# ----------------------------------------------------- one-denominator ladder


def verify_geometric_ladder(p_text: str, rungs, field: FieldSpec = QQ) -> list:
    """The ladder of glueing functions ``f_m`` carried by one certificate;
    one ``lemma52`` result per ``(n, m)`` rung.

    Builds the :func:`p_shift_bivariable` certificate of ``P`` once and
    verifies, for every rung, its displayed chart seconds, that conjugating
    ``y += f_1`` by the two words gives the identity, that the conjugate of
    ``y += f_m`` (both ways) stays in the blow-up ring (total base exponent
    >= 0) with unit Jacobian, and the closed form

        f_m = f_1 - (1/(a*b)) * sum_{k=1}^{m-1} (a^n*x/b)^k * P(x/a).

    The rung-independent parts are computed once; the first rung's timing
    includes them.
    """
    F = field
    P = parse(p_text, PVAR, F)
    first = CheckBuilder("lemma52", P=P, n=rungs[0][0], m=rungs[0][1],
                         field=F.descriptor())
    cert = p_shift_bivariable(P)

    a4 = MultiPoly.var(GLUE, F, "a")
    b4 = MultiPoly.var(GLUE, F, "b")
    x4 = MultiPoly.var(GLUE, F, "x")
    y4 = MultiPoly.var(GLUE, F, "y")
    p_at_x = substitute(P, {"z": x4}, into=GLUE, field=F)
    p_at_wa = substitute(P, {"z": cert.omega * a4 ** -1}, into=GLUE, field=F)
    a_display = cert.tau_a - (y4 * a4 ** -1
                              + (p_at_x - p_at_wa) * a4 ** -1 * b4 ** -1)
    b_display = cert.tau_b + b4 ** -2 * x4

    # f_1 does not depend on n
    f1 = formal_transition(FibrationSpec(P, 1), 1)
    inv_a, inv_b = invert(cert.alpha_word), invert(cert.beta_word)
    flat_a = flatten(cert.alpha_word, GLUE, F, BASE)
    flat_b = flatten(cert.beta_word, GLUE, F, BASE)
    ident = flatten((Triangular("y", to_glue(f1)),) + inv_a, GLUE, F, BASE,
                    start=flat_b)
    one = MultiPoly.const(GLUE, F, 1)
    ax = MultiPoly.var(PLANE, F, "a")
    bx = MultiPoly.var(PLANE, F, "b")
    fx = MultiPoly.var(PLANE, F, "x")
    p_over_a = substitute(P, {"z": fx * ax ** -1}, into=PLANE, field=F)

    results = []
    for n, m in rungs:
        b = first if not results else CheckBuilder(
            "lemma52", P=P, n=n, m=m, field=F.descriptor())
        b.expect_zero("a-second-display", a_display)
        b.expect_zero("b-second-display", b_display)
        b.expect_zero("first-rung-is-the-certificate", f1 - cert.f.f)
        b.expect("first-rung-conjugate-is-identity", ident.is_identity(),
                 str(ident))

        fm = formal_transition(FibrationSpec(P, n), m)
        fwd = flatten((Triangular("y", to_glue(fm)),) + inv_a, GLUE, F, BASE,
                      start=flat_b)
        bwd = flatten((Triangular("y", -to_glue(fm)),) + inv_b, GLUE, F, BASE,
                      start=flat_a)
        for tag, pm in (("forward", fwd), ("backward", bwd)):
            b.expect(f"{tag}-conjugate-in-blow-up-ring",
                     BLOWUP.contains(pm.comps["x"])
                     and BLOWUP.contains(pm.comps["y"]),
                     detail=f"x -> {pm.comps['x']}; y -> {pm.comps['y']}")
        for tag, pm in (("forward", fwd), ("backward", bwd)):
            b.expect_zero(f"{tag}-jacobian-minus-1", pm.jac - one)

        ladder = MultiPoly.zero(PLANE, F)
        for k in range(1, m):
            ladder = ladder + (ax ** n * fx * bx ** -1) ** k
        b.expect_zero("ladder-closed-form",
                      fm - f1 + ax ** -1 * bx ** -1 * ladder * p_over_a)
        b.witness(element=str(cert.omega))
        results.append(b.done())
    return results


# ----------------------------------------------------- named sample suites


def ex47_field() -> FieldSpec:
    """The default coefficient field for the golden-ratio-flavoured sample:
    a square root of 1/5 adjoined to the rationals."""
    from .exprio import field_from_descriptor

    return field_from_descriptor("ext:5t^2-1")


def _sqrt_mod(n: int, p: int):
    """A square root of ``n`` modulo the prime ``p``, or None.

    Euler's criterion decides whether one exists; Tonelli-Shanks finds it.
    """
    n %= p
    if n == 0 or p == 2:
        return n
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_inv5(F: FieldSpec):
    """An element with square 1/5, or None; over F_p the smaller of the two
    roots, as a scan from 0 would find it."""
    inv5 = F.inv(F.coerce(5))
    if F.characteristic:
        p = F.characteristic
        r = _sqrt_mod(inv5, p)
        return None if r is None else min(r, p - r)
    gen = getattr(F, "generator", None)
    if gen is not None and F.mul(gen, gen) == inv5:
        return gen
    return None


def _a3_times(f_plane: MultiPoly) -> MultiPoly:
    return f_plane.shift_exponents((3, 0, 0))


def ex46_data(field: FieldSpec | None = None):
    """Sample congruence move: the short two-term function against its
    quartic perturbation, payload ``Q = x/2``."""
    field = field or QQ
    spec = FibrationSpec(parse("z^2", PVAR, field), 3)
    f3 = formal_transition(spec, 1)
    ax = MultiPoly.var(PLANE, field, "a")
    bx = MultiPoly.var(PLANE, field, "b")
    fx = MultiPoly.var(PLANE, field, "x")
    g = (fx * ax ** -1 * bx ** -2 - fx ** 2 * ax ** -3 * bx ** -1
         - fx ** 3 * ax ** -2 * bx ** -2
         - (fx ** 4 * ax ** -1 * bx ** -3).scale(
             field.div(field.coerce(5), field.coerce(4))))
    q = fx.scale(field.inv(field.coerce(2)))
    return _a3_times(f3), _a3_times(g), 3, q


def ex47_data(field: FieldSpec | None = None):
    """Sample congruence move needing a square root of 1/5: the one-step
    ladder function against a cubic perturbation, payload
    ``Q = (1 + xi)*x/2`` with ``xi^2 = 1/5``."""
    F = field if field is not None else ex47_field()
    xi = _sqrt_inv5(F)
    if xi is None:
        raise PreconditionViolated(
            f"field {F} has no square root of 1/5")
    spec = FibrationSpec(parse("z^2", PVAR, F), 1)
    f1 = formal_transition(spec, 3)
    ax = MultiPoly.var(PLANE, F, "a")
    bx = MultiPoly.var(PLANE, F, "b")
    fx = MultiPoly.var(PLANE, F, "x")
    g = (fx * ax ** -1 * bx ** -2 - fx ** 2 * ax ** -3 * bx ** -1
         + (fx ** 3 * ax ** -2 * bx ** -2).scale(xi))
    half = F.inv(F.coerce(2))
    q = fx.scale(F.mul(F.add(F.one, xi), half))
    # orientation: the ladder function is evaluated at the moved variable
    # and must come back congruent to the perturbed one
    return _a3_times(g), _a3_times(f1), 3, q


def ex48_data(field: FieldSpec | None = None):
    """Sample congruence move: the four-term function against a quartic
    perturbation, payload ``Q = x/2``."""
    field = field or QQ
    spec = FibrationSpec(parse("z^2", PVAR, field), 1)
    f1 = formal_transition(spec, 3)
    ax = MultiPoly.var(PLANE, field, "a")
    bx = MultiPoly.var(PLANE, field, "b")
    fx = MultiPoly.var(PLANE, field, "x")
    g = (fx * ax ** -1 * bx ** -2 - fx ** 2 * ax ** -3 * bx ** -1
         + (fx ** 4 * ax ** -1 * bx ** -3).scale(
             field.inv(field.coerce(4))))
    q = fx.scale(field.inv(field.coerce(2)))
    # same orientation as the square-root sample: ladder at moved variable
    return _a3_times(g), _a3_times(f1), 3, q


def verify_congruence_move(which: str, field: FieldSpec | None = None
                           ) -> CheckResult:
    """Run one of the named congruence-move samples."""
    data = {"ex46": ex46_data, "ex47": ex47_data, "ex48": ex48_data}.get(which)
    if data is None:
        raise PreconditionViolated(f"unknown congruence-move sample {which!r}")
    return prop45_check(*data(field), check_id=which)


def _sample_transitions(field: FieldSpec = QQ):
    ax = MultiPoly.var(PLANE, field, "a")
    bx = MultiPoly.var(PLANE, field, "b")
    fx = MultiPoly.var(PLANE, field, "x")
    f3 = formal_transition(FibrationSpec(parse("z^2", PVAR, field), 3), 1)
    f1 = formal_transition(FibrationSpec(parse("z^2", PVAR, field), 1), 3)
    return ((TransitionFunction.from_poly(fx * ax ** -1 * bx ** -1), 1, 1),
            (TransitionFunction.from_poly(f3), 3, 2),
            (TransitionFunction.from_poly(f1), 3, 3))


def verify_hypersurface_samples(field: FieldSpec = QQ) -> list[CheckResult]:
    return [hypersurface_embed(tf, m, n)
            for tf, m, n in _sample_transitions(field)]


def verify_intersection_samples(field: FieldSpec = QQ) -> list[CheckResult]:
    ax = MultiPoly.var(PLANE, field, "a")
    bx = MultiPoly.var(PLANE, field, "b")
    fx = MultiPoly.var(PLANE, field, "x")
    f1 = formal_transition(FibrationSpec(parse("z^2", PVAR, field), 1), 3)
    samples = ((TransitionFunction.from_poly(fx * ax ** -1 * bx ** -2), 1, 2),
               (TransitionFunction.from_poly(MultiPoly.zero(PLANE, field)),
                0, 0),
               (TransitionFunction.from_poly(f1), 3, 3))
    return [prop63_membership(tf, m, n) for tf, m, n in samples]
