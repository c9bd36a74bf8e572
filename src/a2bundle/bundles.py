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
* :func:`prop45_search` looks for such a ``Q`` in a pool of coefficients:
  one affine test settles the first two powers of ``a`` for every
  candidate, and lifting through the higher powers runs on the survivors;
  both decide each congruence by :func:`~a2bundle.poly.residual_mod`;
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
  difference;
* :func:`congruence_data` builds the inputs of the three named
  congruence-move samples ``ex46``-``ex48``, which
  :func:`verify_congruence_move` runs through :func:`prop45_check`.
"""

from __future__ import annotations

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
    CongruenceFailed,
    DegreeNotOne,
    PreconditionViolated,
    Record,
    ShapeError,
)
from .exprio import field_from_descriptor, parse
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
    residual_mod,
    substitute,
    truncate_var,
)
from .report import CheckBuilder, CheckResult


#: base pair plus the three hypersurface coordinates ``x, u, v``
FIVE = VarTable(("a", "b", "x", "u", "v"), laurent=("a", "b"))

#: the most candidates :func:`prop45_search` builds; with pool "0,1" at
#: degree 11 (4,096 candidates) the ex46 pair took 0.06 s on a 2-vCPU Xeon,
#: and f_b = a*x + a^2*x^2, g_b = a*x (m = 3), where every candidate passes
#: the affine test and is composed at a^3, took 1.2-1.6 s
MAX_CANDIDATES = 4096


def _to_five(p: MultiPoly) -> MultiPoly:
    return substitute(p, {}, into=FIVE)


# ------------------------------------------------------- chart equivalence


def a1_equiv(f: TransitionFunction, g: TransitionFunction):
    """Equivalence of glueing data by inspection of denominators.

    Returns ``(scale, r_a, r_b)`` such that

        g = scale * f + r_a + r_b,

    with ``scale`` a nonzero constant, ``r_b`` the terms of
    ``g - scale * f`` with a negative power of ``b`` (regular on the
    ``b``-chart, as none inverts ``a``) and ``r_a`` the rest (regular on the
    ``a``-chart, terms with both exponents nonnegative included) -- or
    ``None`` when the doubly-negative parts are not proportional.
    """
    F = f.f.field
    f_dd, g_dd = (truncate_var(truncate_var(h.f, {"b": 0}), {"a": 0}) for h in (f, g))
    # the only candidate scale; the doubly-negative part of g - lam*f is
    # g_dd - lam*f_dd, which vanishes exactly when the parts are proportional
    lam = F.div(g_dd.leading_term()[1], f_dd.leading_term()[1]) if f_dd and g_dd else F.one
    diff = g.f - f.f.scale(lam)
    r_b = truncate_var(diff, {"b": 0})
    if truncate_var(r_b, {"a": 0}):
        return None
    return FieldElem(F, lam), diff - r_b, r_b


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
    qg, fg, gg = to_glue(Q), to_glue(f_b), to_glue(g_b)
    ag, _, _, yg = MultiPoly.gens(GLUE, F)
    r = None
    try:
        block = Lemma41Block("x", "y", ag, m, qg, fg, gg)
    except CongruenceFailed as exc:
        r = exc.residual
    if not b.expect("congruence-mod-a^m", r is None, detail=lambda: str(r)):
        return b.done()

    pull_out = Triangular("x", -(ag * substitute(qg, {"x": ag ** m * yg})))
    am_inv = ag ** -m

    blk = flatten((block,), GLUE, F, BASE)
    lhs = flatten((Triangular("y", gg * am_inv), pull_out), GLUE, F, BASE,
                  start=blk)
    rhs = flatten((Triangular("y", fg * am_inv),), GLUE, F, BASE)
    b.expect_zero("composite-x", lhs.comps["x"] - rhs.comps["x"])
    b.expect_zero("composite-y", lhs.comps["y"] - rhs.comps["y"])

    b.expect("block-regular-on-b-chart",
             RING_B.contains(blk.comps["x"]) and RING_B.contains(blk.comps["y"]),
             detail=lambda: f"x -> {blk.comps['x']}; y -> {blk.comps['y']}")
    one = MultiPoly.const(GLUE, F, 1)
    b.expect_zero("block-jacobian-minus-1", blk.jac - one)
    b.witness(pull_out=pull_out, block=block,  # x's image on y = 0 is x + a*Q(f_b(x))
              moved_variable=blk.comps["x"].coefficient_in("y", 0))
    return b.done()


def prop45_search(f_b: MultiPoly, g_b: MultiPoly, m: int, deg_bound: int,
                  pool) -> MultiPoly | None:
    """Staged-lifting search for a payload ``Q`` making
    :func:`prop45_check` pass.

    Candidates are all polynomials ``Q = sum c_i x^i`` of degree at most
    ``deg_bound`` with coefficients drawn from ``pool`` (in the given
    order, constant coefficient varying slowest).  Stages 1 and 2 are one
    affine test: modulo ``a^2`` the residual of ``Q`` is
    ``r0 + sum c_i*(r(x^i) - r0)``, with ``r0`` the residual at ``Q = 0``,
    so ``deg_bound + 2`` compositions serve every candidate.  Stage
    ``3 <= k < m`` keeps the survivors whose congruence holds mod ``a^k``;
    the full check, whose first test is stage ``m``, then takes them in
    order.  Returns the first ``Q`` it confirms or ``None``, as enumerating
    every stage would. A negative ``deg_bound``, or more than
    :data:`MAX_CANDIDATES` candidates or coefficients per candidate, raises
    :class:`PreconditionViolated`.
    """
    _chart_b_univariate(f_b, "f_b")
    _chart_b_univariate(g_b, "g_b")
    if deg_bound < 0:
        raise PreconditionViolated(f"deg_bound must be >= 0, got {deg_bound}")
    F = f_b.field
    a, _, x = MultiPoly.gens(PLANE, F)
    coeffs = list(dict.fromkeys(map(F.coerce, pool)))
    # the degree is checked first, so the power below stays a small int
    if deg_bound >= MAX_CANDIDATES or len(coeffs) ** (deg_bound + 1) > MAX_CANDIDATES:
        raise PreconditionViolated(
            f"{len(coeffs)} pool values up to degree {deg_bound} give more "
            f"than {MAX_CANDIDATES} candidates or coefficients")

    # g_b(x + a*h) == g_b(x) + a*h*g_b'(x) mod a^2: affine in Q's coefficients
    k0 = min(m, 2)
    r0 = residual_mod(f_b, g_b, "x", x, {"a": k0})
    grown = [(MultiPoly.zero(PLANE, F), r0)]
    for i in range(deg_bound + 1):
        col = residual_mod(f_b, g_b, "x", x + a * f_b ** i, {"a": k0}) - r0
        steps = [((x ** i).scale(c), col.scale(c)) for c in coeffs]
        grown = [(q + dq, r + dr) for q, r in grown for dq, dr in steps]
    survivors = [q for q, r in grown if not r]
    for k in range(3, m):
        survivors = [q for q in survivors
                     if not residual_mod(f_b, g_b, "x", x + a * substitute(q, {"x": f_b}),
                                         {"a": k})]
    for q in survivors:
        if prop45_check(f_b, g_b, m, q).ok:
            return q
    return None


# ------------------------------------------------------------- classifier


class TrivialityVerdict(Record):
    """Outcome of :func:`classify`: ``status`` is ``"trivial"``,
    ``"nontrivial"`` or ``"unknown"``; trivial verdicts carry a re-verified
    ``witness`` (a certificate or a coordinate word), nontrivial ones a
    ``reason``."""

    __slots__ = ("status", "witness", "reason")

    def __str__(self):
        if self.status == "nontrivial" and self.reason:
            return f"Nontrivial: {self.reason}"
        return self.status.capitalize()


def classify(tf: TransitionFunction) -> TrivialityVerdict:
    """Decide triviality of the bundle glued by ``tf`` where the known
    criteria apply.

    * no ``a``-denominator or no ``b``-denominator: trivial, witnessed by a
      certificate with element ``x`` whose one move shifts ``y`` by ``f``
      on the chart where ``f`` is regular (:func:`certify` checks ``f``);
    * denominator exponent 1 on either side and ``P(0,0,x)`` nonzero: the
      bundle is trivial iff ``deg P(0,0,x) == 1``; the trivial case is
      witnessed by the rewriting word of :func:`lemma62_variable`
      (re-verified here), the other by the degree obstruction;
    * anything else: unknown.
    """
    F = tf.f.field
    m, n = tf.m_min, tf.n_min
    fg = to_glue(tf.f)
    _, _, xg, _ = MultiPoly.gens(GLUE, F)
    if m == 0 or n == 0:
        # the shift rides on the word of the chart where f is regular
        words = (((), (Triangular("y", -fg),)) if m == 0
                 else ((Triangular("y", fg),), ()))
        return TrivialityVerdict("trivial", certify(xg, *words, tf.f), "")
    if m == 1 or n == 1:
        p00 = tf.p_num.coefficient_in("a", 0).coefficient_in("b", 0)
        if p00:
            deg = p00.degree_in("x")
            if deg == 1:
                word = lemma62_variable(tf.p_num, m, n)
                return TrivialityVerdict("trivial", word, "")
            return TrivialityVerdict(
                "nontrivial", None, f"deg P(0,0,x) = {deg}")
    return TrivialityVerdict("unknown", None, "")


# ------------------------------------------------- hypersurface realisation


def _chart_maps(tf: TransitionFunction, m: int, n: int):
    """The two chart maps onto ``a^m*u - b^n*v = P``, ``P = a^m*b^n*f``, as
    ``u``/``v`` images over ``GLUE``, and ``P`` over ``PLANE``:

        phi = (b^n*y + P/a^m, a^m*y),   psi = (b^n*y, a^m*y - P/b^n).

    Raises :class:`PreconditionViolated` unless ``P`` is a polynomial.
    """
    tf.require_cleared_by(m, n)
    a, b, _, y = MultiPoly.gens(GLUE, tf.f.field)
    p_plane = tf.f.shift_exponents((m, n, 0))
    p = to_glue(p_plane)
    phi = {"u": b ** n * y + a ** -m * p, "v": a ** m * y}
    psi = {"u": b ** n * y, "v": a ** m * y - b ** -n * p}
    return phi, psi, p_plane


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
    b = CheckBuilder("lemma61", f=tf.f, m=m, n=n, field=F.descriptor())
    phi, psi, p_plane = _chart_maps(tf, m, n)
    p5 = _to_five(p_plane)
    *_, y4 = MultiPoly.gens(GLUE, F)
    a5, b5, _, u5, v5 = MultiPoly.gens(FIVE, F)
    eqn = a5 ** m * u5 - b5 ** n * v5 - p5

    b.expect_zero("a-chart-lands-on-hypersurface",
                  substitute(eqn, phi, into=GLUE))
    b.expect_zero("b-chart-lands-on-hypersurface",
                  substitute(eqn, psi, into=GLUE))

    b.expect_zero("a-chart-roundtrip",
                  substitute(a5 ** -m * v5, phi, into=GLUE) - y4)
    b.expect_zero("b-chart-roundtrip",
                  substitute(b5 ** -n * u5, psi, into=GLUE) - y4)
    # the inverse formulas recover the other fibre coordinate modulo the
    # defining equation (exactly: the discrepancy times the denominator
    # monomial is the equation itself)
    b.expect_zero("a-chart-inverse-relation",
                  a5 ** m * (u5 - (b5 ** n * a5 ** -m * v5 + a5 ** -m * p5))
                  - eqn)
    b.expect_zero("b-chart-inverse-relation",
                  b5 ** n * ((a5 ** m * u5 - p5) * b5 ** -n - v5) - eqn)

    cross = substitute(b5 ** -n * u5, phi, into=GLUE)
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
    if m < 1 or n < 1:
        raise PreconditionViolated(
            f"denominator exponents must be >= 1, got ({m}, {n})")
    p5 = _to_five(P) if P.table.names != FIVE.names else P
    if p5.involves("u") or p5.involves("v"):
        raise PreconditionViolated("P must involve only a, b and x")
    if not RingDescriptor.polynomials(FIVE).contains(p5):
        raise PreconditionViolated("P must be polynomial in a, b and x")
    p00 = p5.coefficient_in("a", 0).coefficient_in("b", 0)
    if p00.degree_in("x") != 1:
        raise DegreeNotOne(
            f"P(0,0,x) = {p00} must have degree exactly 1 in x")
    xi = p00.coefficient_in("x", 1).constant_value()
    mu = p00.coefficient_in("x", 0).constant_value()

    a5, b5, x5, u5, v5 = MultiPoly.gens(FIVE, F)
    eqn = a5 ** m * u5 - b5 ** n * v5 - p5

    # affine normalisation: after it the equation pulls back to
    # x + a^m*u - b^n*v + a*(...) + b*(...)
    norm = (Triangular("x", MultiPoly.const(FIVE, F, mu)),
            Scale("x", MultiPoly.const(FIVE, F, F.neg(F.inv(xi)))))
    q1 = substitute(eqn, flatten(norm, FIVE, F, BASE).comps)
    tail = q1 - x5 - a5 ** m * u5 + b5 ** n * v5
    part_b = truncate_var(tail, {"a": 1})
    part_a = tail - part_b
    if part_b and part_b.min_degree_in("b") < 1:
        raise ShapeError(f"normalised tail {tail} has a bare constant")
    p1 = part_a * a5 ** -1

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
    # generators in reverse: q2 is eqn pulled back through w1 + norm already
    final = substitute(q2, flatten(w2, FIVE, F, BASE).comps)
    if final != x5:
        raise ShapeError(f"rewriting word left {final}, not x")
    return w2 + w1 + norm


# ----------------------------------------------------- intersection checks


def prop63_membership(tf: TransitionFunction, m: int, n: int) -> CheckResult:
    """The two ring generators that pin the bundle down.

    With ``P = a^m*b^n*f``, the functions ``b^n*y + P/a^m`` and
    ``a^m*y - P/b^n`` must be regular on their own charts, and carrying
    each across the glueing (``y -> y -+ f``) must land it in the other
    chart's polynomial ring -- on the nose, as ``b^n*y`` resp. ``a^m*y``.
    """
    F = tf.f.field
    b = CheckBuilder("prop63", f=tf.f, m=m, n=n, field=F.descriptor())
    phi, psi, _ = _chart_maps(tf, m, n)
    fg = to_glue(tf.f)
    *_, y4 = MultiPoly.gens(GLUE, F)

    gen_a = phi["u"]
    b.expect("a-generator-in-a-chart", RING_A.contains(gen_a), lambda: str(gen_a))
    b.expect_zero("a-generator-crosses-to-b^n*y",
                  substitute(gen_a, {"y": y4 - fg}) - psi["u"])

    gen_b = psi["v"]
    b.expect("b-generator-in-b-chart", RING_B.contains(gen_b), lambda: str(gen_b))
    b.expect_zero("b-generator-crosses-to-a^m*y",
                  substitute(gen_b, {"y": y4 + fg}) - phi["v"])
    b.witness(a_generator=gen_a, b_generator=gen_b)
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

    a4, b4, x4, y4 = MultiPoly.gens(GLUE, F)
    p_at_x = substitute(P, {"z": x4}, into=GLUE)
    p_at_wa = substitute(P, {"z": cert.omega * a4 ** -1}, into=GLUE)
    a_display = cert.tau_a - (y4 * a4 ** -1
                              + (p_at_x - p_at_wa) * a4 ** -1 * b4 ** -1)
    b_display = cert.tau_b + b4 ** -2 * x4

    # f_1 does not depend on n
    f1 = formal_transition(FibrationSpec(P, 1), 1)
    inv_a, inv_b = invert(cert.alpha_word), invert(cert.beta_word)
    ident = flatten((Triangular("y", to_glue(f1)),) + inv_a, GLUE, F, BASE,
                    start=cert.flat_b)
    one = MultiPoly.const(GLUE, F, 1)
    ax, bx, fx = MultiPoly.gens(PLANE, F)
    p_over_a = substitute(P, {"z": fx * ax ** -1}, into=PLANE)

    results = []
    for n, m in rungs:
        b = first if not results else CheckBuilder(
            "lemma52", P=P, n=n, m=m, field=F.descriptor())
        b.expect_zero("a-second-display", a_display)
        b.expect_zero("b-second-display", b_display)
        b.expect_zero("first-rung-is-the-certificate", f1 - cert.f.f)
        b.expect("first-rung-conjugate-is-identity", ident.is_identity(),
                 lambda: str(ident))

        fm = formal_transition(FibrationSpec(P, n), m)
        fwd = flatten((Triangular("y", to_glue(fm)),) + inv_a, GLUE, F, BASE,
                      start=cert.flat_b)
        bwd = flatten((Triangular("y", -to_glue(fm)),) + inv_b, GLUE, F, BASE,
                      start=cert.flat_a)
        for tag, pm in (("forward", fwd), ("backward", bwd)):
            b.expect(f"{tag}-conjugate-in-blow-up-ring",
                     BLOWUP.contains(pm.comps["x"])
                     and BLOWUP.contains(pm.comps["y"]),
                     detail=lambda: f"x -> {pm.comps['x']}; y -> {pm.comps['y']}")
        for tag, pm in (("forward", fwd), ("backward", bwd)):
            b.expect_zero(f"{tag}-jacobian-minus-1", pm.jac - one)

        ladder = MultiPoly.zero(PLANE, F)
        for k in range(1, m):
            ladder = ladder + (ax ** n * fx * bx ** -1) ** k
        b.expect_zero("ladder-closed-form",
                      fm - f1 + ax ** -1 * bx ** -1 * ladder * p_over_a)
        b.witness(element=cert.omega)
        results.append(b.done())
    return results


# ----------------------------------------------------- named sample suites


def ex47_field() -> FieldSpec:
    """The default coefficient field for the golden-ratio-flavoured sample:
    a square root of 1/5 adjoined to the rationals."""
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


def _z2_samples(F: FieldSpec):
    """``(f3, f1, cubic, quartic)`` over ``F``, from which every sample of the
    check layer is built: ``f3`` and the ladder function ``f1`` are the
    ``formal_transition`` of ``P = z^2`` with ``n = 3`` at ``m = 1`` and with
    ``n = 1`` at ``m = 3``, and ``f1 = f3 - cubic - quartic`` with
    ``cubic = x^3/(a^2*b^2)`` and ``quartic = x^4/(a*b^3)``."""
    a, b, x = MultiPoly.gens(PLANE, F)
    f3 = formal_transition(FibrationSpec(parse("z^2", PVAR, F), 3), 1)
    cubic, quartic = x ** 3 * a ** -2 * b ** -2, x ** 4 * a ** -1 * b ** -3
    return f3, f3 - cubic - quartic, cubic, quartic


def congruence_data(which: str, field: FieldSpec | None = None):
    """``(f_b, g_b, m, Q)`` of the named congruence-move sample, ``m = 3``.

    Every sample perturbs the short two-term function
    ``f3 = x/(a*b^2) - x^2/(a^3*b)`` (``P = z^2``, ``n = 3``) and clears
    both sides by ``a^3``; the payload is ``Q = x/2``:

    * ``ex46``: ``f3`` against its quartic perturbation;
    * ``ex47``: a cubic perturbation by ``xi`` with ``xi^2 = 1/5`` against
      the one-step ladder function ``f3 - x^3/(a^2*b^2) - x^4/(a*b^3)``,
      payload ``Q = (1 + xi)*x/2``; the field defaults to
      :func:`ex47_field`;
    * ``ex48``: a quartic perturbation against the ladder function.

    In ex47 and ex48 the ladder function is evaluated at the moved variable
    and must come back congruent to the perturbed one.
    """
    if which not in ("ex46", "ex47", "ex48"):
        raise PreconditionViolated(f"unknown congruence-move sample {which!r}")
    F = field or (ex47_field() if which == "ex47" else QQ)
    *_, x = MultiPoly.gens(PLANE, F)
    f3, ladder, cubic, quartic = _z2_samples(F)
    c = F.inv(F.coerce(2))
    if which == "ex46":
        f_b, g_b = f3, f3 - cubic - quartic.scale(
            F.div(F.coerce(5), F.coerce(4)))
    elif which == "ex48":
        f_b, g_b = f3 + quartic.scale(F.inv(F.coerce(4))), ladder
    else:
        xi = _sqrt_inv5(F)
        if xi is None:
            raise PreconditionViolated(f"field {F} has no square root of 1/5")
        f_b, g_b = f3 + cubic.scale(xi), ladder
        c = F.mul(F.add(F.one, xi), c)
    a3 = (3, 0, 0)
    return f_b.shift_exponents(a3), g_b.shift_exponents(a3), 3, x.scale(c)


def verify_congruence_move(which: str, field: FieldSpec | None = None
                           ) -> CheckResult:
    """Run one of the named congruence-move samples."""
    return prop45_check(*congruence_data(which, field), check_id=which)


def verify_hypersurface_samples(field: FieldSpec = QQ) -> list[CheckResult]:
    ax, bx, fx = MultiPoly.gens(PLANE, field)
    f3, f1, _, _ = _z2_samples(field)
    samples = ((fx * ax ** -1 * bx ** -1, 1, 1), (f3, 3, 2), (f1, 3, 3))
    return [hypersurface_embed(TransitionFunction.from_poly(f), m, n)
            for f, m, n in samples]


def verify_intersection_samples(field: FieldSpec = QQ) -> list[CheckResult]:
    ax, bx, fx = MultiPoly.gens(PLANE, field)
    f1 = _z2_samples(field)[1]
    samples = ((fx * ax ** -1 * bx ** -2, 1, 2),
               (MultiPoly.zero(PLANE, field), 0, 0), (f1, 3, 3))
    return [prop63_membership(TransitionFunction.from_poly(f), m, n)
            for f, m, n in samples]
