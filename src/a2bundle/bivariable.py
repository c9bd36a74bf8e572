"""Certified coordinates on both charts of the punctured base plane.

The moving coordinates are the fibre pair ``(x, y)`` over the base pair
``(a, b)``; a chart inverts one base variable.  A *bivariable certificate*
packages an element ``omega`` of ``k[a,b][x,y]`` together with two generator
words that exhibit it as the first member of a coordinate system on each
chart:

* the *a-word* flattens to ``(omega, tau_a)`` with components in
  ``k[a^{-1},a,b][x,y]`` and Jacobian a unit there;
* the *b-word* does the same over ``k[a,b^{-1},b][x,y]``.

Composing one system with the inverse of the other fixes ``x`` and shifts
``y`` by a function of ``x`` alone; that shift, rewritten over the
three-variable base table, is the glueing function of a plane bundle over
the punctured base plane.  :func:`certify` re-derives all of this from
scratch, so a certificate can never get out of sync with its words.

Besides the basic families (monomial denominators, monomial denominators
with a base-constant shift), the module implements the two extension moves
that graft a torus-glueing block onto an existing certificate, pushing the
element deeper into one chart while keeping both words explicit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    CharTwoField,
    CongruenceFailed,
    JacobianNotUnit,
    MembershipError,
    PreconditionViolated,
    ShapeError,
)
from .exprio import field_from_descriptor, parse, to_expr
from .fields import QQ, FieldSpec
from .fibration import PLANE, PVAR, FibrationSpec, TransitionFunction, closed_form_m2
from .maps import (
    Lemma41Block,
    Permute,
    Scale,
    Triangular,
    check_membership,
    flatten,
    invert,
    lemma41_build,
)
from .poly import (
    MultiPoly,
    RingDescriptor,
    VarTable,
    congruent_mod_power,
    substitute,
)
from .report import CheckBuilder, CheckResult

__all__ = [
    "GLUE", "BASE", "RING_ALL", "RING_A", "RING_B", "BLOWUP",
    "BivariableCert", "certify",
    "basic_bivariable", "with_constant", "p_shift_bivariable",
    "ex66_bivariable", "extend_a", "extend_b", "lemma44_bivariable",
    "cert_to_doc", "cert_from_doc", "cert_to_json", "cert_from_json",
    "verify_basic_family", "verify_constant_shift", "verify_p_shift",
    "verify_quadratic_descent", "verify_mixed_denominator",
]

#: base pair (invertible on their charts) followed by the fibre pair
GLUE = VarTable(("a", "b", "x", "y"), laurent=("a", "b"))
BASE = ("a", "b")

RING_ALL = RingDescriptor.polynomials(GLUE)
RING_A = RING_ALL.allow_negative("a")  # coordinate ring of the chart a != 0
RING_B = RING_ALL.allow_negative("b")  # coordinate ring of the chart b != 0
#: Laurent in both base variables but with total base exponent >= 0
BLOWUP = RING_ALL.allow_negative("a", "b").require_sum(("a", "b"))


def to_glue(p: MultiPoly) -> MultiPoly:
    """Re-table a polynomial over the four glueing variables."""
    return substitute(p, {}, into=GLUE, field=p.field)


def to_plane(p: MultiPoly) -> MultiPoly:
    """Re-table a ``y``-free polynomial over the punctured-plane table."""
    return substitute(p, {}, into=PLANE, field=p.field)


@dataclass(frozen=True)
class BivariableCert:
    """A machine-checked pair of chart coordinate systems sharing ``omega``.

    Instances should come out of :func:`certify` (directly or through the
    builders below); every field is re-derived there, so the words are the
    single source of truth.
    """

    omega: MultiPoly        # the shared element, in k[a,b][x,y]
    alpha_word: tuple       # a-chart word, Jacobian normalised to 1
    beta_word: tuple        # b-chart word, Jacobian normalised to 1
    f: TransitionFunction   # alpha o beta^{-1} == (x, y + f(x))
    tau_a: MultiPoly        # second coordinate of the a-chart system
    tau_b: MultiPoly        # second coordinate of the b-chart system

    @property
    def field(self) -> FieldSpec:
        return self.omega.field

    def __str__(self):
        return f"bivariable({self.omega}; f = {self.f.f})"


def _normalise_jacobian(word, flat, chart_var, side):
    """Append a ``y``-scale so the word's Jacobian becomes exactly 1.

    The Jacobian must already be a unit of the chart ring, i.e. a single
    term involving only ``chart_var``; anything else raises
    :class:`JacobianNotUnit`.
    """
    table, F = flat.table, flat.field
    one = MultiPoly.const(table, F, 1)
    jac = flat.jac
    if jac == one:
        return word, flat
    if not jac.is_monomial():
        raise JacobianNotUnit(
            f"{side} word has non-monomial jacobian {jac}")
    for name in table.names:
        if name != chart_var and jac.involves(name):
            raise JacobianNotUnit(
                f"{side} word has jacobian {jac}, not a unit of the "
                f"{chart_var}-chart")
    scale = (Scale("y", jac ** -1),)
    flat = flatten(scale, table, F, BASE, start=flat)
    if flat.jac != one:
        raise JacobianNotUnit(
            f"{side} word jacobian did not normalise: {flat.jac}")
    return word + scale, flat


def certify(omega: MultiPoly, alpha_word, beta_word) -> BivariableCert:
    """Validate a pair of chart words for ``omega`` and extract the glueing.

    Checks, in order: ``omega`` has no inverted variables; each word
    flattens with ``x``-image exactly ``omega``; each Jacobian is a unit of
    its chart (then normalised to 1 by scaling ``y``); each flattened system
    lies in its chart ring; the composite ``alpha o beta^{-1}`` fixes ``x``
    and shifts ``y`` by a ``y``-free polynomial.  Raises
    :class:`JacobianNotUnit`, :class:`ShapeError` or
    :class:`MembershipError`; on success the glueing function and both
    second coordinates are returned in the certificate.
    """
    if omega.table.names != GLUE.names:
        raise ShapeError(
            f"omega must live over {GLUE.names}, got {omega.table.names}")
    F = omega.field
    if not RING_ALL.contains(omega):
        exps, _ = RING_ALL.violations(omega)[0]
        raise MembershipError(
            f"omega has an inverted variable at exponents {exps}",
            component="omega", term=exps)

    alpha_word, beta_word = tuple(alpha_word), tuple(beta_word)
    flat_a = flatten(alpha_word, GLUE, F, BASE)
    flat_b = flatten(beta_word, GLUE, F, BASE)
    alpha_word, flat_a = _normalise_jacobian(alpha_word, flat_a, "a", "a-chart")
    beta_word, flat_b = _normalise_jacobian(beta_word, flat_b, "b", "b-chart")

    for side, flat in (("a-chart", flat_a), ("b-chart", flat_b)):
        if flat.comps["x"] != omega:
            raise ShapeError(
                f"{side} word sends x to {flat.comps['x']}, not omega")
    check_membership(flat_a, RING_A)
    check_membership(flat_b, RING_B)

    comp = flatten(invert(beta_word) + alpha_word, GLUE, F, BASE)
    x = MultiPoly.var(GLUE, F, "x")
    y = MultiPoly.var(GLUE, F, "y")
    if comp.comps["x"] != x:
        raise ShapeError(
            f"chart change moves x to {comp.comps['x']}; expected x itself")
    shift = comp.comps["y"] - y
    if shift.involves("y"):
        raise ShapeError(f"chart change shifts y by {shift}, which involves y")
    if shift and shift.min_degree_in("x") < 0:
        raise ShapeError(f"chart change shift {shift} inverts x")

    f_plane = to_plane(shift)
    tf = TransitionFunction.from_poly(f_plane)
    tau_a, tau_b = flat_a.comps["y"], flat_b.comps["y"]
    glued = substitute(f_plane, {"x": omega}, into=GLUE, field=F)
    if tau_a - tau_b - glued:
        raise ShapeError(
            "second coordinates do not differ by f(omega); words are "
            "inconsistent")
    return BivariableCert(omega, alpha_word, beta_word, tf, tau_a, tau_b)


# ------------------------------------------------------------ basic families


def _positive(**kv):
    for name, v in kv.items():
        if v < 1:
            raise PreconditionViolated(f"{name} must be >= 1, got {v}")


def basic_bivariable(m: int, n: int, field: FieldSpec = QQ) -> BivariableCert:
    """The monomial-denominator certificate: ``omega = a^m*x + b^n*y``.

    The a-word scales ``x`` into the ``a``-denominator and absorbs ``b^n*y``
    triangularly; the b-word swaps the roles of ``x`` and ``y`` first.  The
    induced glueing function is ``x/(a^m*b^n)``.
    """
    _positive(m=m, n=n)
    F = field
    y = MultiPoly.var(GLUE, F, "y")
    a_m = MultiPoly.var(GLUE, F, "a", m)
    b_n = MultiPoly.var(GLUE, F, "b", n)
    alpha = (Scale("x", a_m), Triangular("x", b_n * y), Scale("y", a_m ** -1))
    beta = (Permute({"x": "y", "y": "x"}), Scale("x", b_n),
            Triangular("x", a_m * y), Scale("y", -(b_n ** -1)))
    omega = a_m * MultiPoly.var(GLUE, F, "x") + b_n * y
    return certify(omega, alpha, beta)


def with_constant(m: int, n: int, shift: MultiPoly) -> BivariableCert:
    """Monomial denominator plus a base constant: ``a^m*x + b^n*y + c(a,b)``.

    ``shift`` must be a polynomial in the base pair only; it rides along on
    both words as a final triangular move, so the glueing function becomes
    ``(x - c)/(a^m*b^n)``.
    """
    _positive(m=m, n=n)
    F = shift.field
    c = to_glue(shift)
    if c.involves("x") or c.involves("y"):
        raise PreconditionViolated("base shift must involve only a and b")
    if not RING_ALL.contains(c):
        raise PreconditionViolated("base shift must not invert a or b")
    plain = basic_bivariable(m, n, field=F)
    alpha = plain.alpha_word + (Triangular("x", c),)
    beta = plain.beta_word + (Triangular("x", c),)
    return certify(plain.omega + c, alpha, beta)


def ex66_bivariable(field: FieldSpec = QQ) -> BivariableCert:
    """The mixed-denominator certificate for ``omega = a^2*x + (b - a)*y``.

    Neither pure chart move clears the coefficient ``b - a``, so the b-word
    threads it through a shear before rescaling; the induced glueing
    function is ``(a + b)*x/(a^2*b^2)``, whose numerator vanishes nowhere on
    the punctured base plane even though it is not a monomial.
    """
    F = field
    a = MultiPoly.var(GLUE, F, "a")
    b = MultiPoly.var(GLUE, F, "b")
    x = MultiPoly.var(GLUE, F, "x")
    y = MultiPoly.var(GLUE, F, "y")
    omega = a ** 2 * x + (b - a) * y
    alpha = (Scale("x", a ** 2), Triangular("x", (b - a) * y),
             Scale("y", a ** -2))
    beta = (Triangular("y", -(a + b) * x), Scale("y", b ** -2),
            Scale("x", b ** 2), Triangular("x", (b - a) * b ** 2 * y))
    return certify(omega, alpha, beta)


# --------------------------------------------------------- extension moves


def _univariate_payload(Q: MultiPoly, what: str) -> MultiPoly:
    """Lift a block payload to the glueing table and validate its shape:
    a polynomial in ``x`` whose coefficients involve only the base pair,
    with no inverted variables."""
    q = to_glue(Q) if Q.table.names != GLUE.names else Q
    if q.involves("y"):
        raise PreconditionViolated(f"{what} must not involve y")
    if not RING_ALL.contains(q):
        raise PreconditionViolated(f"{what} must not invert a or b")
    return q


def _extend(cert: BivariableCert, side: str, m: int, n: int, Q: MultiPoly
            ) -> BivariableCert:
    """The extension move into the ``side`` chart (``"a"`` or ``"b"``): the
    triangular move rides on that chart's word, the block on the other's."""
    _positive(m=m, n=n)
    F = cert.field
    cert.f.require_cleared_by(m, n)
    q = _univariate_payload(Q, "extension payload Q")
    s = MultiPoly.var(GLUE, F, side)
    y = MultiPoly.var(GLUE, F, "y")
    k, tau = (m, cert.tau_a) if side == "a" else (n, cert.tau_b)
    sk = s ** k

    tri = (Triangular("x", s * substitute(q, {"x": sk * y})),)
    partner = (sk if side == "a" else -sk) * to_glue(cert.f.f)
    phi = lemma41_build(GLUE, F, "x", "y", s, k, q, partner)
    omega_hat = cert.omega + s * substitute(q, {"x": sk * tau})
    on_a, on_b = (tri, phi) if side == "a" else (phi, tri)
    return certify(omega_hat, cert.alpha_word + on_a, cert.beta_word + on_b)


def extend_a(cert: BivariableCert, m: int, n: int, Q: MultiPoly
             ) -> BivariableCert:
    """Push a certificate deeper into the ``a``-chart.

    Requires ``a^m*b^n*f`` polynomial for the certificate's glueing
    function ``f``.  The new element is
    ``omega + a*Q(a^m*tau_a)``: a plain triangular move on the a-word, and a
    torus-glueing block (scalar ``a``, exponent ``m``) on the b-word, whose
    congruence partner is grown from ``a^m*f``.  The result is re-certified
    from scratch.
    """
    return _extend(cert, "a", m, n, Q)


def extend_b(cert: BivariableCert, m: int, n: int, Q: MultiPoly
             ) -> BivariableCert:
    """Mirror of :func:`extend_a`: pushes into the ``b``-chart.

    New element ``omega + b*Q(b^n*tau_b)``; the triangular move rides on the
    b-word and the block (scalar ``b``, exponent ``n``, partner grown from
    ``-b^n*f``) on the a-word.
    """
    return _extend(cert, "b", m, n, Q)


def _univariate_in_z(P: MultiPoly, what: str = "P") -> MultiPoly:
    if P.table.names != PVAR.names:
        raise PreconditionViolated(
            f"{what} must be univariate over {PVAR.names}")
    if P.min_degree_in("z") is not None and P.min_degree_in("z") < 0:
        raise PreconditionViolated(f"{what} must not invert its variable")
    return P


def p_shift_bivariable(P: MultiPoly) -> BivariableCert:
    """Certificate for ``a*x + b^2*y + b*P(x)``.

    Built as the b-side extension of the basic ``(1, 2)`` element with
    payload ``Q(T) = P(-T)``: since ``b^2*tau_b = -x`` there, the extension
    adds exactly ``b*P(x)`` to the element and turns the glueing function
    ``x/(a*b^2)`` into ``x/(a*b^2) - P(x/a)/(a*b)``.
    """
    P = _univariate_in_z(P)
    F = P.field
    base = basic_bivariable(1, 2, field=F)
    x = MultiPoly.var(GLUE, F, "x")
    q = substitute(P, {"z": -x}, into=GLUE, field=F)
    return extend_b(base, 1, 2, q)


def _descend(P: MultiPoly, b: CheckBuilder) -> BivariableCert:
    """The quadratic-descent certificate, with every step recorded into ``b``.

    For quadratic ``P`` (characteristic not 2, leading coefficient ``c``),
    extend the :func:`p_shift_bivariable` certificate on the a-side with
    ``m = 3`` and payload ``Q(T) = a*T/(2c)``.  Along the way the move that
    makes the block congruence work is verified explicitly:

    * the added element shift ``D = a^5*tau_a/(2c)`` lies in
      ``a^2 * k[a,b^{-1},b][x,y]`` and satisfies ``D^2 == 0 mod a^4``;
    * writing ``f_b = a^3*f`` for the old and new glueing functions, the
      congruence ``fhat_b(omega_hat) == f_b(omega) mod a^3`` holds inside
      ``k[a,b^{-1},b][x,y]``;
    * the resulting glueing function depends on ``P`` only through one line
      of extra terms: it agrees with the two-step closed form of the
      ``(P, 2)`` fibration up to a chart-polynomial shift.

    Bad input raises :class:`CharTwoField` or :class:`PreconditionViolated`;
    a failed step is recorded in ``b``, never raised.  Returns the extended
    certificate.
    """
    P = _univariate_in_z(P)
    F = P.field
    if F.characteristic == 2:
        raise CharTwoField("quadratic descent divides by 2")
    if P.degree_in("z") != 2:
        raise PreconditionViolated(
            f"quadratic descent needs deg P == 2, got {P.degree_in('z')}")
    c = P.coefficient_in("z", 2).constant_value()
    inv2c = F.inv(F.mul(F.coerce(2), c))

    cert = p_shift_bivariable(P)
    a = MultiPoly.var(GLUE, F, "a")
    x = MultiPoly.var(GLUE, F, "x")
    hat = extend_a(cert, 3, 2, (a * x).scale(inv2c))
    b.expect("descent-constructs", True)

    # RING_B is k[a, b^{-1}, b][x, y]
    delta = (a ** 5 * cert.tau_a).scale(inv2c)
    b.expect_zero("element-shift", hat.omega - cert.omega - delta)
    b.expect("shift-in-a^2-ring",
             RING_B.contains(delta) and delta.min_degree_in("a") >= 2,
             str(delta))
    b.expect("shift-square-mod-a^4",
             congruent_mod_power(delta * delta, MultiPoly.zero(GLUE, F),
                                 "a", 4, ambient=RING_B))
    # certify proved f(omega) == tau_a - tau_b for both certificates, so
    # f_b(omega) = a^3*(tau_a - tau_b) is already in hand
    a3 = a ** 3
    b.expect("pullback-congruence-mod-a^3",
             congruent_mod_power(a3 * (hat.tau_a - hat.tau_b),
                                 a3 * (cert.tau_a - cert.tau_b),
                                 "a", 3, ambient=RING_B))

    from .bundles import a1_equiv  # late import; bundles uses this module

    target = TransitionFunction.from_poly(closed_form_m2(FibrationSpec(P, 2)))
    eq = a1_equiv(hat.f, target)
    b.expect("matches-two-step-closed-form", eq is not None)
    if eq is not None:
        lam, r_a, r_b = eq
        b.witness(scale=str(lam), a_chart_shift=str(r_a),
                  b_chart_shift=str(r_b))
    b.witness(element=str(hat.omega))
    return hat


def lemma44_bivariable(P: MultiPoly) -> BivariableCert:
    """The quadratic-descent certificate of :func:`_descend`.

    Raises :class:`CharTwoField` or :class:`PreconditionViolated` for bad
    input and :class:`CongruenceFailed` naming the first failed step.
    """
    b = CheckBuilder("lemma44")
    hat = _descend(P, b)
    for name, value in b.residuals.items():
        if value not in ("0", "ok"):
            raise CongruenceFailed(
                f"quadratic descent step {name} failed: {value}")
    return hat


# ------------------------------------------------------------- serialization


def _gen_to_doc(gen) -> dict:
    if isinstance(gen, Triangular):
        return {"kind": "triangular", "var": gen.var,
                "shift": to_expr(gen.shift)}
    if isinstance(gen, Scale):
        return {"kind": "scale", "var": gen.var, "unit": to_expr(gen.unit)}
    if isinstance(gen, Permute):
        return {"kind": "permute", "mapping": dict(gen.mapping)}
    if isinstance(gen, Lemma41Block):
        return {"kind": "block", "var_x": gen.var_x, "var_y": gen.var_y,
                "scalar": to_expr(gen.scalar), "m": gen.m,
                "q": to_expr(gen.q), "f": to_expr(gen.f),
                "g": to_expr(gen.g)}
    raise ShapeError(f"unknown generator kind {type(gen).__name__}")


def _gen_from_doc(doc: dict, field: FieldSpec):
    kind = doc["kind"]
    if kind == "triangular":
        return Triangular(doc["var"], parse(doc["shift"], GLUE, field))
    if kind == "scale":
        return Scale(doc["var"], parse(doc["unit"], GLUE, field))
    if kind == "permute":
        return Permute(doc["mapping"])
    if kind == "block":
        return Lemma41Block(
            doc["var_x"], doc["var_y"], parse(doc["scalar"], GLUE, field),
            int(doc["m"]), parse(doc["q"], GLUE, field),
            parse(doc["f"], GLUE, field), parse(doc["g"], GLUE, field))
    raise ShapeError(f"unknown generator kind {kind!r}")


def cert_to_doc(cert: BivariableCert) -> dict:
    return {
        "version": "1",
        "field": cert.field.descriptor(),
        "omega": to_expr(cert.omega),
        "alpha_word": [_gen_to_doc(g) for g in cert.alpha_word],
        "beta_word": [_gen_to_doc(g) for g in cert.beta_word],
        "f": to_expr(cert.f.f),
    }


def cert_from_doc(doc: dict) -> BivariableCert:
    """Rebuild and *re-certify* a certificate; the stored glueing function
    is cross-checked against the recomputed one."""
    F = field_from_descriptor(doc["field"])
    omega = parse(doc["omega"], GLUE, F)
    alpha = tuple(_gen_from_doc(d, F) for d in doc["alpha_word"])
    beta = tuple(_gen_from_doc(d, F) for d in doc["beta_word"])
    cert = certify(omega, alpha, beta)
    stored = parse(doc["f"], PLANE, F)
    if stored != cert.f.f:
        raise ShapeError(
            f"stored glueing function {doc['f']} disagrees with the "
            f"recomputed {cert.f.f}")
    return cert


def cert_to_json(cert: BivariableCert) -> str:
    return json.dumps(cert_to_doc(cert), indent=2)


def cert_from_json(text: str) -> BivariableCert:
    return cert_from_doc(json.loads(text))


# ------------------------------------------------------------ verify suites


def verify_basic_family(pairs=((1, 1), (1, 2), (2, 3)),
                        field: FieldSpec = QQ) -> CheckResult:
    """Monomial-denominator certificates: frozen element, chart seconds and
    glueing function for each exponent pair."""
    b = CheckBuilder("ex35", pairs=list(pairs), field=field.descriptor())
    for m, n in pairs:
        cert = basic_bivariable(m, n, field=field)
        am = MultiPoly.var(GLUE, field, "a", m)
        bn = MultiPoly.var(GLUE, field, "b", n)
        x = MultiPoly.var(GLUE, field, "x")
        y = MultiPoly.var(GLUE, field, "y")
        fx = MultiPoly.var(PLANE, field, "x")
        b.expect_zero(f"element[{m},{n}]", cert.omega - (am * x + bn * y))
        b.expect_zero(f"a-second[{m},{n}]", cert.tau_a - am ** -1 * y)
        b.expect_zero(f"b-second[{m},{n}]", cert.tau_b + bn ** -1 * x)
        b.expect_zero(
            f"glueing[{m},{n}]",
            cert.f.f - fx * MultiPoly.var(PLANE, field, "a", -m)
            * MultiPoly.var(PLANE, field, "b", -n))
    b.witness(family="a^m*x + b^n*y")
    return b.done()


def verify_constant_shift(samples=((1, 1, "a"), (2, 1, "1 + a*b"),
                                   (1, 3, "b^2")),
                          field: FieldSpec = QQ) -> CheckResult:
    """Base-constant shifts: glueing function ``(x - c)/(a^m*b^n)``."""
    b = CheckBuilder("ex312", samples=[f"({m},{n},{c})" for m, n, c in samples],
                     field=field.descriptor())
    for m, n, c_text in samples:
        c = parse(c_text, PLANE, field)
        cert = with_constant(m, n, c)
        fx = MultiPoly.var(PLANE, field, "x")
        mono = (MultiPoly.var(PLANE, field, "a", -m)
                * MultiPoly.var(PLANE, field, "b", -n))
        b.expect_zero(f"glueing[{m},{n},{c_text}]",
                      cert.f.f - (fx - c) * mono)
    return b.done()


def verify_p_shift(p_texts=("z^2", "z^2 + z", "z^3 + 2*z"),
                   field: FieldSpec = QQ) -> CheckResult:
    """The ``a*x + b^2*y + b*P(x)`` family: frozen element, frozen b-chart
    second coordinate, and glueing function ``x/(a*b^2) - P(x/a)/(a*b)``."""
    b = CheckBuilder("ex43", P=list(p_texts), field=field.descriptor())
    for p_text in p_texts:
        P = parse(p_text, PVAR, field)
        cert = p_shift_bivariable(P)
        a = MultiPoly.var(GLUE, field, "a")
        bb = MultiPoly.var(GLUE, field, "b")
        x = MultiPoly.var(GLUE, field, "x")
        y = MultiPoly.var(GLUE, field, "y")
        p_x = substitute(P, {"z": x}, into=GLUE, field=field)
        b.expect_zero(f"element[{p_text}]",
                      cert.omega - (a * x + bb ** 2 * y + bb * p_x))
        b.expect_zero(f"b-second[{p_text}]", cert.tau_b + bb ** -2 * x)

        ax = MultiPoly.var(PLANE, field, "a")
        bx = MultiPoly.var(PLANE, field, "b")
        fx = MultiPoly.var(PLANE, field, "x")
        p_over_a = substitute(P, {"z": fx * ax ** -1}, into=PLANE, field=field)
        closed = fx * ax ** -1 * bx ** -2 - p_over_a * ax ** -1 * bx ** -1
        b.expect_zero(f"glueing[{p_text}]", cert.f.f - closed)
    return b.done()


def verify_quadratic_descent(p_text: str = "z^2",
                             field: FieldSpec = QQ) -> CheckResult:
    """End-to-end quadratic descent: the steps of :func:`_descend` as
    reported expectations."""
    b = CheckBuilder("lemma44", P=p_text, field=field.descriptor())
    P = parse(p_text, PVAR, field)
    try:
        _descend(P, b)
    except (CongruenceFailed, CharTwoField, PreconditionViolated) as exc:
        b.expect("descent-constructs", False, str(exc))
    return b.done()


def verify_mixed_denominator(field: FieldSpec = QQ) -> CheckResult:
    """The ``a^2*x + (b - a)*y`` certificate with its frozen glueing data."""
    b = CheckBuilder("ex66", field=field.descriptor())
    cert = ex66_bivariable(field=field)
    F = field
    a = MultiPoly.var(GLUE, F, "a")
    bb = MultiPoly.var(GLUE, F, "b")
    x = MultiPoly.var(GLUE, F, "x")
    y = MultiPoly.var(GLUE, F, "y")
    b.expect_zero("element", cert.omega - (a ** 2 * x + (bb - a) * y))
    b.expect_zero("a-second", cert.tau_a - a ** -2 * y)
    b.expect_zero("b-second",
                  cert.tau_b - (bb ** -2 * y - bb ** -2 * (a + bb) * x))
    ax = MultiPoly.var(PLANE, F, "a")
    bx = MultiPoly.var(PLANE, F, "b")
    fx = MultiPoly.var(PLANE, F, "x")
    b.expect_zero("glueing",
                  cert.f.f - (ax + bx) * fx * ax ** -2 * bx ** -2)
    b.witness(element=str(cert.omega), glueing=str(cert.f.f))
    return b.done()
