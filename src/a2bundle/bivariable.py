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
the punctured base plane.  :func:`certify` checks a given glueing function
against both folded words and keeps both chart maps: ``omega`` is not
constant in ``(x, y)``, so ``tau_a - tau_b == f(omega)`` holds for one ``f``
at most, and a degree guard rejects a wrong ``f`` before ``f(omega)`` is
formed.  Every builder passes the ``f`` it constructs and continues its
parent's maps with the new moves; a loaded document passes its stored ``f``.

Besides the basic families (monomial denominators, monomial denominators
with a base-constant shift), the module implements the two extension moves
that graft a torus-glueing block onto an existing certificate, pushing the
element deeper into one chart while keeping both words explicit.
"""

from __future__ import annotations

import json

from .errors import (
    CharTwoField,
    CongruenceFailed,
    JacobianNotUnit,
    MembershipError,
    PreconditionViolated,
    Record,
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
    lemma41_build,
)
from .poly import (
    MultiPoly,
    RingDescriptor,
    VarTable,
    substitute,
)
from .report import CheckBuilder, CheckResult


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
    return substitute(p, {}, into=GLUE)


class BivariableCert(Record):
    """A machine-checked pair of chart coordinate systems sharing ``omega``.

    Only :func:`certify` builds instances (directly or through the builders
    below); every field but ``f`` is derived there from the words, the single
    source of truth, ``f`` is checked against them, and a child certificate
    trusts its parent's maps.
    """

    __slots__ = ("omega",       # the shared element, in k[a,b][x,y]
                 "alpha_word",  # a-chart word, Jacobian normalised to 1
                 "beta_word",   # b-chart word, Jacobian normalised to 1
                 "f",           # TransitionFunction: alpha o beta^{-1} == (x, y + f(x))
                 "flat_a",      # PolyMap of alpha_word: (omega, tau_a), Jacobian 1
                 "flat_b")      # PolyMap of beta_word: (omega, tau_b), Jacobian 1

    tau_a = property(lambda self: self.flat_a.comps["y"])  # a-chart second coordinate
    tau_b = property(lambda self: self.flat_b.comps["y"])  # b-chart second coordinate

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
    # every generator fixes the base variable ``chart_var``, so the scale
    # multiplies the Jacobian by exactly ``jac ** -1``
    scale = (Scale("y", jac ** -1),)
    return word + scale, flatten(scale, table, F, BASE, start=flat)


def certify(omega: MultiPoly, alpha_word, beta_word, f: MultiPoly, parent=None
            ) -> BivariableCert:
    """Validate a pair of chart words for ``omega`` and the glueing ``f``.

    Checks, in order: ``omega`` has no inverted variables; each Jacobian is
    a unit of its chart (then normalised to 1 by scaling ``y``); each word
    sends ``x`` to ``omega``; each flattened system lies in its chart ring;
    ``f`` does not invert ``x``; ``tau_a - tau_b == f(omega)``.  The
    ``x``-images and the last check prove ``alpha o beta^{-1} = (x, y +
    f(x))`` in every characteristic, with no Jacobian argument:
    ``alpha(beta^{-1}(p)) = (omega, tau_b + f(omega))(beta^{-1}(p)) = (p_x,
    p_y + f(p_x))``.  The proof does not ask where ``f`` came from, and
    ``omega`` is not constant in ``(x, y)`` (its Jacobian is 1), so
    ``f(omega)`` determines ``f``: the given ``f`` (over ``PLANE``) is
    checked, never derived.  A ``parent`` whose words start both words
    seeds both folds with its maps; :func:`flatten` is compositional, so
    only the new moves are replayed and every check above runs on the
    continued maps.  Before ``f(omega)`` is formed,
    ``deg_v(tau_a - tau_b) == deg_x(f) * deg_v(omega)`` must hold for ``v``
    in ``x, y``: leading coefficients multiply in an integral domain, so the
    identity implies it, and it bounds the work a given ``f`` asks for.  Raises
    :class:`JacobianNotUnit`, :class:`ShapeError` or :class:`MembershipError`;
    returns the certificate with ``f`` and both chart maps.
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
    prefix = (parent.alpha_word, parent.beta_word) if parent else ((), ())
    na, nb = map(len, prefix)
    if (alpha_word[:na], beta_word[:nb]) != prefix:
        raise ShapeError("words do not start with the parent certificate's words")
    start_a, start_b = (parent.flat_a, parent.flat_b) if parent else (None, None)
    flat_a = flatten(alpha_word[na:], GLUE, F, BASE, start=start_a)
    flat_b = flatten(beta_word[nb:], GLUE, F, BASE, start=start_b)
    alpha_word, flat_a = _normalise_jacobian(alpha_word, flat_a, "a", "a-chart")
    beta_word, flat_b = _normalise_jacobian(beta_word, flat_b, "b", "b-chart")

    for side, flat in (("a-chart", flat_a), ("b-chart", flat_b)):
        if flat.comps["x"] != omega:
            raise ShapeError(
                f"{side} word sends x to {flat.comps['x']}, not omega")
    check_membership(flat_a, RING_A)
    check_membership(flat_b, RING_B)

    if f and f.min_degree_in("x") < 0:
        raise ShapeError(f"glueing function {f} inverts x")

    diff = flat_a.comps["y"] - flat_b.comps["y"]
    if any(diff.degree_in(v) != (f.degree_in("x") * omega.degree_in(v) if f else None)
           for v in ("x", "y")) or diff - substitute(f, {"x": omega}, into=GLUE):
        raise ShapeError(
            f"second coordinates do not differ by f(omega): f = {f} "
            "disagrees with the words")
    return BivariableCert(omega, alpha_word, beta_word,
                          TransitionFunction.from_poly(f), flat_a, flat_b)


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
    a, b, x, y = MultiPoly.gens(GLUE, field)
    a_m, b_n = a ** m, b ** n
    alpha = (Scale("x", a_m), Triangular("x", b_n * y), Scale("y", a_m ** -1))
    beta = (Permute({"x": "y", "y": "x"}), Scale("x", b_n),
            Triangular("x", a_m * y), Scale("y", -(b_n ** -1)))
    ap, bp, xp = MultiPoly.gens(PLANE, field)
    return certify(a_m * x + b_n * y, alpha, beta, xp * ap ** -m * bp ** -n)


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
    x_minus_c = MultiPoly.var(PLANE, F, "x") - substitute(c, {}, into=PLANE)
    f = substitute(plain.f.f, {"x": x_minus_c})
    return certify(plain.omega + c, alpha, beta, f, parent=plain)


def ex66_bivariable(field: FieldSpec = QQ) -> BivariableCert:
    """The mixed-denominator certificate for ``omega = a^2*x + (b - a)*y``.

    Neither pure chart move clears the coefficient ``b - a``, so the b-word
    threads it through a shear before rescaling; the induced glueing
    function is ``(a + b)*x/(a^2*b^2)``, whose numerator vanishes nowhere on
    the punctured base plane even though it is not a monomial.
    """
    a, b, x, y = MultiPoly.gens(GLUE, field)
    omega = a ** 2 * x + (b - a) * y
    alpha = (Scale("x", a ** 2), Triangular("x", (b - a) * y),
             Scale("y", a ** -2))
    beta = (Triangular("y", -(a + b) * x), Scale("y", b ** -2),
            Scale("x", b ** 2), Triangular("x", (b - a) * b ** 2 * y))
    ap, bp, xp = MultiPoly.gens(PLANE, field)
    return certify(omega, alpha, beta, (ap + bp) * xp * ap ** -2 * bp ** -2)


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
    *_, y = MultiPoly.gens(GLUE, F)
    k, tau = (m, cert.tau_a) if side == "a" else (n, cert.tau_b)
    sk = s ** k

    tri = (Triangular("x", s * substitute(q, {"x": sk * y})),)
    partner = (sk if side == "a" else -sk) * to_glue(cert.f.f)
    phi = lemma41_build(GLUE, F, "x", "y", s, k, q, partner)
    omega_hat = cert.omega + s * substitute(q, {"x": sk * tau})
    # the block's argument s^k*y + partner(x) folds to s^k*tau, which it
    # carries to omega_hat, so the other word's y becomes tau - g(omega_hat)/s^k:
    # f is the partner g over s^k, negated when the block rides on the a-word
    g = phi[0].g
    f = substitute((g if side == "a" else -g) * s ** -k, {}, into=PLANE)
    on_a, on_b = (tri, phi) if side == "a" else (phi, tri)
    return certify(omega_hat, cert.alpha_word + on_a, cert.beta_word + on_b,
                   f, parent=cert)


def extend_a(cert: BivariableCert, m: int, n: int, Q: MultiPoly
             ) -> BivariableCert:
    """Push a certificate deeper into the ``a``-chart.

    Requires ``a^m*b^n*f`` polynomial for the certificate's glueing
    function ``f``.  The new element is
    ``omega + a*Q(a^m*tau_a)``: a plain triangular move on the a-word, and a
    torus-glueing block (scalar ``a``, exponent ``m``) on the b-word, whose
    congruence partner is grown from ``a^m*f``.  The result is certified
    as a continuation of ``cert``: only the two new moves are folded.
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
    _, _, x, _ = MultiPoly.gens(GLUE, F)
    q = substitute(P, {"z": -x}, into=GLUE)
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
    deg = P.degree_in("z")
    if deg != 2:
        raise PreconditionViolated("quadratic descent needs deg P == 2, got "
                                   f"{'the zero polynomial' if deg is None else deg}")
    c = P.coefficient_in("z", 2).constant_value()
    inv2c = F.inv(F.mul(F.coerce(2), c))

    cert = p_shift_bivariable(P)
    a, _, x, _ = MultiPoly.gens(GLUE, F)
    hat = extend_a(cert, 3, 2, (a * x).scale(inv2c))
    b.expect("descent-constructs", True)

    # RING_B is k[a, b^{-1}, b][x, y]
    delta = (a ** 5 * cert.tau_a).scale(inv2c)
    b.expect_zero("element-shift", hat.omega - cert.omega - delta)
    b.expect("shift-in-a^2-ring", RING_B.contains(delta * a ** -2), lambda: str(delta))
    square = delta * delta
    b.expect("shift-square-mod-a^4", RING_B.contains(square * a ** -4))
    # certify proved f(omega) == tau_a - tau_b for both certificates, so
    # f_b(omega) = a^3*(tau_a - tau_b) is already in hand
    pulled = a ** 3 * (hat.tau_a - hat.tau_b - cert.tau_a + cert.tau_b)
    b.expect("pullback-congruence-mod-a^3", RING_B.contains(pulled * a ** -3))

    from .bundles import a1_equiv  # late import; bundles uses this module

    target = TransitionFunction.from_poly(closed_form_m2(FibrationSpec(P, 2)))
    eq = a1_equiv(hat.f, target)
    b.expect("matches-two-step-closed-form", eq is not None)
    if eq is not None:
        lam, r_a, r_b = eq
        b.witness(scale=lam, a_chart_shift=r_a, b_chart_shift=r_b)
    b.witness(element=hat.omega)
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


#: the generator classes a certificate document names by ``kind``
_GEN_KINDS = {"triangular": Triangular, "scale": Scale, "permute": Permute,
              "block": Lemma41Block}


def _gen_to_doc(gen) -> dict:
    kind = next((k for k, cls in _GEN_KINDS.items() if isinstance(gen, cls)), None)
    if kind is None:
        raise ShapeError(f"unknown generator kind {type(gen).__name__}")
    doc = {"kind": kind}
    for name in gen.__slots__:
        v = getattr(gen, name)
        doc[name] = (to_expr(v) if isinstance(v, MultiPoly)
                     else dict(v) if name == "mapping" else v)
    return doc


def _slot(doc, key: str, kind: type = str):
    """``doc[key]``; a :class:`ShapeError` names the key unless ``doc`` is an
    object holding a ``kind`` there, never a bool (JSON ``true`` is no int)."""
    if not (isinstance(doc, dict) and key in doc and isinstance(doc[key], kind)
            and type(doc[key]) is not bool):
        raise ShapeError(f"expected a certificate object holding {kind.__name__} at {key!r}")
    return doc[key]


def _gen_from_doc(doc: dict, field: FieldSpec):
    kind = _slot(doc, "kind", object)
    cls = _GEN_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ShapeError(f"unknown generator kind {kind!r}")
    args = []
    for name in cls.__slots__:
        v = _slot(doc, name, {"m": int, "mapping": dict}.get(name, str))
        if name == "mapping":
            if not all(k in GLUE.names and w in GLUE.names for k, w in v.items()):
                raise ShapeError("expected a certificate object holding variable names at 'mapping'")
        elif name != "m" and not name.startswith("var"):
            v = parse(v, GLUE, field)  # the remaining slots hold expressions
        args.append(v)
    return cls(*args)


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
    """Rebuild and *re-certify* a certificate: each word is folded again and
    the stored glueing function is checked by :func:`certify`, by its degree
    and then by ``tau_a - tau_b == f(omega)``, never derived a second time;
    a wrong ``f`` raises :class:`ShapeError`. A document of another shape
    raises :class:`ShapeError` naming the slot, before anything is parsed."""
    field, omega, alpha, beta, f = (_slot(doc, k, list if k.endswith("word") else str)
                                    for k in ("field", "omega", "alpha_word", "beta_word", "f"))
    F = field_from_descriptor(field)
    return certify(parse(omega, GLUE, F), (_gen_from_doc(d, F) for d in alpha),
                   (_gen_from_doc(d, F) for d in beta), parse(f, PLANE, F))


def cert_to_json(cert: BivariableCert) -> str:
    return json.dumps(cert_to_doc(cert), indent=2)


def cert_from_json(text: str) -> BivariableCert:
    return cert_from_doc(json.loads(text))


# ------------------------------------------------------------ verify suites


#: the frozen samples: (m, n) of ex35, (m, n, c) of ex312, P of ex43
BASIC_PAIRS = ((1, 1), (1, 2), (2, 3))
CONSTANT_SHIFTS = ((1, 1, "a"), (2, 1, "1 + a*b"), (1, 3, "b^2"))
P_SHIFTS = ("z^2", "z^2 + z", "z^3 + 2*z")


def verify_basic_family(field: FieldSpec = QQ) -> CheckResult:
    """Monomial-denominator certificates: frozen element, chart seconds and
    glueing function for each exponent pair."""
    b = CheckBuilder("ex35", pairs=list(BASIC_PAIRS), field=field.descriptor())
    a, bb, x, y = MultiPoly.gens(GLUE, field)
    ax, bx, fx = MultiPoly.gens(PLANE, field)
    for m, n in BASIC_PAIRS:
        cert = basic_bivariable(m, n, field=field)
        am, bn = a ** m, bb ** n
        b.expect_zero(f"element[{m},{n}]", cert.omega - (am * x + bn * y))
        b.expect_zero(f"a-second[{m},{n}]", cert.tau_a - am ** -1 * y)
        b.expect_zero(f"b-second[{m},{n}]", cert.tau_b + bn ** -1 * x)
        b.expect_zero(f"glueing[{m},{n}]",
                      cert.f.f - fx * ax ** -m * bx ** -n)
    b.witness(family="a^m*x + b^n*y")
    return b.done()


def verify_constant_shift(field: FieldSpec = QQ) -> CheckResult:
    """Base-constant shifts: glueing function ``(x - c)/(a^m*b^n)``."""
    b = CheckBuilder("ex312", samples=[f"({m},{n},{c})" for m, n, c in CONSTANT_SHIFTS],
                     field=field.descriptor())
    ax, bx, fx = MultiPoly.gens(PLANE, field)
    for m, n, c_text in CONSTANT_SHIFTS:
        c = parse(c_text, PLANE, field)
        cert = with_constant(m, n, c)
        b.expect_zero(f"glueing[{m},{n},{c_text}]",
                      cert.f.f - (fx - c) * (ax ** -m * bx ** -n))
    return b.done()


def verify_p_shift(field: FieldSpec = QQ) -> CheckResult:
    """The ``a*x + b^2*y + b*P(x)`` family: frozen element, frozen b-chart
    second coordinate, and glueing function ``x/(a*b^2) - P(x/a)/(a*b)``."""
    b = CheckBuilder("ex43", P=list(P_SHIFTS), field=field.descriptor())
    a, bb, x, y = MultiPoly.gens(GLUE, field)
    ax, bx, fx = MultiPoly.gens(PLANE, field)
    for p_text in P_SHIFTS:
        P = parse(p_text, PVAR, field)
        cert = p_shift_bivariable(P)
        p_x = substitute(P, {"z": x}, into=GLUE)
        b.expect_zero(f"element[{p_text}]",
                      cert.omega - (a * x + bb ** 2 * y + bb * p_x))
        b.expect_zero(f"b-second[{p_text}]", cert.tau_b + bb ** -2 * x)

        p_over_a = substitute(P, {"z": fx * ax ** -1}, into=PLANE)
        closed = fx * ax ** -1 * bx ** -2 - p_over_a * ax ** -1 * bx ** -1
        b.expect_zero(f"glueing[{p_text}]", cert.f.f - closed)
    return b.done()


def verify_quadratic_descent(p_text: str = "z^2",
                             field: FieldSpec = QQ) -> CheckResult:
    """End-to-end quadratic descent: the steps of :func:`_descend` as
    reported expectations; inapplicable input raises, as in ``ex47``."""
    b = CheckBuilder("lemma44", P=p_text, field=field.descriptor())
    P = parse(p_text, PVAR, field)
    try:
        _descend(P, b)
    except CongruenceFailed as exc:
        b.expect("descent-constructs", False, str(exc))
    return b.done()


def verify_mixed_denominator(field: FieldSpec = QQ) -> CheckResult:
    """The ``a^2*x + (b - a)*y`` certificate with its frozen glueing data."""
    b = CheckBuilder("ex66", field=field.descriptor())
    cert = ex66_bivariable(field=field)
    a, bb, x, y = MultiPoly.gens(GLUE, field)
    b.expect_zero("element", cert.omega - (a ** 2 * x + (bb - a) * y))
    b.expect_zero("a-second", cert.tau_a - a ** -2 * y)
    b.expect_zero("b-second",
                  cert.tau_b - (bb ** -2 * y - bb ** -2 * (a + bb) * x))
    ax, bx, fx = MultiPoly.gens(PLANE, field)
    b.expect_zero("glueing",
                  cert.f.f - (ax + bx) * fx * ax ** -2 * bx ** -2)
    b.witness(element=cert.omega, glueing=cert.f.f)
    return b.done()
