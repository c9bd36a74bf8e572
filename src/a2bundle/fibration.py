"""Plane-bundle coordinates on 4-space and their chart transitions.

Everything here is driven by a :class:`FibrationSpec`: a univariate
polynomial ``P`` (written in ``z``, degree at least two) and a positive
exponent ``n``.  From that data we build

* an 8-generator automorphism word ``phi`` of ``k[x,y,z,u]`` fixing ``x``
  whose second component ``v`` completes ``x`` to a coordinate pair;
* the auxiliary combination ``omega = x*z + y*(u*y + P(z))``, which is also
  ``phi``'s third component and satisfies ``v = y + x^n*omega``;
* the transition functions ``f`` that glue the two obvious trivializations
  of the induced plane bundle over the punctured (a, b)-plane, one for each
  glueing exponent ``m`` with ``m*n > deg(P)``;
* machine checks for the identities that make all of the above true, and
  the stability exponent ``s``, read off one fold, that makes the shifted
  coordinate ``v + x^s*t`` part of a polynomial coordinate system on 5-space.

The check functions return :class:`~a2bundle.report.CheckResult` objects;
they never raise on a *failed* identity (only on malformed input), so the
CLI can render honest failure reports.
"""

from __future__ import annotations

from .errors import NoPolynomialSInRange, PreconditionViolated, Record
from .exprio import parse
from .fields import QQ, FieldSpec
from .maps import PolyMap, Scale, Triangular, flatten, invert
from .poly import (
    MultiPoly,
    RingDescriptor,
    VarTable,
    divide_exact,
    substitute,
)
from .report import CheckBuilder, CheckResult

#: chart coordinates on 4-space; only x is ever inverted in printed output
CHART = VarTable(("x", "y", "z", "u"), laurent=("x",))
#: 4-space extended by the stability direction t
CHART_EXT = VarTable(("x", "y", "z", "u", "t"), laurent=("x",))
#: base coordinates for transition functions over the punctured plane
PLANE = VarTable(("a", "b", "x"), laurent=("a", "b"))
#: univariate table for the defining polynomial P
PVAR = VarTable(("z",))


class FibrationSpec(Record):
    """Defining data: univariate ``P`` (in ``z``, degree >= 2) and ``n >= 1``."""

    __slots__ = ("P", "n")

    def __init__(self, P: MultiPoly, n: int):
        super().__init__(P, n)
        if self.P.table.names != PVAR.names:
            raise PreconditionViolated(
                f"P must be univariate in z, got table {self.P.table.names}")
        deg = self.P.degree_in("z")
        if deg is None or deg < 2:
            raise PreconditionViolated("P must have degree >= 2")
        if self.P.min_degree_in("z") < 0:
            raise PreconditionViolated("P must be a polynomial in z")
        if self.n < 1:
            raise PreconditionViolated("n must be a positive integer")

    @property
    def field(self) -> FieldSpec:
        return self.P.field

    @property
    def deg_p(self) -> int:
        return self.P.degree_in("z")

    def p_at(self, image: MultiPoly) -> MultiPoly:
        """P evaluated at a polynomial image (over the image's table)."""
        return substitute(self.P, {"z": image}, into=image.table)


# ----------------------------------------------------------- the coordinate


def build_phi_word(spec: FibrationSpec, table: VarTable = CHART):
    """The 8-generator word (first generator acts first) whose flattening is

        x -> x
        y -> v     = y + x^n*omega
        z -> omega = x*z + y*(u*y + P(z))
        u -> u/x + (P(z) - P(omega/x)) / (x*y)

    an automorphism of ``k[x^(+-1), y, z, u]`` with Jacobian determinant 1.
    """
    x, y, z, u, *_ = MultiPoly.gens(table, spec.field)
    xinv = x ** -1
    return (
        Scale("u", y),
        Triangular("u", spec.p_at(z)),
        Scale("z", x),
        Triangular("z", y * u),
        Scale("u", xinv),
        Triangular("u", -(xinv * spec.p_at(xinv * z))),
        Scale("u", y ** -1),
        Triangular("y", x ** spec.n * z),
    )


def build_omega(spec: FibrationSpec, table: VarTable = CHART) -> MultiPoly:
    """omega = x*z + y*(u*y + P(z)); also phi's third component."""
    x, y, z, u, *_ = MultiPoly.gens(table, spec.field)
    return x * z + y * (u * y + spec.p_at(z))


def build_v(spec: FibrationSpec, omega: MultiPoly) -> MultiPoly:
    """v = y + x^n * omega over ``omega``'s table, for ``omega`` from
    :func:`build_omega`; completes x to a coordinate pair on 4-space."""
    x, y, *_ = MultiPoly.gens(omega.table, spec.field)
    return y + x ** spec.n * omega


def _u_image(spec: FibrationSpec, omega: MultiPoly):
    """``(R, P(omega/x))`` over ``omega``'s table, with
    R = u/x + (P(z) - P(omega/x)) / (x*y) computed by exact division."""
    x, y, z, u, *_ = MultiPoly.gens(omega.table, spec.field)
    p_omega_x = spec.p_at(x ** -1 * omega)
    num = spec.p_at(z) - p_omega_x
    return u * x ** -1 + divide_exact(num, x * y), p_omega_x


def verify_coordinate_facts(spec: FibrationSpec) -> CheckResult:
    """Check the displayed components, invertibility, unit Jacobian and ring
    memberships of the coordinate word.  Check id: ``lemma21``."""
    b = CheckBuilder("lemma21", P=spec.P, n=spec.n)
    F = spec.field
    word = build_phi_word(spec)
    flat = flatten(word, CHART, F, base=("x",))

    x, *_ = MultiPoly.gens(CHART, F)
    omega = build_omega(spec)
    v = build_v(spec, omega)
    b.expect_zero("first-component-fixed", flat.comps["x"] - x)
    b.expect_zero("second-component-is-v", flat.comps["y"] - v)
    b.expect_zero("third-component-is-omega", flat.comps["z"] - omega)
    b.expect_zero("fourth-component",
                  flat.comps["u"] - _u_image(spec, omega)[0])
    b.expect_zero("jacobian-chain-minus-1", flat.jac - 1)
    b.expect_zero("jacobian-matrix-minus-1", flat.jacobian_det() - 1)
    b.expect("word-times-inverse-is-identity",
             flatten(invert(word), CHART, F, base=("x",),
                     start=flat).is_identity())

    poly_ring = RingDescriptor.polynomials(CHART)
    b.expect("v-is-polynomial", poly_ring.contains(v))
    b.expect("omega-is-polynomial", poly_ring.contains(omega))
    b.expect("u-image-only-inverts-x",
             poly_ring.allow_negative("x").contains(flat.comps["u"]))
    b.witness(v=v, omega=omega)
    return b.done()


# ------------------------------------------------------ transition functions


def minimal_m(spec: FibrationSpec) -> int:
    """Smallest glueing exponent m >= 1 with m*n > deg(P)."""
    return spec.deg_p // spec.n + 1


def formal_transition(spec: FibrationSpec, m: int) -> MultiPoly:
    """The defining sum of the chart-transition function, with no constraint
    tying ``m`` to ``deg(P)``:

        f = x/(a*b^2) - (1/(a*b^m)) * sum_{k<m} b^(m-1-k)*(a^n*x)^k * P(x/a)

    where the sum is the expanded quotient (b^m - (a^n*x)^m)/(b - a^n*x).
    This is a Laurent polynomial for every ``m >= 1``; only for
    ``m*n > deg(P)`` does it glue two polynomial charts (use
    :func:`transition_formula` for that).
    """
    if m < 1:
        raise PreconditionViolated("glueing exponent m must be >= 1")
    F = spec.field
    a, b, x = MultiPoly.gens(PLANE, F)
    p_xa = spec.p_at(x * a ** -1)
    anx = a ** spec.n * x
    geo = MultiPoly.zero(PLANE, F)
    for k in range(m):
        geo = geo + b ** (m - 1 - k) * anx ** k
    head = x * a ** -1 * b ** -2
    return head - (a ** -1 * b ** -m) * geo * p_xa


def transition_formula(spec: FibrationSpec, m: int) -> MultiPoly:
    """:func:`formal_transition` restricted to the glueing-legal range
    ``m*n > deg(P)``."""
    if m >= 1 and m * spec.n <= spec.deg_p:
        raise PreconditionViolated(
            f"need m*n > deg(P): {m}*{spec.n} <= {spec.deg_p}")
    return formal_transition(spec, m)


class TransitionFunction(Record):
    """A transition function together with its minimal clearing data:
    ``m_min``/``n_min`` are the smallest nonnegative exponents making
    ``p_num = a^m_min * b^n_min * f`` a polynomial."""

    __slots__ = ("f", "m_min", "n_min", "p_num")

    @classmethod
    def from_poly(cls, f: MultiPoly) -> "TransitionFunction":
        if f.table.names != PLANE.names:
            raise PreconditionViolated(
                f"transition functions live over {PLANE.names}")
        if not f:
            return cls(f, 0, 0, f)
        if f.min_degree_in("x") < 0:
            raise PreconditionViolated("x must not be inverted")
        m_min = max(0, -f.min_degree_in("a"))
        n_min = max(0, -f.min_degree_in("b"))
        shift = MultiPoly.monomial(f.table, f.field, (m_min, n_min, 0))
        return cls(f, m_min, n_min, f * shift)

    def require_cleared_by(self, m: int, n: int) -> None:
        """Raise :class:`PreconditionViolated` unless ``a^m*b^n*f`` is a
        polynomial."""
        if m < self.m_min or n < self.n_min:
            raise PreconditionViolated(
                f"need a^{m}*b^{n}*f polynomial; f has denominators "
                f"a^{self.m_min}*b^{self.n_min}")


def transition_function(spec: FibrationSpec, m: int | None = None
                        ) -> TransitionFunction:
    if m is None:
        m = minimal_m(spec)
    return TransitionFunction.from_poly(transition_formula(spec, m))


def closed_form_m1(spec: FibrationSpec) -> MultiPoly:
    """m = 1 (needs n > deg P):  f = x/(a*b^2) - P(x/a)/(a*b)."""
    a, b, x = MultiPoly.gens(PLANE, spec.field)
    return x * a ** -1 * b ** -2 - a ** -1 * b ** -1 * spec.p_at(x * a ** -1)


def closed_form_m2(spec: FibrationSpec) -> MultiPoly:
    """m = 2 (needs 2n > deg P): the m = 1 shape plus the correction term
    -(a^(n-1)/b^2) * x * P(x/a)."""
    a, b, x = MultiPoly.gens(PLANE, spec.field)
    return closed_form_m1(spec) - a ** (spec.n - 1) * b ** -2 * x * spec.p_at(
        x * a ** -1)


# --------------------------------------------------------- the main identity


def verify_bundle_identity(spec: FibrationSpec, m: int | None = None
                           ) -> CheckResult:
    """Machine check that the glued coordinate really trivializes the bundle
    with transition function ``transition_formula(spec, m)``.

    With v, omega, R the components of the coordinate word, G the numerator
    ``u*v^2*y + v^2*P(z) - omega*y``, H = x^(m*n-1)*P(omega/x) and K =
    max(2, m), the decisive identity (everything cleared of denominators) is

        x*y*R*v^K - x*y*sum_j N_j*v^(K-j)
            = G*v^(K-2) - x^(m*n)*omega^m*P(omega/x)*v^(K-m)

    where N_j is the coefficient of b^(-j) in f with a -> x, x -> omega.
    Finally (G/x*v^(K-2) - omega^m*H*v^(K-m))/y must be exactly divisible and
    land in k[x,y,z,u], which is what lets every chart image stay polynomial.
    Check id: ``thm12``.
    """
    if m is None:
        m = minimal_m(spec)
    # raises PreconditionViolated when m*n <= deg(P)
    f = transition_formula(spec, m)

    b = CheckBuilder("thm12", P=spec.P, n=spec.n, m=m)
    F = spec.field
    K = max(2, m)
    x, y, z, u = MultiPoly.gens(CHART, F)

    omega = build_omega(spec)
    v = build_v(spec, omega)
    R, p_omega_x = _u_image(spec, omega)
    v_pow = [MultiPoly.const(CHART, F, 1), v]  # v^0 .. v^K, built once
    for _ in range(K - 1):
        v_pow.append(v_pow[-1] * v)
    omega_m = omega ** m

    # (i) omega is recoverable from v
    b.expect_zero("v-minus-y-over-x^n-is-omega",
                  divide_exact(v - y, x ** spec.n) - omega)

    # (ii) the numerator G vanishes at x = 0, so W = G/x is a polynomial
    G = u * v_pow[2] * y + v_pow[2] * spec.p_at(z) - omega * y
    b.expect_zero("numerator-at-x=0", G.coefficient_in("x", 0))
    W = divide_exact(G, x)

    # (iii) H = x^(mn-1)*P(omega/x) clears all inverse powers of x
    H = x ** (m * spec.n - 1) * p_omega_x
    poly_ring = RingDescriptor.polynomials(CHART)
    b.expect("H-is-polynomial", poly_ring.contains(H))

    # (iv) route the transition function through b^(-j) -> v^(-j)
    b_exps = f.exponents_in("b")
    b.expect("pole-orders-within-range",
             all(-K <= e <= -1 for e in b_exps), detail=lambda: str(b_exps))
    lhs = x * y * R * v_pow[K]
    for j in range(1, K + 1):
        nj = f.coefficient_in("b", -j)
        if not nj:
            continue
        nj_chart = substitute(nj, {"a": x, "x": omega}, into=CHART)
        lhs = lhs - x * y * nj_chart * v_pow[K - j]
    rhs = G * v_pow[K - 2] - x ** (m * spec.n) * omega_m \
        * p_omega_x * v_pow[K - m]
    b.expect_zero("cleared-glueing-identity", lhs - rhs)

    # the leftover term is exactly divisible by y and fully polynomial
    M = divide_exact(W * v_pow[K - 2] - omega_m * H * v_pow[K - m], y)
    b.expect("remainder-is-polynomial", poly_ring.contains(M))

    b.witness(m=m, K=K, transition=f)
    return b.done()


# ---------------------------------------------------------- frozen instances


def verify_frozen_instances() -> CheckResult:
    """The quadratic family P = z^2 with n = 3, 2, 1 (m = 1, 2, 3): the three
    transition functions match their frozen expansions and minimal clearing
    data.  Check id: ``ex23``."""
    b = CheckBuilder("ex23", P="z^2", n="3,2,1")
    P = parse("z^2", PVAR, QQ)
    expected = {
        3: "x*a^-1*b^-2 - x^2*a^-3*b^-1",
        2: "x*a^-1*b^-2 - x^2*a^-3*b^-1 - x^3*a^-1*b^-2",
        1: "x*a^-1*b^-2 - x^2*a^-3*b^-1 - x^3*a^-2*b^-2 - x^4*a^-1*b^-3",
    }
    for n in (3, 2, 1):
        spec = FibrationSpec(P, n)
        m = minimal_m(spec)
        tf = transition_function(spec, m)
        b.expect("minimal-m-n%d" % n, m == {3: 1, 2: 2, 1: 3}[n],
                 detail=lambda: f"m={m}")
        b.expect_zero("frozen-f-n%d" % n, tf.f - parse(expected[n], PLANE, QQ))
    # minimal clearing data of the n = 3 member
    tf3 = transition_function(FibrationSpec(P, 3))
    b.expect("clearing-exponents", (tf3.m_min, tf3.n_min) == (3, 2),
             detail=lambda: f"({tf3.m_min},{tf3.n_min})")
    b.expect_zero("numerator-polynomial",
                  tf3.p_num - parse("a^2*x - b*x^2", PLANE, QQ))
    b.witness(f_n3=tf3.f, p_num_n3=tf3.p_num)
    return b.done()


def verify_small_m_shapes() -> CheckResult:
    """The m = 1 and m = 2 transition functions collapse to their closed
    forms for sample (P, n) with n > deg(P), resp. 2n > deg(P).
    Check id: ``ex24``."""
    b = CheckBuilder("ex24", family="m=1,2 closed forms")
    samples_m1 = [("z^2", 3), ("z^2", 4), ("z^3 + 2*z", 4)]
    for p_str, n in samples_m1:
        spec = FibrationSpec(parse(p_str, PVAR, QQ), n)
        b.expect_zero(f"m1-closed-form-P={p_str},n={n}",
                      transition_formula(spec, 1) - closed_form_m1(spec))
    samples_m2 = [("z^2", 2), ("z^2", 3), ("z^3 + 2*z", 2)]
    for p_str, n in samples_m2:
        spec = FibrationSpec(parse(p_str, PVAR, QQ), n)
        b.expect_zero(f"m2-closed-form-P={p_str},n={n}",
                      transition_formula(spec, 2) - closed_form_m2(spec))
    return b.done()


# ---------------------------------------------------------------- stability


def stable_variable(spec: FibrationSpec, s_max: int = 12):
    """The least s >= 1 for which conjugating ``y += x^s*t`` by the coordinate
    word can give a polynomial map, read off the conjugate of ``y += t``:
    every generator fixes x and t, so t -> x^s*t in every image but t's gives
    the conjugate at s, x^i*t^j going to x^(i+s*j) with no two terms merging.
    So s = max(1, ceil(-i/j)) over the terms with j > 0; terms no s mends are
    left for :func:`verify_stable_variable`.  Returns ``(s, word, flat)``,
    ``flat`` the fold of ``word``; raises NoPolynomialSInRange if s > s_max."""
    F = spec.field
    x, *_, t = MultiPoly.gens(CHART_EXT, F)
    phi_w = build_phi_word(spec, CHART_EXT)
    conj = flatten(phi_w + (Triangular("y", t),) + invert(phi_w), CHART_EXT, F,
                   base=("x",))
    s = max([1] + [-(c.coefficient_in("t", j).min_degree_in("x") // j)
                   for c in conj.comps.values() for j in c.exponents_in("t") if j > 0])
    if s > s_max:
        raise NoPolynomialSInRange(f"no polynomial conjugate for s = 1..{s_max}")
    shift = {"t": x ** s * t}
    comps = {n: c if n == "t" else substitute(c, shift) for n, c in conj.comps.items()}
    return s, phi_w + (Triangular("y", shift["t"]),) + invert(phi_w), PolyMap(
        CHART_EXT, F, ("x",), comps, substitute(conj.jac, shift))


def verify_stable_variable(spec: FibrationSpec, s_max: int = 12) -> CheckResult:
    """Certify the word at the s :func:`stable_variable` derives, the only
    membership test: five polynomial components, Jacobian 1, v moving by
    x^s*t, the inverse word folding back to the identity.  Check id: ``prop22``."""
    b = CheckBuilder("prop22", P=spec.P, n=spec.n, s_max=s_max)
    F = spec.field
    s, word, flat = stable_variable(spec, s_max)
    ring = RingDescriptor.polynomials(CHART_EXT)
    bad = [(name, c) for name, c in flat.comps.items() if not ring.contains(c)]
    b.expect("components-polynomial", not bad,
             "; ".join(f"{name} = {c}" for name, c in bad))
    b.expect_zero("jacobian-minus-1", flat.jac - 1)
    v = build_v(spec, build_omega(spec, CHART_EXT))
    x, *_, t = MultiPoly.gens(CHART_EXT, F)
    b.expect_zero("v-moves-by-x^s*t",
                  substitute(v, flat.comps) - (v + x ** s * t))
    b.expect("roundtrip-is-identity",
             flatten(invert(word), CHART_EXT, F, base=("x",),
                     start=flat).is_identity())
    b.witness(s=s)
    return b.done()
