"""Polynomial point maps built from composable elementary generators.

A *map word* is a tuple of generators applied left to right: the first
generator acts first.  Flattening a word folds it into a :class:`PolyMap`
(one image polynomial per moved variable) and accumulates the Jacobian
determinant along the way via the chain rule, so the unit-Jacobian checks
never need the flattened components differentiated from scratch (though
:meth:`PolyMap.jacobian_det` can still do exactly that as a cross-check).
Each generator's ``apply(state)`` moves the running images and returns its
own Jacobian factor, pushed through the images it found, as an exact pair
``(num, den)``: ``1, 1`` for triangular moves and blocks, the sign for a
permutation, and the unit's image for a scale.
:func:`flatten` is the only way maps are composed: passing a map already in
hand as ``start`` continues its fold, so a word's prefix is never replayed.

Generators:

* :class:`Triangular` -- ``var += shift`` where the shift does not involve
  ``var``;
* :class:`Scale` -- ``var *= unit`` for an invertible monomial not involving
  ``var``;
* :class:`Permute` -- simultaneous relabeling of variables;
* :class:`Lemma41Block` -- the torus-glueing block: for a base scalar ``A``
  and univariate ``Q, f, g`` (written in the variable ``var_x``),

      x  ->  x + A*Q(A^m*y + f(x))
      y  ->  (A^m*y + f(x) - g(x_new)) / A^m

  which keeps coefficients free of negative powers of ``A`` exactly when
  ``f(x) - g(x_new)`` is divisible by ``A^m`` in the non-inverted sense
  (every term carries exponents >= those of ``A^m``); that congruence is
  re-checked on construction.  The inverse block swaps ``f`` and ``g`` and
  negates ``Q``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CongruenceFailed,
    InvalidGenerator,
    MembershipError,
    NotDivisible,
)
from .poly import MultiPoly, RingDescriptor, VarTable, divide_exact, substitute

__all__ = [
    "Triangular", "Scale", "Permute", "Lemma41Block",
    "PolyMap", "flatten", "invert", "lemma41_build", "check_membership",
]


# ---------------------------------------------------------------- generators


@dataclass(frozen=True)
class Triangular:
    """``var += shift``; the shift must not involve ``var``."""

    var: str
    shift: MultiPoly

    def __post_init__(self):
        if self.var not in self.shift.table:
            raise InvalidGenerator(f"unknown variable {self.var!r}")
        if self.shift.involves(self.var):
            raise InvalidGenerator(
                f"triangular shift for {self.var!r} involves {self.var!r}")

    def inverse(self) -> "Triangular":
        return Triangular(self.var, -self.shift)

    def apply(self, state: dict):
        state[self.var] = state[self.var] + substitute(self.shift, state)
        return 1, 1

    def __str__(self):
        return f"{self.var} += {self.shift}"


@dataclass(frozen=True)
class Scale:
    """``var *= unit`` for a single-term ``unit`` not involving ``var``."""

    var: str
    unit: MultiPoly

    def __post_init__(self):
        if self.var not in self.unit.table:
            raise InvalidGenerator(f"unknown variable {self.var!r}")
        if not self.unit.is_monomial():
            raise InvalidGenerator("scale unit must be a single term")
        if self.unit.involves(self.var):
            raise InvalidGenerator(
                f"scale unit for {self.var!r} involves {self.var!r}")

    def inverse(self) -> "Scale":
        return Scale(self.var, self.unit ** -1)

    def apply(self, state: dict):
        """Push the unit through ``state`` as an exact fraction ``num/den``.

        Negative unit exponents on variables whose current image is not a
        monomial cannot be substituted directly, so they accumulate in the
        denominator instead; the product with the numerator is then exactly
        divisible by it whenever the word stays inside the Laurent ring.
        """
        table, field = self.unit.table, self.unit.field
        exps, coeff = self.unit.leading_term()
        num = MultiPoly.const(table, field, coeff)
        den = MultiPoly.const(table, field, 1)
        for name, e in zip(table.names, exps):
            if not e:
                continue
            img = state[name]
            if e > 0 or img.is_monomial():
                num = num * img ** e
            else:
                den = den * img ** (-e)
        cur = state[self.var] * num
        if den != 1:
            cur = divide_exact(cur, den)
        state[self.var] = cur
        return num, den

    def __str__(self):
        return f"{self.var} *= {self.unit}"


@dataclass(frozen=True)
class Permute:
    """Simultaneous relabeling: the new ``v`` is the old ``mapping[v]``."""

    mapping: tuple  # tuple of (new, old) name pairs

    def __init__(self, mapping):
        pairs = tuple(sorted(dict(mapping).items()))
        object.__setattr__(self, "mapping", pairs)
        dom = [p[0] for p in pairs]
        rng = [p[1] for p in pairs]
        if sorted(dom) != sorted(rng):
            raise InvalidGenerator("permutation domain and range differ")
        if len(set(rng)) != len(rng):
            raise InvalidGenerator("permutation is not a bijection")

    def inverse(self) -> "Permute":
        return Permute({old: new for new, old in self.mapping})

    def sign(self) -> int:
        # parity of the inversions among the old names in new-name order
        olds = [old for _, old in self.mapping]
        inversions = sum(a > b for i, a in enumerate(olds) for b in olds[i + 1:])
        return -1 if inversions % 2 else 1

    def apply(self, state: dict):
        state.update({new: state[old] for new, old in self.mapping})
        return self.sign(), 1

    def __str__(self):
        moved = [f"{new}<-{old}" for new, old in self.mapping if new != old]
        return "relabel(" + ", ".join(moved) + ")"


@dataclass(frozen=True)
class Lemma41Block:
    """Torus-glueing block; see the module docstring for the point map.

    ``q``, ``f`` and ``g`` are univariate polynomials written in ``var_x``
    (with coefficients allowed to involve any variable other than ``var_x``
    and ``var_y``); ``scalar`` is the base element ``A``.
    """

    var_x: str
    var_y: str
    scalar: MultiPoly
    m: int
    q: MultiPoly
    f: MultiPoly
    g: MultiPoly

    def __post_init__(self):
        table = self.scalar.table
        if self.var_x not in table or self.var_y not in table:
            raise InvalidGenerator("block variables missing from the table")
        if self.var_x == self.var_y:
            raise InvalidGenerator("block needs two distinct variables")
        if self.m < 0:
            raise InvalidGenerator("block exponent m must be >= 0")
        if not self.scalar.is_monomial():
            raise InvalidGenerator("block scalar must be a single nonzero term")
        for name, p in (("scalar", self.scalar), ("q", self.q),
                        ("f", self.f), ("g", self.g)):
            if p.involves(self.var_y):
                raise InvalidGenerator(f"block {name} involves {self.var_y!r}")
        if self.scalar.involves(self.var_x):
            raise InvalidGenerator(f"block scalar involves {self.var_x!r}")
        self._check_congruence()

    def _check_congruence(self):
        """f(x) == g(x + A*Q(A^m*y + f(x))) mod A^m, re-checked on build.

        "mod A^m" is meant without inverting A: every term of the difference
        must dominate the exponent vector of A^m componentwise.
        """
        table, field = self.scalar.table, self.scalar.field
        x = MultiPoly.var(table, field, self.var_x)
        y = MultiPoly.var(table, field, self.var_y)
        t = self.scalar ** self.m * y + self.f
        v = x + self.scalar * substitute(self.q, {self.var_x: t})
        quot = (t - substitute(self.g, {self.var_x: v})) * self.scalar ** -self.m
        for name in table.names:
            if self.scalar.involves(name) and (quot.min_degree_in(name) or 0) < 0:
                raise CongruenceFailed(
                    f"block congruence fails: f(x) - g(x_new) is not "
                    f"divisible by ({self.scalar})^{self.m}")

    def inverse(self) -> "Lemma41Block":
        return Lemma41Block(self.var_x, self.var_y, self.scalar, self.m,
                            -self.q, self.g, self.f)

    def apply(self, state: dict):
        a_img = substitute(self.scalar, state)
        am = a_img ** self.m
        t = am * state[self.var_y] + substitute(self.f, state)
        newx = state[self.var_x] + a_img * substitute(
            self.q, {**state, self.var_x: t})
        newy = divide_exact(
            t - substitute(self.g, {**state, self.var_x: newx}), am)
        state[self.var_x] = newx
        state[self.var_y] = newy
        # the 2x2 determinant collapses to 1 after the exact division; the
        # flatten() tests cross-check this against the full matrix
        return 1, 1

    def __str__(self):
        return (f"block[{self.scalar}^{self.m}]({self.var_x},{self.var_y}; "
                f"Q={self.q})")


# ----------------------------------------------------------- flattened maps


class PolyMap:
    """A polynomial point map: one image per variable, base variables fixed.

    ``comps`` maps every variable name to its image polynomial (base
    variables map to themselves).  ``jac`` is the Jacobian determinant over
    the moved variables, as accumulated by :func:`flatten`.
    """

    __slots__ = ("table", "field", "base", "comps", "jac")

    def __init__(self, table: VarTable, field, base, comps, jac):
        self.table = table
        self.field = field
        self.base = tuple(base)
        self.comps = comps
        self.jac = jac

    @property
    def moved(self):
        return tuple(n for n in self.table.names if n not in self.base)

    def __eq__(self, other):
        return (isinstance(other, PolyMap)
                and self.table.names == other.table.names
                and self.field == other.field
                and self.comps == other.comps)

    __hash__ = None

    def is_identity(self) -> bool:
        return all(c == MultiPoly.var(self.table, self.field, n)
                   for n, c in self.comps.items())

    def jacobian_det(self) -> MultiPoly:
        """Determinant of the full partial-derivative matrix over the moved
        variables, computed directly (not from the flattening chain)."""
        vs = self.moved
        rows = [[self.comps[v].partial_derivative(w) for w in vs] for v in vs]
        return _det(rows, self.table, self.field)

    def __str__(self):
        bits = [f"{n} -> {self.comps[n]}" for n in self.moved]
        return "(" + "; ".join(bits) + ")"


def _det(rows, table, field):
    n = len(rows)
    if n == 0:
        return MultiPoly.const(table, field, 1)
    if n == 1:
        return rows[0][0]
    total = MultiPoly.zero(table, field)
    for j, top in enumerate(rows[0]):
        if not top:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = top * _det(minor, table, field)
        total = total - term if j % 2 else total + term
    return total


def flatten(word, table: VarTable, field, base=(), start=None) -> PolyMap:
    """Fold a word of generators (first acts first) into a single PolyMap,
    accumulating the Jacobian determinant by the chain rule.

    ``start`` is a map already in hand: its images and its ``jac`` seed the
    fold, so ``flatten(w2, ..., start=flatten(w1, ...))`` equals
    ``flatten(w1 + w2, ...)`` without replaying ``w1``.

    The running determinant is carried as an exact numerator/denominator
    pair (scaling by an inverted variable whose image is a sum contributes
    to the denominator) and reduced whenever the division is exact.  If the
    final denominator does not divide out -- which cannot happen for a word
    that defines a Laurent-ring automorphism -- ``jac`` is computed from the
    partial-derivative matrix instead (:meth:`PolyMap.jacobian_det`).
    """
    one = MultiPoly.const(table, field, 1)
    if start is None:
        state = {n: MultiPoly.var(table, field, n) for n in table.names}
        jac_num = one
    else:
        state, jac_num = dict(start.comps), start.jac
    jac_den = one
    base = tuple(base)
    for gen in word:
        moved = _moved_names(gen)
        hit = [n for n in moved if n in base]
        if hit:
            raise InvalidGenerator(
                f"generator {gen} moves base variable(s) {hit}")
        n_g, d_g = gen.apply(state)
        if n_g != 1:
            jac_num = jac_num * n_g
        if d_g != 1:
            jac_den = jac_den * d_g
        if jac_den != one:
            try:
                jac_num, jac_den = divide_exact(jac_num, jac_den), one
            except NotDivisible:
                pass
    pm = PolyMap(table, field, base, state, jac_num)
    # a denominator left here already failed its division in the loop
    if jac_den != one:
        pm.jac = pm.jacobian_det()
    return pm


def _moved_names(gen):
    if isinstance(gen, (Triangular, Scale)):
        return (gen.var,)
    if isinstance(gen, Permute):
        return tuple(new for new, old in gen.mapping if new != old)
    if isinstance(gen, Lemma41Block):
        return (gen.var_x, gen.var_y)
    raise InvalidGenerator(f"unknown generator kind {type(gen).__name__}")


def invert(word):
    """The inverse word: reversed order, each generator inverted."""
    return tuple(gen.inverse() for gen in reversed(word))


# --------------------------------------------------- congruence-pair builder


def lemma41_build(table: VarTable, field, var_x: str, var_y: str,
                  a_elt: MultiPoly, m: int, q: MultiPoly, f: MultiPoly):
    """Build the one-block word for the glueing data ``(A, m, Q, f)``.

    The partner polynomial is grown by the fixed-point iteration

        g_1 = f,    g_i(x) = f(x - A*Q(g_{i-1}(x)))    (i = 2..m),

    after which ``f(x) == g_m(x + A*Q(A^m*y + f(x))) mod A^m`` holds; the
    block constructor re-checks that congruence and raises
    :class:`CongruenceFailed` if the iteration did not deliver it.

    Returns the one-generator word; :func:`invert` gives its inverse.
    """
    x = MultiPoly.var(table, field, var_x)
    g = f
    for _ in range(1, m):
        arg = x - a_elt * substitute(q, {var_x: g})
        g = substitute(f, {var_x: arg})
    return (Lemma41Block(var_x, var_y, a_elt, m, q, f, g),)


# ------------------------------------------------------------- memberships


def check_membership(pm: PolyMap, ring: RingDescriptor) -> None:
    """Assert every moved component lies in ``ring``; raise
    :class:`MembershipError` naming the component and one offending term."""
    for name in pm.moved:
        comp = pm.comps[name]
        if not ring.contains(comp):
            exps, coeff = ring.violations(comp)[0]
            raise MembershipError(
                f"component {name!r} leaves the ring at exponents {exps}",
                component=name, term=(exps, coeff))
