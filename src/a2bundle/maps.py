"""Polynomial point maps built from composable elementary generators.

A *map word* is a tuple of generators applied left to right: the first
generator acts first.  Flattening a word folds it into a :class:`PolyMap`
(one image polynomial per moved variable) and carries the exact Jacobian
determinant along the way via the chain rule, so the unit-Jacobian checks
never need the flattened components differentiated from scratch (though
:meth:`PolyMap.jacobian_det` can still do exactly that as a cross-check).
Each generator's ``apply(state)`` moves the running images and returns its
own Jacobian factor, pushed through the images it found, as an exact pair
``(num, den)``: ``1, 1`` for triangular moves and blocks, the sign for a
permutation, and the unit's image for a scale.  By the chain rule the
division by ``den`` is always exact (see :func:`flatten`).
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
  (every term carries exponents >= those of ``A^m``).  Construction checks
  that congruence y-free and truncated mod ``A^m``, never expanding ``g``,
  so none of ``A, Q, f, g`` may invert a variable of ``A``.  The inverse
  block swaps ``f`` and ``g`` and negates ``Q``.
"""

from __future__ import annotations

from .errors import (
    CongruenceFailed,
    InvalidGenerator,
    MembershipError,
    Record,
)
from .poly import MultiPoly, RingDescriptor, VarTable, divide_exact, residual_mod, substitute


# ---------------------------------------------------------------- generators


class Triangular(Record):
    """``var += shift``; the shift must not involve ``var``."""

    __slots__ = ("var", "shift")

    def __init__(self, var: str, shift: MultiPoly):
        super().__init__(var, shift)
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


class Scale(Record):
    """``var *= unit`` for a single-term ``unit`` not involving ``var``."""

    __slots__ = ("var", "unit")

    def __init__(self, var: str, unit: MultiPoly):
        super().__init__(var, unit)
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


class Permute(Record):
    """Simultaneous relabeling: the new ``v`` is the old ``mapping[v]``."""

    __slots__ = ("mapping",)  # tuple of (new, old) name pairs

    def __init__(self, mapping):
        pairs = tuple(sorted(dict(mapping).items()))
        super().__init__(pairs)
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
        state.update({new: state[old] for new, old in self.mapping if new != old})
        return self.sign(), 1

    def __str__(self):
        moved = [f"{new}<-{old}" for new, old in self.mapping if new != old]
        return "relabel(" + ", ".join(moved) + ")"


class Lemma41Block(Record):
    """Torus-glueing block; see the module docstring for the point map.

    ``q``, ``f`` and ``g`` are univariate polynomials written in ``var_x``
    (with coefficients allowed to involve any variable other than ``var_x``
    and ``var_y``); ``scalar`` is the base element ``A``.  None of them may
    invert a variable of ``A`` (:class:`InvalidGenerator`), so mod ``A^m`` the
    ``A^m*y`` drops out: construction decides ``g(x + A*Q(f(x))) == f(x)`` by
    :func:`residual_mod` and raises :class:`CongruenceFailed` with its residual.
    """

    __slots__ = ("var_x", "var_y", "scalar", "m", "q", "f", "g")

    def __init__(self, var_x: str, var_y: str, scalar: MultiPoly, m: int,
                 q: MultiPoly, f: MultiPoly, g: MultiPoly):
        super().__init__(var_x, var_y, scalar, m, q, f, g)
        table = self.scalar.table
        if self.var_x not in table or self.var_y not in table:
            raise InvalidGenerator("block variables missing from the table")
        if self.var_x == self.var_y:
            raise InvalidGenerator("block needs two distinct variables")
        if self.m < 0:
            raise InvalidGenerator("block exponent m must be >= 0")
        if not self.scalar.is_monomial():
            raise InvalidGenerator("block scalar must be a single nonzero term")
        bounds = {n: self.m * e for n, e in zip(table.names, self.scalar.leading_term()[0]) if e}
        for name, p in (("scalar", self.scalar), ("q", self.q),
                        ("f", self.f), ("g", self.g)):
            if p.involves(self.var_y):
                raise InvalidGenerator(f"block {name} involves {self.var_y!r}")
            if any(p and p.min_degree_in(n) < 0 for n in bounds):
                raise InvalidGenerator(f"block {name} inverts a variable of {self.scalar}")
        if self.scalar.involves(self.var_x):
            raise InvalidGenerator(f"block scalar involves {self.var_x!r}")
        moved = (MultiPoly.var(table, self.scalar.field, self.var_x)
                 + self.scalar * substitute(self.q, {self.var_x: self.f}))
        residual = residual_mod(self.f, self.g, self.var_x, moved, bounds)
        if residual:
            raise CongruenceFailed(
                f"block congruence fails: f(x) - g(x_new) is not "
                f"divisible by ({self.scalar})^{self.m}", residual=residual)

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


class PolyMap(Record):
    """A polynomial point map: one image per variable, base variables fixed.

    ``comps`` maps every variable name to its image polynomial (the names in
    the tuple ``base`` map to themselves).  ``jac`` is always the exact
    Jacobian determinant over the moved variables; :func:`flatten` carries it.
    """

    __slots__ = ("table", "field", "base", "comps", "jac")

    @property
    def moved(self):
        return tuple(n for n in self.table.names if n not in self.base)

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
    carrying the exact Jacobian determinant by the chain rule.

    ``start`` is a map already in hand: its images and its ``jac`` seed the
    fold, so ``flatten(w2, ..., start=flatten(w1, ...))`` equals
    ``flatten(w1 + w2, ...)`` without replaying ``w1``.

    Each generator's factor ``num/den`` multiplies ``jac`` by ``num`` and
    then divides by ``den``.  The division is always exact: by the chain
    rule the result is the determinant of the new images, which are Laurent
    polynomials, so it lies in the same integral domain.
    """
    if start is None:
        state = {n: MultiPoly.var(table, field, n) for n in table.names}
        jac = MultiPoly.const(table, field, 1)
    else:
        state, jac = dict(start.comps), start.jac
    base = tuple(base)
    for gen in word:
        moved = _moved_names(gen)
        hit = [n for n in moved if n in base or n not in table]
        if hit:
            raise InvalidGenerator(
                f"generator {gen} moves base or unknown variable(s) {hit}")
        for name in gen.__slots__:
            p = getattr(gen, name)
            if isinstance(p, MultiPoly) and p.table.names != table.names:
                raise InvalidGenerator(
                    f"generator {gen} has {name} over {p.table.names}, not {table.names}")
        num, den = gen.apply(state)
        if num != 1:
            jac = jac * num
        if den != 1:
            jac = divide_exact(jac, den)
    return PolyMap(table, field, base, state, jac)


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
