"""The ``certs`` workload: a seeded stream of certificate operations over Q.

One client runs a closed loop: it generates the next operation's input,
times the library call, checks the output, and only then moves on.  Four
kinds of operation:

* ``write``    -- graft an ``extend_a``/``extend_b`` move onto the current
  certificate and serialise it with ``cert_to_json``.  Chains restart from
  a freshly built ``with_constant(1, 1, c)`` base after ``MAX_DEPTH`` moves,
  so operation sizes do not drift with run length;
* ``read``     -- reload the oldest unread document with ``cert_from_json``
  (a full re-certification) and print its element and glueing function;
  they must equal the strings that were written;
* ``classify`` -- ``a1_equiv`` of a glueing function against a seeded
  chart-equivalent presentation of it, then ``classify`` of the function;
  the generator knows the expected scale, split and verdict;
* ``search``   -- ``prop45_search`` over a seeded pool and degree bound for
  a pair ``(f_b, g_b)`` built so that a payload from the pool exists.

The stream runs in blocks of four, one operation of each kind in a seeded
order with the write before the read, so every kind has the same share in
every run and each read consumes the document written in its own block.
Inputs reach the library as expression strings, so parsing is part of every
operation.  No input repeats, so a cross-call cache has nothing to reuse
beyond what users really share.

Expected results come from the small dictionary arithmetic below, never
from the library: the generator tracks the element, the glueing function
and both chart coordinates of each chain (see ``Chain``), builds each
classify input from a known scale and chart split, and builds each search
pair around a known payload.
"""

from __future__ import annotations

import json
import random
from collections import deque
from fractions import Fraction as Fr

from a2bundle import bivariable as bv
from a2bundle import bundles as bd
from a2bundle import exprio as ex
from a2bundle import fibration as fb
from a2bundle.fields import QQ

MAX_DEPTH = 3
KINDS = ("write", "read", "classify", "search")
COEFFS = (Fr(1), Fr(-1), Fr(2), Fr(-2), Fr(1, 2), Fr(-1, 2), Fr(1, 3),
          Fr(-2, 3))

# ------------------------------------------------------------------------
# Laurent polynomials over Q as {exponent tuple: Fraction}: variables
# (a, b, x) for glueing functions and payloads, (a, b, x, y) for elements


def padd(*ps):
    out = {}
    for p in ps:
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pscale(p, c):
    return {e: c * v for e, v in p.items()} if c else {}


def pshift(p, d):
    """``p`` times the monomial with exponents ``d``."""
    return {tuple(i + j for i, j in zip(e, d)): c for e, c in p.items()}


def pmul(p, q, m=None):
    """Product, dropping terms whose ``a`` exponent is ``m`` or more."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            if m is None or e[0] < m:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ptrunc(p, m):
    return p if m is None else {e: c for e, c in p.items() if e[0] < m}


def pcompose(p, r, m=None):
    """``p`` with ``x`` (the third variable) replaced by ``r``, mod ``a^m``
    when ``m`` is given; ``p`` must then not invert ``a``."""
    by_deg = {}
    for e, c in p.items():
        by_deg.setdefault(e[2], {})[e[:2] + (0,) + e[3:]] = c
    acc = {}
    for k in range(max(by_deg, default=0), -1, -1):
        acc = padd(pmul(acc, r, m), ptrunc(by_deg.get(k, {}), m))
    return acc


def pstr(p):
    """An expression the library's parser reads (variables ``a, b, x``)."""
    if not p:
        return "0"
    bits = []
    for (ea, eb, ex), c in sorted(p.items()):
        factors = [f"({c})"]
        factors += [f"{v}^{k}" for v, k in (("a", ea), ("b", eb), ("x", ex))
                    if k]
        bits.append("*".join(factors))
    return " + ".join(bits)


def pread(text, names):
    """Read the library's printed form over Q (terms joined by `` + `` and
    `` - ``, factors by ``*``, powers as ``v^k``) into a dictionary."""
    out = {}
    if text == "0":
        return out
    signed = ("- " + text[1:]) if text.startswith("-") else ("+ " + text)
    words = signed.split(" ")
    for sign, term in zip(words[::2], words[1::2]):
        coeff = Fr(1) if sign == "+" else Fr(-1)
        exps = [0] * len(names)
        for factor in term.split("*"):
            var, _, power = factor.partition("^")
            if var in names:
                exps[names.index(var)] += int(power or 1)
            else:
                coeff *= Fr(factor)
        out = padd(out, {tuple(exps): coeff})
    return out


X = {(0, 0, 1): Fr(1)}
A = {(1, 0, 0): Fr(1)}
GLUE_VARS = ("a", "b", "x", "y")
PLANE_VARS = ("a", "b", "x")


class Chain:
    """The certificate that ``with_constant(1, 1, c)`` and a run of
    ``extend_a``/``extend_b`` moves with ``m = n = 1`` must produce.

    The base has element ``a*x + b*y + c`` and chart coordinates
    ``tau_a = y/a``, ``tau_b = -x/b``, so its glueing function is
    ``f = (x - c)/(a*b)``.  With ``m = 1`` the torus-glueing block's
    partner is ``g_1 = f`` (Lemma 4.1), so the moves keep ``f``.  An
    ``a``-move adds ``a*Q(a*tau_a)`` to the element and keeps ``tau_a``; a
    ``b``-move adds ``b*Q(b*tau_b)`` and keeps ``tau_b``.  The other chart
    coordinate follows from ``tau_a == tau_b + f(omega)``.
    """

    def __init__(self, c):
        self.c = {(ea, eb, 0, 0): v for (ea, eb, _), v in c.items()}
        self.omega = padd({(1, 0, 1, 0): Fr(1), (0, 1, 0, 1): Fr(1)}, self.c)
        self.tau_a = {(-1, 0, 0, 1): Fr(1)}
        self.tau_b = {(0, -1, 1, 0): Fr(-1)}
        self.f = pshift(padd(X, pscale(c, -1)), (-1, -1, 0))

    def extend(self, side, q):
        q = {e + (0,): v for e, v in q.items()}
        d = (1, 0, 0, 0) if side == "a" else (0, 1, 0, 0)
        tau = self.tau_a if side == "a" else self.tau_b
        self.omega = padd(self.omega, pshift(pcompose(q, pshift(tau, d)), d))
        # f(omega) == (omega - c)/(a*b), as f is linear in x
        f_omega = pshift(padd(self.omega, pscale(self.c, -1)), (-1, -1, 0, 0))
        if side == "a":
            self.tau_b = padd(self.tau_a, pscale(f_omega, -1))
        else:
            self.tau_a = padd(self.tau_b, f_omega)


# ------------------------------------------------------------------------
# input generation


class Stream:
    """Seeded operation stream; the same seed yields the same inputs."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.unread = deque()     # documents written and not yet read
        self.depth = MAX_DEPTH    # forces a fresh base on the first write
        self.chain = None
        self.schedule = []
        self.decks = {}

    def coeff(self):
        return self.rng.choice(COEFFS)

    def deal(self, options: tuple):
        """The next of ``options`` from a deck shuffled afresh each time it
        runs out, so every run draws them in the same proportions."""
        deck = self.decks.get(options)
        if not deck:
            deck = self.decks[options] = list(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def next_op(self):
        if not self.schedule:
            block = list(KINDS)
            self.rng.shuffle(block)
            w, r = block.index("write"), block.index("read")
            if r < w:
                block[w], block[r] = "read", "write"
            self.schedule = block[::-1]
        kind = self.schedule.pop()
        if kind == "read" and not self.unread:   # only after a failed write
            kind = "write"
        return kind, getattr(self, "_gen_" + kind)()

    def _gen_write(self):
        rng = self.rng
        base = None
        if self.depth >= MAX_DEPTH:
            self.depth = 0
            c = {(rng.randint(0, 1), rng.randint(0, 1), 0): self.coeff()
                 for _ in range(rng.randint(1, 2))}
            base = pstr(c)
            self.chain = Chain(c)
        self.depth += 1
        payload = {(rng.choice((0, 0, 1)), rng.choice((0, 0, 1)), k):
                   self.coeff() for k in range(rng.randint(1, 3))}
        side = rng.choice("ab")
        self.chain.extend(side, payload)
        return {"base": base, "side": side, "Q": pstr(payload),
                "omega": self.chain.omega, "f": self.chain.f}

    def _gen_read(self):
        return {"doc": self.unread.popleft()}

    def _gen_classify(self):
        rng = self.rng
        kind = self.deal(("a-free", "b-free", "deg1", "deg1", "degk",
                          "unknown"))
        if kind == "a-free":
            m, n = 0, rng.randint(1, 3)
        elif kind == "b-free":
            m, n = rng.randint(1, 3), 0
        elif kind == "unknown":
            m, n = rng.randint(2, 3), rng.randint(2, 3)
        else:
            m, n = rng.choice(((1, rng.randint(1, 3)), (rng.randint(1, 3), 1)))
        d = 1 if kind == "deg1" else rng.randint(2, 3)
        p = {(0, 0, d): self.coeff()}
        for k in range(d):
            if rng.random() < 0.5:
                p[(0, 0, k)] = self.coeff()
        for _ in range(rng.randint(1, 2)):
            ea, eb = rng.choice(((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)))
            p[(ea, eb, rng.randint(0, 1))] = self.coeff()
        f = {(ea - m, eb - n, ex): c for (ea, eb, ex), c in p.items()}
        lam = self.coeff()
        r_a = {(rng.randint(-2, 2), rng.randint(0, 1), rng.randint(0, 2)):
               self.coeff() for _ in range(rng.randint(0, 2))}
        r_b = {(rng.randint(0, 2), rng.randint(-2, -1), rng.randint(0, 2)):
               self.coeff() for _ in range(rng.randint(0, 2))}
        g = padd(pscale(f, lam), r_a, r_b)
        if kind in ("a-free", "b-free", "deg1"):
            verdict = "Trivial"
        elif kind == "degk":
            verdict = f"Nontrivial: deg P(0,0,x) = {d}"
        else:
            verdict = "Unknown"
        doubly_negative = any(ea < 0 and eb < 0 for ea, eb, _ in f)
        return {"f": pstr(f), "g": pstr(g), "f_poly": f, "g_poly": g,
                "lam": lam if doubly_negative else Fr(1),
                "verdict": verdict}

    def _gen_search(self):
        rng = self.rng
        m, deg = self.deal(((2, 1), (2, 2), (3, 1)))
        pool = rng.sample(COEFFS + (Fr(0),), 4 if deg == 1 else 3)
        q = {(0, 0, i): c for i in range(deg + 1)
             if (c := rng.choice(pool))}
        f_b = {(0, rng.randint(-2, 0), 1): self.coeff()}
        for _ in range(rng.randint(1, 2)):
            f_b[(rng.randint(0, 2), rng.randint(-2, 0), 1)] = self.coeff()
        # psi inverts x -> x + a*Q(f_b(x)) modulo a^m, so g_b = f_b(psi)
        # satisfies g_b(x + a*Q(f_b(x))) == f_b(x) mod a^m
        psi = X
        for _ in range(m):
            psi = padd(X, pscale(pmul(A, pcompose(q, pcompose(f_b, psi, m),
                                                  m), m), -1))
        g_b = pcompose(f_b, psi, m)
        if rng.random() < 0.5:
            g_b = padd(g_b, {(m, rng.randint(-1, 0), rng.randint(1, 2)):
                             self.coeff()})
        return {"f_b": pstr(f_b), "g_b": pstr(g_b), "m": m, "deg": deg,
                "pool": pool, "f_poly": f_b, "g_poly": g_b}


def congruence_holds(f_b, g_b, q, m) -> bool:
    """``g_b(x + a*Q(f_b(x))) == f_b(x) mod a^m``, by dictionary arithmetic."""
    moved = padd(X, pmul(A, pcompose(q, f_b, m), m))
    return not ptrunc(padd(pcompose(g_b, moved, m), pscale(f_b, -1)), m)


# ------------------------------------------------------------------------
# operations: ``run`` calls the library (timed), ``check`` validates


class Client:
    def __init__(self, stream: Stream):
        self.stream = stream
        self.cert = None

    def run(self, kind, inp):
        return getattr(self, "_run_" + kind)(inp)

    def check(self, kind, inp, out) -> str:
        """Empty string when the output is right, else what is wrong."""
        return getattr(self, "_check_" + kind)(inp, out)

    # write: extend the current certificate, serialise it
    def _run_write(self, inp):
        if inp["base"] is not None:
            self.cert = bv.with_constant(
                1, 1, ex.parse(inp["base"], fb.PLANE, QQ))
        move = bv.extend_a if inp["side"] == "a" else bv.extend_b
        self.cert = move(self.cert, 1, 1, ex.parse(inp["Q"], bv.GLUE, QQ))
        return bv.cert_to_json(self.cert)

    def _check_write(self, inp, out):
        doc = json.loads(out)
        if doc.get("field") != "q":
            return f"written field {doc.get('field')!r}, expected 'q'"
        if pread(doc["omega"], GLUE_VARS) != inp["omega"]:
            return f"written element {doc['omega']} is not the expected one"
        if pread(doc["f"], PLANE_VARS) != inp["f"]:
            return f"written glueing function {doc['f']} is not the expected one"
        self.stream.unread.append(out)
        return ""

    # read: full re-certification of an earlier document
    def _run_read(self, inp):
        cert = bv.cert_from_json(inp["doc"])
        return ex.to_expr(cert.omega), ex.to_expr(cert.f.f)

    def _check_read(self, inp, out):
        doc = json.loads(inp["doc"])
        if out != (doc["omega"], doc["f"]):
            return f"reload gave {out}, wrote {(doc['omega'], doc['f'])}"
        return ""

    # classify: chart equivalence plus triviality verdict
    def _run_classify(self, inp):
        tf = fb.TransitionFunction.from_poly(ex.parse(inp["f"], fb.PLANE, QQ))
        tg = fb.TransitionFunction.from_poly(ex.parse(inp["g"], fb.PLANE, QQ))
        return bd.a1_equiv(tf, tg), str(bd.classify(tf))

    def _check_classify(self, inp, out):
        eq, verdict = out
        if verdict != inp["verdict"]:
            return f"verdict {verdict!r}, expected {inp['verdict']!r}"
        if eq is None:
            return "a1_equiv found no equivalence"
        lam, r_a, r_b = eq
        if lam.value != inp["lam"]:
            return f"scale {lam.value}, expected {inp['lam']}"
        if any(eb < 0 for _, eb, _ in r_a.terms) or any(
                eb >= 0 or ea < 0 for ea, eb, _ in r_b.terms):
            return "chart shifts are not regular on their charts"
        if padd(pscale(inp["f_poly"], lam.value), r_a.terms,
                r_b.terms) != inp["g_poly"]:
            return "g != scale*f + r_a + r_b"
        return ""

    # search: staged payload search
    def _run_search(self, inp):
        f_b = ex.parse(inp["f_b"], fb.PLANE, QQ)
        g_b = ex.parse(inp["g_b"], fb.PLANE, QQ)
        return bd.prop45_search(f_b, g_b, inp["m"], inp["deg"], inp["pool"])

    def _check_search(self, inp, out):
        if out is None:
            return "no payload found although one is in the pool"
        if not congruence_holds(inp["f_poly"], inp["g_poly"], out.terms,
                                inp["m"]):
            return f"payload {out} does not satisfy the congruence"
        return ""
