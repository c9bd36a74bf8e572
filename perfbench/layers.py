"""Which a2bundle boundaries the traced run wraps, and the per-layer metrics
derived from its spans.

Boundaries are public functions and methods of the library modules, called
from outside the library; nothing inside ``src/`` is changed.
"""

from __future__ import annotations

from tracer import NAME, PARENT, WORK, Tracer, summarize

FIELD_OPS = ("add", "sub", "neg", "mul", "div", "inv")


def _mul_sizes(args, kwargs, out):
    a, b = args
    la = len(a.terms)
    lb = len(b.terms) if hasattr(b, "terms") else 1
    lo = len(out.terms) if hasattr(out, "terms") else 0
    return la * lb, max(la, lb, lo)


def _first_len(args, kwargs, out):
    return len(args[0]), 0


def _out_len(args, kwargs, out):
    return len(out), 0


def _quotient_terms(args, kwargs, out):
    return len(out.terms), 0


def _found(args, kwargs, out):
    return int(out is not None), 0


#: (span name, module, function, measure)
FUNCTIONS = (
    ("poly.substitute", "a2bundle.poly", "substitute", None),
    ("poly.divide_exact", "a2bundle.poly", "divide_exact", _quotient_terms),
    ("exprio.parse", "a2bundle.exprio", "parse", _first_len),
    ("exprio.to_expr", "a2bundle.exprio", "to_expr", _out_len),
    ("maps.flatten", "a2bundle.maps", "flatten", _first_len),
    ("bivariable.certify", "a2bundle.bivariable", "certify", None),
    ("bivariable.extend_a", "a2bundle.bivariable", "extend_a", None),
    ("bivariable.extend_b", "a2bundle.bivariable", "extend_b", None),
    ("bivariable.cert_to_json", "a2bundle.bivariable", "cert_to_json", None),
    ("bivariable.cert_from_json", "a2bundle.bivariable", "cert_from_json",
     None),
    ("bundles.a1_equiv", "a2bundle.bundles", "a1_equiv", None),
    ("bundles.classify", "a2bundle.bundles", "classify", None),
    ("bundles.prop45_check", "a2bundle.bundles", "prop45_check", None),
    ("bundles.prop45_search", "a2bundle.bundles", "prop45_search", _found),
)

#: boundaries that must record calls on every workload of a kind
EXPECTED = {
    "verify": ("fields.add", "fields.mul", "fields.div", "fields.inv",
               "poly.mul", "poly.add", "poly.pow", "poly.substitute",
               "poly.divide_exact", "maps.flatten", "bivariable.certify",
               "exprio.parse", "exprio.to_expr", "bundles.prop45_check",
               "bundles.a1_equiv"),
    "certs": ("fields.add", "fields.mul", "poly.mul", "poly.add",
              "poly.substitute", "poly.divide_exact", "maps.flatten",
              "bivariable.certify", "bivariable.cert_from_json",
              "exprio.parse", "exprio.to_expr", "bundles.classify",
              "bundles.a1_equiv", "bundles.prop45_search",
              "bundles.prop45_check"),
}

CHECK_IDS = ("lemma21", "prop22", "thm12", "ex23", "ex24", "ex35", "ex312",
             "ex43", "lemma44", "ex46", "ex47", "ex48", "lemma52", "lemma61",
             "prop63", "ex66")


def install(tracer: Tracer) -> None:
    """Wrap every boundary; raise if one of them is bound nowhere."""
    import a2bundle.cli  # noqa: F401  (imports every library module)
    from a2bundle.fields import PrimeField, QuotientExtension, Rationals
    from a2bundle.poly import MultiPoly

    for op in FIELD_OPS:
        for cls in (Rationals, PrimeField, QuotientExtension):
            tracer.wrap_method(f"fields.{op}", cls, op, leaf=True)
    tracer.wrap_method("poly.mul", MultiPoly, "__mul__", _mul_sizes)
    tracer.wrap_method("poly.add", MultiPoly, "__add__")
    tracer.wrap_method("poly.pow", MultiPoly, "__pow__")
    for name, module, attr, measure in FUNCTIONS:
        if not tracer.wrap_function(name, module, attr, measure):
            raise RuntimeError(f"{module}.{attr} is bound nowhere")


def _useful_search_ratio(doc) -> float:
    """Payloads found per full ``prop45_check`` run inside a search."""
    names, rows = doc["names"], doc["rows"]
    if "bundles.prop45_search" not in names:
        return 0.0
    search = names.index("bundles.prop45_search")
    check = (names.index("bundles.prop45_check")
             if "bundles.prop45_check" in names else -1)
    found = sum(r[WORK] for r in rows if r[NAME] == search)
    attempts = 0
    for r in rows:
        if r[NAME] != check:
            continue
        p = r[PARENT]
        while p >= 0 and rows[p][NAME] != search:
            p = rows[p][PARENT]
        attempts += p >= 0
    return found / attempts if attempts else 0.0


def layer_metrics(doc) -> tuple[dict, dict]:
    """``(metrics, calls)``: per-layer metrics as ``name -> (value, unit)``
    and the call count of every boundary."""
    s = summarize(doc)
    empty = {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0, "work": 0,
             "size_max": 0}

    def g(name):
        return s.get(name, empty)

    m = {}
    for op in ("add", "mul", "div", "inv"):
        m[f"fields.{op}.calls"] = (g(f"fields.{op}")["calls"], "count")
    m["fields.self_s"] = (sum(g(f"fields.{op}")["self_s"]
                              for op in FIELD_OPS), "s")
    mul = g("poly.mul")
    m["poly.mul.calls"] = (mul["calls"], "count")
    m["poly.mul.pairs"] = (mul["work"], "count")
    m["poly.mul.max_terms"] = (mul["size_max"], "count")
    m["poly.mul.self_s"] = (mul["self_s"], "s")
    m["poly.add.calls"] = (g("poly.add")["calls"], "count")
    m["poly.add.self_s"] = (g("poly.add")["self_s"], "s")
    m["poly.pow.calls"] = (g("poly.pow")["calls"], "count")
    m["poly.substitute.calls"] = (g("poly.substitute")["calls"], "count")
    m["poly.substitute.self_s"] = (g("poly.substitute")["self_s"], "s")
    div = g("poly.divide_exact")
    m["poly.divide_exact.calls"] = (div["calls"], "count")
    m["poly.divide_exact.steps"] = (div["work"], "count")
    m["poly.divide_exact.self_s"] = (div["self_s"], "s")
    m["poly.divide_exact.useful_ratio"] = (
        div["ok"] / div["calls"] if div["calls"] else 0.0, "ratio")
    fl = g("maps.flatten")
    m["maps.flatten.calls"] = (fl["calls"], "count")
    m["maps.flatten.generators"] = (fl["work"], "count")
    m["maps.flatten.self_s"] = (fl["self_s"], "s")
    m["maps.flatten.total_s"] = (fl["total_s"], "s")
    m["bivariable.certify.calls"] = (g("bivariable.certify")["calls"],
                                     "count")
    m["bivariable.certify.total_s"] = (g("bivariable.certify")["total_s"],
                                       "s")
    for fn in ("parse", "to_expr"):
        e = g(f"exprio.{fn}")
        m[f"exprio.{fn}.calls"] = (e["calls"], "count")
        m[f"exprio.{fn}.chars"] = (e["work"], "count")
        m[f"exprio.{fn}.self_s"] = (e["self_s"], "s")
    m["bivariable.cert_from_json.total_s"] = (
        g("bivariable.cert_from_json")["total_s"], "s")
    m["bundles.classify.total_s"] = (g("bundles.classify")["total_s"], "s")
    m["bundles.prop45_check.calls"] = (g("bundles.prop45_check")["calls"],
                                       "count")
    m["bundles.prop45_search.useful_ratio"] = (_useful_search_ratio(doc),
                                               "ratio")
    m["bundles.a1_equiv.calls"] = (g("bundles.a1_equiv")["calls"], "count")
    return m, {name: agg["calls"] for name, agg in s.items()}


def missing_boundaries(kind: str, calls: dict) -> list[str]:
    return [b for b in EXPECTED[kind] if not calls.get(b)]
