"""Span tracer that wraps a2bundle's public functions from outside the library.

Every call into a named boundary becomes a span row kept in memory:

    [id, name, start, end, parent, leaf_s, work, size, ok]

``parent`` is the id of the enclosing span (-1 at the root), ``work`` and
``size`` are boundary-specific counts (term pairs of a product, characters
parsed, generators flattened, ...) and ``ok`` is 0 when the call raised.

Field operations run about a million times per ``verify all``, so they are
*leaf* boundaries: instead of one row per call they are aggregated into
``(calls, total_s, self_s)`` per operation, and the time they cover is
added to the ``leaf_s`` column of the span that called them.  A span's self
time is therefore its duration minus its child spans' durations minus its
``leaf_s``, and it can be re-derived from the written file with
:func:`summarize` alone.

The library imports names with ``from .poly import substitute`` and the
like, so a wrapper is rebound in every ``a2bundle.*`` namespace that holds
the original; methods are wrapped on their class (aliases such as
``__radd__ = __add__`` included).
"""

from __future__ import annotations

import functools
import json
import sys
import time

ID, NAME, START, END, PARENT, LEAF_S, WORK, SIZE, OK = range(9)


class Tracer:
    def __init__(self, clock=time.perf_counter, package="a2bundle"):
        self.clock = clock
        self.package = package
        self.names: list[str] = []
        self.rows: list[list] = []
        self.stack: list[list] = []
        self.leaf: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self._leaf_child: list[float] = []

    # ------------------------------------------------------------ wrappers

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, measure=None):
        """Wrap ``fn`` so each call records one span row.

        ``measure(args, kwargs, result)`` returns ``(work, size)`` for a
        call that returned normally.
        """
        idx = self._name_index(name)
        rows, stack, clock = self.rows, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [len(rows), idx, 0.0, 0.0,
                   stack[-1][ID] if stack else -1, 0.0, 0, 0, 1]
            rows.append(row)
            stack.append(row)
            row[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                row[OK] = 0
                raise
            finally:
                row[END] = clock()
                stack.pop()
            if measure is not None:
                row[WORK], row[SIZE] = measure(args, kwargs, out)
            return out

        return wrapper

    def leaf_op(self, name: str, fn):
        """Wrap ``fn`` as an aggregated leaf boundary (no span rows)."""
        stats = self.leaf.setdefault(name, [0, 0.0, 0.0])
        child, stack, clock = self._leaf_child, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child.pop()
                if child:
                    child[-1] += dt
                elif stack:
                    stack[-1][LEAF_S] += dt

        return wrapper

    # ----------------------------------------------------------- rebinding

    def _modules(self):
        pkg = self.package
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == pkg or n.startswith(pkg + "."))]

    def rebind(self, orig, wrapper) -> int:
        """Replace ``orig`` by ``wrapper`` in every package namespace."""
        hits = 0
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    hits += 1
        return hits

    def wrap_function(self, name, module, attr, measure=None) -> int:
        orig = getattr(sys.modules[module], attr)
        return self.rebind(orig, self.span(name, orig, measure))

    def wrap_method(self, name, cls, attr, measure=None, leaf=False) -> int:
        """Wrap ``cls.attr`` and every alias of it on the same class."""
        orig = cls.__dict__[attr]
        wrapper = (self.leaf_op(name, orig) if leaf
                   else self.span(name, orig, measure))
        aliases = [k for k, v in list(cls.__dict__.items()) if v is orig]
        for k in aliases:
            setattr(cls, k, wrapper)
        return len(aliases)

    # -------------------------------------------------------------- output

    def root(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a root span named ``name``."""
        return self.span(name, fn)(*args, **kwargs)

    def to_doc(self) -> dict:
        return {"names": self.names, "rows": self.rows, "leaf": self.leaf}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh, separators=(",", ":"))


# -------------------------------------------------------------- summaries


def summarize(doc: dict) -> dict:
    """Per-boundary totals re-derived from span rows.

    Returns ``name -> {calls, ok, total_s, self_s, work, size_max}``.
    ``total_s`` counts only the outermost span of a name, so recursive
    calls (a negative power calling a positive one) are not counted twice;
    ``self_s`` is summed over every span.  Leaf boundaries come from the
    aggregated table.
    """
    names, rows = doc["names"], doc["rows"]
    child_s = [0.0] * len(rows)
    for r in rows:
        if r[PARENT] >= 0:
            child_s[r[PARENT]] += r[END] - r[START]
    out: dict[str, dict] = {}
    for r in rows:
        name = names[r[NAME]]
        agg = out.setdefault(name, {"calls": 0, "ok": 0, "total_s": 0.0,
                                    "self_s": 0.0, "work": 0,
                                    "size_max": 0})
        dur = r[END] - r[START]
        agg["calls"] += 1
        agg["ok"] += r[OK]
        agg["self_s"] += dur - child_s[r[ID]] - r[LEAF_S]
        agg["work"] += r[WORK]
        agg["size_max"] = max(agg["size_max"], r[SIZE])
        p = r[PARENT]
        while p >= 0 and rows[p][NAME] != r[NAME]:
            p = rows[p][PARENT]
        if p < 0:
            agg["total_s"] += dur
    for name, (calls, total, self_s) in doc["leaf"].items():
        out[name] = {"calls": calls, "ok": calls, "total_s": total,
                     "self_s": self_s, "work": 0, "size_max": 0}
    return out


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
