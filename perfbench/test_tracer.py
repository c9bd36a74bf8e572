"""Tests of the tracer's self-time arithmetic and of its rebinding.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import Tracer, load, summarize

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_of_synthetic_nested_spans():
    # a(0-10, leaf 0.5) > b(1-3), b(4-8, leaf 0.25) > c(5-6), a(6.5-7.5)
    doc = {
        "names": ["a", "b", "c"],
        "rows": [
            [0, 0, 0.0, 10.0, -1, 0.5, 0, 0, 1],
            [1, 1, 1.0, 3.0, 0, 0.0, 0, 0, 1],
            [2, 1, 4.0, 8.0, 0, 0.25, 3, 7, 0],
            [3, 2, 5.0, 6.0, 2, 0.0, 0, 0, 1],
            [4, 0, 6.5, 7.5, 2, 0.0, 0, 0, 1],
        ],
        "leaf": {"fields.add": [4, 0.75, 0.75]},
    }
    s = summarize(doc)
    assert s["a"]["calls"] == 2
    assert s["a"]["self_s"] == pytest.approx((10 - 2 - 4 - 0.5) + 1)
    assert s["a"]["total_s"] == pytest.approx(10)   # nested a not re-counted
    assert s["b"]["self_s"] == pytest.approx(2 + (4 - 1 - 1 - 0.25))
    assert s["b"]["total_s"] == pytest.approx(6)
    assert (s["b"]["ok"], s["b"]["work"], s["b"]["size_max"]) == (1, 3, 7)
    assert s["c"]["self_s"] == pytest.approx(1)
    # self times and leaf time partition the root span
    total_self = sum(v["self_s"] for v in s.values())
    assert total_self == pytest.approx(10)


@pytest.fixture
def fake_package():
    """``fakepkg.ops`` defines a span function and a field-like class;
    ``fakepkg.cli`` imports the function by name, as the library does."""
    now = [0.0]

    def tick(dt):
        now[0] += dt

    ops = types.ModuleType("fakepkg.ops")

    class Field:
        def add(self, x):
            tick(1.0)
            return x

        def div(self, x):
            tick(0.5)
            return self.add(x)

    def inner(f):
        tick(2.0)
        return f.div(1)

    ops.Field, ops.inner = Field, inner
    cli = types.ModuleType("fakepkg.cli")
    mods = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.ops": ops,
            "fakepkg.cli": cli}
    sys.modules.update(mods)
    exec("from fakepkg.ops import inner\n"
         "def outer(f, tick):\n"
         "    tick(1.0)\n"
         "    inner(f)\n"
         "    tick(1.0)\n"
         "    return 2\n", cli.__dict__)
    try:
        yield ops, cli, tick, (lambda: now[0])
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_wrapped_calls_give_exact_self_times(fake_package, tmp_path):
    ops, cli, tick, clock = fake_package
    tracer = Tracer(clock=clock, package="fakepkg")
    tracer.wrap_method("fields.add", ops.Field, "add", leaf=True)
    tracer.wrap_method("fields.div", ops.Field, "div", leaf=True)
    assert tracer.wrap_function("inner", "fakepkg.ops", "inner") == 2
    assert cli.inner is ops.inner
    assert tracer.wrap_function("outer", "fakepkg.cli", "outer") == 1

    assert cli.outer(ops.Field(), tick) == 2

    path = tmp_path / "spans.json"
    tracer.write(path)
    s = summarize(load(path))
    assert s["outer"]["total_s"] == pytest.approx(5.5)
    assert s["outer"]["self_s"] == pytest.approx(2.0)
    assert s["inner"]["total_s"] == pytest.approx(3.5)
    assert s["inner"]["self_s"] == pytest.approx(2.0)   # leaf time removed
    assert s["fields.div"]["total_s"] == pytest.approx(1.5)
    assert s["fields.div"]["self_s"] == pytest.approx(0.5)  # add nested
    assert s["fields.add"]["calls"] == 1
    assert s["fields.add"]["self_s"] == pytest.approx(1.0)
    doc = json.loads(path.read_text())
    assert [r[4] for r in doc["rows"]] == [-1, 0]   # inner's parent is outer


def test_failed_call_is_marked_and_reraised(fake_package):
    ops, cli, tick, clock = fake_package
    tracer = Tracer(clock=clock, package="fakepkg")
    tracer.wrap_function("inner", "fakepkg.ops", "inner")
    with pytest.raises(AttributeError):
        ops.inner(None)
    assert tracer.rows[0][8] == 0 and tracer.stack == []


def test_library_boundaries_are_rebound_everywhere():
    """Every a2bundle namespace that held a boundary holds its wrapper."""
    code = """
import sys, a2bundle.cli
from tracer import Tracer
from layers import FUNCTIONS, install
originals = {n: getattr(sys.modules[m], a) for n, m, a, _ in FUNCTIONS}
install(Tracer())
from a2bundle.fields import QQ
from a2bundle.poly import MultiPoly
for name, orig in originals.items():
    for mod in [m for k, m in sys.modules.items() if k.startswith("a2bundle")]:
        assert all(v is not orig for v in vars(mod).values()), (name, mod)
assert MultiPoly.__rmul__ is MultiPoly.__mul__
assert MultiPoly.__mul__.__wrapped__ is not None
assert type(QQ).add.__wrapped__ is not None
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "ok", proc.stderr
