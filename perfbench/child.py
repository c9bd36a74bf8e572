"""Work that runs in a fresh interpreter, started by ``run.py``.

    python3 perfbench/child.py certs --seed N (--seconds S | --ops K) [--spans FILE]
    python3 perfbench/child.py verify --field F --spans FILE

``certs`` runs the certificate-operation client; ``verify`` runs
``a2bundle verify all`` in process under the tracer.  With ``--spans`` the
library boundaries are traced, the spans are written to FILE once at the
end, and the per-layer metrics are re-derived from that file.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import a2bundle

from certs import MAX_DEPTH, Client, Stream
from layers import install, layer_metrics
from tracer import Tracer, load


def _traced(spans):
    if not spans:
        return None
    tracer = Tracer()
    install(tracer)
    return tracer


def _finish(tracer, spans, out):
    if tracer is not None:
        t0 = time.perf_counter()
        tracer.write(spans)
        out["layers"], out["calls"] = layer_metrics(load(spans))
        out["write_s"] = time.perf_counter() - t0
    out["a2bundle"] = a2bundle.__file__
    print(json.dumps(out))


def run_certs(args) -> None:
    tracer = _traced(args.spans)
    stream = Stream(args.seed)
    client = Client(stream)
    clock, cpu = time.perf_counter, time.process_time
    ops = []   # [kind, wall ms, cpu ms, error or "", start, end]
    busy = 0.0
    t_start = clock()
    while True:
        if args.ops is not None and len(ops) >= args.ops:
            break
        if args.seconds is not None and clock() - t_start >= args.seconds:
            break
        kind, inp = stream.next_op()
        c0, t0 = cpu(), clock()
        try:
            if tracer is None:
                out = client.run(kind, inp)
            else:
                out = tracer.root(f"op.{kind}", client.run, kind, inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            dt, dc = clock() - t0, cpu() - c0
            err = f"{type(exc).__name__}: {exc}"
            if kind == "write":
                stream.depth = MAX_DEPTH
        else:
            dt, dc = clock() - t0, cpu() - c0
            err = client.check(kind, inp, out)
        busy += dt
        ops.append([kind, dt * 1000.0, dc * 1000.0, err, t0, t0 + dt])
    _finish(tracer, args.spans, {"ops": ops, "busy_s": busy})


def run_verify(args) -> None:
    tracer = _traced(args.spans)
    from a2bundle.cli import main

    argv = ["verify", "all", "--field", args.field, "--format", "json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tracer.root("cli.main", main, argv)
    _finish(tracer, args.spans, {"rc": rc, "report": buf.getvalue()})


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="what", required=True)
    p = sub.add_parser("certs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--ops", type=int)
    p.add_argument("--spans")
    p.set_defaults(run=run_certs)
    p = sub.add_parser("verify")
    p.add_argument("--field", required=True)
    p.add_argument("--spans", required=True)
    p.set_defaults(run=run_verify)
    args = ap.parse_args(argv)
    args.run(args)


if __name__ == "__main__":
    sys.exit(main())
