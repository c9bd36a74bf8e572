"""Command-line front end.

Every construction and verification is a subcommand; polynomial arguments
use the expression grammar of :mod:`.exprio`.  Checks are emitted as a
verification report (text or JSON) and the exit code is 0 only when every
check in the report passed; failed verifications exit 1 with the report
still written, usage and input errors exit 2.
"""

from __future__ import annotations

import argparse
import sys

from .bivariable import (
    cert_from_json,
    cert_to_json,
    extend_a,
    extend_b,
    verify_basic_family,
    verify_constant_shift,
    verify_mixed_denominator,
    verify_p_shift,
    verify_quadratic_descent,
)
from .bundles import (
    GLUE,
    MAX_CANDIDATES,
    a1_equiv,
    classify,
    prop45_check,
    prop45_search,
    verify_congruence_move,
    verify_geometric_ladder,
    verify_hypersurface_samples,
    verify_intersection_samples,
)
from .errors import AlgebraError
from .exprio import field_from_descriptor, parse, to_expr
from .fibration import (
    PLANE,
    PVAR,
    FibrationSpec,
    TransitionFunction,
    transition_function,
    verify_bundle_identity,
    verify_coordinate_facts,
    verify_frozen_instances,
    verify_small_m_shapes,
    verify_stable_variable,
)
from .report import CheckBuilder, VerificationReport

#: the stock (P, n) grid used by the default lemma21/thm12 suites
NINE_PAIRS = tuple((p, n)
                   for p in ("z^2", "z^2 + z", "z^3 + 2*z")
                   for n in (1, 2, 3))
#: default (n, m) rungs for the one-denominator ladder
LADDER_RUNGS = ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3))
#: the largest --n, --m and --smax of any command, and prop22's stock bound on
#: s; at it the slowest stock command (lemma52, P = z^2) takes 0.45 s
MAX_FLAG = 12

def _zpoly(text, field):
    return parse(text, PVAR, field)


def _or(value, default):
    """A flag's value if it was given (even as 0 or ''), else the default."""
    return default if value is None else value


def _pairs(args):
    """The (P, n) pairs of lemma21/thm12: the one given, else the grid."""
    if args.P is not None or args.n is not None:
        return [(_or(args.P, "z^2"), _or(args.n, 1))]
    return NINE_PAIRS


#: each verify id, in canonical order: the optional flags it understands and
#: its runner ``(args, field) -> list of results``
VERIFY = {
    "lemma21": (("P", "n"), lambda args, F: [
        verify_coordinate_facts(FibrationSpec(_zpoly(p, F), n))
        for p, n in _pairs(args)]),
    "prop22": (("P", "n", "smax"), lambda args, F: [verify_stable_variable(
        FibrationSpec(_zpoly(_or(args.P, "z^2"), F), _or(args.n, 1)),
        s_max=_or(args.smax, MAX_FLAG))]),
    "thm12": (("P", "n", "m"), lambda args, F: [
        verify_bundle_identity(FibrationSpec(_zpoly(p, F), n), m=args.m)
        for p, n in _pairs(args)]),
    "ex23": ((), lambda args, F: [verify_frozen_instances()]),
    "ex24": ((), lambda args, F: [verify_small_m_shapes()]),
    "ex35": ((), lambda args, F: [verify_basic_family(field=F)]),
    "ex312": ((), lambda args, F: [verify_constant_shift(field=F)]),
    "ex43": ((), lambda args, F: [verify_p_shift(field=F)]),
    "lemma44": (("P",), lambda args, F: [
        verify_quadratic_descent(_or(args.P, "z^2"), field=F)]),
    "ex46": ((), lambda args, F: [verify_congruence_move("ex46", F)]),
    # needs a square root of 1/5: finite fields pass through, anything
    # else falls back to the stock quadratic extension
    "ex47": ((), lambda args, F: [verify_congruence_move(
        "ex47", F if F.characteristic else None)]),
    "ex48": ((), lambda args, F: [verify_congruence_move("ex48", F)]),
    "lemma52": (("P", "n", "m"), lambda args, F: verify_geometric_ladder(
        _or(args.P, "z^2"),
        LADDER_RUNGS if args.n is None and args.m is None
        else [(_or(args.n, 1), _or(args.m, 1))],
        F)),
    "lemma61": ((), lambda args, F: verify_hypersurface_samples(field=F)),
    "prop63": ((), lambda args, F: verify_intersection_samples(field=F)),
    "ex66": ((), lambda args, F: [verify_mixed_denominator(field=F)]),
}
VERIFY_IDS = tuple(VERIFY)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _finish(checks, field, args, text_override: str | None = None) -> int:
    report = VerificationReport(field.descriptor(), checks)
    if args.fmt == "json":
        _emit(report.to_json(), args.out)
    elif text_override is not None:
        _emit(text_override, args.out)
    else:
        _emit(report.to_text(), args.out)
    return 0 if report.ok else 1


def _cmd_transition(args, field) -> int:
    spec = FibrationSpec(_zpoly(args.P, field), args.n)
    tf = transition_function(spec, m=args.m)
    b = CheckBuilder("transition", P=args.P, n=args.n,
                     m=args.m if args.m is not None else "minimal")
    b.witness(f=to_expr(tf.f), m_min=tf.m_min, n_min=tf.n_min)
    return _finish([b.done()], field, args, text_override=to_expr(tf.f))


def _cmd_verify(args, field) -> int:
    given = {flag for flag in ("P", "n", "m", "smax")
             if getattr(args, flag) is not None}
    if args.id != "all":
        stray = given.difference(VERIFY[args.id][0])
        if stray:
            raise AlgebraError(
                f"check {args.id!r} does not take --{sorted(stray)[0]}")
        return _finish(VERIFY[args.id][1](args, field), field, args)
    if given:
        raise AlgebraError("verify all takes no per-id parameters")
    checks = []
    for check_id, (_, run) in VERIFY.items():
        # one id that raises becomes one "error" entry; the run goes on
        b = CheckBuilder(check_id, field=field.descriptor())
        try:
            checks.extend(run(args, field))
        except AlgebraError as exc:
            b.expect("exception", False, f"{type(exc).__name__}: {exc}")
            checks.append(b.done("error"))
    return _finish(checks, field, args)


def _cmd_a1equiv(args, field) -> int:
    f = TransitionFunction.from_poly(parse(args.f, PLANE, field))
    g = TransitionFunction.from_poly(parse(args.g, PLANE, field))
    b = CheckBuilder("a1equiv", f=args.f, g=args.g)
    eq = a1_equiv(f, g)
    b.expect("chart-equivalent", eq is not None,
             detail="doubly-negative parts are not proportional")
    if eq is not None:
        lam, r_a, r_b = eq
        b.witness(scale=lam, a_chart_shift=to_expr(r_a),
                  b_chart_shift=to_expr(r_b))
        text = (f"equivalent: scale = {lam}, a-chart shift = {to_expr(r_a)}, "
                f"b-chart shift = {to_expr(r_b)}")
    else:
        text = "not equivalent: doubly-negative parts are not proportional"
    return _finish([b.done()], field, args, text_override=text)


def _cmd_prop45(args, field) -> int:
    res = prop45_check(parse(args.fb, PLANE, field),
                       parse(args.gb, PLANE, field),
                       args.m, parse(args.Q, PLANE, field))
    return _finish([res], field, args)


def _parse_pool(text: str, field):
    vals = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        c = parse(chunk, PVAR, field)
        if c.involves("z"):
            raise AlgebraError(f"--pool entry {chunk!r} is not a constant")
        vals.append(c.constant_value())
    if not vals:
        raise AlgebraError("--pool must list at least one coefficient")
    return vals


def _cmd_search45(args, field) -> int:
    found = prop45_search(parse(args.fb, PLANE, field),
                          parse(args.gb, PLANE, field),
                          args.m, args.deg, _parse_pool(args.pool, field))
    b = CheckBuilder("search45", fb=args.fb, gb=args.gb, m=args.m,
                     deg=args.deg, pool=args.pool)
    b.expect("payload-found", found is not None,
             detail="pool exhausted with no confirmed payload")
    if found is not None:
        b.witness(Q=to_expr(found))
        text = f"Q = {to_expr(found)}"
    else:
        text = "no payload found (pool exhausted)"
    return _finish([b.done()], field, args, text_override=text)


def _cmd_classify(args, field) -> int:
    verdict = classify(TransitionFunction.from_poly(parse(args.f, PLANE,
                                                          field)))
    b = CheckBuilder("classify", f=args.f)
    b.witness(verdict=verdict, status=verdict.status)
    if verdict.status == "nontrivial":
        b.witness(reason=verdict.reason)
    elif verdict.status == "trivial":
        w = verdict.witness
        if isinstance(w, tuple):
            b.witness(witness=f"coordinate word, {len(w)} generators")
        else:
            b.witness(witness=f"certificate with element {to_expr(w.omega)}")
    return _finish([b.done()], field, args, text_override=str(verdict))


def _cmd_bivar_extend(args, _) -> int:
    with open(args.cert) as fh:
        cert = cert_from_json(fh.read())
    Q = parse(args.Q, GLUE, cert.field)
    move = extend_a if args.side == "a" else extend_b
    hat = move(cert, args.m, args.n, Q)
    if args.fmt == "json":
        _emit(cert_to_json(hat), args.out)
    else:
        _emit(f"element: {to_expr(hat.omega)}\n"
              f"glueing function: {to_expr(hat.f.f)}", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    bound = f"at most {MAX_FLAG}"
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text", help="report format")
    output.add_argument("--out", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--field", default="q", metavar="DESC",
                        help="coefficient field: q, fp:<p> or ext:<minpoly>")

    ap = argparse.ArgumentParser(
        prog="a2bundle",
        description="exact constructions and machine checks for plane "
                    "bundles over the punctured plane")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("transition", parents=[common],
                       help="compute a chart-transition function")
    p.add_argument("--P", required=True, metavar="EXPR",
                   help="defining polynomial in z")
    p.add_argument("--n", required=True, type=int, help=bound)
    p.add_argument("--m", type=int, default=None,
                   help=f"number of sum terms, {bound} (default: smallest legal)")
    p.set_defaults(run=_cmd_transition)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named machine check (or 'all')")
    p.add_argument("id", choices=VERIFY_IDS + ("all",))
    p.add_argument("--P", metavar="EXPR", default=None,
                   help="defining polynomial (lemma21/prop22/thm12/"
                        "lemma44/lemma52)")
    p.add_argument("--n", type=int, default=None, help=bound)
    p.add_argument("--m", type=int, default=None, help=bound)
    p.add_argument("--smax", type=int, default=None,
                   help=f"bound on the stability exponent (prop22), {bound}")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("a1equiv", parents=[common],
                       help="decide chart equivalence of two glueing "
                            "functions")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument("--g", required=True, metavar="EXPR")
    p.set_defaults(run=_cmd_a1equiv)

    p = sub.add_parser("prop45", parents=[common],
                       help="certify a congruence move between "
                            "denominator-cleared glueing functions")
    p.add_argument("--fb", required=True, metavar="EXPR")
    p.add_argument("--gb", required=True, metavar="EXPR")
    p.add_argument("--m", required=True, type=int, help=bound)
    p.add_argument("--Q", required=True, metavar="EXPR")
    p.set_defaults(run=_cmd_prop45)

    p = sub.add_parser("search45", parents=[common],
                       help="search for a payload making the congruence "
                            "move work")
    p.add_argument("--fb", required=True, metavar="EXPR")
    p.add_argument("--gb", required=True, metavar="EXPR")
    p.add_argument("--m", required=True, type=int, help=bound)
    p.add_argument("--deg", required=True, type=int,
                   help="payload degree bound; deg+1 and the len(pool)^(deg+1) "
                        f"candidates may each be at most {MAX_CANDIDATES}")
    p.add_argument("--pool", required=True,
                   help="comma-separated coefficient pool")
    p.set_defaults(run=_cmd_search45)

    p = sub.add_parser("classify", parents=[common],
                       help="triviality verdict for a glueing function")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("bivar", help="certificate operations")
    bsub = p.add_subparsers(dest="bivar_cmd", required=True)
    p = bsub.add_parser("extend", parents=[output],
                        help="graft an extension move onto a certificate "
                             "file (over the certificate's own field)")
    p.add_argument("--cert", required=True, metavar="FILE",
                   help="certificate JSON produced by this package")
    p.add_argument("--side", required=True, choices=("a", "b"))
    p.add_argument("--m", required=True, type=int, help=bound)
    p.add_argument("--n", required=True, type=int, help=bound)
    p.add_argument("--Q", required=True, metavar="EXPR",
                   help="extension payload (polynomial in x over the base)")
    p.set_defaults(run=_cmd_bivar_extend)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag in ("n", "m", "smax"):
            if (getattr(args, flag, None) or 0) > MAX_FLAG:
                raise AlgebraError(f"--{flag} must be at most {MAX_FLAG}")
        return args.run(args, field_from_descriptor(args.field)
                        if "field" in args else None)
    except (AlgebraError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
