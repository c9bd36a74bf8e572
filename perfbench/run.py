#!/usr/bin/env python3
"""a2bundle benchmark: fresh-process ``verify all`` per field, and a stream
of certificate operations.  See ``perfbench/README.md``.

    python3 perfbench/run.py --workload verify-q --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is a
JSON object carrying the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a separate traced run.  Lines before it give every
metric by name with its unit, and the run's stamp.  The benchmark pins
itself and its children to one core and reports CPU times at the reference
speed of ``speed.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = BENCH / "golden.json"

FIELDS = {"verify-q": "q", "verify-fp11": "fp:11", "verify-ext": "ext:t^2+1"}
WORKLOADS = (*FIELDS, "certs")
CHECKS_PER_RUN = 40
SETUP_SAMPLES = 11
MIN_VERIFY_RUNS = 3
#: operations replayed under the tracer on ``certs``; spans are kept in
#: memory, and every operation makes a few thousand of them
TRACED_OPS = 300
DEADLINE_S = 170.0
#: usable cores before the benchmark pins itself to one of them
NPROC = len(os.sched_getaffinity(0))

sys.path.insert(0, str(BENCH))
from layers import CHECK_IDS, missing_boundaries  # noqa: E402
from speed import REF_PROBE_S, SpeedLog  # noqa: E402


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


class Run:
    """One benchmark invocation: seeded inputs, a deadline, the results."""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.peak_kib = 0
        self.speed = SpeedLog()

    # ---------------------------------------------------------- children

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = str(self.rng.randrange(2 ** 32))
        return env

    def child(self, argv):
        """Run ``argv`` in a fresh interpreter; ``(wall_s, cpu_s, ref_s,
        result)`` where ``cpu_s`` is the child's own user plus system time
        and ``ref_s`` the same at the reference speed.  The child's peak
        resident set goes into ``peak_kib``."""
        budget = DEADLINE_S - (time.perf_counter() - self.t0)
        if budget <= 1:
            raise SetupError("run deadline reached before a child started")
        with tempfile.TemporaryFile("w+", dir=WORK) as out, \
                tempfile.TemporaryFile("w+", dir=WORK) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env(), stdout=out, stderr=err,
                                    text=True)
            reaped = wait_child(proc, t0 + budget, self.speed.sample)
            t1 = time.perf_counter()
            wall = t1 - t0
            if reaped is None:
                raise SetupError(f"{argv[:3]} timed out after {budget:.0f} s")
            out.seek(0)
            err.seek(0)
            result = subprocess.CompletedProcess(argv, proc.returncode,
                                                 out.read(), err.read())
        usage, peak_kib = reaped
        self.peak_kib = max(self.peak_kib, peak_kib)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, cpu * self.speed.speed(t0, t1), result

    def last_json(self, proc, what) -> dict:
        """The result line of a ``child.py`` run."""
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"{what} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}")
        out = json.loads(lines[-1])
        if not out["a2bundle"].startswith(str(ROOT / "src")):
            raise SetupError(f"{what} imported a2bundle from {out['a2bundle']}")
        return out

    # ------------------------------------------------------------ output

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.say(name, value, unit, note)

    def say(self, name, value, unit, note=""):
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        self.lines.append(f"  {name:<36} {shown:>12} {unit:<6} {note}")

    def problem(self, text):
        self.problems.append(text)
        print(f"perfbench: {text}", file=sys.stderr)

    def result(self) -> dict:
        """The contract's last line; a problem with no failed check or
        operation behind it (a traced boundary with no calls) still counts
        as one failure."""
        failed = max(self.failed, int(bool(self.problems)))
        return {"correct": failed == 0, "attempted": max(self.attempted, 1),
                "failed": failed, "metrics": self.metrics}


# ----------------------------------------------------------------- set-up


def wait_child(proc: subprocess.Popen, deadline: float, on_poll):
    """Reap ``proc``: ``(rusage, peak resident set in KiB)``, or ``None``
    once the ``perf_counter`` deadline has passed; a child still running
    then is killed.  ``on_poll()`` runs between polls.

    ``os.wait4`` keeps the child's own CPU time, which ``Popen.wait``
    discards.  Its ``ru_maxrss`` is no use: a child inherits the high-water
    mark of the process it was forked from, here this one.  The peak is
    read from the child's ``VmHWM`` between polls instead, which misses
    only growth in the last few milliseconds of its life.
    """
    status_file = f"/proc/{proc.pid}/status"
    peak_kib = 0
    nap = 0.0005
    try:
        while time.perf_counter() < deadline:
            try:
                with open(status_file) as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak_kib = max(peak_kib, int(line.split()[1]))
            except OSError:
                pass
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage, peak_kib
            on_poll()
            time.sleep(nap)
            nap = min(2 * nap, 0.005)
        return None
    finally:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL


def check_checkout() -> None:
    if not (ROOT / "src" / "a2bundle" / "cli.py").is_file():
        raise SetupError(f"no a2bundle sources under {ROOT / 'src'}")


def measure_setup(run: Run) -> None:
    """``setup_s``: fresh interpreters importing ``a2bundle.cli``."""
    code = "import a2bundle.cli, a2bundle; print(a2bundle.__file__)"
    walls, cpus, refs = [], [], []
    for i in range(SETUP_SAMPLES + 1):   # the first one also compiles
        wall, cpu, ref, proc = run.child(["-c", code])
        where = proc.stdout.strip()
        if proc.returncode != 0 or not where.startswith(str(ROOT / "src")):
            raise SetupError(f"a2bundle does not import from {ROOT / 'src'}"
                             f": {proc.stderr.strip()[-400:] or where}")
        if i:
            walls.append(wall)
            cpus.append(cpu)
            refs.append(ref)
    run.metric("setup_s", statistics.median(refs), "s",
               f"median user + system time of {len(refs)} fresh "
               f"`import a2bundle.cli`, at the reference speed")
    run.say("setup_cpu_s", statistics.median(cpus), "s",
            "the same as measured")
    run.say("setup_wall_s", statistics.median(walls), "s",
            "median wall time of the same imports")


# ------------------------------------------------------- verify workloads


def report_digest(doc: dict) -> str:
    """sha256 of a ``verify --format json`` report with ``millis`` removed."""
    doc = json.loads(json.dumps(doc))
    for check in doc.get("checks", []):
        check.pop("millis", None)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def grade_report(rc: int, text: str, field: str, golden: str):
    """``(checks_failed, millis by check id)`` for one ``verify all``.

    Counts every check that is not ``pass``, plus one each for a non-zero
    exit, a report labelled with another field, and a report that differs
    from the golden digest.
    """
    try:
        doc = json.loads(text)
        checks = doc["checks"]
    except (ValueError, KeyError, TypeError):
        return CHECKS_PER_RUN + 2, {}
    failed = sum(c.get("status") != "pass" for c in checks)
    failed += CHECKS_PER_RUN - min(len(checks), CHECKS_PER_RUN)
    failed += (rc != 0) + (doc.get("field") != field)
    failed += report_digest(doc) != golden
    millis = {}
    for c in checks:
        millis[c["check_id"]] = millis.get(c["check_id"], 0) + c["millis"]
    return failed, millis


def verify_runs(run: Run, field: str, golden: str):
    """Fresh-process ``verify all`` runs for ``--seconds`` (at least
    ``MIN_VERIFY_RUNS``); returns ``(walls, cpu times, cpu times at the
    reference speed, per-run millis)``."""
    argv = ["-m", "a2bundle", "verify", "all", "--field", field,
            "--format", "json"]
    walls, cpus, refs, millis = [], [], [], []
    start = time.perf_counter()
    while (len(walls) < MIN_VERIFY_RUNS
           or time.perf_counter() - start < run.seconds):
        wall, cpu, ref, proc = run.child(argv)
        failed, ms = grade_report(proc.returncode, proc.stdout, field, golden)
        run.attempted += CHECKS_PER_RUN
        run.failed += min(failed, CHECKS_PER_RUN)
        if failed:
            run.problem(f"verify all --field {field}: {failed} check(s) "
                        f"failed, exit {proc.returncode}")
        walls.append(wall)
        cpus.append(cpu)
        refs.append(ref)
        millis.append(ms)
    return walls, cpus, refs, millis


def verify_workload(run: Run, workload: str, trace: bool) -> None:
    field = FIELDS[workload]
    golden = json.loads(GOLDEN.read_text())[field]
    if not trace:
        measure_setup(run)
    walls, cpus, refs, millis = verify_runs(run, field, golden)
    checks_failed = run.failed
    run.say("verify_s", statistics.median(walls), "s",
            f"median of {len(walls)} fresh-process `verify all --field "
            f"{field}`")
    run.say("checks_failed", checks_failed, "count",
            f"over {len(walls)} runs of {CHECKS_PER_RUN} checks")
    if not trace:
        run.metric("ref_ms.kind_p50", statistics.median(refs) * 1000, "ms",
                   "median user + system time of one fresh-process "
                   "verify all, at the reference speed")
        run.metric("ref_ms.kind_mean", statistics.fmean(refs) * 1000, "ms",
                   "mean of the same")
        run.say("cpu_ms.kind_p50", statistics.median(cpus) * 1000, "ms",
                "the median as measured")
        run.say("cpu_ms.mean", statistics.fmean(cpus) * 1000, "ms",
                "the mean as measured")
        run.say("op_ms.p50", statistics.median(walls) * 1000, "ms",
                "wall time of the same processes")
        run.say("ops_per_s", len(walls) / sum(walls), "1/s")
        peak_rss(run)
        return
    for cid in CHECK_IDS:
        run.metric(f"check.{cid}_ms",
                   statistics.fmean(m.get(cid, 0) for m in millis), "ms",
                   "mean over the untraced runs")
    spans = WORK / f"spans-{workload}-{run.seed}.json"
    wall, _, _, proc = run.child([str(BENCH / "child.py"), "verify",
                                  "--field", field, "--spans", str(spans)])
    out = run.last_json(proc, "traced verify")
    failed, _ = grade_report(out["rc"], out["report"], field, golden)
    run.attempted += CHECKS_PER_RUN
    run.failed += min(failed, CHECKS_PER_RUN)
    if failed:
        run.problem(f"traced verify all --field {field}: {failed} failed")
    layers(run, "verify", out, wall - out["write_s"] - statistics.median(walls),
           spans)


# ------------------------------------------------------- certs workload


def certs_child(run: Run, extra) -> dict:
    _, _, _, proc = run.child([str(BENCH / "child.py"), "certs",
                               "--seed", str(run.seed), *extra])
    out = run.last_json(proc, "certs client")
    bad = [op for op in out["ops"] if op[3]]
    run.attempted += len(out["ops"])
    run.failed += len(bad)
    for kind, _, _, err, *_ in bad[:5]:
        run.problem(f"certs {kind} failed: {err}")
    return out


def certs_workload(run: Run, trace: bool) -> None:
    if not trace:
        measure_setup(run)
    out = certs_child(run, ["--seconds", str(run.seconds)])
    ops = out["ops"]
    ms = [op[1] for op in ops]
    if not trace:
        # [kind, wall ms, cpu ms, error, start, end] -> cpu ms at the
        # reference speed, from the probes around the operation
        refs = [op[2] * run.speed.speed(op[4], op[5]) for op in ops]
        ref_p50, ref_mean, cpu_p50 = {}, {}, {}
        for kind in dict.fromkeys(op[0] for op in ops):
            mine = [i for i, op in enumerate(ops) if op[0] == kind]
            ref_p50[kind] = statistics.median(refs[i] for i in mine)
            ref_mean[kind] = statistics.fmean(refs[i] for i in mine)
            cpu_p50[kind] = statistics.median(ops[i][2] for i in mine)
            run.say(f"ref_ms.{kind}.p50", ref_p50[kind], "ms",
                    f"{len(mine)} operations")
            run.say(f"ref_ms.{kind}.mean", ref_mean[kind], "ms")
            run.say(f"cpu_ms.{kind}.p50", cpu_p50[kind], "ms",
                    "the same as measured")
            run.say(f"op_ms.{kind}.p50",
                    statistics.median(ops[i][1] for i in mine), "ms",
                    "wall time of the same")
        run.metric("ref_ms.kind_p50",
                   statistics.geometric_mean(ref_p50.values()), "ms",
                   "geometric mean over the kinds of their medians")
        run.metric("ref_ms.kind_mean",
                   statistics.geometric_mean(ref_mean.values()), "ms",
                   "geometric mean over the kinds of their means")
        run.say("ref_ms.mean", statistics.fmean(refs), "ms",
                f"mean of all {len(ops)} operations")
        run.say("cpu_ms.kind_p50",
                statistics.geometric_mean(cpu_p50.values()), "ms",
                "the same as measured")
        run.say("cpu_ms.mean", statistics.fmean(op[2] for op in ops), "ms",
                "the same as measured")
        run.say("op_ms.p50", statistics.median(ms), "ms",
                "median wall time of an operation")
        run.say("ops_per_s", len(ops) / out["busy_s"], "1/s",
                "completed operations per busy second, one client")
        peak_rss(run)
        run.say("op_ms.p90", statistics.quantiles(ms, n=10)[-1], "ms",
                f"{len(ms) - int(len(ms) * 0.9)} samples beyond it")
        run.say("ops_failed", sum(bool(op[3]) for op in ops) / len(ops),
                "ratio", f"of {len(ops)} attempted")
        return
    for cid in CHECK_IDS:
        run.metric(f"check.{cid}_ms", 0.0, "ms", "no checks in this workload")
    # the traced client replays the first operations of the same stream
    k = min(len(ops), TRACED_OPS)
    spans = WORK / f"spans-certs-{run.seed}.json"
    traced = certs_child(run, ["--ops", str(k), "--spans", str(spans)])
    layers(run, "certs", traced,
           traced["busy_s"] - sum(op[1] for op in ops[:k]) / 1000, spans)


# ----------------------------------------------------------------- shared


def peak_rss(run: Run) -> None:
    run.metric("peak_rss_mb", run.peak_kib / 1024, "MB",
               "largest child process of this workload")


def layers(run: Run, kind: str, out: dict, overhead: float, spans) -> None:
    for name, (value, unit) in out["layers"].items():
        run.metric(name, value, unit)
    run.metric("trace.overhead_s", overhead, "s",
               "traced minus untraced wall time, same work")
    missing = missing_boundaries(kind, out["calls"])
    if missing:
        run.problem(f"traced run recorded no calls into {', '.join(missing)}")
    run.say("spans", str(spans.relative_to(ROOT)), "file")


def stamp(seed: int) -> dict:
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or sha
        except OSError:
            sha = "git not available"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    cores = sorted(os.sched_getaffinity(0))
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": sys.version.split()[0], "gmpy2": has_gmpy2,
            "nproc": NPROC, "pinned_to": cores if len(cores) == 1 else None,
            "seed": seed}


def pin_to_one_core() -> None:
    """Pin this process, and so every child it starts, to one core: the
    speed probe must run on the core the measured work runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"perfbench: not pinned to one core: {exc}", file=sys.stderr)


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    run = Run(seed, seconds)
    if workload == "certs":
        certs_workload(run, trace)
    else:
        verify_workload(run, workload, trace)
    run.say("probe_ms", run.speed.median_probe_s() * 1000, "ms",
            f"median time of the speed probe; {REF_PROBE_S * 1000:g} ms at "
            f"the reference speed")
    print(f"workload {workload}  seed {seed}  seconds {seconds}  "
          f"trace {int(trace)}")
    print("\n".join(run.lines))
    res = run.result()
    record = {"workload": workload, "trace": int(trace),
              "stamp": stamp(seed), "problems": run.problems, **res}
    print("stamp " + json.dumps(record["stamp"]))
    (WORK / f"result-{workload}-{seed}-{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return res


def record_golden() -> None:
    """Write the golden digests from the checkout's current reports."""
    run = Run(0, 0)
    digests = {}
    for field in FIELDS.values():
        _, _, _, proc = run.child(["-m", "a2bundle", "verify", "all",
                                "--field", field, "--format", "json"])
        digests[field] = report_digest(json.loads(proc.stdout))
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite perfbench/golden.json from this checkout")
    args = ap.parse_args(argv)
    try:
        check_checkout()
        WORK.mkdir(parents=True, exist_ok=True)
        pin_to_one_core()
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
            print(json.dumps(res))
            return 0
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace)) for w in WORKLOADS}
        print(json.dumps(results))
        return 0
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
