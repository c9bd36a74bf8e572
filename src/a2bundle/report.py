"""Structured verification results.

Every machine check in this package produces a :class:`CheckResult`: a check
id, the printable inputs, a pass/fail status, named residuals (quantities
that must vanish or hold, printed exactly), and optional witness data (the
constructed objects that make the statement true).  A
:class:`VerificationReport` bundles results for the CLI, which can render
them as text or JSON.
"""

from __future__ import annotations

import json
import time

from .errors import Record

SCHEMA_VERSION = "1"


def _printed(values: dict, keep) -> dict:
    """``values``, each one that is not a ``keep`` replaced in place by its string."""
    values.update({k: str(v) for k, v in values.items() if not isinstance(v, keep)})
    return values


class CheckResult(Record):
    """One check's outcome; ``status`` is "pass", "fail" or "error", and
    ``millis`` its wall time rounded to the nearest millisecond. ``inputs``
    and ``witness`` hold the values the check was given and print each on
    first read, so a caller that reads only ``ok`` formats nothing."""

    __slots__ = ("check_id", "_inputs", "status", "residuals", "_witness", "millis")
    ok = property(lambda self: self.status == "pass")
    inputs = property(lambda self: _printed(self._inputs, str))
    witness = property(lambda self: _printed(self._witness, (int, str)))

    def _key(self):  # the slots in order, printed
        return (self.check_id, self.inputs, self.status, self.residuals, self.witness,
                self.millis)


class CheckBuilder:
    """Accumulates expectations for one check and stamps the wall time.

    ``expect_zero`` records a polynomial (or other printable) that must be
    zero; ``expect`` records a named boolean condition, with a ``detail``
    string or a callable that builds it only if the condition fails.
    Failures flip the status and keep the offending value in ``residuals``
    so reports show the exact discrepancy.
    """

    def __init__(self, check_id: str, **inputs):
        self.check_id = check_id
        self.inputs = inputs
        self.residuals = {}
        self.witness_data = {}
        self.failed = False
        self._t0 = time.perf_counter()

    def expect_zero(self, name: str, value) -> bool:
        ok = not value
        self.residuals[name] = "0" if ok else str(value)
        if not ok:
            self.failed = True
        return ok

    def expect(self, name: str, cond: bool, detail="") -> bool:
        if cond:
            self.residuals[name] = "ok"
        else:
            self.residuals[name] = (detail() if callable(detail) else detail) or "failed"
            self.failed = True
        return cond

    def witness(self, **kv) -> None:
        self.witness_data.update(kv)

    def done(self, status: str | None = None) -> CheckResult:
        """The result; a given ``status`` ("error") overrides the verdict."""
        return CheckResult(self.check_id, self.inputs,
                           status or ("fail" if self.failed else "pass"), self.residuals,
                           self.witness_data, round((time.perf_counter() - self._t0) * 1000))


class VerificationReport(Record):
    __slots__ = ("field", "checks")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": SCHEMA_VERSION,
                "field": self.field,
                "checks": [{n.lstrip("_"): v for n, v in zip(c.__slots__, c._key())}
                           for c in self.checks],
            },
            indent=2,
        )

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = {"pass": "pass", "fail": "FAIL", "error": "ERROR"}[c.status]
            inputs = " ".join(f"{k}={v}" for k, v in c.inputs.items())
            lines.append(f"[{tag}] {c.check_id}  {inputs}  ({c.millis} ms)")
            if c.status != "pass":
                for name, val in c.residuals.items():
                    if val not in ("0", "ok"):
                        lines.append(f"    {name}: {val}")
        status = "all checks passed" if self.ok else "SOME CHECKS FAILED"
        lines.append(f"{len(self.checks)} check(s): {status}")
        return "\n".join(lines)
