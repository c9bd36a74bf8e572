"""`verify all --format json` reports must match the recorded digests.

The digests in ``perfbench/golden.json`` are sha256 sums of each report with
every check's ``millis`` removed, keys sorted and compact separators (the
recipe of ``perfbench/run.py:report_digest``). A change to the arithmetic that
alters any report, even one a check would still pass, fails here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from a2bundle.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def _digest(doc):
    for check in doc.get("checks", []):
        check.pop("millis", None)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("field", ["q", "fp:11", "ext:t^2+1"])
def test_verify_all_matches_golden_digest(field):
    golden = json.loads(GOLDEN.read_text())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["verify", "all", "--field", field, "--format", "json"])
    assert rc == 0
    assert _digest(json.loads(buf.getvalue())) == golden[field]
