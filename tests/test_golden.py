"""`verify all --format json` reports must match the recorded digests.

The digests in ``perfbench/golden.json`` are sha256 sums of each report with
every check's ``millis`` removed, keys sorted and compact separators (the
recipe of ``perfbench/run.py:report_digest``). A change to the arithmetic that
alters any report, even one a check would still pass, fails here.

``MORE_DIGESTS`` holds the same digests, with the exit code, for fields the
benchmark does not run: two more extensions and a prime where every check
passes, and two primes whose reports carry ``error`` entries (char 2, and
F_7 with no square root of 1/5), so that error text is frozen too.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from a2bundle import poly
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


MORE_DIGESTS = {
    "ext:t^3-2": (0, "6224cf1b1565961e636de3ac55593cb0f205cce2c9c25eeeb86b1e536b44ceef"),
    "ext:5t^2-1": (0, "d6b33960bf0291927db8964de06d22f0a8793beb6d30f5d58d96ca90ba5dee42"),
    "fp:19": (0, "42f65772b5f3c00658f0ac9c2d7848319c4c42abdc23e166d8413cac85fa4c9f"),
    "fp:2": (1, "6bec7db8f05424da11bcd0cc0e27c6fea9efab19bb770a02deec5f0945183d5a"),
    "fp:7": (1, "7d92ca39e89c8dc31153a3505ad518c35f31feb6f82c41d15a449f28599653ab"),
}


@pytest.mark.parametrize("field", sorted(MORE_DIGESTS))
def test_verify_all_matches_recorded_digest(field):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["verify", "all", "--field", field, "--format", "json"])
    assert (rc, _digest(json.loads(buf.getvalue()))) == MORE_DIGESTS[field]


def test_lemma44_multiplies_on_packed_keys(monkeypatch):
    """The digests above cover the packed-key products and the packed Horner
    substitution only if a verify run makes some: ``thm12`` multiplies on
    packed keys, and ``lemma44``'s quadratic descent substitutes on them."""
    pairs, horners = [], []
    convolve, packed_horner = poly._convolve, poly._packed_horner

    def counting(a, b):
        pairs.append(len(a) * len(b))
        return convolve(a, b)

    def counting_horner(*args):
        horners.append(1)
        return packed_horner(*args)

    monkeypatch.setattr(poly, "_convolve", counting)
    monkeypatch.setattr(poly, "_packed_horner", counting_horner)

    def run(check, field):
        pairs.clear()
        horners.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", check, "--field", field]) == 0

    for field in ("q", "fp:11"):
        run("thm12", field)
        assert max(pairs) >= poly.PACK_PAIRS
        run("lemma44", field)
        assert horners
