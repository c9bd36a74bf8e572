import json
import subprocess
import sys

import pytest

from a2bundle import errors
from a2bundle.bivariable import (
    basic_bivariable,
    cert_from_json,
    cert_to_json,
    extend_b,
)
from a2bundle.cli import main
from a2bundle.exprio import parse, to_expr
from a2bundle.fibration import PVAR, FibrationSpec, formal_transition
from a2bundle.fields import QQ
from a2bundle.poly import MultiPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- transition


def test_transition_prints_four_term_function(capsys):
    code, out, _ = run(capsys, "transition", "--P", "z^2", "--n", "1",
                       "--m", "3")
    assert code == 0
    want = formal_transition(FibrationSpec(parse("z^2", PVAR, QQ), 1), 3)
    assert out.strip() == to_expr(want)


def test_transition_minimal_m_default(capsys):
    code, out, _ = run(capsys, "transition", "--P", "z^2", "--n", "3")
    assert code == 0
    assert out.strip() == "x*a^-1*b^-2 - x^2*a^-3*b^-1"


def test_transition_json_schema(capsys):
    code, out, _ = run(capsys, "transition", "--P", "z^2", "--n", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"version", "field", "checks"}
    (chk,) = doc["checks"]
    assert set(chk) == {"check_id", "inputs", "status", "residuals",
                        "witness", "millis"}
    assert chk["check_id"] == "transition"
    assert chk["witness"]["m_min"] == 3
    assert chk["witness"]["n_min"] == 2


def test_transition_rejects_illegal_m(capsys):
    code, _, err = run(capsys, "transition", "--P", "z^2", "--n", "1",
                       "--m", "1")
    assert code == 2
    assert "error:" in err


def test_transition_rejects_bad_expression(capsys):
    code, _, err = run(capsys, "transition", "--P", "z^(", "--n", "1")
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------------- verify


def test_verify_single_id_passes(capsys):
    code, out, _ = run(capsys, "verify", "ex48")
    assert code == 0
    assert "[pass] ex48" in out
    assert "all checks passed" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "ex48", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "1"
    assert doc["field"] == "q"
    (chk,) = doc["checks"]
    assert chk["check_id"] == "ex48"
    assert chk["status"] == "pass"


def test_verify_parametrised_id(capsys):
    code, out, _ = run(capsys, "verify", "thm12", "--P", "z^3 + 2*z",
                       "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 1
    assert doc["checks"][0]["status"] == "pass"


def test_verify_default_suites_sizes(capsys):
    code, out, _ = run(capsys, "verify", "lemma52", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["checks"]) == 5
    code, out, _ = run(capsys, "verify", "lemma61", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["checks"]) == 3


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 40
    assert all(c["status"] == "pass" for c in doc["checks"])
    ids = [c["check_id"] for c in doc["checks"]]
    # canonical order, duplicates allowed for suite ids
    assert ids[0] == "lemma21" and ids[-1] == "ex66"
    assert ids.index("thm12") > ids.index("prop22")


def test_verify_all_over_cubic_extension(capsys):
    code, out, _ = run(capsys, "verify", "all", "--field", "ext:t^3-2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "ext:t^3-2"
    assert len(doc["checks"]) == 40
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_all_rejects_parameters(capsys):
    code, _, err = run(capsys, "verify", "all", "--n", "2")
    assert code == 2
    assert "error:" in err


def test_verify_stray_flag_rejected(capsys):
    code, _, err = run(capsys, "verify", "ex23", "--P", "z^2")
    assert code == 2
    assert "does not take --P" in err


@pytest.mark.parametrize("argv, message", [
    (("lemma21", "--n", "0"), "n must be a positive integer"),
    (("prop22", "--smax", "0"), "no polynomial conjugate for s = 1..0"),
    (("lemma52", "--m", "0"), "glueing exponent m must be >= 1"),
    (("lemma21", "--P", ""), "expected a value, found 'end of input'"),
])
def test_verify_explicit_zero_or_empty_flag_is_not_the_default(
        capsys, argv, message):
    # a flag given as 0 or '' is used as given, not replaced by its default
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert message in err


def test_verify_root_sample_field_selection(capsys):
    code, out, _ = run(capsys, "verify", "ex47", "--format", "json")
    assert code == 0
    (chk,) = json.loads(out)["checks"]
    assert chk["inputs"]["field"].startswith("ext:")
    code, out, _ = run(capsys, "verify", "ex47", "--field", "fp:11",
                       "--format", "json")
    assert code == 0
    (chk,) = json.loads(out)["checks"]
    assert chk["inputs"]["field"] == "fp:11"


def test_verify_root_sample_impossible_field(capsys):
    code, _, err = run(capsys, "verify", "ex47", "--field", "fp:7")
    assert code == 2
    assert "square root" in err


@pytest.mark.parametrize("desc", ["fp:2", "fp:3", "fp:5", "fp:7", "fp:13"])
def test_verify_all_isolates_each_id(capsys, desc):
    # a check id that raises over this field becomes one "error" entry
    # naming the exception; the other ids still run and the exit code is 1
    code, out, _ = run(capsys, "verify", "all", "--field", desc,
                       "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert len(checks) == 40
    assert {c["status"] for c in checks} <= {"pass", "fail", "error"}
    errored = [c for c in checks if c["status"] == "error"]
    assert "ex47" in [c["check_id"] for c in errored]
    for c in errored:
        assert c["inputs"] == {"field": desc}
        (detail,) = c["residuals"].values()
        name, _, message = detail.partition(": ")
        assert issubclass(getattr(errors, name), errors.AlgebraError)
        assert message


def test_verify_all_error_entry_in_text(capsys):
    code, out, _ = run(capsys, "verify", "all", "--field", "fp:7")
    assert code == 1
    assert "[ERROR] ex47  field=fp:7" in out
    assert ("exception: PreconditionViolated: field F_7 has no square root "
            "of 1/5") in out
    assert "40 check(s): SOME CHECKS FAILED" in out


def test_verify_unknown_id_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "nosuchcheck")
    assert code == 2


# ------------------------------------------------------------ equivalence


def test_a1equiv_equivalent(capsys):
    code, out, _ = run(capsys, "a1equiv",
                       "--f", "a^-1*b^-2*x - a^-3*b^-1*x^2",
                       "--g", "2*a^-1*b^-2*x - 2*a^-3*b^-1*x^2 + a^-1*x^3")
    assert code == 0
    assert "scale = 2" in out
    assert "a-chart shift = x^3*a^-1" in out


def test_a1equiv_not_equivalent_exits_1(capsys):
    code, out, _ = run(capsys, "a1equiv", "--f", "a^-1*b^-1*x",
                       "--g", "a^-1*b^-1*x^2")
    assert code == 1
    assert "not equivalent" in out


def test_a1equiv_json_witness(capsys):
    code, out, _ = run(capsys, "a1equiv", "--f", "a^-1*b^-1*x",
                       "--g", "3*a^-1*b^-1*x", "--format", "json")
    assert code == 0
    (chk,) = json.loads(out)["checks"]
    assert chk["witness"]["scale"] == "3"
    assert chk["witness"]["a_chart_shift"] == "0"


# --------------------------------------------------------- congruence moves

EX46_FB = "a^2*x*b^-2 - x^2*b^-1"
EX46_GB = "-5/4*a^2*x^4*b^-3 - a*x^3*b^-2 + a^2*x*b^-2 - x^2*b^-1"


def test_prop45_pass(capsys):
    code, out, _ = run(capsys, "prop45", "--fb", EX46_FB, "--gb", EX46_GB,
                       "--m", "3", "--Q", "1/2*x")
    assert code == 0
    assert "all checks passed" in out


def test_prop45_failed_congruence_exits_1_with_report(capsys):
    code, out, _ = run(capsys, "prop45", "--fb", EX46_FB, "--gb", EX46_GB,
                       "--m", "3", "--Q", "x", "--format", "json")
    assert code == 1
    (chk,) = json.loads(out)["checks"]
    assert chk["status"] == "fail"
    assert chk["residuals"]["congruence-mod-a^m"] != "ok"


def test_search45_rediscovers(capsys):
    code, out, _ = run(capsys, "search45", "--fb", EX46_FB, "--gb", EX46_GB,
                       "--m", "3", "--deg", "1",
                       "--pool", "0,1/2,-1/2,1,-1")
    assert code == 0
    assert out.strip() == "Q = 1/2*x"


def test_search45_exhausted_exits_1(capsys):
    code, out, _ = run(capsys, "search45", "--fb", EX46_FB, "--gb", EX46_GB,
                       "--m", "3", "--deg", "1", "--pool", "0,1")
    assert code == 1
    assert "no payload found" in out


def test_search45_empty_pool_rejected(capsys):
    code, _, err = run(capsys, "search45", "--fb", EX46_FB, "--gb", EX46_GB,
                       "--m", "3", "--deg", "1", "--pool", " , ")
    assert code == 2
    assert "pool" in err


# ---------------------------------------------------------------- classify


def test_classify_golden_lines(capsys):
    code, out, _ = run(capsys, "classify", "--f", "x^2*a^-1*b^-1")
    assert code == 0
    assert out.strip() == "Nontrivial: deg P(0,0,x) = 2"
    code, out, _ = run(capsys, "classify", "--f", "x*a^-1*b^-3")
    assert code == 0
    assert out.strip() == "Trivial"
    code, out, _ = run(capsys, "classify",
                       "--f", "x*a^-1*b^-2 - x^2*a^-3*b^-1")
    assert code == 0
    assert out.strip() == "Unknown"


def test_classify_json_includes_witness_summary(capsys):
    code, out, _ = run(capsys, "classify", "--f", "b^-1*x",
                       "--format", "json")
    assert code == 0
    (chk,) = json.loads(out)["checks"]
    assert chk["witness"]["status"] == "trivial"
    assert "certificate" in chk["witness"]["witness"]


# ------------------------------------------------------------ certificates


def test_bivar_extend_file_roundtrip(tmp_path, capsys):
    base = basic_bivariable(1, 2)
    src = tmp_path / "c12.json"
    dst = tmp_path / "c12hat.json"
    src.write_text(cert_to_json(base))
    code, out, _ = run(capsys, "bivar", "extend", "--cert", str(src),
                       "--side", "b", "--m", "1", "--n", "2", "--Q", "x^2",
                       "--format", "json", "--out", str(dst))
    assert code == 0
    got = cert_from_json(dst.read_text())
    want = extend_b(base, 1, 2, parse("x^2", base.omega.table, QQ))
    assert got.omega == want.omega
    assert got.f.f == want.f.f


def test_bivar_extend_text_summary(tmp_path, capsys):
    src = tmp_path / "c.json"
    src.write_text(cert_to_json(basic_bivariable(1, 1)))
    code, out, _ = run(capsys, "bivar", "extend", "--cert", str(src),
                       "--side", "a", "--m", "1", "--n", "1", "--Q", "x")
    assert code == 0
    assert "element:" in out and "glueing function:" in out


def test_bivar_extend_missing_file(capsys):
    code, _, err = run(capsys, "bivar", "extend", "--cert", "/nonexistent",
                       "--side", "a", "--m", "1", "--n", "1", "--Q", "x")
    assert code == 2
    assert "error:" in err


def test_bivar_extend_precondition_violation(tmp_path, capsys):
    src = tmp_path / "c.json"
    src.write_text(cert_to_json(basic_bivariable(2, 2)))
    code, _, err = run(capsys, "bivar", "extend", "--cert", str(src),
                       "--side", "a", "--m", "1", "--n", "1", "--Q", "x")
    assert code == 2
    assert "denominators" in err


# ------------------------------------------------------------ plumbing


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "ex24", "--format", "json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["checks"][0]["check_id"] == "ex24"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bad_field_descriptor(capsys):
    code, _, err = run(capsys, "verify", "ex24", "--field", "fp:6")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("p", ["318665857834031151167461",
                               "3317044064679887385961981"])
def test_composite_modulus_is_usage_error(capsys, p):
    code, out, err = run(capsys, "verify", "ex35", "--field", f"fp:{p}")
    assert code == 2
    assert "error:" in err and "[pass]" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "a2bundle", "classify", "--f",
         "x^2*a^-1*b^-1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Nontrivial: deg P(0,0,x) = 2"
