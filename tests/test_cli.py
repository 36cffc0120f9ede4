import argparse
import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markoffquads import cli, integral, jsonlines, spectra
from markoffquads.cli import _emit, main, parse_quad
from markoffquads import (BqReport, DomainError, Face, IntegerQuad, MarkoffQuad, check_bq,
                          complete_quad, flip, reduce_to_sink)

from helpers import DEEP_VIOLATION

# face (0, 1) has product 4.0000000005: |p| > 4, yet within 1e-9 of the cut [0, 4]
NEAR_CUT = "2.0,2.00000000025,1.0+1.0i,-1.1796405576775428-3.394736453993022i"
# a positive sink whose systole is two-sided: its face (0, 1), of product
# 4.5294874004991144, is shorter than its smallest cell
TWO_SIDED_SYSTOLE = "1.7050967273722715,2.6564401466417205,34.15550190027589,33.86599007816797"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


def test_parse_quad_routes():
    assert isinstance(parse_quad("4,4,4,4"), IntegerQuad)
    assert isinstance(parse_quad("4.0,4,4,4"), MarkoffQuad)
    q = parse_quad("1+2i,1-2i,3,4")
    assert isinstance(q, MarkoffQuad)
    assert q.a == 1 + 2j and q.b == 1 - 2j
    # a negative integer entry takes the float path, unless --exact forces exactness
    assert isinstance(parse_quad("0,1,2,-3"), MarkoffQuad)
    assert isinstance(parse_quad("4,4,4,4", exact=True), IntegerQuad)
    with pytest.raises(DomainError, match="negative"):
        parse_quad("0,1,2,-3", exact=True)


@pytest.mark.parametrize("argv", [
    ("verify", "--", "{}"),
    ("flip", "-i", "1", "--", "{}"),
    ("flip", "-i", "4", "--", "{}"),
    ("reduce", "--", "{}"),
    ("systole", "--", "{}"),
])
@pytest.mark.parametrize("quad, float_quad", [("-4,-4,-4,-4", "-4.0,-4,-4,-4"),
                                              ("0,1,2,-3", "0.0,1,2,-3")])
def test_negative_integer_entries_take_the_float_path(capsys, argv, quad, float_quad):
    # the same record as the quad written with one float entry, bar "quad"
    results = []
    for text in (quad, float_quad):
        code, out, err = run_cli(capsys, *(a.format(text) for a in argv))
        recs = lines(out)
        for rec in recs:
            assert rec.pop("quad") == text
        results.append((code, recs, err))
    assert results[0] == results[1]
    code, recs, err = results[0]
    if argv[0] == "systole" and quad == "0,1,2,-3":
        assert (code, recs) == (4, []) and "zero trace" in err
    else:
        assert code == 0 and len(recs) == 1 and err == ""
    code, out, err = run_cli(capsys, argv[0], "--exact", *(a.format(quad) for a in argv[1:]))
    assert (code, out) == (4, "") and "is negative" in err


def test_non_summable_systole_is_a_precondition_violation(capsys):
    # the sink's zero trace raises before any walk, not a spent budget (exit 3)
    for quad in ("0,0,0,0", "0.0,1,2,-3"):
        code, out, err = run_cli(capsys, "systole", quad)
        assert (code, out) == (4, "")
        assert err == "mql: precondition violation: zero trace: parabolic/degenerate one-sided class\n"


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "4,4,4,4")
    assert code == 0
    rec = lines(out)[0]
    assert rec["valid"] is True and rec["residual"] == 0.0
    assert rec["cmd"] == "verify" and rec["quad"] == "4,4,4,4"
    assert "version" in rec
    code, _, err = run_cli(capsys, "verify", "1,1,1,1")
    assert code == 2


def test_verify_float_quad(capsys):
    code, out, _ = run_cli(capsys, "verify", "4.0,4.0,4.0,4.0")
    assert code == 0 and lines(out)[0]["valid"] is True


def test_flip_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "flip", "4,4,4,4", "-i", "4")
    assert code == 0
    rec = lines(out)[0]
    assert rec["result"] == [4, 4, 4, 36]
    quad_text = ",".join(str(v) for v in rec["result"])
    code, out, _ = run_cli(capsys, "verify", quad_text)
    assert code == 0 and lines(out)[0]["valid"] is True


def test_reduce_paths(capsys):
    code, out, _ = run_cli(capsys, "reduce", "4,4,4,36")
    rec = lines(out)[0]
    assert code == 0
    assert rec["root"] == [4, 4, 4, 4] and rec["word"] == [4]
    assert rec["path"] == "integer"
    code, out, _ = run_cli(capsys, "reduce", "4.0,4.0,4.0,36.0")
    rec = lines(out)[0]
    assert rec["path"] == "complex" and rec["root"] == [4.0, 4.0, 4.0, 4.0]


def test_exact_flag(capsys):
    code, _, err = run_cli(capsys, "--exact", "verify", "4.5,4,4,4")
    assert code == 1


def test_usage_error_exit_1(capsys, tmp_path):
    assert run_cli(capsys, "flip", "4,4,4,4")[0] == 1  # missing -i
    assert run_cli(capsys, "verify", "4,4,4")[0] == 1  # short quad
    assert run_cli(capsys, "verify", "a,b,c,d")[0] == 1
    # the coords positional keeps the name `values` in usage errors
    code, out, err = run_cli(capsys, "coords", "--to", "lambda")
    assert (code, out) == (1, "")
    assert err == "mql: error: the following arguments are required: values\n"
    # mcshane takes exactly one of --cutoff and --target-tol
    for args, message in (
        ((), "one of the arguments --cutoff --target-tol is required"),
        (("--cutoff", "10", "--target-tol", "1e-3"),
         "argument --target-tol: not allowed with argument --cutoff"),
    ):
        assert run_cli(capsys, "mcshane", "4,4,4,4", *args) == (
            1, "", f"mql: error: {message}\n")
        # the parse fails before --out is opened, so no file is made
        out_file = tmp_path / "out.jsonl"
        code, out, _ = run_cli(capsys, "--out", str(out_file), "mcshane", "4,4,4,4", *args)
        assert (code, out, out_file.exists()) == (1, "", False)


@pytest.mark.parametrize("argv, env", [
    (("spectrum", "4,4,4,4", "-L", "nan"), None),
    (("mcshane", "4,4,4,4", "--cutoff", "nan"), None),
    (("bq-check", "4,4,4,4", "-k", "nan"), None),
    (("--max-cells", "-5", "spectrum", "4,4,4,4", "-L", "20"), None),
    (("spectrum", "4,4,4,4", "-L", "20"), "abc"),
])
def test_bad_numeric_input_exit_1(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("MQL_MAX_CELLS", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("mql: error:") and err.count("\n") == 1


def test_spectrum_records(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "3")
    assert code == 0
    recs = lines(out)
    assert len(recs) == 4
    for rec in recs:
        assert rec["kind"] == "one-sided"
        assert rec["abs_length"] == pytest.approx(2 * math.asinh(2))
    code, out, _ = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "5.5", "--two-sided")
    recs = lines(out)
    assert len(recs) == 6 and all(r["kind"] == "two-sided" for r in recs)


def test_systole_record(capsys):
    code, out, _ = run_cli(capsys, "systole", "4,4,4,4")
    rec = lines(out)[0]
    assert rec["length"] == pytest.approx(2.887270950357621)
    assert rec["cmd"] == "systole"
    code, out, _ = run_cli(capsys, "systole", TWO_SIDED_SYSTOLE)
    [rec] = lines(out)
    assert code == 0
    assert (rec["kind"], rec["cell"], rec["word"]) == ("two-sided", [0, 1], None)
    assert rec["trace"] == 2.5294874004991144
    assert rec["length"] == rec["abs_length"] == 1.4249847352923568


def test_mcshane_modes(capsys):
    code, out, _ = run_cli(capsys, "mcshane", "4,4,4,4", "--cutoff", "16")
    rec = lines(out)[0]
    assert code == 0
    assert rec["term_count"] == 6
    assert rec["partial_sum"] == pytest.approx(0.4019237886466839, abs=1e-12)
    code, out, _ = run_cli(capsys, "mcshane", "4,4,4,4", "--target-tol", "1e-3")
    rec = lines(out)[0]
    assert code == 0 and rec["passed"] is True and rec["verdict"] == "converged"
    # both modes at once is a usage error
    assert run_cli(capsys, "mcshane", "4,4,4,4", "--cutoff", "16",
                   "--target-tol", "1e-3")[0] == 1


def test_mcshane_bq_violation_exit_4(capsys):
    code, _, err = run_cli(capsys, "mcshane", "0,0,0,0", "--cutoff", "10")
    assert code == 4


def test_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "--max-cells", "10", "spectrum",
                           "4,4,4,4", "-L", "20")
    assert code == 3
    # an exact walk from a positive sink is finite: only the budget is short
    assert err == ("mql: budget exhausted: cell budget 10 exhausted; the walk is finite but the"
                   " budget too small (10 cells made, 5 vertices still queued)\n")


@pytest.mark.parametrize("args, want", [
    (("--cutoff", "1e40", "--max-cells", "100"),
     {"verdict": "budget-exceeded", "term_count": 99, "product_cutoff": 1e40}),
    (("--target-tol", "1e-6", "--max-cells", "100"),
     {"verdict": "budget-exceeded", "term_count": 135, "product_cutoff": 1e8, "passed": False}),
    # DEFAULT_SCHEDULE ends before the sum is within 1e-12 of 1/2
    (("--target-tol", "1e-12"),
     {"verdict": "partial", "term_count": 282, "product_cutoff": 1e8, "passed": False}),
], ids=["cutoff-budget", "target-tol-budget", "target-tol-unconverged"])
def test_mcshane_exit_3_writes_its_record(capsys, args, want):
    code, out, err = run_cli(capsys, "mcshane", "4,4,4,4", *args)
    assert code == 3 and err == ""
    [rec] = lines(out)
    assert {k: rec[k] for k in want} == want
    assert ("passed" in rec) == ("passed" in want)


def test_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("MQL_MAX_CELLS", "10")
    code, _, _ = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "20")
    assert code == 3


def test_bq_check_record(capsys):
    code, out, _ = run_cli(capsys, "bq-check", "4,4,4,4", "-k", "16")
    rec = lines(out)[0]
    assert code == 0 and rec["ok"] is True and rec["violations"] == []
    code, out, _ = run_cli(capsys, "bq-check", "0,0,0,0", "-k", "4")
    rec = lines(out)[0]
    assert code == 0 and rec["ok"] is False


def test_fundamental_lines(capsys):
    code, out, _ = run_cli(capsys, "fundamental")
    recs = lines(out)
    assert code == 0
    assert [r["result"] for r in recs] == [
        [1, 5, 24, 30], [1, 6, 14, 21], [1, 8, 9, 18], [1, 9, 10, 10],
        [2, 3, 10, 15], [2, 4, 6, 12], [2, 5, 5, 8], [3, 3, 6, 6], [4, 4, 4, 4],
    ]


def test_enumerate_integral(capsys):
    code, out, _ = run_cli(capsys, "enumerate-integral", "-B", "36")
    recs = lines(out)
    assert code == 0
    vals = [tuple(r["result"]) for r in recs]
    assert (4, 4, 4, 36) in vals and (2, 4, 6, 12) in vals
    assert vals == sorted(vals)


def test_growth_record(capsys):
    code, out, _ = run_cli(capsys, "growth", "4,4,4,4",
                           "--lmin", "10", "--lmax", "34", "--shells", "7")
    rec = lines(out)[0]
    assert code == 0
    assert 2.0 <= rec["exponent"] <= 2.8


def test_coords_conversions(capsys):
    code, out, _ = run_cli(capsys, "coords", "4,4,4,4", "--to", "lambda")
    rec = lines(out)[0]
    assert rec["lambda"] == [4.0] * 6
    code, out, _ = run_cli(capsys, "coords", "4,4,4,4", "--to", "horocyclic")
    rec = lines(out)[0]
    assert rec["horocyclic"] == [0.25] * 4 and rec["in_domain"] is True
    code, out, _ = run_cli(capsys, "coords", "0.25,0.25,0.25,0.25",
                           "--from", "horocyclic")
    assert lines(out)[0]["result"] == [4.0] * 4
    code, out, _ = run_cli(capsys, "coords", "4,4,4,4,4,4", "--from", "lambda")
    assert lines(out)[0]["result"] == [4.0] * 4


def test_mcg_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mcg", "1,5,24,30", "-w", "phi2")
    assert lines(out)[0]["result"] == [24, 30, 1, 5]
    code, out, _ = run_cli(capsys, "mcg", "4,4,4,4", "-w", "f4,f4")
    assert lines(out)[0]["result"] == [4, 4, 4, 4]


def test_klein_subcommand(capsys):
    code, out, _ = run_cli(capsys, "klein", "-A", "3", "--seed", "1,2", "-n", "5")
    rec = lines(out)[0]
    assert rec["terms"] == [1.0, 2.0, 5.0, 13.0, 34.0]
    assert rec["lambda_plus"] == pytest.approx((3 + math.sqrt(5)) / 2)
    # bad seed pair is a verification failure
    assert run_cli(capsys, "klein", "-A", "2", "--seed", "1,1", "-n", "5")[0] == 2
    # one seed is a usage error
    code, out, err = run_cli(capsys, "klein", "-A", "3", "--seed", "1", "-n", "5")
    assert (code, out) == (1, "")
    assert err == "mql: error: --seed needs two comma-separated values\n"


def test_non_summable_quad_hits_budget(capsys):
    # the elliptic face (1, 2), product 1, circles an infinite family of
    # bounded cells: the one-sided spectrum, which tests no face, makes
    # the divergence observable by the budget guard
    code, _, err = run_cli(capsys, "spectrum", "8,1,1,-6-8i", "-L", "10",
                           "--max-cells", "20000")
    assert code == 3
    assert err == "mql: budget exhausted: cell budget 20000 exhausted; suspected non-summable input\n"


@pytest.mark.parametrize("argv, message", [
    (("spectrum", "0,1,2,-3", "-L", "3"), "zero trace: parabolic/degenerate one-sided class"),
    (("spectrum", "0,0,0,0", "-L", "3"), "zero trace: parabolic/degenerate one-sided class"),
    (("growth", "0,0,0,0", "--lmin", "1", "--lmax", "3", "--shells", "4"),
     "zero trace: parabolic/degenerate one-sided class"),
    (("spectrum", "0,0,0,0", "-L", "3", "--two-sided"),
     "two-sided trace (-2+0j) within 1e-09 of [-2,2]"),
    (("spectrum", "8,1,1,-6-8i", "-L", "10", "--two-sided"),
     "two-sided trace (-1+0j) within 1e-09 of [-2,2]"),
    (("mcshane", "0,0,0,0", "--cutoff", "10"), "face product 0 lies in [0,4]; sum undefined"),
    (("mcshane", "0,1,2,-3", "--target-tol", "1e-3"),
     "face product 0j lies in [0,4]; sum undefined"),
    (("mcshane", NEAR_CUT, "--cutoff", "100"),
     "face product (4.0000000005+0j) lies in [0,4]; sum undefined"),
], ids=["spectrum-0123", "spectrum-0000", "growth", "two-sided", "two-sided-face-12",
        "mcshane-cutoff", "mcshane-verify", "mcshane-near-cut"])
def test_degenerate_sink_is_a_precondition_violation(capsys, argv, message):
    # a zero sink entry, or a degenerate face among the six of the sink's
    # cells, raises before the walk instead of spending the budget (exit 3)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == f"mql: precondition violation: {message}\n"


def test_bq_check_reports_a_face_just_past_4(capsys):
    # face (0, 1) has product 4.0000000005: outside faces4, yet within
    # BRANCH_TOL of the cut, where h rejects it
    code, out, _ = run_cli(capsys, "bq-check", NEAR_CUT, "-k", "10")
    rec = lines(out)[0]
    assert code == 0 and rec["ok"] is False
    assert rec["violations"] == [[0, 1, 4.0000000005]]
    assert [f[:2] for f in rec["faces4"]] == [[0, 2], [1, 2]]


def test_bq_check_at_4_reaches_a_face_just_past_4(capsys):
    # NEAR_CUT flipped at slot 2: its face of product 4.0000000005 is
    # (0, 4), one flip out, and the walk to 4 goes the width of the cut
    # past it
    quad = "2.0+0.0i,-1.2105270922639564-4.3592811153550866i,1.0+1.0i," \
           "-1.1796405576775428-3.394736453993022i"
    code, out, _ = run_cli(capsys, "bq-check", quad, "-k", "4")
    rec = lines(out)[0]
    assert code == 0 and rec["ok"] is False and rec["cutoff"] == 4.0
    assert rec["violations"] == [[0, 4, 4.0000000005]]
    code, out, err = run_cli(capsys, "mcshane", quad, "--cutoff", "4")
    assert (code, out) == (4, "")
    assert err == ("mql: precondition violation: face product (4.0000000005+0j) "
                   "lies in [0,4]; sum undefined\n")


@pytest.mark.parametrize("argv", [("systole",), ("spectrum", "-L", "2", "--two-sided")],
                         ids=["systole", "two-sided"])
def test_relation_tol_leaves_the_branch_cut_alone(capsys, argv):
    # the sink's face (0, 1) has trace 2.3, hyperbolic: --tol 0.5 loosens
    # the quad relation, not the cut [-2, 2], so stdout does not move
    cmd, *rest = argv
    quad = "1,4.3,100,140.4571129984594"
    default = run_cli(capsys, cmd, quad, *rest)
    assert default[0] == 0 and default[1]
    assert run_cli(capsys, cmd, quad, *rest, "--tol", "0.5") == default


def test_domain_error_exit_4(capsys):
    code, _, err = run_cli(capsys, "coords", "0.5,0.5,0.25,-0.25",
                           "--from", "horocyclic")
    assert code == 4
    # a non-finite entry: only a trailing i is the imaginary unit, so
    # "inf" parses as "nan" does
    for entry in ("inf", "nan"):
        for argv in (("verify", f"{entry},4,4,4"),
                     ("klein", "-A", entry, "--seed", "1,2", "-n", "5")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 4 and out == "", argv
            assert err.startswith("mql: precondition violation:") and err.count("\n") == 1


def test_deterministic_output(capsys):
    a = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "10")
    b = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "10")
    assert a == b


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "flip", "4,4,4,4", "-i", "4")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:2] == ["cmd", "quad"]
    assert "4;4;4;36" in row


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.jsonl"
    code, out, _ = run_cli(capsys, "--out", str(target), "verify", "4,4,4,4")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["valid"] is True
    # a shorter result replaces a longer file whole
    target.write_text("x" * 10_000)
    code, _, _ = run_cli(capsys, "--out", str(target), "flip", "4,4,4,4", "-i", "4")
    assert code == 0 and json.loads(target.read_text())["result"] == [4, 4, 4, 36]


@pytest.mark.parametrize("argv, code", [
    (("verify", "1e200,1e200,1e200,1e200"), 4),
    (("--max-cells", "10", "spectrum", "4,4,4,4", "-L", "30"), 3),
    (("reduce", "1,1,1,1"), 2),
])
def test_out_file_kept_when_the_command_fails(tmp_path, capsys, argv, code):
    target = tmp_path / "old.jsonl"
    target.write_text("old\n")
    got, out, err = run_cli(capsys, "--out", str(target), *argv)
    assert got == code and out == "" and err.startswith("mql: ")
    assert target.read_text() == "old\n"


def test_out_file_may_be_a_device(capsys):
    code, out, err = run_cli(capsys, "--out", os.devnull, "verify", "4,4,4,4")
    assert (code, out, err) == (0, "", "")


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "markoffquads.cli", "systole", "4,4,4,4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["length"] == pytest.approx(2.887270950357621)


def test_import_loads_neither_dataclasses_nor_inspect():
    # together the two add about 10 ms to the start-up of every fresh `mql`
    # call; random (coords), csv (--format csv) and markoffquads.jsonlines
    # (the commands that write many records) are imported where used.
    # -S keeps site's own imports (a .pth file may load random) out of it.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import markoffquads.cli, sys; "
         "print(sorted({'dataclasses', 'inspect', 'random', 'csv', 'markoffquads.jsonlines'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 0 and proc.stdout == "[]\n"


# run one command in a fresh interpreter, print its exit code and the
# markoffquads modules it loaded
_LOADS_CODE = (
    "import contextlib, io, sys\n"
    "from markoffquads import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('markoffquads.')))\n"
)


# every call loads cli, errors and quadalgebra (both quad types, for
# parsing); the set is what the command adds to those.  Only the three
# integer commands below load integral
_LOADS = [
    (("verify", "4,4,4,4"), set()),
    (("verify", "4.0,4,4,4"), set()),
    (("flip", "4,4,4,36", "-i", "4"), set()),
    (("flip", "4.0,4,4,36", "-i", "4"), set()),
    (("klein", "-A", "3", "--seed", "1,2", "-n", "4"), set()),
    (("reduce", "4,4,4,36"), {"integral"}),
    (("coords", "4,4,4,36", "--to", "lambda"), {"coords"}),
    (("coords", "0.25,0.25,0.25,0.25", "--from", "horocyclic"), {"coords"}),
    (("mcg", "4,4,4,36", "-w", "f1"), {"coords"}),
    (("reduce", "4.0,4,4,36"), set()),
    (("mcshane", "4,4,4,36", "--cutoff", "100"), {"curvecomplex", "mcshane"}),
    (("bq-check", "4,4,4,36", "-k", "10"), {"curvecomplex", "mcshane", "jsonlines"}),
    (("spectrum", "4,4,4,4", "-L", "3"), {"curvecomplex", "spectra", "jsonlines"}),
    (("systole", "4,4,4,4"), {"curvecomplex", "spectra", "jsonlines"}),
    (("growth", "4,4,4,4", "--lmin", "1", "--lmax", "5", "--shells", "4"),
     {"curvecomplex", "spectra"}),
    (("fundamental",), {"integral", "jsonlines"}),
    (("enumerate-integral", "-B", "100"), {"integral", "jsonlines"}),
]


@pytest.mark.parametrize("argv, adds", _LOADS, ids=["-".join(argv) for argv, _ in _LOADS])
def test_each_command_loads_only_its_modules(argv, adds):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", _LOADS_CODE, *argv],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == ""
    code, *loaded = proc.stdout.split()
    base = {"cli", "errors", "quadalgebra"}
    assert code == "0" and set(loaded) == {f"markoffquads.{m}" for m in base | adds}


def test_relation_tol_reaches_mcshane_and_bq_check(capsys):
    # the summability pre-pass checks the quad relation at --tol too
    for argv in (("mcshane", "4,4,4,4.0001", "--cutoff", "100"),
                 ("mcshane", "4,4,4,4.0001", "--target-tol", "1e-2"),
                 ("bq-check", "4,4,4,4.0001", "-k", "10")):
        assert run_cli(capsys, *argv)[0] == 2
        code, out, err = run_cli(capsys, "--tol", "1e-3", *argv)
        assert code == 0 and err == "" and lines(out)[0]["cmd"] == argv[0]


def test_common_flags_after_subcommand(capsys):
    a = run_cli(capsys, "--max-cells", "5000", "spectrum", "4,4,4,4", "-L", "3")
    b = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "3", "--max-cells", "5000")
    assert a == b
    code, _, _ = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "20",
                         "--max-cells", "10")
    assert code == 3


# a quasi-Fuchsian quad: (3+0.1i, 4-0.2i, 5) completed with the larger root
QF = "3.0+0.1i,4.0-0.2i,5.0,31.53524324467945-0.8464138978268095i"


def _lines(*lines):
    return "".join(line.replace("QF", QF) + "\n" for line in lines)


# exact stdout; any byte that changes here changes the output format
GOLDEN = [
    (("spectrum", QF, "-L", "7"), _lines(
        '{"abs_length":2.390809814999959,"cell":0,"cmd":"spectrum","kind":"one-sided",'
        '"length":[2.390166416402492,0.05546236022572022],"quad":"QF","trace":[3.0,0.1],'
        '"version":"0.1.0","word":[]}',
        '{"abs_length":2.890441821488977,"cell":1,"cmd":"spectrum","kind":"one-sided",'
        '"length":[2.889058910111227,-0.08940099171397808],"quad":"QF","trace":[4.0,-0.2],'
        '"version":"0.1.0","word":[]}',
        '{"abs_length":3.126594157947363,"cell":3,"cmd":"spectrum","kind":"one-sided",'
        '"length":[3.126538677473281,0.018625970423219205],"quad":"QF",'
        '"trace":[4.564756755320545,0.04641389782680905],"version":"0.1.0","word":[]}',
        '{"abs_length":3.2944622927421916,"cell":2,"cmd":"spectrum","kind":"one-sided",'
        '"length":3.2944622927421916,"quad":"QF","trace":5.0,"version":"0.1.0","word":[]}',
        '{"abs_length":6.575830973321135,"cell":4,"cmd":"spectrum","kind":"one-sided",'
        '"length":[6.575804998989693,-0.018482558041039134],"quad":"QF",'
        '"trace":[26.748145467877215,-0.24788409483948265],"version":"0.1.0","word":[3]}',
        '{"abs_length":6.9051431433615456,"cell":5,"cmd":"spectrum","kind":"one-sided",'
        '"length":[6.9049354190722765,-0.053560141468529214],"quad":"QF",'
        '"trace":[31.53524324467945,-0.8464138978268095],"version":"0.1.0","word":[4]}',
    )),
    (("spectrum", QF, "-L", "5", "--two-sided"), _lines(
        '{"abs_length":4.589545704018867,"cell":[0,1],"cmd":"spectrum","kind":"two-sided",'
        '"length":[4.589364935658768,-0.04073397382818328],"quad":"QF",'
        '"trace":[10.02,-0.20000000000000007],"version":"0.1.0","word":null}',
        '{"abs_length":4.9064046664765195,"cell":[0,3],"cmd":"spectrum","kind":"two-sided",'
        '"length":[4.9053160173042185,0.1033514470205867],"quad":"QF",'
        '"trace":[11.689628876178954,0.5957173690124816],"version":"0.1.0","word":null}',
    )),
    (("mcshane", "4,4,4,4", "--target-tol", "1e-3"), _lines(
        '{"cmd":"mcshane","last_shell_max":0.0,"partial_sum":0.49982821357731183,'
        '"passed":true,"product_cutoff":100000.0,"quad":"4,4,4,4","term_count":78,'
        '"verdict":"converged","version":"0.1.0"}',
    )),
    (("bq-check", "2,5,5,8", "-k", "10"), _lines(
        '{"budget_hit":false,"cells_below2":1,"cmd":"bq-check","cutoff":10.0,"faces4":[],'
        '"ok":true,"quad":"2,5,5,8","version":"0.1.0","violations":[]}',
    )),
    (("growth", "4,4,4,4", "--lmin", "10", "--lmax", "34", "--shells", "7"), _lines(
        '{"cmd":"growth","exponent":2.4332815881346215,"fit_residual":0.16821631845781476,'
        '"intercept_log_eta":-3.6907540136081765,"quad":"4,4,4,4","samples":[[10.0,8],'
        '[12.26252256350615,8],[15.036945962049748,20],[18.439088914585774,32],'
        '[22.61097438656042,56],[27.726758359805682,68],[34.0,140]],"version":"0.1.0"}',
    )),
    (("--format", "csv", "spectrum", QF, "-L", "2.5"), _lines(
        "abs_length,cell,cmd,kind,length,quad,trace,version,word",
        '2.39080981499996,0,spectrum,one-sided,2.39016641640249+0.0554623602257202i,'
        '"QF",3+0.1i,0.1.0,',
    )),
    # CSV leaves JSON's null (the two-sided word) empty
    (("--format", "csv", "spectrum", "4,4,4,4", "-L", "5.5", "--two-sided"), _lines(
        "abs_length,cell,cmd,kind,length,quad,trace,version,word",
        *(f'5.26783158769927,{pair},spectrum,two-sided,5.26783158769927,"4,4,4,4",14,0.1.0,'
          for pair in ("0;1", "0;2", "0;3", "1;2", "1;3", "2;3")),
    )),
    # integer quads: verify is exact, and flips stay exact past 2**53
    (("verify", "4,4,4,4"), _lines(
        '{"cmd":"verify","quad":"4,4,4,4","residual":0.0,"valid":true,"version":"0.1.0"}',
    )),
    (("--format", "csv", "verify", "4,4,4,4"), _lines(
        "cmd,quad,residual,valid,version",
        'verify,"4,4,4,4",0,true,0.1.0',
    )),
    (("flip", "4,4,1847108999736036,25726909536794404", "-i", "3"), _lines(
        '{"cmd":"flip","quad":"4,4,1847108999736036,25726909536794404",'
        '"result":[4,4,358329624515385604,25726909536794404],"version":"0.1.0"}',
    )),
    (("flip", "4,4,1847108999736036,25726909536794404", "-i", "4"), _lines(
        '{"cmd":"flip","quad":"4,4,1847108999736036,25726909536794404",'
        '"result":[4,4,1847108999736036,132616459510084],"version":"0.1.0"}',
    )),
    (("--format", "csv", "flip", "4,4,1847108999736036,25726909536794404", "-i", "3"), _lines(
        "cmd,quad,result,version",
        'flip,"4,4,1847108999736036,25726909536794404",'
        "4;4;358329624515385604;25726909536794404,0.1.0",
    )),
    # a --cutoff record has no `passed` key
    (("mcshane", "4,4,4,4", "--cutoff", "100"), _lines(
        '{"cmd":"mcshane","last_shell_max":0.0,"partial_sum":0.40192378864668404,'
        '"product_cutoff":100.0,"quad":"4,4,4,4","term_count":6,"verdict":"partial",'
        '"version":"0.1.0"}',
    )),
    # klein takes no quad argument
    (("klein", "-A", "3", "--seed", "1,2", "-n", "4"), _lines(
        '{"A":3.0,"cmd":"klein","lambda_minus":0.3819660112501051,'
        '"lambda_plus":2.618033988749895,"quad":null,"terms":[1.0,2.0,5.0,13.0],'
        '"version":"0.1.0"}',
    )),
    # CSV writes the verdict by its value
    (("--format", "csv", "mcshane", "4,4,4,4", "--target-tol", "1e-3"), _lines(
        "cmd,last_shell_max,partial_sum,passed,product_cutoff,quad,term_count,verdict,version",
        'mcshane,0,0.499828213577312,true,100000,"4,4,4,4",78,converged,0.1.0',
    )),
]


@pytest.mark.parametrize("argv, expected", GOLDEN)
def test_golden_stdout(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == expected


# longer outputs, pinned by line count and sha256 of stdout.  The
# lengths of 4,4,4,4 tie in groups of up to 24, so these fix the
# word-then-cell-id (one-sided) and id-pair (two-sided) tie-breaks.  In
# 12,4,6,2 the first entry's flip gives 12 again, so equal lengths also
# sit at different depths, where word order is not discovery order.
QF_L = "7.606-0.133i,5.142+0.295i,5.22+0.129i,166.2875265629109+12.695661742082716i"
GOLDEN_DIGESTS = [
    (("spectrum", "4,4,4,4", "-L", "30"), 80,
     "9e7da40b01f25660f571291769b4c1589b6bf367437ef80ea0e31ef17141a05c"),
    (("spectrum", "4,4,4,4", "-L", "20", "--two-sided"), 54,
     "0eda9954186b476da4f19fc979d559906943890b96a866a3067e632656afb835"),
    (("--format", "csv", "spectrum", "4,4,4,4", "-L", "20"), 33,
     "43ecb2a94f70f172e62ff35d81e65caf1d7b3f1417a3b9cfb6ef4d17d679e756"),
    (("spectrum", "12,4,6,2", "-L", "14"), 15,
     "45a4f849dfeae1d66d1bdd5a00decbb5a6e0d5149f0e73acd3f24cc648eafe8d"),
    (("spectrum", QF_L, "-L", "100"), 1601,
     "180ce86a55a21b6e34600abbb12374d3e797692ade768e60bf09a332f192a311"),
    # complex traces, id-pair cells and null words
    (("spectrum", QF_L, "-L", "60", "--two-sided"), 813,
     "733f04fea2e397bd6798dff87a6d95564aed30373e73db7b8ee2d6cb35ed6c05"),
    (("enumerate-integral", "-B", "1000000000000"), 1411,
     "980b71b8636c63efe67495c8cc8d91431b064b37ddd2b9952dbfa1fbe75c5b4f"),
    # words joined by ";" in CSV, from a float walk and from a complex one
    (("--format", "csv", "spectrum", "2.0,5,5,8", "-L", "10"), 10,
     "3fdb80f9b7decc2377d7b70a5bebbe17682bc9aef0a81ed5cfc721a44eb7e2dc"),
    (("--format", "csv", "spectrum", QF_L, "-L", "100"), 1602,
     "0b58bbc0da790ee18d1684003b1033836cb6105716961bdf58b484533a410396"),
]


@pytest.mark.parametrize("argv, nlines, digest", GOLDEN_DIGESTS)
def test_golden_stdout_digest(capsys, argv, nlines, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.count("\n") == nlines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_spectrum_records_tie_on_abs_length(capsys):
    # guards that the digests above really cover ties
    _, out, _ = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "30")
    recs = lines(out)
    tie = max(sum(r["abs_length"] == x["abs_length"] for r in recs) for x in recs)
    assert tie == 24
    keys = [(r["abs_length"], r["word"], r["cell"]) for r in recs]
    assert keys == sorted(keys)


def _grown_integer_quad(digits):
    # alternate flips of entries 3 and 4 of (4,4,4,4) grow them geometrically
    q, i = IntegerQuad(4, 4, 4, 4), 3
    while len(str(max(q.values()))) < digits:
        q, i = flip(q, i), 7 - i
    return ",".join(str(v) for v in q.values())


MISSING_OUT = os.path.join(os.path.dirname(__file__), "no-such-dir", "out.jsonl")
# a valid quad (residual 1.6e-16) some of whose flips have finite parts
# and a modulus past the float range
_BIG = "5.741387723620521e+102+1.5384002039780802e+102i"
OVERFLOWING_MODULUS = f"{_BIG},{_BIG},{_BIG},1.4625583084179431e-102-3.918913176240167e-103i"
_X77 = "1.1671344836798443e+77+2.3215748319919262e+76i"  # its 4th power has modulus 2e308
BIG_INT = "7" * 5000  # past the interpreter's 4300-digit int-from-str limit
INT400 = _grown_integer_quad(400)  # exact quad, past the float range
INT400_FLOATS = ",".join(f"{v}.0" for v in INT400.split(","))  # the same, as floats


@pytest.mark.parametrize("argv, code", [
    (("spectrum", "4,4,4,4", "-L", "1500"), 4),
    (("spectrum", "4,4,4,4", "-L", "1500", "--two-sided"), 4),
    (("growth", "4,4,4,4", "--lmin", "10", "--lmax", "1e300", "--shells", "7"), 4),
    (("spectrum", f"4,4,4,{BIG_INT}", "-L", "8"), 1),
    (("verify", "1e200,1e200,1e200,1e200"), 4),
    (("spectrum", INT400_FLOATS, "-L", "8"), 4),
    (("coords", "1,2,x,4", "--from", "horocyclic"), 1),
    (("klein", "-A", "1e200", "--seed", "1e200,1e200", "-n", "5"), 4),
    (("klein", "-A", "3", "--seed", "1,2", "-n", "5000", "--max-cells", "1000"), 3),
    (("--max-cells", "10", "enumerate-integral", "-B", str(10 ** 200)), 3),
    (("verify", "4,4,4,4", "--out", MISSING_OUT), 1),
    (("--max-cells", "10", "growth", "4,4,4,4", "--lmin", "10", "--lmax", "34",
      "--shells", "11"), 3),
    # the walk fits the budget; the shells alone exceed it
    (("--max-cells", "1000", "growth", "4,4,4,4", "--lmin", "2", "--lmax", "8",
      "--shells", "1001"), 3),
    # the --out path is checked before the command, which would exit 4
    (("--out", MISSING_OUT, "verify", "1e200,1e200,1e200,1e200"), 1),
    # a tolerance must be positive, as verify_quad requires
    (("--tol", "-1", "systole", "4,4,4,4"), 1),
    (("--tol", "0", "verify", "4.0,4,4,4"), 1),
    (("mcshane", "4,4,4,4", "--target-tol", "0"), 1),
    (("mcshane", "4,4,4,4", "--target-tol", "-1e-3"), 1),
    *[(argv, 4) for argv in (
        ("spectrum", OVERFLOWING_MODULUS, "-L", "3"),
        ("systole", OVERFLOWING_MODULUS),
        ("mcshane", OVERFLOWING_MODULUS, "--cutoff", "100"),
        ("bq-check", OVERFLOWING_MODULUS, "-k", "4"),
        ("reduce", OVERFLOWING_MODULUS),
        ("growth", OVERFLOWING_MODULUS, "--lmin", "1", "--lmax", "5", "--shells", "4"),
        ("verify", f"{_X77},{_X77},{_X77},{_X77}"),
        ("coords", INT400, "--to", "lambda"),
    )],
    # lmax / lmin overflows, so the top cutoffs are infinite: no budget is spent
    *[((*budget, "growth", "4,4,4,4", "--lmin", "1e-300", "--lmax", "1e300", "--shells", "5"), 4)
      for budget in ((), ("--max-cells", "100000000"))],
    # a product of three coordinates underflows to 0.0
    (("coords", "1e-300,1e-300,1e-300,1", "--from", "horocyclic"), 4),
    (("coords", "1e-200,1e-200,1e-200,1", "--from", "horocyclic"), 4),
])
def test_out_of_range_input_one_line_error(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith("mql: ") and err.count("\n") == 1


# exact quads that a float descent gets wrong: the first flip of the
# first cancels two numbers near 3.97e16, where one ulp is 8, and INT400
# is past the float range
_EXACT_DESCENTS = [
    ("484,68644,1195914724,39732704840132164", ("-L", "6")),
    ("36,9746884,1383988804,485624817088451044", ("-L", "6")),
    (INT400, ("-L", "8")),
]


@pytest.mark.parametrize("quad, spectrum_args", _EXACT_DESCENTS,
                         ids=["4.0e16", "4.9e17", "INT400"])
def test_integer_quads_descend_exactly(capsys, quad, spectrum_args):
    # each command gives the records it gives on the exact sink, in the
    # slot order the descent leaves, bar the quad field
    sink, _ = reduce_to_sink(parse_quad(quad))
    sink_text = ",".join(map(str, sink))
    for cmd, *rest in (("systole",), ("spectrum", *spectrum_args),
                       ("growth", "--lmin", "10", "--lmax", "34", "--shells", "7")):
        records = []
        for q in (quad, sink_text):
            code, out, err = run_cli(capsys, cmd, q, *rest)
            assert code == 0 and err == ""
            recs = lines(out)
            assert recs and all(rec.pop("quad") == q for rec in recs)
            records.append(recs)
        assert records[0] == records[1], cmd


@pytest.mark.parametrize("quad", [q for q, _ in _EXACT_DESCENTS],
                         ids=["4.0e16", "4.9e17", "INT400"])
def test_integer_quads_walk_exactly(capsys, quad):
    # a sum and a check over the whole tree do not depend on the quad of
    # the orbit the walk starts from: each integer quad of the (4,4,4,4)
    # orbit gives what (4,4,4,4) gives, bar the order of summation
    for argv in (("mcshane", "--cutoff", "1e6"), ("mcshane", "--target-tol", "1e-3"),
                 ("bq-check", "-k", "10")):
        records = []
        for q in (quad, "4,4,4,4"):
            code, out, err = run_cli(capsys, argv[0], q, *argv[1:])
            assert code == 0 and err == ""
            [rec] = lines(out)
            assert rec.pop("quad") == q
            records.append(rec)
        got, want = records
        assert abs(got.pop("partial_sum", 0) - want.pop("partial_sum", 0)) <= 1e-15
        assert got == want, argv


def test_mcg_of_an_integer_quad_is_exact(capsys):
    code, out, err = run_cli(capsys, "mcg", INT400, "-w", "f1,phi2")
    assert code == 0 and err == ""
    # letters act right to left: phi2 swaps the pairs, then f1 flips
    a, b, c, d = parse_quad(INT400)
    assert lines(out)[0]["result"] == list(flip(IntegerQuad(c, d, a, b), 1))


def test_csv_refuses_non_finite_numbers(capsys):
    # the seed pair passes the relation; later terms overflow to inf and nan
    for fmt in ("jsonl", "csv"):
        code, out, err = run_cli(capsys, "--format", fmt, "klein", "-A", "1e100",
                                 "--seed", "0,1i", "-n", "6")
        assert code == 4 and err.startswith("mql: ") and err.count("\n") == 1
        assert "inf" not in out and "nan" not in out


def test_emit_keeps_written_lines_whole():
    # a record that strict JSON cannot hold stops the run after the lines before it
    out = io.StringIO()
    with pytest.raises(DomainError):
        _emit([{"x": 1.5}, {"x": math.inf}, {"x": 2.5}], "jsonl", out)
    assert out.getvalue() == '{"x":1.5}\n'


# every command, so that each record shape reaches the encoder
ALL_COMMANDS = [
    ("verify", "4,4,4,4"),
    ("verify", QF),
    ("flip", QF, "-i", "2"),
    ("reduce", "3481,5,24,30"),
    ("reduce", QF),
    ("systole", QF),
    ("mcshane", "4,4,4,4", "--cutoff", "1e4"),
    ("bq-check", "4,4,4,4", "-k", "30"),
    ("fundamental",),
    ("enumerate-integral", "-B", "10000"),
    ("coords", "2,5,5,8", "--to", "lambda"),
    ("coords", "2,5,5,8", "--to", "horocyclic"),
    ("coords", "0.1,0.2,0.3,0.4", "--from", "horocyclic"),
    ("coords", "4,4,4,4,4,4", "--from", "lambda"),
    ("mcg", QF, "-w", "phi2,f1"),
    ("klein", "-A", "3", "--seed", "1,2", "-n", "6"),
    ("klein", "-A", "1e100", "--seed", "0,1i", "-n", "3"),
]


def _records_of(argvs):
    # the records main hands to _emit, in order
    got = []
    emit = cli._emit

    def capture(records, fmt, out):
        got.extend(records)
        emit(records, fmt, out)

    with mock.patch.object(cli, "_emit", capture), \
            contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert main(list(argv)) == 0, argv
    return got


def _dumps(rec):
    # json.dumps with every setting of cli._JSON
    j = cli._JSON
    return json.dumps(rec, skipkeys=j.skipkeys, ensure_ascii=j.ensure_ascii,
                      check_circular=j.check_circular, allow_nan=j.allow_nan,
                      indent=j.indent, separators=(j.item_separator, j.key_separator),
                      default=j.default, sort_keys=j.sort_keys)


@pytest.mark.parametrize("c_encoder", [True, False])
def test_emit_lines_equal_json_dumps(monkeypatch, c_encoder):
    records = _records_of([argv for argv, _ in GOLDEN] + ALL_COMMANDS)
    assert {rec["cmd"] for rec in records} == set(cli._COMMANDS)
    expected = [_dumps(rec) + "\n" for rec in records]
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    out = io.StringIO()
    _emit(records, "jsonl", out)
    assert out.getvalue().splitlines(keepends=True) == expected


def _circular():
    rec = {"i": 599}
    rec["self"] = rec
    return rec


@pytest.mark.parametrize("c_encoder", [True, False])
@pytest.mark.parametrize("bad", [{"i": 599, "x": math.inf}, _circular()],
                         ids=["inf", "circular"])
def test_emit_failure_at_record_600(monkeypatch, c_encoder, bad):
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    good = [{"i": i, "z": complex(i, -i / 7), "q": IntegerQuad(4, 4, 4, 36)}
            for i in range(1000)]
    out = io.StringIO()
    with pytest.raises(DomainError):
        _emit(good[:599] + [bad] + good[600:], "jsonl", out)
    assert out.getvalue() == "".join(_dumps(rec) + "\n" for rec in good[:599])
    # the next call starts clean
    out = io.StringIO()
    _emit(good, "jsonl", out)
    assert out.getvalue() == "".join(_dumps(rec) + "\n" for rec in good)


def test_emit_builds_one_encoder_per_call(monkeypatch):
    # every command hands _emit one record, which `_JSON.encode` writes
    # with one encoder, or a record set, whose template lines need none
    make = json.encoder.c_make_encoder
    if make is None:
        pytest.skip("this interpreter has no C JSON encoder")
    markers = []

    def counting_make(*args):
        markers.append(args[0])
        return make(*args)

    head = {"cmd": "fundamental", "quad": None, "version": cli.__version__}
    record_set = jsonlines.quad_records(head, [IntegerQuad(4, 4, 4, 4)] * 700, cli._JSON.encode)
    monkeypatch.setattr(json.encoder, "c_make_encoder", counting_make)
    _emit([{"i": 0, "q": IntegerQuad(4, 4, 4, 4)}], "jsonl", io.StringIO())
    assert len(markers) == 1 and markers[0] == {}
    _emit(record_set, "jsonl", io.StringIO())
    assert len(markers) == 1


# each shape that reaches _emit as a record set: two-sided complex, one-sided
# real with words at several depths, and integer quads
RECORD_SET_ARGVS = [
    ("spectrum", QF_L, "-L", "12", "--two-sided"),
    ("spectrum", "12,4,6,2", "-L", "14"),
    ("fundamental",),
    ("enumerate-integral", "-B", str(10 ** 12)),
]


def _stdout_and_records(argv):
    # main's stdout in JSON Lines, and what it handed to _emit
    got = []
    emit = cli._emit

    def capture(records, fmt, out):
        got.append(records)
        emit(records, fmt, out)

    out = io.StringIO()
    with mock.patch.object(cli, "_emit", capture), contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "jsonl"]) == 0, argv
    [records] = got
    return out.getvalue(), records


@pytest.mark.parametrize("c_encoder", [True, False])
def test_main_stdout_equals_json_dumps(monkeypatch, c_encoder):
    # main writes record sets from a line template, the rest with the encoder
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    cmds, templated = set(), set()
    for argv in [argv for argv, _ in GOLDEN] + ALL_COMMANDS + RECORD_SET_ARGVS:
        out, records = _stdout_and_records(argv)
        recs = list(records)
        assert out == "".join(_dumps(rec) + "\n" for rec in recs), argv
        cmds.update(rec["cmd"] for rec in recs)
        if isinstance(records, jsonlines.RecordSet):
            templated.update(rec["cmd"] for rec in recs)
    assert cmds == set(cli._COMMANDS)
    assert templated == {"spectrum", "systole", "fundamental", "enumerate-integral",
                         "bq-check"}


def _spectrum_row(trace=4 + 0j, length=2.2 + 0.5j, ref=0, word="1,2"):
    # a row as spectra._spectrum_rows makes it for the CLI: (|l|, word
    # text, id, trace, l), the word None and the id a pair if two-sided
    return (abs(length), word, ref, trace, length)


def test_record_set_rows_the_template_cannot_write():
    # a float length, a two-sided row among one-sided ones and a trace
    # whose finite parts sum past the float range are written by the
    # template, byte for byte; a row holding an infinite or NaN part goes
    # to the encoder, which raises
    head = {"cmd": "spectrum", "quad": "4,4,4,4", "version": "0.1.0", "kind": "one-sided"}
    ok = _spectrum_row()
    rows = [ok, _spectrum_row(length=2.5), _spectrum_row(ref=(0, 1), word=None),
            _spectrum_row(trace=complex(1e308, 1e308)), ok]
    records = jsonlines.spectrum_records(head, rows, cli._JSON.encode)
    assert [records.line(row) is None for row in rows] == [False] * 5
    out = io.StringIO()
    _emit(records, "jsonl", out)
    assert out.getvalue() == "".join(_dumps(rec) + "\n" for rec in records)
    for bad in (complex(4, math.inf), complex(math.nan, 0.0), complex(math.inf, 0.0),
                math.inf, math.nan):
        for field in ("trace", "length"):
            records = jsonlines.spectrum_records(head, [_spectrum_row(**{field: bad})],
                                                 cli._JSON.encode)
            with pytest.raises(DomainError, match="not JSON compliant"):
                _emit(records, "jsonl", io.StringIO())


@pytest.mark.parametrize("head", [
    {"cmd": "enumerate-integral", "quad": None, "version": cli.__version__},
    {"cmd": "fundamental", "quad": "%s,%%s,100%", "version": "%(x)s %d"},
], ids=["plain", "percent"])
def test_quad_records_lines_equal_the_encoder(head):
    # each line is one % of the quad; a % in the head is text
    encode = cli._JSON.encode
    records = jsonlines.quad_records(head, integral.enumerate_integral_below(10 ** 12), encode)
    assert list(records.lines(encode)) == [encode(rec) + "\n" for rec in records]
    # past the str digit limit the template raises the encoder's ValueError
    big = jsonlines.quad_records(head, [_integer_quad_past(4400)], encode)
    with pytest.raises(ValueError) as ours:
        list(big.lines(encode))
    with pytest.raises(ValueError) as theirs:
        encode(next(iter(big)))
    assert str(ours.value) == str(theirs.value)


def _bq_record(quad, k, max_cells):
    # bq-check's record, key for key as the command built it for the
    # encoder before its line came from a template
    rep = check_bq(parse_quad(quad), float(k), max_cells=max_cells)
    faces = lambda fs: [[f.cells[0], f.cells[1], f.product] for f in fs]
    return {"cmd": "bq-check", "quad": quad, "version": cli.__version__,
            "cutoff": rep.cutoff, "faces4": faces(rep.faces4),
            "violations": faces(rep.violations), "cells_below2": rep.cells_below2,
            "budget_hit": rep.budget_hit, "ok": rep.ok}


# complex face products, written [i,j,[x,y]]
_BQ_COMPLEX = ",".join(map(str, (1 + 1j, 1 + 0.5j, 2 - 1j,
                                  complete_quad(1 + 1j, 1 + 0.5j, 2 - 1j)[1])))
_BQ_CASES = {
    # all faces4 int (an exact walk) or real and all of them violations,
    # at every budget that cuts the walk short
    "0000": [("0,0,0,0", "4", n) for n in range(4, 61)],
    "0000-float": [("0.0,0,0,0", "4", n) for n in range(4, 61)],
    "complex": [(_BQ_COMPLEX, "4", 200)],
    "empty": [("2,5,5,8", "10", 1000)],
    # violations a strict subset of faces4, and -0.0 real parts
    "subset": [("0,1,-3,2", "4", 60)],
    # a tied float sink whose face (0, 1) has the real product 4.0000000005:
    # a violation outside faces4
    "tied": [("2,2.00000000025,31999997354.308346,31999997358.308346", "4", 20000)],
    # complex products in faces4, with the violation off the sink's faces
    "deep": [(",".join(map(str, DEEP_VIOLATION)), "4", n) for n in (16, 64, 2000)],
}


@pytest.mark.parametrize("case", _BQ_CASES)
def test_bq_check_lines_equal_json_dumps(case):
    for quad, k, max_cells in _BQ_CASES[case]:
        argv = ("bq-check", quad, "-k", k, "--max-cells", str(max_cells))
        out, records = _stdout_and_records(argv)
        rec = _bq_record(quad, k, max_cells)
        assert isinstance(records, jsonlines.RecordSet) and list(records) == [rec]
        assert out == _dumps(rec) + "\n"
        # the template writes every record
        [rep] = records.rows
        assert records.line(rep) == _dumps(rec) + "\n"
        if case == "subset":
            assert 0 < len(rep.violations) < len(rep.faces4)
        if case == "tied":
            assert rep.violations and not set(rep.violations) & set(rep.faces4)
        if case in ("complex", "deep"):
            assert any(f.product.imag != 0.0 for f in rep.faces4)
        # CSV comes from the same dict
        csv_out, expected = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(csv_out):
            assert main([*argv, "--format", "csv"]) == 0
        _emit([rec], "csv", expected)
        assert csv_out.getvalue() == expected.getvalue()


def test_bq_records_the_template_cannot_write():
    # the template writes int, float and complex products, finite products
    # that sum past the float range and violations that are not faces of
    # faces4, byte for byte; a report holding an infinite or NaN part goes
    # to the encoder, which raises
    head = {"cmd": "bq-check", "quad": "0,0,0,0", "version": "0.1.0"}
    f = Face((0, 1), 2 + 0j)
    g = Face((0, 2), -0.0 + 0j)
    reports = [
        BqReport(4.0, (f, g), (f,), 3, False),
        BqReport(4.0, (f, f._replace(product=2)), (), 0, False),
        BqReport(4.0, (f, f._replace(product=2.5)), (), 0, False),
        BqReport(4.0, (f._replace(product=1e308 + 0j),) * 2, (), 0, False),
        BqReport(4.0, (f, g), (Face((0, 1), 2 + 0j),), 0, False),
        BqReport(4.0, (f, g), (g, f), 0, False),
        BqReport(4.0, (), (f,), 0, False),
        BqReport(4, (), (), 0, False),
    ]
    lines = [jsonlines.bq_records(head, [rep], cli._JSON.encode).line(rep) for rep in reports]
    assert None not in lines
    records = jsonlines.bq_records(head, reports, cli._JSON.encode)
    out = io.StringIO()
    _emit(records, "jsonl", out)
    assert out.getvalue() == "".join(_dumps(rec) + "\n" for rec in records)
    for bad in (complex(math.inf, 0.0), complex(math.nan, 0.0), complex(1.0, math.inf),
                math.inf, math.nan):
        # in faces4, and in violations alone
        for rep in (BqReport(4.0, (f, f._replace(product=bad)), (), 0, False),
                    BqReport(4.0, (f,), (f._replace(product=bad),), 0, False)):
            records = jsonlines.bq_records(head, [rep], cli._JSON.encode)
            with pytest.raises(DomainError, match="not JSON compliant"):
                _emit(records, "jsonl", io.StringIO())
    records = jsonlines.bq_records(head, [BqReport(math.nan, (f,), (), 0, False)],
                                   cli._JSON.encode)
    with pytest.raises(DomainError, match="not JSON compliant"):
        _emit(records, "jsonl", io.StringIO())


@pytest.mark.parametrize("argv", [
    ("spectrum", "2.0,5,5,8", "-L", "10"),
    ("spectrum", "2.0,5,5,8", "-L", "10", "--two-sided"),
    ("systole", "2.0,5,5,8"),
    ("systole", TWO_SIDED_SYSTOLE),
])
def test_template_writes_every_row_of_a_real_walk(argv):
    # a Fuchsian quad is walked in floats, so its traces are floats: the
    # template writes every row, byte for byte as the encoder would
    out, records = _stdout_and_records(argv)
    assert isinstance(records, jsonlines.RecordSet) and len(records) > 0
    assert all(type(row[3]) is float for row in records.rows)  # (|l|, word, ref, trace, l)
    assert all(records.line(row) is not None for row in records.rows)
    assert out == "".join(_dumps(rec) + "\n" for rec in records)


@pytest.mark.parametrize("argv", [
    ("spectrum", QF_L, "-L", "12"),
    ("spectrum", QF_L, "-L", "12", "--two-sided"),
    ("systole", QF_L),
])
def test_template_writes_every_row_of_a_complex_walk(argv):
    # a quasi-Fuchsian quad is walked in complex arithmetic, so its traces
    # are complex: the template writes every row as the encoder would
    out, records = _stdout_and_records(argv)
    assert isinstance(records, jsonlines.RecordSet) and len(records) > 0
    assert all(type(row[3]) is complex for row in records.rows)
    assert all(records.line(row) is not None for row in records.rows)
    assert out == "".join(_dumps(rec) + "\n" for rec in records)


def test_template_writes_every_row_of_an_exact_walk():
    # an integer quad is walked in ints: the template writes each trace
    # as the encoder writes the int, with no float made of it
    out, records = _stdout_and_records(("spectrum", "4,4,4,4", "-L", "80"))
    assert all(type(row[3]) is int for row in records.rows)
    assert max(row[3] for row in records.rows) > 2 ** 53
    assert all(records.line(row) is not None for row in records.rows)
    assert out == "".join(_dumps(rec) + "\n" for rec in records)


@pytest.mark.parametrize("field, value", [
    # a positive real length writes one repr as both length and |length|;
    # -0.0, 0.0 and negative real parts take the general path
    ("length", complex(2.5, 0.0)), ("length", complex(2.5, -0.0)),
    ("length", complex(-0.0, 0.0)), ("length", complex(0.0, -0.0)),
    ("length", complex(-2.5, 0.0)), ("length", complex(-2.5, 1.0)),
    # each entry's length with a real trace, then with a complex one
    ("trace", complex(4.5, -0.0)), ("trace", complex(4.5, 0.25)),
    # a root cell's word, and a word with every slot
    ("word", ()), ("word", (1, 2, 3, 4, 4, 3, 2, 1)),
    # a float trace, as a walk on the real path gives
    ("trace", 4.5),
    # int traces, as an exact walk gives, one past 2**53 and one past the float range
    ("trace", 36), ("trace", -7), ("trace", 2 ** 53 + 1),
    pytest.param("trace", 10 ** 400, id="trace-int-past-float-range"),
])
def test_entry_record_lines_equal_json_dumps(field, value):
    # each spectrum row, one field replaced; a row holds its word as text
    head = {"cmd": "spectrum", "quad": "4,4,4,4", "version": "0.1.0", "kind": "one-sided"}
    if field == "word":
        value = ",".join(map(str, value))
    rows = [_spectrum_row(**{"trace": 4 + 0j, "length": 2.2 + 0.5j, "ref": 0, "word": "1,2",
                             field: value}),
            _spectrum_row(**{"trace": 4 + 1j, "length": 2.5 + 0j, "ref": 3, "word": "4,1",
                             field: value})]
    records = jsonlines.spectrum_records(head, rows, cli._JSON.encode)
    out = io.StringIO()
    _emit(records, "jsonl", out)
    assert out.getvalue() == "".join(_dumps(rec) + "\n" for rec in records)


def _integer_quad_past(digits):
    # _grown_integer_quad, without the str conversion the digit limit forbids
    q, i = IntegerQuad(4, 4, 4, 4), 3
    while max(q) < 10 ** (digits - 1):
        q, i = flip(q, i), 7 - i
    return q


_CANNOT_WRITE = "mql: precondition violation: result cannot be written: "
# a spectrum row (|l|, word, ref, trace, l) with an infinite trace
_INF_TRACE = lambda row: (*row[:3], complex(math.inf, 0.0), row[4])


# the stderr texts were pinned from the writer that encoded every record
@pytest.mark.parametrize("c_encoder", [True, False])
# each command imports its function from the home module when it runs,
# so the home module's attribute is the one to patch
@pytest.mark.parametrize("argv, home, name, bad", [
    (("spectrum", "4,4,4,4", "-L", "120"), spectra, "_spectrum_rows", _INF_TRACE),
    (("enumerate-integral", "-B", str(10 ** 12)), integral, "enumerate_integral_below",
     lambda q: _integer_quad_past(4400)),
], ids=["inf-trace", "long-int"])
def test_record_set_failure_at_row_600(capsys, monkeypatch, c_encoder, argv, home, name, bad):
    code, good, _ = run_cli(capsys, *argv)
    assert code == 0 and good.count("\n") > 601
    compute = getattr(home, name)

    def row_600_bad(*args, **kwargs):
        rows = compute(*args, **kwargs)
        rows[600] = bad(rows[600])
        return rows

    monkeypatch.setattr(home, name, row_600_bad)
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == "".join(good.splitlines(keepends=True)[:600])
    if name == "_spectrum_rows":
        reason = "Out of range float values are not JSON compliant" + (
            "" if c_encoder else ": inf")
    else:
        reason = ("Exceeds the limit (4300 digits) for integer string conversion; "
                  "use sys.set_int_max_str_digits() to increase the limit")
    assert err == _CANNOT_WRITE + reason + "\n"


def _env(unbuffered):
    """The environment of a fresh `mql`, with PYTHONUNBUFFERED set or unset."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_closed_stdout_pipe_exits_quietly():
    # `mql spectrum ... | head -1`: the reader leaves after one line, with
    # about 300 kB still to come, far more than a pipe holds
    for unbuffered in (False, True):
        proc = subprocess.Popen(
            [sys.executable, "-m", "markoffquads.cli", "spectrum", "4,4,4,4", "-L", "100"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(unbuffered),
        )
        assert json.loads(proc.stdout.readline())["cmd"] == "spectrum"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b""), unbuffered


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("argv, stdout", [
    (("--out", "/dev/full", "verify", "4,4,4,4"), os.devnull),
    (("spectrum", "4,4,4,4", "-L", "30"), "/dev/full"),  # fails in a write
    (("verify", "4,4,4,4"), "/dev/full"),  # fails in the one flush at the end
])
def test_failed_write_is_one_line_with_exit_1(argv, stdout):
    # every write to /dev/full fails with ENOSPC, whether stdout is
    # buffered or writes straight through
    for unbuffered in (False, True):
        with open(stdout, "wb") as out:
            proc = subprocess.run([sys.executable, "-m", "markoffquads.cli", *argv],
                                  stdout=out, stderr=subprocess.PIPE, env=_env(unbuffered))
        assert proc.returncode == 1, unbuffered
        assert proc.stderr.startswith(b"mql: error: cannot write output: ")
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


def _fresh(args, unbuffered, code=None):
    """A fresh interpreter with PYTHONUNBUFFERED set or unset: `mql args`,
    or the given `-c` code with args as its argv."""
    head = ["-m", "markoffquads.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], capture_output=True,
                          env=_env(unbuffered))


@pytest.mark.parametrize("argv", [
    ("spectrum", "4,4,4,4", "-L", "40"),
    ("--format", "csv", "spectrum", "2,5,5,8", "-L", "30", "--two-sided"),
    ("--max-cells", "10", "spectrum", "4,4,4,4", "-L", "30"),
])
def test_unbuffered_stdout_is_byte_identical(capsys, argv):
    # with PYTHONUNBUFFERED=1 stdout is buffered while the records are written
    code, out, err = run_cli(capsys, *argv)
    for unbuffered in (True, False):
        proc = _fresh(argv, unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode(), err.encode())


_EMIT_INF = """if True:
    import math, sys
    from markoffquads.cli import _emit
    through = sys.stdout.write_through
    try:
        _emit([{"x": 1.5}, {"x": math.inf}, {"x": 2.5}], sys.argv[1], sys.stdout)
    except Exception as e:
        print(type(e).__name__, sys.stdout.write_through == through, file=sys.stderr)
"""


@pytest.mark.parametrize("fmt, lines_before", [("jsonl", '{"x":1.5}\n'),
                                              ("csv", "x\n1.5\n")])
def test_unbuffered_stdout_keeps_written_lines_whole(fmt, lines_before):
    for unbuffered in (True, False):
        proc = _fresh([fmt], unbuffered, code=_EMIT_INF)
        assert (proc.stdout, proc.stderr) == (lines_before.encode(), b"DomainError True\n")


def test_unbuffered_stdout_writes_once_at_the_end(tmp_path):
    # a write-through stdout sees nothing until _emit has every record,
    # and writes straight through again afterwards
    raw = open(tmp_path / "out", "wb", buffering=0)
    stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    sizes = []

    def records():
        for i in range(3):
            sizes.append(os.fstat(raw.fileno()).st_size)
            yield {"i": i}

    _emit(records(), "jsonl", stdout)
    assert sizes == [0, 0, 0]
    assert (tmp_path / "out").read_text() == '{"i":0}\n{"i":1}\n{"i":2}\n'
    assert not stdout.closed and stdout.write_through
    stdout.write("after\n")
    assert (tmp_path / "out").read_text().endswith("after\n")
    raw.close()


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


_NUM = st.sampled_from(["nan", "inf", "1e308", "1500", "-5", "x", BIG_INT, "1e200",
                        "0", "3", "10", "1e-3"])
_VALID_QUAD = st.sampled_from(["4,4,4,4", "2,5,5,8", "0,0,0,0", "0,1,2,-3", QF, INT400,
                               "1e200,1e200,1e200,1e200"])
# valid quads twice over, so that most draws get past parsing
_QUAD = st.one_of(_VALID_QUAD, _VALID_QUAD,
                  st.lists(_NUM, min_size=4, max_size=4).map(",".join))


def _argv(*parts):
    # "" marks an optional flag left out
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map(lambda t: [x for x in t if x])


_ARGV = st.one_of(
    _argv("spectrum", _QUAD, "-L", _NUM, st.sampled_from(["", "--two-sided"])),
    _argv("systole", _QUAD),
    _argv("verify", _QUAD),
    _argv("flip", _QUAD, "-i", st.sampled_from(["1", "4"])),
    _argv("reduce", _QUAD),
    _argv("mcshane", _QUAD, st.sampled_from(["--cutoff", "--target-tol"]), _NUM),
    _argv("bq-check", _QUAD, "-k", _NUM),
    _argv("growth", _QUAD, "--lmin", _NUM, "--lmax", _NUM, "--shells", _NUM),
    _argv("klein", "-A", _NUM, "--seed", st.tuples(_NUM, _NUM).map(",".join), "-n", _NUM),
    _argv("coords", _QUAD, "--to", st.sampled_from(["lambda", "horocyclic"])),
    _argv("coords", st.lists(_NUM, min_size=4, max_size=6).map(",".join),
          "--from", st.sampled_from(["lambda", "horocyclic"])),
    _argv("mcg", _QUAD, "-w", "phi2,f1"),
    _argv("enumerate-integral", "-B", _NUM),
)


def _assert_finite_csv(text):
    for row in csv.reader(io.StringIO(text)):
        for field in row:
            for part in field.split(";"):
                if re.fullmatch(r"-?\d+", part):
                    continue  # an exact integer is finite at any size
                try:
                    z = complex(part.replace("i", "j"))
                except ValueError:
                    continue  # not a number
                assert cmath.isfinite(z), f"non-finite CSV field {field!r}"


_GLOBAL = st.sampled_from([(), ("--format", "csv"), ("--out", MISSING_OUT)])


@given(_GLOBAL, _ARGV)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_any_argv_exits_cleanly_with_strict_json(flags, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--max-cells", "2000", *flags, *argv])
    assert code in range(5)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    if "--out" in flags:  # the output file cannot be opened: a usage error
        assert code == 1 and out.getvalue() == ""
    if "csv" in flags:
        _assert_finite_csv(out.getvalue())
    else:
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)


def _run_main(argv):
    # (exit code or SystemExit code, stdout, stderr) of one in-process call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("return", main(argv))
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


def _run_main_full_parser(argv):
    # the same call with every parse forced onto the 13-command parser
    build = cli._build_parser
    with mock.patch.object(cli, "_build_parser", lambda only=None: build()):
        return _run_main(argv)


def _assert_parsers_agree(argv):
    got = _run_main(argv)
    assert got == _run_main_full_parser(argv), argv
    return got


@given(_GLOBAL, _ARGV)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_one_command_parser_agrees_with_full_parser(flags, argv):
    _assert_parsers_agree(["--max-cells", "2000", *flags, *argv])


@pytest.mark.parametrize("argv", [
    ["-h", "spectrum"],
    ["--he", "flip", "4,4,4,4", "-i", "1"],
    ["--format", "flip"],
    ["no-such-command", "4,4,4,4"],
    [],
    ["--help"],
    ["flip", "4,4,4,4", "-i", "1", "spectrum"],
    *([name, "--help"] for name in cli._COMMANDS),
])
def test_one_command_parser_agrees_by_hand(argv):
    (kind, code), out, err = _assert_parsers_agree(argv)
    if {"-h", "--he", "--help"} & set(argv):
        assert (kind, code, err) == ("exit", 0, "") and out.startswith("usage: mql")
    else:
        assert (kind, code, out) == ("return", 1, "") and err.startswith("mql: error: ")


def test_option_value_naming_a_command(tmp_path, monkeypatch):
    # the first command name in argv is the --out file, not the subcommand
    monkeypatch.chdir(tmp_path)
    argv = ["--out", "flip", "spectrum", "4,4,4,4", "-L", "5"]
    assert _assert_parsers_agree(argv) == (("return", 0), "", "")
    assert json.loads((tmp_path / "flip").read_text().splitlines()[0])["cmd"] == "spectrum"


def test_one_command_call_builds_two_parsers(capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with mock.patch.object(cli._Parser, "__init__", counting_init):
        code, out, _ = run_cli(capsys, "reduce", "4,4,4,36")
    assert code == 0 and lines(out)[0]["root"] == [4, 4, 4, 4]
    assert built == ["mql", "mql reduce"]


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_width_is_the_terminal_width(monkeypatch, columns):
    # the width handed to every formatter is the one argparse's own
    # HelpFormatter computes, asked of the terminal once per parser build
    monkeypatch.setenv("COLUMNS", columns)
    asked = []
    size = cli.shutil.get_terminal_size
    monkeypatch.setattr(cli.shutil, "get_terminal_size", lambda: asked.append(1) or size())
    for argv in [["--help"], *([name, "--help"] for name in cli._COMMANDS)]:
        # the help of a parser built with argparse's default formatter
        p = argparse.ArgumentParser(prog="mql", description=cli.__doc__)
        cli._add_common(p, defaults=True)
        sub = p.add_subparsers(dest="cmd", required=True)
        for name, (help_text, _, add_args) in cli._COMMANDS.items():
            sp = sub.add_parser(name, help=help_text)
            add_args(sp)
            cli._add_common(sp, defaults=False)
        want = (p if argv == ["--help"] else sub.choices[argv[0]]).format_help()
        asked.clear()
        assert _run_main(argv) == (("exit", 0), want, ""), argv
        assert len(asked) == 1, argv  # one parser build, one question


def test_top_level_help_lists_every_command():
    (kind, code), out, _ = _run_main(["--help"])
    assert (kind, code) == ("exit", 0) and len(cli._COMMANDS) == 13
    for name, (help_text, _, _) in cli._COMMANDS.items():
        assert re.search(rf"^ +{re.escape(name)} +{re.escape(help_text)}$", out, re.M), name
