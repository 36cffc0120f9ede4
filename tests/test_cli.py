import json
import math
import subprocess
import sys

import pytest

from markoffquads.cli import main, parse_quad
from markoffquads import IntegerQuad, MarkoffQuad


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


def test_usage_error_exit_1(capsys):
    assert run_cli(capsys, "flip", "4,4,4,4")[0] == 1  # missing -i
    assert run_cli(capsys, "verify", "4,4,4")[0] == 1  # short quad
    assert run_cli(capsys, "verify", "a,b,c,d")[0] == 1


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


def test_non_summable_quad_hits_budget(capsys):
    # the zero quad has an infinite family of zero cells: divergence is
    # made observable by the budget guard
    code, _, err = run_cli(capsys, "spectrum", "0,0,0,0", "-L", "2",
                           "--two-sided")
    assert code == 3


def test_domain_error_exit_4(capsys):
    code, _, err = run_cli(capsys, "coords", "0.5,0.5,0.25,-0.25",
                           "--from", "horocyclic")
    assert code == 4


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


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "markoffquads.cli", "systole", "4,4,4,4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["length"] == pytest.approx(2.887270950357621)


def test_common_flags_after_subcommand(capsys):
    a = run_cli(capsys, "--max-cells", "5000", "spectrum", "4,4,4,4", "-L", "3")
    b = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "3", "--max-cells", "5000")
    assert a == b
    code, _, _ = run_cli(capsys, "spectrum", "4,4,4,4", "-L", "20",
                         "--max-cells", "10")
    assert code == 3
