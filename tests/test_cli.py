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

from markoffquads import cli
from markoffquads.cli import _emit, main, parse_quad
from markoffquads import DomainError, IntegerQuad, MarkoffQuad, int_flip


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


def test_import_loads_neither_dataclasses_nor_inspect():
    # together the two add about 10 ms to the start-up of every fresh `mql`
    # call; random (coords) and csv (--format csv) are imported where used.
    # -S keeps site's own imports (a .pth file may load random) out of it.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import markoffquads.cli, sys; "
         "print(sorted({'dataclasses', 'inspect', 'random', 'csv'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 0 and proc.stdout == "[]\n"


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
        '{"cmd":"mcshane","last_shell_max":0.0,"partial_sum":0.4998282135773119,'
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
     "9900a9a02327f19894a62b2ad3ed57900adcbe1ab6fbc2a1f16c2a5321ab33bf"),
    (("spectrum", "4,4,4,4", "-L", "20", "--two-sided"), 54,
     "cd2a3d749461daa2508b48530a72f2e93163ae57fce2a881bbcdf72ebaaaa81c"),
    (("--format", "csv", "spectrum", "4,4,4,4", "-L", "20"), 33,
     "43ecb2a94f70f172e62ff35d81e65caf1d7b3f1417a3b9cfb6ef4d17d679e756"),
    (("spectrum", "12,4,6,2", "-L", "14"), 15,
     "28e1173b0e518ea1c4d4ce6f8769d3bb8c1d133e390c6ef7ef69ebf79cce9b65"),
    (("spectrum", QF_L, "-L", "100"), 1601,
     "180ce86a55a21b6e34600abbb12374d3e797692ade768e60bf09a332f192a311"),
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
        q, i = int_flip(q, i), 7 - i
    return ",".join(str(v) for v in q.values())


MISSING_OUT = os.path.join(os.path.dirname(__file__), "no-such-dir", "out.jsonl")
BIG_INT = "7" * 5000  # past the interpreter's 4300-digit int-from-str limit
INT400 = _grown_integer_quad(400)  # exact quad, past the float range


@pytest.mark.parametrize("argv, code", [
    (("spectrum", "4,4,4,4", "-L", "1500"), 4),
    (("spectrum", "4,4,4,4", "-L", "1500", "--two-sided"), 4),
    (("growth", "4,4,4,4", "--lmin", "10", "--lmax", "1e300", "--shells", "7"), 4),
    (("spectrum", f"4,4,4,{BIG_INT}", "-L", "8"), 1),
    (("verify", "1e200,1e200,1e200,1e200"), 4),
    (("spectrum", INT400, "-L", "8"), 4),
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
])
def test_out_of_range_input_one_line_error(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith("mql: ") and err.count("\n") == 1


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


def test_closed_stdout_pipe_exits_quietly():
    # `mql spectrum ... | head -1`: the reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "markoffquads.cli", "spectrum", "4,4,4,4", "-L", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["cmd"] == "spectrum"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


_NUM = st.sampled_from(["nan", "inf", "1e308", "1500", "-5", "x", BIG_INT, "1e200",
                        "0", "3", "10", "1e-3"])
_VALID_QUAD = st.sampled_from(["4,4,4,4", "2,5,5,8", "0,0,0,0", QF, INT400,
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


def test_top_level_help_lists_every_command():
    (kind, code), out, _ = _run_main(["--help"])
    assert (kind, code) == ("exit", 0) and len(cli._COMMANDS) == 13
    for name, (help_text, _, _) in cli._COMMANDS.items():
        assert re.search(rf"^ +{re.escape(name)} +{re.escape(help_text)}$", out, re.M), name
