"""Tests for the benchmark's own parts.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math

import pytest

import checks
import run
import tracing
import workloads
from workloads import Call


# ---- self-time arithmetic -------------------------------------------------

def _span(name, start, end, parent, call=0):
    return [name, start, end, parent, call]


def test_self_times_nested_spans():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("spectra.one_sided_spectrum", 1.0, 7.0, 0),
        _span("curvecomplex.explore", 2.0, 5.0, 1),
        _span("cli._emit", 8.0, 9.5, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 3.0, 3.0, 1.5])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [_span("a.x", 0.0, 10.0, -1), _span("b.y", 1.0, 4.0, 0),
             _span("b.z", 3.0, 6.0, 0), _span("b.w", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the parent
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_spans_sum_to_root():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    leaf.__module__ = middle.__module__ = "markoffquads.spectra"
    wrapped_leaf = tr.wrap(leaf)
    assert tr.root("cli.main", tr.wrap(middle)) == 2
    names = [s[0] for s in tr.spans]
    assert names == ["cli.main", "spectra.middle", "spectra.leaf", "spectra.leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1]
    selfs = tracing.self_times(tr.spans)
    root = tr.spans[0]
    assert sum(selfs) == pytest.approx(root[2] - root[1])
    assert tracing.call_gaps(tr.spans, selfs, {0: root[2] - root[1]}) == pytest.approx(0.0)


def test_summarize_layer_metrics():
    spans = [
        _span("cli.main", 0.0, 10.0, -1, 0),
        _span("mcshane.mcshane_verify", 1.0, 8.0, 0, 0),
        _span("mcshane._partial", 1.0, 4.0, 1, 0),
        _span("mcshane._partial", 4.0, 7.0, 1, 0),
        _span("cli._emit", 8.0, 9.0, 0, 0),
    ]
    m = tracing.summarize(spans, {}, {0: [100, 300, 600]}, passes=1, emit_bytes=2e6)
    assert m["cli.self_s"] == pytest.approx(2.0)  # 10 - 7 - 1; emit excluded
    assert m["cli.emit_s"] == pytest.approx(1.0)
    assert m["cli.emit_MB_per_s"] == pytest.approx(2.0)
    assert m["mcshane.self_s"] == pytest.approx(7.0)
    assert m["mcshane.schedule_steps"] == 2
    assert m["curvecomplex.rewalk_ratio"] == pytest.approx(1000 / 600)


def test_tail_needs_ten_samples_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat, 100, 10) == (90.0, 90.0, 10)
    # more calls than the minimum: same percentile, more samples beyond
    value, pct, beyond = run.tail(lat, 50, 10)
    assert (value, pct, beyond) == (80.0, 80.0, 20)
    assert sum(1 for x in lat if x > value) == beyond
    # too few calls: the median of the slowest call of a pass
    assert run.tail([3.0, 1.0, 2.0, 5.0, 1.0, 2.0, 4.0, 1.0, 9.0], 9, 3) == (4.0, None, None)


def test_gauge_scales_latencies_by_recent_probes(monkeypatch):
    class FakeRunner:
        def run(self, call, tracer=None):
            return 0, json.dumps({"cmd": "verify", "valid": True, "residual": 0.0}), "", 0.5

    per_call = round(run.PROBE_SHARE * 0.5 / run.PROBE_REF_S)
    speeds = iter([2.0] * 2 * per_call + [1.0] * 100)
    monkeypatch.setattr(run, "probe", lambda: next(speeds) * run.PROBE_REF_S)
    p = run.Pass(FakeRunner(), [Call(("verify", "4,4,4,4"))] * 2, {}, gauge=True)
    assert p.run() == 1.0
    # host at half the reference speed: each 0.5 s call reads 0.25 s
    assert p.scaled == pytest.approx([0.25, 0.25])
    assert len(p.probes) == 2 * per_call
    # once the window holds only probes at the reference speed, no scaling
    p.run()
    assert p.scaled[-1] == pytest.approx(0.5)


# ---- output checker -------------------------------------------------------

def _spectrum_line(ell, L_trace=None):
    trace = 2 * math.sinh(ell / 2) if L_trace is None else L_trace
    return json.dumps({"cmd": "spectrum", "kind": "one-sided", "trace": trace,
                       "length": ell, "abs_length": ell, "cell": 0, "word": []})


SPECTRUM = Call(("spectrum", "4,4,4,4", "-L", "5"))


def test_checker_accepts_valid_spectrum_and_extra_fields():
    line = json.loads(_spectrum_line(3.0))
    line["remainder_bound"] = 1e-3
    out = "\n".join([_spectrum_line(2.0), json.dumps(line)]) + "\n"
    assert checks.check_call(SPECTRUM, 0, out, None) == 2


@pytest.mark.parametrize("const", ["NaN", "Infinity", "-Infinity"])
def test_checker_rejects_non_finite_json(const):
    out = _spectrum_line(2.0).replace('"trace": ', f'"trace": {const}, "x": ') + "\n"
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_call(SPECTRUM, 0, out, None)


def test_checker_rejects_wrong_or_missing_stored_count():
    out = _spectrum_line(2.0) + "\n"
    ref = {checks.reference_key(SPECTRUM): {"count": 2}}
    with pytest.raises(checks.CheckError, match="stored reference"):
        checks.check_call(SPECTRUM, 0, out, ref)
    ref = {checks.reference_key(SPECTRUM): {"count": 1}}
    assert checks.check_call(SPECTRUM, 0, out, ref) == 1
    with pytest.raises(checks.CheckError, match="no stored reference"):
        checks.check_call(SPECTRUM, 0, out, {})


@pytest.mark.parametrize("lines, match", [
    ([_spectrum_line(3.0), _spectrum_line(2.0)], "not sorted"),
    ([_spectrum_line(6.0)], "not below L"),
    ([_spectrum_line(2.0, L_trace=2.5)], "does not match trace"),
    (["[1, 2]"], "not a JSON object"),
])
def test_checker_rejects_broken_spectrum(lines, match):
    with pytest.raises(checks.CheckError, match=match):
        checks.check_call(SPECTRUM, 0, "\n".join(lines) + "\n", None)


def test_checker_rejects_exit_code_and_mcshane_sum():
    call = Call(("mcshane", "4,4,4,4", "--cutoff", "1e40"))
    rec = {"cmd": "mcshane", "partial_sum": 0.5 + 2e-9, "term_count": 5,
           "product_cutoff": 1e40, "last_shell_max": 0.0, "verdict": "partial"}
    with pytest.raises(checks.CheckError, match="exit code"):
        checks.check_call(call, 3, json.dumps(rec), None)
    with pytest.raises(checks.CheckError, match="1/2"):
        checks.check_call(call, 0, json.dumps(rec), None)
    rec["partial_sum"] = [0.5, 1e-12]
    assert checks.check_call(call, 0, json.dumps(rec), None) == 5


def test_checker_rejects_bad_integer_quads_and_flip():
    call = Call(("enumerate-integral", "-B", "100"))
    good = json.dumps({"cmd": "enumerate-integral", "result": [4, 4, 4, 4]})
    bad = json.dumps({"cmd": "enumerate-integral", "result": [4, 4, 4, 5]})
    assert checks.check_call(call, 0, good, None) == 1
    with pytest.raises(checks.CheckError, match="abcd"):
        checks.check_call(call, 0, good + "\n" + bad, None)
    flip = Call(("flip", "4,4,4,4", "-i", "4"))
    with pytest.raises(checks.CheckError, match="expected"):
        checks.check_call(flip, 0, json.dumps({"cmd": "flip", "result": [4, 4, 4, 35]}), None)
    assert checks.check_call(
        flip, 0, json.dumps({"cmd": "flip", "result": [4, 4, 4, 36]}), None) == 1


# ---- seeded generator -----------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    first = workloads.build(name, 7)
    assert [c.argv for c in first] == [c.argv for c in workloads.build(name, 7)]
    assert [c.expect for c in first] == [c.expect for c in workloads.build(name, 7)]
    assert [c.argv for c in first] != [c.argv for c in workloads.build(name, 8)]
    # seeds past the referenced variants reuse them, so they stay checked
    again = workloads.build(name, 7 + workloads.REFERENCE_SEEDS)
    assert [c.argv for c in first] == [c.argv for c in again]


def test_every_variant_has_stored_references():
    reference = checks.load_reference()
    for seed in (0, workloads.REFERENCE_SEEDS - 1):
        for name in workloads.WORKLOADS:
            for call in workloads.build(name, seed):
                if call.cmd in ("spectrum", "mcshane", "growth", "systole", "bq-check",
                                "enumerate-integral", "fundamental"):
                    assert checks.reference_key(call) in reference, call.argv


def test_generated_quads_satisfy_the_relation():
    for seed in range(20):
        for q in workloads.quads_of(workloads.build("cli-short", seed)
                                    + workloads.build("sweeps", seed)
                                    + workloads.build("integral", seed)):
            a, b, c, d = q
            lhs, rhs = (a + b + c + d) ** 2, a * b * c * d
            if all(isinstance(v, int) for v in q):
                assert lhs == rhs
            else:
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# ---- in-process runner ---------------------------------------------------

def test_clear_program_caches_empties_functools_caches(monkeypatch):
    import functools
    import sys
    import types

    mod = types.ModuleType("markoffquads._cache_probe")
    mod.cached = functools.lru_cache(maxsize=1)(lambda: object())
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    first = mod.cached()
    assert mod.cached() is first
    run.clear_program_caches()
    assert mod.cached.cache_info().currsize == 0
    assert mod.cached() is not first


def test_bytes_per_cell_measures_the_walk():
    assert run.bytes_per_cell(Call(("spectrum", "4,4,4,4", "-L", "8"))) > 0


def test_real_cli_output_passes_the_checker():
    runner = run.InProcess()
    reference = checks.load_reference()
    for call in workloads.build("cli-short", 0):
        rc, out, err, _ = runner.run(call)
        checks.check_call(call, rc, out, reference)
