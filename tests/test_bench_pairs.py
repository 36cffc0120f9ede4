"""The verdict of `tools/bench_pairs.py`, on made-up runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "items_per_s": "higher"}


def _run(wall, items=100.0, failed=0):
    return {"correct": failed == 0, "failed": failed,
            "metrics": {"wall_s": wall, "items_per_s": items}}


def _pairs(parent, change, **change_kw):
    return [{"seed": i, "parent": _run(p), "change": _run(c, **change_kw)}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_nine_wins_and_a_gap_beyond_the_parent_iqr_is_a_gain():
    change = [0.9] * 9 + [1.5]
    out = bench_pairs.summarize(_pairs(PARENT, change), BETTER, "wall_s")
    v = out["verdict"]
    assert (v["wins"], v["pairs"], v["gain"]) == (9, 10, True)
    assert v["median_gap"] > v["parent_iqr"] > 0
    s = out["metrics"]["wall_s"]
    assert (s["change_wins"], s["parent_wins"]) == (9, 1)
    assert s["parent"]["median"] == 1.0 and s["change"]["median"] == 0.9


def test_eight_wins_or_a_tie_is_no_gain():
    change = [0.9] * 8 + [1.5, 1.5]
    assert not bench_pairs.summarize(_pairs(PARENT, change), BETTER, "wall_s")["verdict"]["gain"]
    # a tie counts for neither side
    change = [0.9] * 9 + [PARENT[9]]
    out = bench_pairs.summarize(_pairs(PARENT, change), BETTER, "wall_s")
    s = out["metrics"]["wall_s"]
    assert (s["change_wins"], s["parent_wins"]) == (9, 0)
    assert out["verdict"]["gain"]


def test_a_gap_within_the_parent_iqr_is_no_gain():
    change = [p - 0.005 for p in PARENT]
    v = bench_pairs.summarize(_pairs(PARENT, change), BETTER, "wall_s")["verdict"]
    assert v["wins"] == 10 and v["median_gap"] < v["parent_iqr"] and not v["gain"]


def test_higher_is_better_and_failed_runs_void_the_claim():
    pairs = [{"seed": i, "parent": _run(1.0, items=100.0 + i % 3),
              "change": _run(1.0, items=120.0)} for i in range(10)]
    assert bench_pairs.summarize(pairs, BETTER, "items_per_s")["verdict"]["gain"]
    pairs[3]["change"]["failed"] = 1
    v = bench_pairs.summarize(pairs, BETTER, "items_per_s")["verdict"]
    assert not v["all_runs_correct"] and not v["gain"]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1,5,9-12") == [1, 5, 9, 10, 11, 12]


def test_fewer_than_ten_pairs_is_no_gain():
    pairs = _pairs(PARENT[:5], [0.5] * 5)
    v = bench_pairs.summarize(pairs, BETTER, "wall_s")["verdict"]
    assert (v["wins"], v["pairs"]) == (5, 5)
    assert v["median_gap"] > v["parent_iqr"] and not v["gain"]


def test_wins_compare_the_two_runs_of_one_pair():
    # the parent's pair 0 and the change's pair 9 report no metrics;
    # dropping each side's gap separately would set the parent's pair 1
    # against the change's pair 0, and so on
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
    change = [p - 0.5 for p in parent]
    pairs = _pairs(parent, change)
    pairs[0]["parent"] = {"correct": False, "metrics": {}}
    pairs[9]["change"] = {"correct": False, "metrics": {}}
    s = bench_pairs.summarize(pairs, BETTER, "wall_s")["metrics"]["wall_s"]
    assert (s["pairs"], s["change_wins"], s["parent_wins"]) == (9, 9, 0)
