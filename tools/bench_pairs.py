"""Run the benchmark on two checkouts in alternated pairs and judge a claim.

    python3 tools/bench_pairs.py PARENT CHANGE --workload spectrum \
        --seeds 91-100 --pairs 10 --out BENCH.json

PARENT and CHANGE are the roots of two checkouts.  Pair i runs
`python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0`
once in each checkout (the run length is fixed, see `SECONDS`), S being the i-th seed (the seeds repeat when
there are fewer seeds than pairs).  Even pairs run the parent first,
odd pairs the change.  Before every run each `__pycache__` below the
checkout is removed and bytecode writing is switched off, so both sides
compile their sources afresh.  Nothing is imported from `perfbench/`:
the runs' last stdout lines are read as JSON.

The output file holds every pair's metrics, each side's median and
quartiles per metric, the change's wins per metric (ties count for
neither side), and the verdict on `--metric`: a gain is claimed only
over at least `MIN_PAIRS` pairs, when the change wins at least nine
tenths of them and the medians differ, in the change's favour, by more
than the parent's interquartile range.  A metric's figures come only
from the pairs in which both runs report it, so every win compares the
two runs of one pair.  The file is rewritten after every pair.  A run
that fails or reports failed calls makes the verdict false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# every run lasts this long; a claim rests on runs of the standard length
SECONDS = 20.0
# a gain is judged over no fewer pairs than this
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """`1,5,9-12` -> [1, 5, 9, 10, 11, 12]."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run in the checkout at root: its result object."""
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "returncode": proc.returncode,
                "stderr": proc.stderr[-2000:], "metrics": {}}
    result = json.loads(lines[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], metric: str) -> dict:
    """Per-metric medians, quartiles and wins over the pairs, and the
    verdict on `metric`.  better maps a metric name to "lower" or
    "higher"."""
    summary = {}
    for name, direction in better.items():
        both = [p for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        sides = {side: [p[side]["metrics"][name] for p in both]
                 for side in ("parent", "change")}
        sign = 1.0 if direction == "lower" else -1.0
        diffs = [sign * (a - b) for a, b in zip(sides["parent"], sides["change"])]
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        summary[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "pairs": len(both),
            "change_over_parent": change["median"] / parent["median"],
            "change_wins": sum(d > 0 for d in diffs),
            "parent_wins": sum(d < 0 for d in diffs),
        }
    all_correct = all(p[side].get("correct") and not p[side].get("failed")
                      for p in pairs for side in ("parent", "change"))
    s = summary.get(metric)
    verdict = {"metric": metric, "pairs": len(pairs), "all_runs_correct": all_correct,
               "gain": False}
    if s is not None:
        sign = 1.0 if s["better"] == "lower" else -1.0
        gap = sign * (s["parent"]["median"] - s["change"]["median"])
        iqr = s["parent"]["q3"] - s["parent"]["q1"]
        verdict.update(wins=s["change_wins"], median_gap=gap, parent_iqr=iqr,
                       gain=(all_correct and s["pairs"] >= MIN_PAIRS
                             and 10 * s["change_wins"] >= 9 * s["pairs"] and gap > iqr))
    return {"metrics": summary, "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="comma-separated seeds and ranges, e.g. 91-100")
    ap.add_argument("--pairs", type=int, help="default: one pair per seed")
    ap.add_argument("--metric", default="wall_s", help="the metric a gain is claimed on")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{root} has no perfbench/run.py")
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.metric not in better:
        ap.error(f"--metric must be one of {', '.join(better)}")
    n = args.pairs or len(args.seeds)
    pairs = []
    for i in range(n):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed)
        pairs.append(pair)
        report = {"workload": args.workload, "seconds": SECONDS,
                  "command": "python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {SECONDS:g} --trace 0",
                  "pairs": pairs, **summarize(pairs, better, args.metric)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        p, c = pair["parent"]["metrics"], pair["change"]["metrics"]
        print(f"pair {i + 1}/{n} seed {seed}: {args.metric} parent "
              f"{p.get(args.metric)} change {c.get(args.metric)}", flush=True)
    print(json.dumps(report["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
