#!/usr/bin/env python3
"""The markoffquads benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --untimed

Run from the root of a checkout; the program is imported from ./src.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones,
--untimed runs one checked pass and prints its item counts.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from pathlib import Path

import checks
import traced_cli
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CALL_TIMEOUT_S = 60.0
SETUP_REPS = 8
IMPORT_REPS = 5
TRACE_MIN_PASSES = 2
# Host-speed gauge: after each timed call the benchmark times probe()
# for about PROBE_SHARE of that call's duration, and scales the call's
# latency by PROBE_REF_S / (mean of the last PROBE_WINDOW probes).
# PROBE_REF_S is the probe's time on the baseline machine (README.md).
PROBE_REF_S = 0.007
PROBE_SHARE = 0.1
PROBE_WINDOW = 10
SETUP_PROBES = 4
PACKAGE_MODULES = ("markoffquads", "errors", "quadalgebra", "curvecomplex",
                   "spectra", "mcshane", "integral", "coords", "cli")
SETUP_CODE = ("import markoffquads.cli as m; "
              "getattr(m, '_build_parser', lambda: None)()")
IMPORT_CODE = ("import time; t = time.perf_counter(); import markoffquads.cli; "
               "print(time.perf_counter() - t)")


class ProgramMissing(Exception):
    pass


def probe() -> float:
    """Seconds taken by a fixed pure-Python job of the program's kind
    (complex arithmetic, small tuples and lists, a dict, a sort)."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    table = {}
    for i in range(6000):
        z = complex(rng.random(), rng.random())
        table[(i, i + 1)] = (z * z + 1, abs(z), [i, z])
    sorted(table.values(), key=lambda v: v[1])
    return time.perf_counter() - t0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MQL_MAX_CELLS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program():
    """markoffquads.cli from this checkout's src/, never an installed copy."""
    pkg = SRC / "markoffquads"
    os.environ.pop("MQL_MAX_CELLS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import markoffquads.cli as cli
    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"imported {cli.__file__}, not the checkout's copy")
    return cli


def run_child(cmd: list[str]) -> tuple[int, str, str, float, float]:
    """Run one child to completion: (rc, stdout, stderr, seconds, maxrss MB).
    os.wait4 gives this child's own peak RSS."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         cwd=ROOT, env=child_env())
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    killer = threading.Timer(CALL_TIMEOUT_S, p.kill)
    reader.start()
    killer.start()
    try:
        out = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
        p.stdout.close()
        p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    t1 = time.perf_counter()
    return (p.returncode, out.decode(), err[0].decode() if err else "", t1 - t0,
            usage.ru_maxrss / 1024)


def clear_program_caches() -> None:
    """Empty the functools caches of the markoffquads modules (such as
    integral._fundamental), so that an in-process call pays what a fresh
    `mql` invocation pays."""
    for name, mod in list(sys.modules.items()):
        if name == "markoffquads" or name.startswith("markoffquads."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class InProcess:
    """Calls markoffquads.cli.main(argv) in this process, stdout captured,
    starting each call with the program's caches empty."""

    def __init__(self):
        self.cli = import_program()

    def run(self, call, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        argv = list(call.argv)
        clear_program_caches()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.root("cli.main", self.cli.main, argv)
            except (Exception, SystemExit):
                rc = f"exception: {traceback.format_exc(limit=3)}"
            t1 = time.perf_counter()
        return rc, out.getvalue(), err.getvalue(), t1 - t0


class Subprocess:
    """Runs `python -m markoffquads.cli argv` as a fresh interpreter per call;
    traced calls go through traced_cli.py instead."""

    def __init__(self):
        self.max_rss = 0.0

    def run(self, call, tracer=None):
        if tracer is None:
            rc, out, err, dt, rss = run_child(
                [sys.executable, "-m", "markoffquads.cli", *call.argv])
        else:
            tracer.call_id += 1
            root = tracer.open("import.interpreter")
            try:
                rc, out, err, dt, rss = run_child(
                    [sys.executable, str(HERE / "traced_cli.py"), *call.argv])
            finally:
                tracer.close(root)
            err = merge_child_trace(tracer, root, err)
        self.max_rss = max(self.max_rss, rss)
        return rc, out, err, dt

    def peak_rss_mb(self) -> float:
        return self.max_rss


def merge_child_trace(tracer, root_index: int, stderr: str) -> str:
    """Move the child's spans under the root span; returns the stderr
    text without the trace line."""
    keep = []
    for line in stderr.splitlines():
        if not line.startswith(traced_cli.MARKER):
            keep.append(line)
            continue
        payload = json.loads(line[len(traced_cli.MARKER):])
        base = len(tracer.names)
        for name, start, end, parent, _ in payload["spans"]:
            tracer.add(name, start, end, root_index if parent < 0 else base + parent,
                       tracer.call_id)
        for k, v in payload["counts"].items():
            tracer.counts[k] += v
        tracer.walks[tracer.call_id].extend(payload["walks"])
    return "\n".join(keep)


class Pass:
    """Runs the calls of one pass and checks every output.  With `gauge`
    set, it also times probe() after every call and records in `scaled`
    each latency scaled to the reference host speed."""

    def __init__(self, runner, calls, reference, gauge=False):
        self.runner, self.calls, self.reference = runner, calls, reference
        self.gauge = gauge
        self.items = [None] * len(calls)
        self.digests = [None] * len(calls)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.scaled: list[float] = []
        self.emit_bytes = 0

    def run(self, tracer=None, call_walls=None) -> float:
        """Raw time of one pass, the sum of its call latencies."""
        total = 0.0
        for k, call in enumerate(self.calls):
            rc, out, err, dt = self.runner.run(call, tracer)
            total += dt
            self.latencies.append(dt)
            self.emit_bytes += len(out)
            if call_walls is not None:
                call_walls[tracer.call_id] = dt
            self.attempted += 1
            try:
                items = checks.check_call(call, rc, out, self.reference)
                digest = hash(out)
                if self.digests[k] is not None and self.digests[k] != digest:
                    raise checks.CheckError("output differs from the previous pass")
                self.items[k], self.digests[k] = items, digest
            except checks.CheckError as e:
                self.failed += 1
                if len(self.failures) < 10:
                    tail = err.strip().splitlines()[-1:] if err.strip() else []
                    self.failures.append(f"{' '.join(call.argv)[:120]}: {e} {tail}")
            if self.gauge:
                reps = max(1, round(PROBE_SHARE * dt / PROBE_REF_S))
                self.probes += [probe() for _ in range(reps)]
                recent = statistics.fmean(self.probes[-PROBE_WINDOW:])
                self.scaled.append(dt * PROBE_REF_S / recent)
        return total

    def items_per_pass(self) -> int:
        return sum(i for i in self.items if i is not None)

    def peak_rss_in_children(self) -> float:
        """Runs the calls once more, each as a fresh `python -m
        markoffquads.cli` writing to a pipe, checks their outputs (which
        must equal this pass's) and returns the largest child's peak RSS
        in MB.  Its calls count as attempted; its latencies stay out of
        this pass's."""
        child = Pass(Subprocess(), self.calls, self.reference)
        child.digests = self.digests
        child.run()
        self.attempted += child.attempted
        self.failed += child.failed
        self.failures += child.failures
        return child.runner.peak_rss_mb()


def run_passes(p: Pass, seconds: float, min_passes: int,
               tracer=None, call_walls=None) -> list[float]:
    """Pass times, running passes until `seconds` have gone by and at
    least `min_passes` are done."""
    walls = []
    t0 = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - t0 < seconds:
        walls.append(p.run(tracer, call_walls))
    return walls


def warm_up(runner, calls) -> None:
    """The first in-process call grows the heap to its working size; later
    calls reuse it, so the timed passes measure the steady state."""
    if isinstance(runner, InProcess):
        runner.run(calls[0])


def measure_setup(reps: int) -> list[tuple[float, float]]:
    """(wall time, the same scaled to the reference host speed) of `reps`
    fresh interpreters each importing markoffquads.cli and building its
    parser; each is scaled by the SETUP_PROBES probes that follow it."""
    times = []
    for _ in range(reps):
        rc, _, err, dt, _ = run_child([sys.executable, "-c", SETUP_CODE])
        if rc != 0:
            raise ProgramMissing(f"importing markoffquads.cli failed: {err.strip()[-300:]}")
        speed = statistics.fmean(probe() for _ in range(SETUP_PROBES))
        times.append((dt, dt * PROBE_REF_S / speed))
    return times


def tail(latencies: list[float], min_samples: int,
         per_pass: int) -> tuple[float, float | None, int | None]:
    """(value, percentile, samples beyond it) at the highest percentile
    that leaves at least ten of `min_samples` calls beyond it.  Every run
    has at least `min_samples` calls, so the percentile is fixed per
    workload.  Below 20 samples no percentile at or above the median
    qualifies; the value is then the median latency of the slowest of the
    `per_pass` calls of a pass (latencies are in pass order), and the
    percentile and count are None."""
    if min_samples < 20:
        slowest = max(statistics.median(latencies[k::per_pass]) for k in range(per_pass))
        return slowest, None, None
    xs = sorted(latencies)
    n = len(xs)
    pct = 100.0 * (min_samples - 10) / min_samples
    rank = math.ceil(pct / 100.0 * n)
    return xs[rank - 1], pct, n - rank


def import_profile() -> dict:
    """import.cli_s from plain runs and per-module self times from
    `-X importtime` runs, medians over IMPORT_REPS fresh interpreters."""
    cli_s, per_mod = [], {}
    for _ in range(IMPORT_REPS):
        _, out, _, _, _ = run_child([sys.executable, "-c", IMPORT_CODE])
        cli_s.append(float(out))
        _, _, err, _, _ = run_child([sys.executable, "-X", "importtime", "-c",
                                     "import markoffquads.cli"])
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue
            seen[parts[2].strip()] = (self_us, cum_us)
        for mod in PACKAGE_MODULES:
            full = mod if mod == "markoffquads" else f"markoffquads.{mod}"
            per_mod.setdefault(f"import.self_ms.{mod}", []).append(
                seen.get(full, (0, 0))[0] / 1e3)
        per_mod.setdefault("import.cum_ms.concurrent.futures", []).append(
            seen.get("concurrent.futures", (0, 0))[1] / 1e3)
    metrics = {"import.cli_s": statistics.median(cli_s)}
    metrics.update({k: statistics.median(v) for k, v in per_mod.items()})
    return metrics


def flip_ns(calls) -> float:
    """ns per quadalgebra.flip_value call on the workload's own quads."""
    from markoffquads.quadalgebra import flip_value
    quads = workloads.quads_of(calls) or [(4, 4, 4, 4)]
    seq = [(q, i) for q in quads for i in range(1, 5)] * 500
    reps = []
    for _ in range(5):
        t0 = time.perf_counter()
        for vals, i in seq:
            flip_value(vals, i)
        reps.append((time.perf_counter() - t0) / len(seq) * 1e9)
    return statistics.median(reps)


def bytes_per_cell(call) -> float:
    """tracemalloc peak of the largest walk of `call`, per cell it created,
    measured in a separate untimed in-process run."""
    runner = InProcess()
    tracer = tracing.WalkMemory()
    tracer.install(tracing.EXPLORE_PATCHES)
    tracemalloc.start()
    try:
        runner.run(call, tracer)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    cells, peak = max(zip(tracer.walks[0], tracer.peaks), default=(0, 0))
    return peak / cells if cells else 0.0


def write_spans(name: str, seed: int, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "call"],
                   "spans": spans}, f, separators=(",", ":"))
    return path


def make_runner(name: str):
    return Subprocess() if name in workloads.SUBPROCESS_WORKLOADS else InProcess()


def describe(name, seed, p: Pass, passes: int):
    mode = ("fresh interpreter per call" if name in workloads.SUBPROCESS_WORKLOADS
            else "in-process cli.main")
    print(f"workload {name}  seed {seed}  {mode}; closed loop, one caller")
    print(f"passes {passes}  calls {p.attempted}  items/pass {p.items_per_pass()}")
    print("items per call: " + " ".join(str(i) for i in p.items))
    for f in p.failures:
        print(f"FAILED {f}")


def untraced(name: str, seed: int, seconds: float, calls, reference) -> tuple[Pass, dict]:
    # set-up is sampled before and after the timed passes, so that its
    # median spans the run rather than one moment of it; the very first
    # interpreter byte-compiles the package and is discarded
    setup = measure_setup(1 + SETUP_REPS // 2)[1:]
    runner = make_runner(name)
    warm_up(runner, calls)
    p = Pass(runner, calls, reference, gauge=True)
    min_passes = workloads.MIN_PASSES[name]
    walls = run_passes(p, seconds, min_passes)
    peak_rss = (p.peak_rss_in_children() if isinstance(runner, InProcess)
                else runner.peak_rss_mb())
    setup += measure_setup(SETUP_REPS - len(setup))
    raw = {"setup_s": statistics.median(t for t, _ in setup),
           "wall_s": statistics.median(walls),
           "call_p50_ms": statistics.median(p.latencies) * 1e3}
    n = len(calls)
    wall_s = statistics.median(sum(p.scaled[i:i + n]) for i in range(0, len(p.scaled), n))
    tail_v, tail_pct, beyond = tail(p.scaled, min_passes * n, n)
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup), "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (p.items_per_pass() / wall_s, "1/s"),
        "call_p50_ms": (statistics.median(p.scaled) * 1e3, "ms"),
        "call_tail_ms": (tail_v * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    describe(name, seed, p, len(walls))
    print(f"host speed: probe median {statistics.median(p.probes) * 1e3:.3f} ms "
          f"({len(p.probes)} probes), reference {PROBE_REF_S * 1e3:g} ms; "
          "times are scaled to the reference speed")
    for k, (v, unit) in metrics.items():
        unscaled = f"  (unscaled {raw[k]:.6g})" if k in raw else ""
        print(f"  {k:<14} {v:12.6g} {unit}{unscaled}")
    print(f"  {'error_rate':<14} {p.failed / p.attempted:12.6g} ({p.failed}/{p.attempted})")
    if tail_pct is None:
        print(f"  call_tail_ms is the median latency of the slowest of the {n} calls "
              f"of a pass ({len(p.scaled)} calls, too few for a percentile)")
    else:
        print(f"  call_tail_ms is p{tail_pct:.1f} of {len(p.scaled)} calls, "
              f"{beyond} beyond it")
    print(f"  setup_s is the median of {len(setup)} interpreters")
    return p, metrics


def traced(name: str, seed: int, seconds: float, calls, reference) -> tuple[Pass, dict]:
    runner = make_runner(name)
    warm_up(runner, calls)
    p = Pass(runner, calls, reference)
    base_walls = run_passes(p, seconds / 2, TRACE_MIN_PASSES)
    emit_before = p.emit_bytes
    tracer = tracing.Tracer()
    if isinstance(runner, InProcess):
        missing = tracer.install()
    else:
        import_program()  # for the in-process tracemalloc and flip runs
        missing = []
    call_walls: dict[int, float] = {}
    try:
        walls = run_passes(p, seconds / 2, TRACE_MIN_PASSES, tracer, call_walls)
    finally:
        tracer.uninstall()
    overhead = statistics.median(walls) - statistics.median(base_walls)
    spans = tracer.spans
    layer = tracing.summarize(spans, tracer.counts, tracer.walks,
                              len(walls), p.emit_bytes - emit_before)
    largest = max(tracer.walks.items(), key=lambda kv: max(kv[1], default=0),
                  default=(0, []))[0]
    layer["curvecomplex.bytes_per_cell"] = bytes_per_cell(calls[largest % len(calls)])
    layer["quadalgebra.flip_ns"] = flip_ns(calls)
    layer.update(import_profile())
    layer["trace.overhead_s"] = overhead
    gap = tracing.call_gaps(spans, tracing.self_times(spans), call_walls)
    path = write_spans(name, seed, spans)

    describe(name, seed, p, len(base_walls) + len(walls))
    if missing:
        print("not traced (name absent): " + ", ".join(missing))
    print(f"untraced passes {len(base_walls)}, traced passes {len(walls)}; "
          f"{len(spans)} spans written to {path.relative_to(ROOT)}")
    print(f"largest |sum of self times - call wall| = {gap:.3g} s "
          f"(trace.overhead_s = {overhead:.3g} s per pass)")
    for k in sorted(layer):
        print(f"  {k:<36} {layer[k]:14.6g} {unit_of(k)}")
    return p, {k: (v, unit_of(k)) for k, v in layer.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("MB_per_s"):
        return "MB/s"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_ns"):
        return "ns"
    if "_ms." in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("bytes_per_cell", "_bytes")):
        return "B"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def untimed(name: str, seed: int, calls, reference) -> Pass:
    p = Pass(make_runner(name), calls, reference)
    p.run()
    describe(name, seed, p, 1)
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--untimed", action="store_true",
                    help="one checked pass, no timing")
    args = ap.parse_args(argv)
    calls = workloads.build(args.workload, args.seed)
    reference = checks.load_reference()
    try:
        if not (SRC / "markoffquads" / "cli.py").is_file():
            raise ProgramMissing(f"{SRC / 'markoffquads' / 'cli.py'} not found; "
                                 "run from the root of a repository checkout")
        if args.untimed:
            p, metrics = untimed(args.workload, args.seed, calls, reference), {}
        elif args.trace:
            p, metrics = traced(args.workload, args.seed, args.seconds, calls, reference)
        else:
            p, metrics = untraced(args.workload, args.seed, args.seconds, calls, reference)
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    result = {
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
