"""Digest what `mql` prints on the benchmark's calls.

Runs every call of the four benchmark workloads at seeds 1-8, once in
JSON Lines and once in CSV, in this process through
`markoffquads.cli.main`, and prints one sha256 of (exit code, stdout,
stderr) per workload and format.  The `walks` line is one sha256 over
every `Walk` those calls make: values by repr, parents, slots, faces in
insertion order, nodes visited and the budget flag, so a change to the
walk shows even where stdout does not.  The `total` line is one sha256
over the workload lines.  The `edge` line digests, the same way and in
both formats, the fixed calls of EDGE_CALLS: inputs that fail, sit on a
boundary or take a path that no workload reaches.  They run after the
workloads, outside `walks` and `total`.  Two checkouts whose outputs
match print the same lines:

    python3 tools/stdout_digests.py > new.txt     # in each checkout's root
    diff old.txt new.txt

The calls come from `perfbench/workloads.py`, imported and not changed.
The program is imported from this checkout's `src/`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
# `cli` imports each command's modules when the command runs; spectra and
# mcshane, which make the workloads' walks, are imported here so that
# their `walk` can be wrapped before the first call
from markoffquads import cli, curvecomplex, mcshane, spectra  # noqa: E402, F401

SEEDS = range(1, 9)
FORMATS = ("jsonl", "csv")
_Q = "1,4.3,100,140.4571129984594"  # Fuchsian; its sink's face (0, 1) has trace 2.3
# face (0, 1) has product 4.0000000005: |p| > 4, yet within 1e-9 of the cut [0, 4]
_NEAR_CUT = "2.0,2.00000000025,1.0+1.0i,-1.1796405576775428-3.394736453993022i"
# _NEAR_CUT flipped at slot 2: the face of product 4.0000000005 is (0, 4)
_NEAR_CUT_FLIPPED = ("2.0+0.0i,-1.2105270922639564-4.3592811153550866i,1.0+1.0i,"
                     "-1.1796405576775428-3.394736453993022i")
# its face of product 3.005697454937217, inside [0, 4], is not among its
# sink's six: the summability walk from the sink finds it
_DEEP_VIOLATION = ("19.567214491487373,0.153608857113762,5.771479429979589+1.2959117573731556i,"
                   "-19.10292185666132+19.911812789801616i")
# no sink within the descent's 10,000 flips
_NO_SINK = ("2.82994373389295-0.624969029583311i,-0.5916790927937914+2.680782038789358i,"
            "1.3487919938052917-1.979978040168627i,0.5682813189003814-0.734440080060708i")
EDGE_CALLS = [f"{call} --max-cells 20000".split() for call in (
    f"systole {_Q} --tol 0.5",
    f"spectrum {_Q} -L 2 --two-sided --tol 0.5",
    f"mcshane {_Q} --cutoff 1e6 --tol 0.5",
    f"bq-check {_Q} -k 10 --tol 0.5",
    "spectrum 8,1,1,-6-8i -L 10 --two-sided",  # face (1, 2) has product 1
    "spectrum 8,1,1,-6-8i -L 10",
    "systole 8,1,1,-6-8i",
    "mcshane 8,1,1,-6-8i --cutoff 10",
    "spectrum 0,0,0,0 -L 3",
    "spectrum 0,0,0,0 -L 3 --two-sided",
    "mcshane 0,0,0,0 --cutoff 10",
    "verify 1e200,1e200,1e200,1e200",
    "spectrum 4,4,4,4 -L 1500",
    "systole 484,68644,1195914724,39732704840132164",
    "coords 1,2,x,4 --from horocyclic",
    "growth 4,4,4,4 --lmin 1e-300 --lmax 1e300 --shells 5",  # lmax / lmin overflows
    f"bq-check {_NEAR_CUT} -k 10",
    f"mcshane {_NEAR_CUT} --cutoff 100",
    "enumerate-integral -B 4",  # (4,4,4,4) alone
    "enumerate-integral -B 3",  # below the smallest quad
    f"enumerate-integral -B {10 ** 40}",  # 26,081 quads, past the budget
    "fundamental",
    "reduce 12,6,4,2",  # the ninth root, (2,4,6,12), unsorted: word []
    "reduce 242,4,6,12",  # one flip above it: word [1]
    "reduce 0,0,0,0",  # not positive: exit 4
    f"bq-check {_NEAR_CUT_FLIPPED} -k 4",
    f"mcshane {_NEAR_CUT_FLIPPED} --cutoff 4",
    f"mcshane {_NO_SINK} --cutoff 100",
    "spectrum 4,4,4,4 -L 20",  # an exact walk: int traces
    "spectrum 4,4,4,4 -L 20 --two-sided",
    "systole 4,4,4,36",
    "coords 1e-300,1e-300,1e-300,1 --from horocyclic",  # a product of three underflows
    f"mcshane {_DEEP_VIOLATION} --cutoff 1e6",
    f"mcshane {_DEEP_VIOLATION} --target-tol 1e-3",
    f"bq-check {_DEEP_VIOLATION} -k 4",
    # a tied float sink whose face (0, 1) has the real product 4.0000000005:
    # a violation outside faces4
    "bq-check 2,2.00000000025,31999997354.308346,31999997358.308346 -k 4",
    # a positive sink whose systole is two-sided: its face (0, 1), of product
    # 4.5294874004991144, is shorter than its smallest cell
    "systole 1.7050967273722715,2.6564401466417205,34.15550190027589,33.86599007816797",
)] + [call.split() for call in (
    # calls that set their own budget; each exits 3, and mcshane writes its record
    "mcshane 4,4,4,4 --cutoff 1e40 --max-cells 100",
    "mcshane 4,4,4,4 --target-tol 1e-6 --max-cells 100",
    "mcshane 4,4,4,4 --target-tol 1e-12",  # DEFAULT_SCHEDULE ends unconverged
    "spectrum 4,4,4,4 -L 400 --max-cells 1000",  # an exact walk, finite yet cut
    "spectrum 4.0,4,4,4 -L 400 --max-cells 1000",  # a float walk, finite yet cut
    "spectrum 8,1,1,-6-8i -L 10 --max-cells 100",  # a complex walk, cut
    f"enumerate-integral -B {10 ** 30} --max-cells 12929",  # one quad short of 12,930
    f"enumerate-integral -B {10 ** 30} --max-cells 12930",  # just enough: exits 0
    # usage errors, each exits 1 from the parse
    "flip 4,4,4,4",  # a missing option
    "coords --to lambda",  # a missing positional, named by its metavar
    "verify 4,4,4,4 --tol nan",  # a value that its type function rejects
    "nosuchcommand",  # the full parser's error
    "mcshane 4,4,4,4",  # neither of an exclusive pair that is required
    "mcshane 4,4,4,4 --cutoff 10 --target-tol 1e-3",  # both of that pair
)]


def _run(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{len(out.getvalue())}\n{out.getvalue()}{err.getvalue()}".encode()


@contextlib.contextmanager
def _digesting_walks(h):
    """Feed every `Walk` returned inside the block into h, by wrapping
    `walk` in each loaded markoffquads module that binds it.  Exits if
    spectra or mcshane, which make the workloads' walks, is not among
    them."""
    real = curvecomplex.walk
    modules = [m for name, m in list(sys.modules.items())
               if name.partition(".")[0] == "markoffquads"
               and getattr(m, "walk", None) is real]
    missing = sorted({"markoffquads.mcshane", "markoffquads.spectra"}
                     - {m.__name__ for m in modules})
    if missing:
        sys.exit(f"walk is not bound in {', '.join(missing)}")

    def digesting_walk(*args, **kwargs):
        w = real(*args, **kwargs)
        h.update(repr((w.values, w.parents, w.slots, list(w.faces.items()),
                       w.nodes_visited, w.budget_hit)).encode())
        return w

    for module in modules:
        module.walk = digesting_walk
    try:
        yield
    finally:
        for module in modules:
            module.walk = real


def main() -> None:
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "markoffquads":
        sys.exit(f"imported {cli.__file__}, not this checkout's copy")
    total = hashlib.sha256()
    walks = hashlib.sha256()
    with _digesting_walks(walks):
        for name in workloads.WORKLOADS:
            for fmt in FORMATS:
                h = hashlib.sha256()
                calls = 0
                for seed in SEEDS:
                    for call in workloads.build(name, seed):
                        h.update(_run(["--format", fmt, *call.argv]))
                        calls += 1
                line = f"{name} {fmt} {calls} calls {h.hexdigest()}"
                print(line, flush=True)
                total.update(line.encode())
    print(f"walks {walks.hexdigest()}")
    print(f"total {total.hexdigest()}")
    edge = hashlib.sha256()
    for fmt in FORMATS:
        for argv in EDGE_CALLS:
            edge.update(_run(["--format", fmt, *argv]))
    print(f"edge {len(FORMATS) * len(EDGE_CALLS)} calls {edge.hexdigest()}")


if __name__ == "__main__":
    main()
