"""Seeded workload generators.

Every input is made here from the workload name and seed with the
benchmark's own arithmetic; the program only ever sees the argv.  The
same (workload, seed) pair always gives the same calls.

Positive quads: three random positive entries completed with the larger
root of x^2 + (2s - abc)x + s^2, s = a+b+c.  Quasi-Fuchsian quads add
small imaginary parts to the three drawn entries before completion.
Integer quads: random outward flip words applied with exact int
arithmetic to a classical fundamental root.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectrum", "sweeps", "integral", "cli-short")

# cli-short runs each call as a fresh interpreter; the others call
# markoffquads.cli.main in the benchmark's own process.
SUBPROCESS_WORKLOADS = ("cli-short",)

# The classical reduced positive integer quads, sorted ascending.
INTEGER_ROOTS = (
    (1, 5, 24, 30), (1, 6, 14, 21), (1, 8, 9, 18), (1, 9, 10, 10),
    (2, 3, 10, 15), (2, 5, 5, 8), (3, 3, 6, 6), (4, 4, 4, 4),
)

# Passes every timed run completes, however fast the machine.  The
# latency percentiles are taken at ranks fixed by this minimum, so that
# the reported percentile stays inside one kind of call (for integral,
# p95 of 200 calls lands among the enumerate-integral calls, the slowest
# tenth) instead of moving across kinds as the pass count varies.
MIN_PASSES = {"spectrum": 3, "sweeps": 4, "integral": 20, "cli-short": 5}

# Input variants with stored reference values: --seed n selects variant
# n mod REFERENCE_SEEDS, so every seed's outputs are compared with
# reference.json.
REFERENCE_SEEDS = 128

SPECTRUM_L = 300
INTEGRAL_BOUND = 10 ** 30
MCG_LETTERS = ("f1", "f2", "f3", "f4", "phi1", "phi2", "phi3")


@dataclass(frozen=True)
class Call:
    """One invocation of the CLI.  `expect` carries what the generator
    knows independently of the program (for instance the root an integer
    quad was grown from)."""

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def cmd(self) -> str:
        return self.argv[0]


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so this is stable across processes
    return random.Random(f"perfbench:{workload}:{seed}")


def complete_larger(a: complex, b: complex, c: complex) -> complex:
    """Larger-magnitude root d of d^2 + (2s - abc)d + s^2, s = a+b+c."""
    s = a + b + c
    lin = 2 * s - a * b * c
    disc = cmath.sqrt(lin * lin - 4 * s * s)
    r1, r2 = (-lin + disc) / 2, (-lin - disc) / 2
    return r1 if abs(r1) >= abs(r2) else r2


def positive_quad(rng: random.Random) -> tuple[float, float, float, float]:
    """Real positive quad; the 5% margin over abc = 4s keeps the two
    completion roots apart."""
    while True:
        a, b, c = (round(rng.uniform(1.5, 8.0), 3) for _ in range(3))
        if a * b * c >= 4.2 * (a + b + c):
            return (a, b, c, complete_larger(a, b, c).real)


def quasi_fuchsian_quad(rng: random.Random) -> tuple[complex, ...]:
    a, b, c, _ = positive_quad(rng)
    a, b, c = (complex(x, round(rng.uniform(-0.3, 0.3), 3)) for x in (a, b, c))
    return (a, b, c, complete_larger(a, b, c))


def fmt_entry(v) -> str:
    if isinstance(v, int):
        return str(v)
    v = complex(v)
    if v.imag == 0:
        return repr(v.real)
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real!r}{sign}{abs(v.imag)!r}i"


def fmt_quad(q) -> str:
    return ",".join(fmt_entry(v) for v in q)


def flip_value(vals, i: int):
    """Entry i (1-based) replaced by the other root of its quadratic."""
    o = [v for j, v in enumerate(vals) if j != i - 1]
    return o[0] * o[1] * o[2] - 2 * (o[0] + o[1] + o[2]) - vals[i - 1]


def flipped(vals, i: int) -> tuple:
    out = list(vals)
    out[i - 1] = flip_value(vals, i)
    return tuple(out)


def outward_word(rng: random.Random, vals, steps: int) -> tuple[tuple, list[int]]:
    """Apply `steps` flips, each one growing its entry in magnitude and
    never undoing the previous flip."""
    word: list[int] = []
    for _ in range(steps):
        choices = [i for i in range(1, 5)
                   if (not word or i != word[-1])
                   and abs(flip_value(vals, i)) > abs(vals[i - 1])]
        i = rng.choice(choices)
        vals = flipped(vals, i)
        word.append(i)
    return vals, word


def integer_quad(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(grown quad, sorted root it was grown from).  Eight to ten flips
    keep every entry well under Python's 4300-digit int/str limit."""
    root = rng.choice(INTEGER_ROOTS)
    start = list(root)
    rng.shuffle(start)
    grown, _ = outward_word(rng, tuple(start), rng.randint(8, 10))
    return grown, root


def _spectrum(rng):
    quads = [positive_quad(rng), positive_quad(rng), quasi_fuchsian_quad(rng)]
    return [Call(("spectrum", fmt_quad(q), "-L", str(SPECTRUM_L))) for q in quads]


def _sweeps(rng):
    calls = []
    for q in (positive_quad(rng), positive_quad(rng), quasi_fuchsian_quad(rng)):
        text = fmt_quad(q)
        calls += [
            Call(("mcshane", text, "--cutoff", "1e40")),
            Call(("mcshane", text, "--target-tol", "1e-6")),
            Call(("growth", text, "--lmin", "20", "--lmax", "200", "--shells", "7")),
            Call(("spectrum", text, "-L", "60", "--two-sided")),
            Call(("systole", text)),
        ]
    calls.append(Call(("bq-check", "0,0,0,0", "-k", "10", "--max-cells", "20000")))
    return calls


def _integral(rng):
    calls = [Call(("enumerate-integral", "-B", str(INTEGRAL_BOUND))),
             Call(("fundamental",))]
    for _ in range(8):
        grown, root = integer_quad(rng)
        calls.append(Call(("reduce", fmt_quad(grown)), {"root": list(root)}))
    return calls


def _lambda_coords(q) -> list[float]:
    a, b, c, d = q
    return [(b * c) ** 0.5, (a * c) ** 0.5, (a * b) ** 0.5,
            (a * d) ** 0.5, (b * d) ** 0.5, (c * d) ** 0.5]


def _klein_seed(rng):
    """(A, a0, a1) with a0^2 + a1^2 - a0 a1 A = -1, a1 the larger root."""
    while True:
        A = round(rng.uniform(2.5, 4.0), 3)
        a0 = round(rng.uniform(0.5, 2.0), 3)
        disc = (A * a0) ** 2 - 4 * (a0 * a0 + 1)
        if disc > 0:
            return A, a0, (A * a0 + disc ** 0.5) / 2


def _cli_short(rng):
    q = positive_quad(rng)
    text = fmt_quad(q)
    # three flips: float descent error grows like 1e-16 * C^1.5 with the
    # largest entry C, so longer excursions would test rounding, not reduce
    far, _ = outward_word(rng, q, 3)
    grown, root = integer_quad(rng)
    word = [rng.choice(MCG_LETTERS) for _ in range(6)]
    A, a0, a1 = _klein_seed(rng)
    return [
        Call(("verify", text)),
        Call(("flip", "4,4,4,4", "-i", "4")),
        Call(("flip", text, "-i", str(rng.randint(1, 4)))),
        Call(("reduce", fmt_quad(far))),
        Call(("reduce", fmt_quad(grown)), {"root": list(root)}),
        Call(("systole", text)),
        Call(("mcg", text, "-w", ",".join(word))),
        Call(("coords", text, "--to", "lambda")),
        Call(("coords", text, "--to", "horocyclic")),
        Call(("coords", ",".join(repr(x) for x in _lambda_coords(q)), "--from", "lambda"),
             {"quad": list(q)}),
        Call(("klein", "-A", repr(A), "--seed", f"{a0!r},{a1!r}", "-n", "50")),
        Call(("spectrum", text, "-L", "8")),
    ]


_GENERATORS = {"spectrum": _spectrum, "sweeps": _sweeps,
             "integral": _integral, "cli-short": _cli_short}


def build(workload: str, seed: int) -> list[Call]:
    """The calls of one pass of `workload` for `seed`, in order; seeds
    that agree mod REFERENCE_SEEDS give the same calls."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](_rng(workload, seed % REFERENCE_SEEDS))


def parse_quad(text: str) -> tuple:
    """Quad text as the CLI reads it: all-integer entries stay ints,
    anything else is complex ("x+yi" accepted)."""
    parts = text.split(",")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        return tuple(complex(p.replace("i", "j")) for p in parts)


def quads_of(calls: list[Call]) -> list[tuple]:
    """Distinct quads named in a pass, parsed back from argv, for the
    flip microbenchmark."""
    out = []
    for call in calls:
        if call.cmd in ("spectrum", "mcshane", "growth", "systole", "reduce",
                        "verify", "flip", "mcg", "bq-check"):
            q = parse_quad(call.argv[1])
            if q not in out:
                out.append(q)
    return out
