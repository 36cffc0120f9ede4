"""Command-line front-end.

One JSON record per result line (JSON Lines) by default, CSV optional.
Every record carries the subcommand, the input quad text and the tool
version; JSON output is strict (no NaN or Infinity).  Exit codes:
0 success, 1 usage or parse error, 2 verification failure, 3 budget
exhausted (`klein -n`, `growth --shells` and the quads
`enumerate-integral` finds count against --max-cells too),
4 precondition violation (branch cut, summability violation, domain
errors, numbers out of float range, a result strict JSON or CSV cannot
hold).  A closed stdout pipe ends the run with exit 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__
from .coords import (
    HorocyclicCoords,
    LambdaCoords,
    horocyclic_to_quad,
    in_fundamental_domain,
    lambda_to_quad,
    mcg_apply,
    quad_to_horocyclic,
    quad_to_lambda,
)
from .curvecomplex import reduce_to_sink
from .errors import (
    BqViolationError,
    BranchCutError,
    BudgetExceededError,
    DegenerateClassError,
    DomainError,
    InvalidQuadError,
    MarkoffError,
)
from .integral import IntegerQuad, classify, enumerate_fundamental, enumerate_integral_below, int_flip
from .mcshane import check_bq, mcshane_partial, mcshane_verify, Verdict
from .quadalgebra import DEFAULT_TOL, MarkoffQuad, flip, klein_sequence, verify_quad
from .spectra import CurveKind, growth_exponent, one_sided_spectrum, systole, two_sided_spectrum

ENV_MAX_CELLS = "MQL_MAX_CELLS"
_INT_RE = re.compile(r"^[+-]?\d+$")


class _UsageError(Exception):
    pass


class _NeedFullParser(Exception):
    """A one-command parser met a top-level usage error or the top-level
    help, whose text names every subcommand: parse again with all of them."""


class _Parser(argparse.ArgumentParser):
    # set on a top-level parser built with one subcommand only
    _one_command = False

    # argparse exits 2 on usage errors by default, which collides with the
    # verification-failure code; route through exit code 1 instead.
    def error(self, message):
        if self._one_command:
            raise _NeedFullParser
        raise _UsageError(message)

    def format_help(self):
        if self._one_command:
            raise _NeedFullParser
        return super().format_help()


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _parse_entry(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise _UsageError(f"cannot parse entry {text!r}")


def parse_quad(text: str, exact: bool = False):
    """Parse "a,b,c,d".  All-integer input routes to exact arithmetic;
    --exact forces that route and rejects non-integers."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise _UsageError(f"quad needs 4 comma-separated entries, got {len(parts)}")
    if all(_INT_RE.match(p) for p in parts):
        try:
            vals = [int(p) for p in parts]
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _UsageError("integer entry has too many digits") from None
        return IntegerQuad.from_values(vals)
    if exact:
        raise _UsageError("--exact requires all-integer entries")
    return MarkoffQuad.from_values(_parse_entry(p) for p in parts)


def _markoff_arg(text: str, args) -> MarkoffQuad:
    """A quad argument for the float routines, checked against --tol."""
    q = parse_quad(text, args.exact)
    if isinstance(q, IntegerQuad):
        q = MarkoffQuad.from_values(q.values())
    return q.require_valid(args.tol)


def _complex_json(v):
    # tuples and the str-enum Verdict encode natively; only complex needs help
    if isinstance(v, complex):
        return v.real if v.imag == 0.0 else [v.real, v.imag]
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                         default=_complex_json)


def _float_text(x: float) -> str:
    # the CSV twin of the JSON encoder's allow_nan=False
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r}")
    return format(x, ".15g")


def _display(v) -> str:
    if v is None:  # JSON's null
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _float_text(v)
    if isinstance(v, complex):
        if v.imag == 0.0:
            return _float_text(v.real)
        sign = "+" if v.imag >= 0 else "-"
        return f"{_float_text(v.real)}{sign}{_float_text(abs(v.imag))}i"
    if isinstance(v, (list, tuple)):
        return ";".join(_display(x) for x in v)
    if isinstance(v, Verdict):
        return v.value
    return str(v)


def _emit(records, fmt: str, out) -> None:
    try:
        if fmt == "jsonl":
            encode, write = _JSON.encode, out.write
            for rec in records:
                write(encode(rec) + "\n")
        elif records:
            import csv  # only --format csv needs it; keeps it out of start-up
            keys = sorted({k for rec in records for k in rec})
            w = csv.writer(out, lineterminator="\n")
            w.writerow(keys)
            for rec in records:
                w.writerow([_display(rec.get(k, "")) for k in keys])
    except ValueError as e:
        # a non-finite float or an int past the str digit limit; lines written stay whole
        raise DomainError(f"result cannot be written: {e}") from None


def _base(args, cmd: str) -> dict:
    return {"cmd": cmd, "quad": getattr(args, "quad", None), "version": __version__}


def _entry_records(args, kind: CurveKind, entries) -> list[dict]:
    """One record per spectrum entry of one kind; the shared
    cmd/quad/version head and the kind string are resolved once."""
    cmd, quad, version, kind = args.cmd, args.quad, __version__, kind.value
    return [{"cmd": cmd, "quad": quad, "version": version, "kind": kind,
             "trace": trace, "length": ell, "abs_length": abs(ell),
             "cell": cell_ref, "word": word}
            for _, trace, ell, cell_ref, word in entries]


def _cmd_verify(args):
    q = parse_quad(args.quad, args.exact)
    if isinstance(q, IntegerQuad):
        residual, valid = 0.0, True  # constructor already proved exactness
    else:
        residual = verify_quad(q, args.tol)
        valid = residual <= args.tol
    rec = _base(args, "verify")
    rec.update({"residual": residual, "valid": valid})
    return [rec], (0 if valid else 2)


def _cmd_flip(args):
    q = parse_quad(args.quad, args.exact)
    if isinstance(q, IntegerQuad):
        result = int_flip(q, args.index)
    else:
        result = flip(q.require_valid(args.tol), args.index)
    rec = _base(args, "flip")
    rec["result"] = list(result.values())
    return [rec], 0


def _cmd_reduce(args):
    q = parse_quad(args.quad, args.exact)
    rec = _base(args, "reduce")
    if isinstance(q, IntegerQuad):
        root, word = classify(q)
        rec.update({"root": list(root.values()), "word": word, "path": "integer"})
    else:
        sink, word = reduce_to_sink(q.require_valid(args.tol), tol=args.tol)
        rec.update({"root": list(sink.values()), "word": word, "path": "complex"})
    return [rec], 0


def _cmd_spectrum(args):
    q = _markoff_arg(args.quad, args)
    if args.two_sided:
        fn, kind = two_sided_spectrum, CurveKind.TWO_SIDED
    else:
        fn, kind = one_sided_spectrum, CurveKind.ONE_SIDED
    entries = fn(q, args.length, max_cells=args.max_cells, tol=args.tol)
    return _entry_records(args, kind, entries), 0


def _cmd_systole(args):
    q = _markoff_arg(args.quad, args)
    length, witness = systole(q, max_cells=args.max_cells, tol=args.tol)
    return _entry_records(args, witness.kind, [witness]), 0


def _cmd_mcshane(args):
    if (args.cutoff is None) == (args.target_tol is None):
        raise _UsageError("give exactly one of --cutoff or --target-tol")
    q = _markoff_arg(args.quad, args)
    rec = _base(args, "mcshane")
    if args.cutoff is not None:
        rep = mcshane_partial(q, args.cutoff, max_cells=args.max_cells, tol=args.tol)
        code = 3 if rep.verdict is Verdict.BUDGET_EXCEEDED else 0
        passed = None
    else:
        passed, rep = mcshane_verify(q, args.target_tol, max_cells=args.max_cells,
                                     tol=args.tol)
        code = 0 if passed else 3
    rec.update({
        "partial_sum": rep.partial_sum,
        "term_count": rep.term_count,
        "product_cutoff": rep.product_cutoff,
        "last_shell_max": rep.last_shell_max,
        "verdict": rep.verdict,
    })
    if passed is not None:
        rec["passed"] = passed
    return [rec], code


def _cmd_bq_check(args):
    q = _markoff_arg(args.quad, args)
    rep = check_bq(q, args.k, max_cells=args.max_cells, quad_tol=args.tol)
    rec = _base(args, "bq-check")
    rec.update({
        "cutoff": rep.cutoff,
        "faces4": [[f.cells[0], f.cells[1], f.product] for f in rep.faces4],
        "violations": [[f.cells[0], f.cells[1], f.product] for f in rep.violations],
        "cells_below2": rep.cells_below2,
        "budget_hit": rep.budget_hit,
        "ok": rep.ok,
    })
    return [rec], 0


def _cmd_fundamental(args):
    return [dict(_base(args, "fundamental"), result=list(q.values()))
            for q in enumerate_fundamental()], 0


def _cmd_enumerate_integral(args):
    return [dict(_base(args, "enumerate-integral"), result=list(q.values()))
            for q in enumerate_integral_below(args.bound, max_cells=args.max_cells)], 0


def _cmd_growth(args):
    q = _markoff_arg(args.quad, args)
    fit = growth_exponent(q, args.lmin, args.lmax, args.shells,
                          max_cells=args.max_cells, tol=args.tol)
    rec = _base(args, "growth")
    rec.update({
        "exponent": fit.exponent,
        "intercept_log_eta": fit.intercept_log_eta,
        "fit_residual": fit.fit_residual,
        "samples": fit.samples,
    })
    return [rec], 0


def _cmd_coords(args):
    rec = _base(args, "coords")
    rec["quad"] = args.values
    if args.to is not None:
        q = _markoff_arg(args.values, args)
        if args.to == "lambda":
            lc = quad_to_lambda(q, tol=args.tol)
            rec["lambda"] = list(lc.values())
            rec["simplex_residual"] = lc.simplex_residual()
        else:
            hc = quad_to_horocyclic(q, tol=args.tol)
            chk = in_fundamental_domain(hc, tol=args.tol)
            rec["horocyclic"] = list(hc.values())
            rec["in_domain"] = chk.inside
            rec["walls"] = list(chk.walls)
    else:
        parts = [_finite_float(p) for p in args.values.split(",")]
        if args.source == "lambda":
            if len(parts) != 6:
                raise _UsageError("lambda coordinates need 6 entries")
            q = lambda_to_quad(LambdaCoords(*parts), tol=args.tol)
        else:
            if len(parts) != 4:
                raise _UsageError("horocyclic coordinates need 4 entries")
            q = horocyclic_to_quad(HorocyclicCoords(*parts), tol=args.tol)
        rec["result"] = list(q.values())
    return [rec], 0


def _cmd_mcg(args):
    q = _markoff_arg(args.quad, args)
    word = [w for w in re.split(r"[,\s]+", args.word.strip()) if w]
    result = mcg_apply(word, q)
    rec = _base(args, "mcg")
    rec.update({"word": word, "result": list(result.values())})
    return [rec], 0


def _cmd_klein(args):
    seeds = [p.strip() for p in args.seed.split(",")]
    if len(seeds) != 2:
        raise _UsageError("--seed needs two comma-separated values")
    a0, a1 = (_parse_entry(s) for s in seeds)
    if args.count > args.max_cells:
        raise BudgetExceededError(f"klein -n {args.count} exceeds --max-cells {args.max_cells}")
    seq = klein_sequence(_parse_entry(args.A), a0, a1, args.count, tol=args.tol)
    rec = _base(args, "klein")
    rec.update({
        "A": seq.A,
        "terms": seq.terms,
        "lambda_plus": seq.lambda_plus,
        "lambda_minus": seq.lambda_minus,
    })
    return [rec], 0


def _add_quad(p):
    p.add_argument("quad", help="quad as 'a,b,c,d'; entries real, x+yi, or integers")


def _add_common(p, defaults: bool):
    # attached to the main parser with real defaults and to every
    # subparser with SUPPRESS, so the flags parse on either side of the
    # subcommand and the later position wins
    env_cells = os.environ.get(ENV_MAX_CELLS)
    kw = lambda v: {"default": v} if defaults else {"default": argparse.SUPPRESS}
    p.add_argument("--tol", type=_finite_float, **kw(DEFAULT_TOL))
    p.add_argument("--format", choices=("jsonl", "csv"), **kw("jsonl"))
    p.add_argument("--out", help="write records to FILE instead of stdout",
                   **kw(None))
    # a string default (the env value) goes through the type check too
    p.add_argument("--max-cells", type=_positive_int,
                   help=f"cell budget for enumerations (env {ENV_MAX_CELLS})",
                   **kw(env_cells or 200_000))
    p.add_argument("--exact", action="store_true",
                   help="force the integer fast-path, rejecting non-integers",
                   **({} if defaults else {"default": argparse.SUPPRESS}))


def _flip_args(p):
    _add_quad(p)
    p.add_argument("-i", "--index", type=int, required=True, choices=(1, 2, 3, 4))


def _spectrum_args(p):
    _add_quad(p)
    p.add_argument("-L", "--length", type=_finite_float, required=True)
    p.add_argument("--two-sided", action="store_true")


def _mcshane_args(p):
    _add_quad(p)
    p.add_argument("--cutoff", type=_finite_float, default=None)
    p.add_argument("--target-tol", type=_finite_float, default=None)


def _bq_check_args(p):
    _add_quad(p)
    p.add_argument("-k", type=_finite_float, required=True)


def _no_args(p):
    pass


def _enumerate_integral_args(p):
    p.add_argument("-B", "--bound", type=int, required=True)


def _growth_args(p):
    _add_quad(p)
    p.add_argument("--lmin", type=_finite_float, required=True)
    p.add_argument("--lmax", type=_finite_float, required=True)
    p.add_argument("--shells", type=int, required=True)


def _coords_args(p):
    p.add_argument("values", help="quad 'a,b,c,d' (--to) or coordinate list (--from)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--to", choices=("lambda", "horocyclic"), default=None)
    g.add_argument("--from", dest="source", choices=("lambda", "horocyclic"),
                   default=None)


def _mcg_args(p):
    _add_quad(p)
    p.add_argument("-w", "--word", required=True,
                   help="letters f1..f4, phi1..phi3, comma or space separated")


def _klein_args(p):
    p.add_argument("-A", required=True, help="two-sided trace")
    p.add_argument("--seed", required=True, help="a0,a1")
    p.add_argument("-n", "--count", type=int, required=True)


# name -> (help, run, a function that adds the command's own arguments),
# in the order `mql --help` lists them
_COMMANDS = {
    "verify": ("quad relation residual; exit 2 if above tol", _cmd_verify, _add_quad),
    "flip": ("flip one entry", _cmd_flip, _flip_args),
    "reduce": ("descend to the sink (or fundamental root)", _cmd_reduce, _add_quad),
    "spectrum": ("simple length spectrum below a cutoff", _cmd_spectrum, _spectrum_args),
    "systole": ("shortest curve class and its witness", _cmd_systole, _add_quad),
    "mcshane": ("identity partial sum or verification", _cmd_mcshane, _mcshane_args),
    "bq-check": ("summability check up to a product cutoff", _cmd_bq_check, _bq_check_args),
    "fundamental": ("all reduced positive integer quads", _cmd_fundamental, _no_args),
    "enumerate-integral": ("all positive integer quads with max entry <= B",
                           _cmd_enumerate_integral, _enumerate_integral_args),
    "growth": ("counting-function exponent fit", _cmd_growth, _growth_args),
    "coords": ("convert between quad and coordinate charts", _cmd_coords, _coords_args),
    "mcg": ("apply a mapping class word (right-to-left)", _cmd_mcg, _mcg_args),
    "klein": ("Klein bottle trace recursion", _cmd_klein, _klein_args),
}


def _build_parser(only: str | None = None) -> _Parser:
    """The `mql` parser with every subcommand, or with the one named
    `only`; the latter leaves top-level errors and help to the former."""
    p = _Parser(prog="mql", description=__doc__)
    _add_common(p, defaults=True)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_text, run, add_args) in _COMMANDS.items():
        if only in (None, name):
            sp = sub.add_parser(name, help=help_text)
            add_args(sp)
            sp.set_defaults(run=run)
            _add_common(sp, defaults=False)
    p._one_command = only is not None
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the subcommand argv names; top-level errors and help, whose
    # text names every subcommand, come from the full parser
    name = next((a for a in argv if a in _COMMANDS), None)
    try:
        try:
            args = _build_parser(name).parse_args(argv)
        except _NeedFullParser:
            args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"mql: error: {e}", file=sys.stderr)
        return 1
    out = sys.stdout
    close = False
    try:
        if args.out:
            try:
                out = open(args.out, "w")
            except OSError as e:
                raise _UsageError(f"cannot write --out {args.out!r}: {e.strerror}") from None
            close = True
        records, code = args.run(args)
        _emit(records, args.format, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (`mql ... | head`); point stdout at
        # devnull so the interpreter's flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (_UsageError, argparse.ArgumentTypeError) as e:
        print(f"mql: error: {e}", file=sys.stderr)
        return 1
    except BudgetExceededError as e:
        print(f"mql: budget exhausted: {e}", file=sys.stderr)
        return 3
    except InvalidQuadError as e:
        print(f"mql: verification failure: {e}", file=sys.stderr)
        return 2
    except (BranchCutError, BqViolationError, DegenerateClassError, DomainError) as e:
        print(f"mql: precondition violation: {e}", file=sys.stderr)
        return 4
    except MarkoffError as e:
        print(f"mql: error: {e}", file=sys.stderr)
        return 4
    finally:
        if close:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
