"""Command-line front-end.

One JSON record per result line (JSON Lines) by default, CSV optional.
Every record carries the subcommand, the input quad text and the tool
version; JSON output is strict (no NaN or Infinity).  Exit codes:
0 success, 1 usage or parse error, 2 verification failure, 3 budget
exhausted (`klein -n`, `growth --shells` and the quads
`enumerate-integral` finds count against --max-cells too) or an
`mcshane --target-tol` whose cutoff schedule ended unconverged (its
record is written, with `passed` false), 4 precondition violation
(branch cut, summability violation, domain errors, numbers out of float
range, a result strict JSON or CSV cannot hold).  A closed stdout pipe
ends the run with exit 0; an output that cannot be written, exit 1.
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import math
import os
import re
import shutil
import stat
import sys

from . import __version__
from .errors import BudgetExceededError, DomainError, InvalidQuadError, MarkoffError
# parsing a quad needs errors and quadalgebra, the home of both quad
# types, and no more.  Each command imports the rest of what it uses, so
# that a fresh call compiles only those modules, and imports them before
# its main work (jsonlines says why)
from .quadalgebra import DEFAULT_MAX_CELLS, DEFAULT_TOL, IntegerQuad, MarkoffQuad

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


def _positive_float(text: str) -> float:
    # verify_quad's rule for a tolerance: finite and above zero
    x = _finite_float(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
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
    if text.endswith("i"):  # the imaginary unit; the i of "inf" stays
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise _UsageError(f"cannot parse entry {text!r}")


def parse_quad(text: str, exact: bool = False):
    """Parse "a,b,c,d".  Non-negative integer entries give an exact
    IntegerQuad, and any other entries a MarkoffQuad; exact rejects
    non-integer and negative entries instead."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise _UsageError(f"quad needs 4 comma-separated entries, got {len(parts)}")
    if all(_INT_RE.match(p) for p in parts):
        try:
            vals = [int(p) for p in parts]
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _UsageError("integer entry has too many digits") from None
        if exact or min(vals) >= 0:
            return IntegerQuad.from_values(vals)
    elif exact:
        raise _UsageError("--exact requires all-integer entries")
    return MarkoffQuad.from_values(_parse_entry(p) for p in parts)


def _quad_arg(text: str, args):
    """A quad argument of either type, checked against --tol."""
    return parse_quad(text, args.exact).require_valid(args.tol)


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
    if isinstance(v, enum.Enum):  # the str-enum Verdict, without importing mcshane
        return v.value
    return str(v)


def _emit(records, fmt: str, out) -> None:
    # a stdout that writes straight through (PYTHONUNBUFFERED, `python -u`)
    # makes a system call per record: buffer it meanwhile.  Turning that back
    # on flushes the whole lines written, on every exit path
    through = getattr(out, "write_through", False)
    if through:
        out.reconfigure(write_through=False)
    try:
        if fmt == "jsonl":
            encode, write = _JSON.encode, out.write
            # a jsonlines.RecordSet makes its lines from a template
            lines = (records.lines(encode) if hasattr(records, "lines")
                     else (encode(rec) + "\n" for rec in records))
            for line in lines:
                write(line)
        elif records:
            import csv  # only --format csv needs it; keeps it out of start-up
            records = list(records)  # a record set builds its dicts on every pass
            keys = sorted({k for rec in records for k in rec})
            w = csv.writer(out, lineterminator="\n")
            w.writerow(keys)
            for rec in records:
                w.writerow([_display(rec.get(k, "")) for k in keys])
    except ValueError as e:
        # a non-finite float or an int past the str digit limit; lines written stay whole
        raise DomainError(f"result cannot be written: {e}") from None
    finally:
        if through:
            out.reconfigure(write_through=True)


def _base(args) -> dict:
    return {"cmd": args.cmd, "quad": getattr(args, "quad", None), "version": __version__}


def _cmd_verify(args):
    from .quadalgebra import verify_quad
    residual = verify_quad(parse_quad(args.quad, args.exact), args.tol)
    valid = residual <= args.tol
    rec = _base(args)
    rec.update({"residual": residual, "valid": valid})
    return [rec], (0 if valid else 2)


def _cmd_flip(args):
    from .quadalgebra import flip
    result = flip(_quad_arg(args.quad, args), args.index)
    rec = _base(args)
    rec["result"] = list(result.values())
    return [rec], 0


def _cmd_reduce(args):
    q = _quad_arg(args.quad, args)
    if isinstance(q, IntegerQuad):
        from .integral import classify
        (root, word), path = classify(q), "integer"
    else:
        from .quadalgebra import reduce_to_sink
        (root, word), path = reduce_to_sink(q, tol=args.tol), "complex"
    return [{**_base(args), "root": list(root.values()), "word": word, "path": path}], 0


def _cmd_spectrum(args):
    from .jsonlines import spectrum_records
    from .spectra import CurveKind, _spectrum_rows
    q = _quad_arg(args.quad, args)
    kind = CurveKind.TWO_SIDED if args.two_sided else CurveKind.ONE_SIDED
    # the sorted rows go to the writer as they are, each word as its text
    rows = _spectrum_rows(q, args.length, kind, args.max_cells, args.tol, texts=True)
    return spectrum_records({**_base(args), "kind": kind.value}, rows, _JSON.encode), 0


def _cmd_systole(args):
    from .jsonlines import spectrum_records
    from .spectra import systole
    q = _quad_arg(args.quad, args)
    _, w = systole(q, max_cells=args.max_cells, tol=args.tol)
    # the witness as the row spectrum_records writes, its word as text
    word = None if w.word is None else ",".join(map(str, w.word))
    row = (abs(w.length), word, w.cell_ref, w.trace, w.length)
    return spectrum_records({**_base(args), "kind": w.kind.value}, [row], _JSON.encode), 0


def _cmd_mcshane(args):
    from .mcshane import Verdict, mcshane_partial, mcshane_verify
    q = _quad_arg(args.quad, args)
    if args.cutoff is not None:
        rep = mcshane_partial(q, args.cutoff, max_cells=args.max_cells, tol=args.tol)
        rec = {**_base(args), **rep._asdict()}
        return [rec], (3 if rep.verdict is Verdict.BUDGET_EXCEEDED else 0)
    passed, rep = mcshane_verify(q, args.target_tol, max_cells=args.max_cells, tol=args.tol)
    rec = {**_base(args), **rep._asdict(), "passed": passed}
    return [rec], (0 if passed else 3)


def _cmd_bq_check(args):
    from .jsonlines import bq_records
    from .mcshane import check_bq
    rep = check_bq(_quad_arg(args.quad, args), args.k, max_cells=args.max_cells, tol=args.tol)
    return bq_records(_base(args), [rep], _JSON.encode), 0


def _cmd_fundamental(args):
    from .integral import enumerate_fundamental
    from .jsonlines import quad_records
    return quad_records(_base(args), enumerate_fundamental(), _JSON.encode), 0


def _cmd_enumerate_integral(args):
    from .integral import enumerate_integral_below
    from .jsonlines import quad_records
    quads = enumerate_integral_below(args.bound, max_cells=args.max_cells)
    return quad_records(_base(args), quads, _JSON.encode), 0


def _cmd_growth(args):
    from .spectra import growth_exponent
    q = _quad_arg(args.quad, args)
    fit = growth_exponent(q, args.lmin, args.lmax, args.shells,
                          max_cells=args.max_cells, tol=args.tol)
    return [{**_base(args), **fit._asdict()}], 0


def _cmd_coords(args):
    from .coords import (
        HorocyclicCoords,
        LambdaCoords,
        horocyclic_to_quad,
        in_fundamental_domain,
        lambda_to_quad,
        quad_to_horocyclic,
        quad_to_lambda,
    )
    rec = _base(args)
    if args.to is not None:
        q = _quad_arg(args.quad, args)
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
        parts = [_finite_float(p) for p in args.quad.split(",")]
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
    from .coords import mcg_apply
    word = [w for w in re.split(r"[,\s]+", args.word.strip()) if w]
    result = mcg_apply(word, _quad_arg(args.quad, args))
    rec = _base(args)
    rec.update({"word": word, "result": list(result.values())})
    return [rec], 0


def _cmd_klein(args):
    from .quadalgebra import klein_sequence
    seeds = [p.strip() for p in args.seed.split(",")]
    if len(seeds) != 2:
        raise _UsageError("--seed needs two comma-separated values")
    a0, a1 = (_parse_entry(s) for s in seeds)
    if args.count > args.max_cells:
        raise BudgetExceededError(f"klein -n {args.count} exceeds --max-cells {args.max_cells}")
    seq = klein_sequence(_parse_entry(args.A), a0, a1, args.count, tol=args.tol)
    return [{**_base(args), **seq._asdict()}], 0


def _add_quad(p):
    p.add_argument("quad", help="quad as 'a,b,c,d'; entries real, x+yi, or integers")


def _add_common(p, defaults: bool):
    # attached to the main parser with real defaults and to every
    # subparser with SUPPRESS, so the flags parse on either side of the
    # subcommand and the later position wins
    env_cells = os.environ.get(ENV_MAX_CELLS)
    kw = lambda v: {"default": v} if defaults else {"default": argparse.SUPPRESS}
    p.add_argument("--tol", type=_positive_float, **kw(DEFAULT_TOL))
    p.add_argument("--format", choices=("jsonl", "csv"), **kw("jsonl"))
    p.add_argument("--out", help="write records to FILE instead of stdout",
                   **kw(None))
    # a string default (the env value) goes through the type check too
    p.add_argument("--max-cells", type=_positive_int,
                   help=f"cell budget for enumerations (env {ENV_MAX_CELLS})",
                   **kw(env_cells or DEFAULT_MAX_CELLS))
    p.add_argument("--exact", action="store_true",
                   help="reject non-integer and negative entries", **kw(False))


def _flip_args(p):
    _add_quad(p)
    p.add_argument("-i", "--index", type=int, required=True, choices=(1, 2, 3, 4))


def _spectrum_args(p):
    _add_quad(p)
    p.add_argument("-L", "--length", type=_finite_float, required=True)
    p.add_argument("--two-sided", action="store_true")


def _mcshane_args(p):
    _add_quad(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--cutoff", type=_finite_float, default=None)
    g.add_argument("--target-tol", type=_positive_float, default=None)


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
    p.add_argument("quad", metavar="values",
                   help="quad 'a,b,c,d' (--to) or coordinate list (--from)")
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
    # the width HelpFormatter computes itself, asked of the terminal once
    # here and not by each of the formatters argparse makes per argument
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    p = _Parser(prog="mql", description=__doc__, formatter_class=formatter)
    _add_common(p, defaults=True)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_text, run, add_args) in _COMMANDS.items():
        if only in (None, name):
            sp = sub.add_parser(name, help=help_text, formatter_class=formatter)
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
    out = sys.stdout
    close = False
    try:
        try:
            args = _build_parser(name).parse_args(argv)
        except _NeedFullParser:
            args = _build_parser().parse_args(argv)
        if args.out:
            try:
                # no O_TRUNC: a command that fails leaves an existing file as it was
                out = open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w")
            except OSError as e:
                raise _UsageError(f"cannot write --out {args.out!r}: {e.strerror}") from None
            close = True
        try:
            records, code = args.run(args)
            if close and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)  # a pipe or device has nothing to cut
            _emit(records, args.format, out)
            out.flush()
        finally:
            # inside the handlers' reach: closing flushes what a failed
            # write left behind, and fails again
            if close:
                out.close()
        return code
    except BrokenPipeError:
        # the reader stopped early (`mql ... | head`)
        _stdout_to_devnull()
        return 0
    except OSError as e:
        # the output cannot take the records (a full disk, say)
        if not close:
            _stdout_to_devnull()
        print(f"mql: error: cannot write output: {e.strerror or e}", file=sys.stderr)
        return 1
    except (_UsageError, argparse.ArgumentTypeError) as e:
        print(f"mql: error: {e}", file=sys.stderr)
        return 1
    except BudgetExceededError as e:
        print(f"mql: budget exhausted: {e}", file=sys.stderr)
        return 3
    except InvalidQuadError as e:
        print(f"mql: verification failure: {e}", file=sys.stderr)
        return 2
    except MarkoffError as e:
        print(f"mql: precondition violation: {e}", file=sys.stderr)
        return 4


def _stdout_to_devnull() -> None:
    """Point stdout at devnull, so that the interpreter's flush at exit
    cannot fail again on what is left in its buffer."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
