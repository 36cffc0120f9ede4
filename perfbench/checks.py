"""Output checker.

Every stdout line must be a strict JSON object (NaN and Infinity are
rejected).  Each record is checked against invariants recomputed here,
and the values returned by `reference_values` must equal those stored
in reference.json for the same argv; a call without its stored values
fails.  Fields the checks do not
name are ignored, so later additions such as `remainder_bound` pass.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

from workloads import Call, flip_value, parse_quad

REL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckError(Exception):
    pass


def _reject_constant(name):
    raise CheckError(f"non-finite JSON constant {name}")


def parse_lines(text: str) -> list[dict]:
    records = []
    for n, line in enumerate(text.splitlines(), 1):
        try:
            rec = json.loads(line, parse_constant=_reject_constant)
        except ValueError as e:
            raise CheckError(f"stdout line {n} is not JSON: {e}") from None
        if not isinstance(rec, dict):
            raise CheckError(f"stdout line {n} is not a JSON object")
        records.append(rec)
    return records


def _z(v) -> complex:
    """JSON number or [re, im] pair as complex."""
    if isinstance(v, list) and len(v) == 2:
        return complex(v[0], v[1])
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    raise CheckError(f"expected a number or [re, im], got {v!r}")


def _close(x, y, rel=REL) -> bool:
    x, y = complex(x), complex(y)
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _all_close(got, want, rel=REL) -> bool:
    """Same length and entrywise close; `got` entries may be [re, im]."""
    return len(got) == len(want) and all(_close(_z(x), y, rel) for x, y in zip(got, want))


def _need(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def item_count(records: list[dict]) -> int:
    """Output items of one call: McShane terms, growth samples and
    bq-check faces where the record carries them, otherwise one per
    record (spectrum entries, integer quads, single results)."""
    if len(records) == 1:
        rec = records[0]
        if "term_count" in rec:
            return int(rec["term_count"])
        if "samples" in rec:
            return len(rec["samples"])
        if "faces4" in rec:
            return len(rec["faces4"])
    return len(records)


def _check_entry(rec, L=None):
    t, ell = _z(rec["trace"]), _z(rec["length"])
    _need(_close(rec["abs_length"], abs(ell)), "abs_length != |length|")
    if L is not None:
        _need(abs(ell) < L, f"length {abs(ell)} not below L={L}")
    if rec["kind"] == "one-sided":
        # one_sided_length reflects to Re(l) >= 0, which flips the sign
        # of 2 sinh(l/2); either sign is the same class
        s = 2 * cmath.sinh(ell / 2)
        _need(_close(s, t) or _close(-s, t),
              f"2 sinh(l/2) = {s} does not match trace {t}")
    elif rec["kind"] == "two-sided":
        c = 2 * cmath.cosh(ell / 2)
        _need(_close(c, t), f"2 cosh(l/2) = {c} does not match trace {t}")
    else:
        raise CheckError(f"unknown curve kind {rec['kind']!r}")


def _check_spectrum(call, recs):
    L = float(_opt(call.argv, "-L"))
    kind = "two-sided" if "--two-sided" in call.argv else "one-sided"
    prev = -1.0
    for rec in recs:
        _need(rec["kind"] == kind, f"expected {kind} entries")
        _check_entry(rec, L)
        _need(rec["abs_length"] >= prev, "spectrum not sorted by abs_length")
        prev = rec["abs_length"]


def _check_mcshane(call, recs):
    (rec,) = recs
    s = _z(rec["partial_sum"])
    cutoff = _opt(call.argv, "--cutoff")
    if cutoff is not None:
        _need(float(rec["product_cutoff"]) == float(cutoff), "product_cutoff echo")
        if float(cutoff) >= 1e40:
            _need(abs(s - 0.5) <= 1e-9, f"|S - 1/2| = {abs(s - 0.5):.3e} > 1e-9")
    else:
        tol = float(_opt(call.argv, "--target-tol"))
        _need(rec.get("passed") is True, "mcshane --target-tol did not pass")
        _need(abs(s - 0.5) <= tol, f"|S - 1/2| = {abs(s - 0.5):.3e} > {tol}")
    _need(rec["term_count"] > 0, "no McShane terms")


def _check_growth(call, recs):
    (rec,) = recs
    lmin, lmax = float(_opt(call.argv, "--lmin")), float(_opt(call.argv, "--lmax"))
    shells = int(_opt(call.argv, "--shells"))
    samples = rec["samples"]
    _need(len(samples) == shells, "growth sample count != shells")
    for k, (L, s) in enumerate(samples):
        _need(_close(L, lmin * (lmax / lmin) ** (k / (shells - 1)), 1e-12),
              f"growth cutoff {k} is {L}")
    counts = [s for _, s in samples]
    _need(counts == sorted(counts), "counting function not monotone")
    _need(math.isfinite(rec["exponent"]), "growth exponent not finite")


def _check_systole(call, recs):
    (rec,) = recs
    _check_entry(rec)


def _check_bq(call, recs):
    (rec,) = recs
    k = float(_opt(call.argv, "-k"))
    _need(float(rec["cutoff"]) == max(k, 4.0), "bq-check cutoff echo")
    _need(all(abs(_z(p)) <= 4.0 for _, _, p in rec["faces4"]), "faces4 above 4")
    _need(rec["ok"] == (not rec["violations"] and not rec["budget_hit"]),
          "bq-check ok flag inconsistent")


def _valid_int_quad(v) -> bool:
    a, b, c, d = v
    return min(v) > 0 and (a + b + c + d) ** 2 == a * b * c * d


def _check_integral_list(call, recs):
    quads = [tuple(rec["result"]) for rec in recs]
    bound = int(_opt(call.argv, "-B")) if call.cmd == "enumerate-integral" else None
    for q in quads:
        _need(all(isinstance(v, int) for v in q), f"non-integer entry in {q}")
        _need(_valid_int_quad(q), f"{q} fails (a+b+c+d)^2 = abcd")
        _need(list(q) == sorted(q), f"{q} not sorted")
        _need(bound is None or max(q) <= bound, f"{q} exceeds B")
    _need(len(set(quads)) == len(quads), "duplicate quads")


def _replay(vals, word):
    vals = list(vals)
    for i in word:
        vals[i - 1] = flip_value(vals, i)
    return vals


def _check_reduce(call, recs):
    (rec,) = recs
    q = parse_quad(call.argv[1])
    root, word = rec["root"], rec["word"]
    if rec["path"] == "integer":
        _need(sorted(_replay(q, word)) == root, "integer flip word does not reach root")
        _need(root == call.expect["root"], f"root {root} != grown-from {call.expect['root']}")
    else:
        _need(rec["path"] == "complex", f"unknown reduce path {rec['path']!r}")
        got = [_z(v) for v in root]
        want = _replay(q, word)
        scale = max(abs(v) for v in q)
        _need(all(abs(x - y) <= REL * scale for x, y in zip(got, want)),
              "complex flip word does not reach root")
        for i in range(1, 5):  # a sink: no flip strictly shrinks an entry
            _need(abs(flip_value(got, i)) >= abs(got[i - 1]) * (1 - 1e-9),
                  f"root is not a sink at slot {i}")


def _check_verify(call, recs):
    (rec,) = recs
    _need(rec["valid"] is True and rec["residual"] <= 1e-9, "quad reported invalid")


def _check_flip(call, recs):
    (rec,) = recs
    q = parse_quad(call.argv[1])
    want = _replay(q, [int(_opt(call.argv, "-i"))])
    got = rec["result"]
    if all(isinstance(v, int) for v in q):
        _need(got == want, f"flip gave {got}, expected {want}")
    else:
        _need(_all_close(got, want, 1e-12), "flip value")


_PERM = {"phi1": (1, 0, 3, 2), "phi2": (2, 3, 0, 1), "phi3": (3, 2, 1, 0)}


def _check_mcg(call, recs):
    (rec,) = recs
    vals = parse_quad(call.argv[1])
    for letter in reversed(_opt(call.argv, "-w").split(",")):
        if letter in _PERM:
            vals = [vals[p] for p in _PERM[letter]]
        else:
            vals = _replay(vals, [int(letter[1])])
    _need(_all_close(rec["result"], vals), "mcg result")


def _check_coords(call, recs):
    (rec,) = recs
    if "--to" in call.argv:
        a, b, c, d = (v.real for v in parse_quad(call.argv[1]))
        if _opt(call.argv, "--to") == "lambda":
            want = [math.sqrt(x * y) for x, y in
                    ((b, c), (a, c), (a, b), (a, d), (b, d), (c, d))]
            got = rec["lambda"]
        else:
            s = a + b + c + d
            want, got = [a / s, b / s, c / s, d / s], rec["horocyclic"]
            _need(rec["in_domain"] == all(v <= 0.5 + REL for v in want), "in_domain")
        _need(_all_close(got, want), "coordinates")
    else:
        _need(_all_close(rec["result"], call.expect["quad"]),
              "lambda chart does not return the generating quad")


def _check_klein(call, recs):
    (rec,) = recs
    A = float(_opt(call.argv, "-A"))
    a0, a1 = (float(x) for x in _opt(call.argv, "--seed").split(","))
    terms = [_z(t) for t in rec["terms"]]
    _need(len(terms) == int(_opt(call.argv, "-n")), "klein term count")
    _need(terms[0] == a0 and terms[1] == a1, "klein seeds not echoed")
    for i in range(2, len(terms)):
        _need(_close(terms[i], A * terms[i - 1] - terms[i - 2]), f"klein term {i}")


_CHECKS = {
    "spectrum": _check_spectrum, "mcshane": _check_mcshane,
    "growth": _check_growth, "systole": _check_systole, "bq-check": _check_bq,
    "enumerate-integral": _check_integral_list, "fundamental": _check_integral_list,
    "reduce": _check_reduce, "verify": _check_verify, "flip": _check_flip,
    "mcg": _check_mcg, "coords": _check_coords, "klein": _check_klein,
}


def reference_values(call: Call, recs: list[dict]) -> dict:
    """The values of a call that are pinned to this commit's output."""
    if call.cmd == "spectrum":
        return {"count": len(recs)}
    if call.cmd == "mcshane":
        return {"term_count": recs[0]["term_count"]}
    if call.cmd == "growth":
        return {"counts": [s for _, s in recs[0]["samples"]]}
    if call.cmd == "systole":
        return {"abs_length": recs[0]["abs_length"]}
    if call.cmd == "bq-check":
        r = recs[0]
        return {"faces4": len(r["faces4"]), "cells_below2": r["cells_below2"],
                "budget_hit": r["budget_hit"]}
    if call.cmd in ("enumerate-integral", "fundamental"):
        quads = json.dumps([rec["result"] for rec in recs], separators=(",", ":"))
        return {"count": len(recs),
                "sha256": hashlib.sha256(quads.encode()).hexdigest()}
    if call.cmd == "flip" and call.argv[1] == "4,4,4,4":
        return {"result": recs[0]["result"]}
    return {}


def reference_key(call: Call) -> str:
    return hashlib.sha256("\0".join(call.argv).encode()).hexdigest()[:20]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _same(stored, got) -> bool:
    if isinstance(stored, float) or isinstance(got, float):
        return _close(stored, got)
    if isinstance(stored, list) and isinstance(got, list):
        return len(stored) == len(got) and all(map(_same, stored, got))
    return stored == got


def check_call(call: Call, rc: int, stdout: str, reference: dict | None) -> int:
    """Check one call and return its item count; raises CheckError on any
    failure.  With a `reference`, a call that has pinned values must find
    them there; None checks the invariants only (for make_reference.py)."""
    _need(rc == 0, f"exit code {rc}")
    recs = parse_lines(stdout)
    _need(bool(recs), "no output records")
    for rec in recs:
        _need(rec.get("cmd") == call.cmd, f"record cmd {rec.get('cmd')!r} != {call.cmd!r}")
    try:
        _CHECKS[call.cmd](call, recs)
        got = reference_values(call, recs)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise CheckError(f"malformed {call.cmd} output: {e!r}") from None
    if reference is not None and got:
        stored = reference.get(reference_key(call))
        _need(stored is not None, "no stored reference for this call")
        for k, v in stored.items():
            _need(k in got and _same(v, got[k]),
                  f"{k} = {got.get(k)!r}, stored reference {v!r}")
    return item_count(recs)
