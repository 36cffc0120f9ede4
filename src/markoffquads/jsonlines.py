"""JSON Lines for the `mql` commands that write many records of one
fixed shape, or one record with many faces: `spectrum` and `systole`
(spectrum entries), `fundamental` and `enumerate-integral` (integer
quads), and `bq-check` (a summability report).

Each line comes from a template made once per call.  The keys and the
values that every record of the call shares are encoded once, and each
row adds only its own numbers, written exactly as the strict JSON
encoder writes them.  The templates take the rows the library makes.
A row goes to the encoder as its dict, so that its bytes, or its error,
are the encoder's, where a number in it is not finite or finite parts
sum past the float range, where a bq-check product is complex off the
real line, or where a violation lies outside faces4.

`markoffquads.cli` imports this module, like every library module,
only in the commands that use it, here those five: a fresh `mql` call
without a bytecode cache compiles every module it imports.  Each command
imports its modules before its main work.  Imported after a walk, a
module's objects would sit among the walk's freed memory and keep it
resident in a process that goes on calling `cli.main`.
"""

from __future__ import annotations

import math


class RecordSet:
    """The records of one call, kept as rows.  Iterating gives each
    row's record dict, built afresh on every pass, as CSV and any other
    reader of the records see it; `lines` gives their JSON lines."""

    __slots__ = ("rows", "record", "line")

    def __init__(self, rows, record, line):
        self.rows, self.record, self.line = rows, record, line

    def __iter__(self):
        return map(self.record, self.rows)

    def __len__(self):
        return len(self.rows)

    def lines(self, encode):
        """Each row's JSON line from the template, or `encode` of its
        dict where `line(row)` returns None.  An int past the str digit
        limit raises the encoder's own ValueError: both convert it with
        int's repr."""
        record, line = self.record, self.line
        for row in self.rows:
            text = line(row)
            yield encode(record(row)) + "\n" if text is None else text


def _template(encode, head: dict, fields: dict) -> str:
    """A record's JSON line as a %-format: the items of `head` encoded
    once, the format of each key in `fields` (`%s` for a value the row
    writes whole) for its value, and the keys in the encoder's sorted
    order, which is the order the fields fill in."""
    items = (encode(k) + ":" + (fields[k] if k in fields else encode(head[k]).replace("%", "%%"))
             for k in sorted([*head, *fields]))
    return "{" + ",".join(items) + "}\n"


def _ints(values) -> str:
    # a JSON array of ints: str(int) is the repr the encoder writes
    return "[" + ",".join(map(str, values)) + "]"


# byte k to the digit of slot k, for the slots 1..4 a walk takes
_SLOT_DIGITS = bytes.maketrans(bytes(range(1, 5)), b"1234")


def _word(word: tuple) -> str:
    """A flip word's JSON array: one table lookup per slot instead of
    one str per slot.  A walk's words hold only the slots 1..4, and a
    root cell's word is ()."""
    return "[" + ",".join(bytes(word).translate(_SLOT_DIGITS).decode()) + "]"


def quad_records(head: dict, quads, encode) -> RecordSet:
    """`head` plus `"result": q` for each IntegerQuad q: a tuple, so JSON
    writes an array and CSV joins it with `;`.  `encode` is the strict
    encoder, which writes the shared items once.  The template holds the
    result as `[%s,%s,%s,%s]`, so each line is one `%` of the quad:
    str(int) is the repr the encoder writes, and raises its ValueError
    past the str digit limit."""
    template = _template(encode, head, {"result": "[%s,%s,%s,%s]"})
    return RecordSet(quads, lambda q: {**head, "result": q}, template.__mod__)


def entry_records(head: dict, entries, encode) -> RecordSet:
    """`head` plus the trace, length, |length|, cell id (or id pair) and
    word of each SpectrumEntry; `encode` as for `quad_records`."""
    template = _template(encode, head, dict.fromkeys(
        ("abs_length", "cell", "length", "trace", "word"), "%s"))
    isfinite = math.isfinite

    def record(entry):
        _, trace, ell, cell_ref, word = entry
        return {**head, "trace": trace, "length": ell, "abs_length": abs(ell),
                "cell": cell_ref, "word": word}

    def line(entry):
        _, t, ell, ref, word = entry
        # a trace is complex, float from a walk on the real path, or int
        # from an exact walk, which is never made a float
        exact = type(t) is int
        tr, ti = (0.0, 0.0) if exact else (t.real, t.imag)
        lr, li = ell.real, ell.imag
        # |l| = hypot(lr, li) is lr itself when l is a positive real, so
        # one repr writes both
        real = li == 0.0 and lr > 0.0
        a = lr if real else abs(ell)
        if not isfinite(a + tr + ti + lr + li):  # a part is not finite, or the sum overflows
            return None
        # a complex is x or [x,y], as cli._complex_json writes it; a
        # two-sided row has an id pair and no word
        if word is None:
            ref, word = _ints(ref), "null"
        else:
            word = _word(word)
        # str(int) is the repr the encoder writes, and raises its
        # ValueError past the str digit limit
        trace = str(t) if exact else repr(tr) if ti == 0.0 else f"[{tr!r},{ti!r}]"
        if real:
            length = repr(lr)
            return template % (length, ref, length, trace, word)
        return template % (a, ref, repr(lr) if li == 0.0 else f"[{lr!r},{li!r}]", trace, word)

    return RecordSet(entries, record, line)


def bq_records(head: dict, reports, encode) -> RecordSet:
    """`head` plus the cutoff, the [i, j, product] list of each face in
    faces4 and in violations, the cell count, the budget flag and the
    verdict of each BqReport; `encode` as for `quad_records`."""
    template = _template(encode, head, dict.fromkeys(
        ("budget_hit", "cells_below2", "cutoff", "faces4", "ok", "violations"), "%s"))

    def faces(fs):
        return [[f.cells[0], f.cells[1], f.product] for f in fs]

    def record(rep):
        return {**head, "cutoff": rep.cutoff, "faces4": faces(rep.faces4),
                "violations": faces(rep.violations), "cells_below2": rep.cells_below2,
                "budget_hit": rep.budget_hit, "ok": rep.ok}

    def line(rep):
        # check_bq reuses faces4's Face objects for the violations within
        # it, in order, so one pass over faces4 meets each of them, by
        # identity, and each face's text is made once for both lists
        all_text, bad_text = [], []
        add = all_text.append
        violations = iter(rep.violations)
        v = next(violations, None)
        total = 0.0
        for f in rep.faces4:
            (i, j), p = f
            # a product is written as its real part when its imaginary
            # part is zero, as cli._complex_json writes it, and a float or
            # int one, from a real or exact walk, as it is
            if type(p) is float or (type(p) is complex and p.imag == 0.0):
                p = p.real
                total += p
            elif type(p) is not int:
                return None
            text = f"[{i},{j},{p!r}]"
            add(text)
            if f is v:
                bad_text.append(text)
                v = next(violations, None)
        # a violation not met above (one with |product| > 4, outside
        # faces4), a part that is not finite, or a sum that overflows
        if v is not None or not math.isfinite(total):
            return None
        return template % (encode(rep.budget_hit), encode(rep.cells_below2),
                           encode(rep.cutoff), "[" + ",".join(all_text) + "]",
                           encode(rep.ok), "[" + ",".join(bad_text) + "]")

    return RecordSet(reports, record, line)
