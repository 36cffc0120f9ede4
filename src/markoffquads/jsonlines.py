"""JSON Lines for the `mql` commands that write many records of one
fixed shape, or one record with many faces: `spectrum` and `systole`
(spectrum rows), `fundamental` and `enumerate-integral` (integer
quads), and `bq-check` (a summability report).

Each line comes from a template made once per call.  The keys and the
values that every record of the call shares are encoded once, and each
row adds only its own numbers, written exactly as the strict JSON
encoder writes them: the repr of each part of an int, float or complex.
A flip word comes as the text `spectra` builds with the walk, one text
per cell from its parent's, and is written between brackets.  The
templates take the rows the library makes.  The only row that goes
to the encoder, as its dict, is one holding a number that strict JSON
cannot hold, infinite or NaN, so that its error is the encoder's.

`markoffquads.cli` imports this module, like every library module,
only in the commands that use it, here those five: a fresh `mql` call
without a bytecode cache compiles every module it imports.  Each command
imports its modules before its main work.  Imported after a walk, a
module's objects would sit among the walk's freed memory and keep it
resident in a process that goes on calling `cli.main`.
"""

from __future__ import annotations


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


def _faces(faces) -> str:
    """The JSON array of [i, j, product] of each Face: a product is an
    int, float or complex, and a complex is x or [x,y], as
    cli._complex_json writes it."""
    return "[" + ",".join([f"[{i},{j},{p.real!r}]" if p.imag == 0.0
                           else f"[{i},{j},[{p.real!r},{p.imag!r}]]"
                           for (i, j), p in faces]) + "]"


def quad_records(head: dict, quads, encode) -> RecordSet:
    """`head` plus `"result": q` for each IntegerQuad q: a tuple, so JSON
    writes an array and CSV joins it with `;`.  `encode` is the strict
    encoder, which writes the shared items once.  The template holds the
    result as `[%s,%s,%s,%s]`, so each line is one `%` of the quad:
    str(int) is the repr the encoder writes, and raises its ValueError
    past the str digit limit."""
    template = _template(encode, head, {"result": "[%s,%s,%s,%s]"})
    return RecordSet(quads, lambda q: {**head, "result": q}, template.__mod__)


def spectrum_records(head: dict, rows, encode) -> RecordSet:
    """`head` plus the trace, length, |length|, cell id (or id pair) and
    word of each spectrum row (|l|, word, ref, trace, l), as
    `spectra._spectrum_rows` makes them with texts: the word is its text,
    such as "4,3,1" ("" at a root cell), or None for a two-sided class.
    A record holds the word as a tuple of ints, so JSON writes an array
    and CSV joins it with `;`.  `encode` as for `quad_records`."""
    template = _template(encode, head, dict.fromkeys(
        ("abs_length", "cell", "length", "trace", "word"), "%s"))

    def record(row):
        a, word, ref, trace, ell = row
        if word is not None:
            word = tuple(map(int, word.split(","))) if word else ()
        return {**head, "trace": trace, "length": ell, "abs_length": a,
                "cell": ref, "word": word}

    def line(row):
        a, word, ref, t, ell = row
        # an int trace from an exact walk, a float from a Fuchsian one, or
        # a complex, written x or [x,y] as cli._complex_json writes it
        tr, ti = t.real, t.imag
        trace = repr(tr) if ti == 0.0 else f"[{tr!r},{ti!r}]"
        lr, li = ell.real, ell.imag
        if li == 0.0:
            length = repr(lr)
            # |l| = hypot(lr, li) is lr itself when l is a positive real,
            # so one repr writes both
            a = length if lr > 0.0 else repr(a)
        else:
            length, a = f"[{lr!r},{li!r}]", repr(a)
        # a repr holds an n only in inf or nan
        if "n" in trace or "n" in length:
            return None
        # a two-sided row has an id pair and no word
        if word is None:
            return template % (a, _ints(ref), length, trace, "null")
        return template % (a, ref, length, trace, "[" + word + "]")

    return RecordSet(rows, record, line)


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
        all_text = _faces(rep.faces4)
        # one text for both when every small face lies on the cut, as for 0,0,0,0
        bad_text = all_text if rep.violations == rep.faces4 else _faces(rep.violations)
        if "n" in all_text or "n" in bad_text:  # inf or nan, as in spectrum_records
            return None
        return template % (encode(rep.budget_hit), encode(rep.cells_below2),
                           encode(rep.cutoff), all_text, encode(rep.ok), bad_text)

    return RecordSet(reports, record, line)
