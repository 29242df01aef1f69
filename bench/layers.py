"""Do one workload's work through ptrac's public API, in a process of its own.

    python3 bench/layers.py WORKLOAD INVENTORY LEXICON OUT [--trace]

Parses the inventory, then times the calls the workload's CLI command
makes (parse_lexicon, extract_sequences, enumerate_minimal_sequence_pairs,
count_contrasts, then aggregate and render, or list_pairs_for) and writes
the result, for run.py to check, to the JSON file OUT. With --trace, each
call runs inside a span, and so does the inventory parse; calls into
syllabify, made from inside extract_sequences and list_pairs_for, are
summed per enclosing span instead, being too many for a span each.

A fresh process per run keeps the benchmark's own heap out of the timing,
and lets per-process effects (address layout, string hash seed) vary from
run to run as they do between CLI runs.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import contextmanager, nullcontext

import ptrac
import ptrac.core
from ptrac.report import RenderSpec, render

from workloads import LIMIT, WORKLOADS


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # (name, start, end)
        self.nested = {}  # enclosing span -> [syllabify calls, seconds]
        self.syllables = 0
        self.rejected = 0
        self._open = None

    @contextmanager
    def span(self, name):
        self._open = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))
            self._open = None

    def wrap(self, syllabify):
        def traced(seq, inv):
            start = time.perf_counter()
            try:
                out = syllabify(seq, inv)
            except ptrac.SyllabifyError:
                self.rejected += 1
                raise
            finally:
                rec = self.nested.setdefault(self._open, [0, 0.0])
                rec[0] += 1
                rec[1] += time.perf_counter() - start
            self.syllables += len(out)
            return out
        return traced


def pipeline(w, text, inv, span):
    """The workload's CLI work, one span per public call."""
    with span("lexicon.parse"):
        lex, diags = ptrac.parse_lexicon(text, inv)
    cfg = ptrac.StudyConfig(kind=w.study)
    with span("core.extract"):
        table, excluded = ptrac.extract_sequences(lex, inv, cfg)
    with span("core.enumerate"):
        pairs = ptrac.enumerate_minimal_sequence_pairs(table, inv, cfg)
    with span("core.count"):
        matrix = ptrac.count_contrasts(pairs, cfg)
    if w.fmt:
        with span("core.aggregate"):
            agg = ptrac.aggregate(matrix, w.scheme, inv=inv)
        meta = {"diagnostics": len(diags) + len(excluded),
                "weighting": cfg.weighting, "orientation": cfg.orientation}
        with span("report.render"):
            output = render(agg, RenderSpec(format=w.fmt, scheme=w.scheme),
                            inv=inv, meta=meta)
    else:
        with span("core.list_pairs"):
            output = ptrac.list_pairs_for(pairs, w.feature, w.context, lex, inv,
                                          cfg, scheme=w.scheme, limit=LIMIT)
    return lex, diags, table, excluded, pairs, matrix, output


def main(argv):
    name, inventory, lexicon, out_path = argv[:4]
    traced = "--trace" in argv[4:]
    w = WORKLOADS[name]
    with open(inventory, encoding="utf-8") as fh:
        inv_text = fh.read()
    with open(lexicon, encoding="utf-8") as fh:
        text = fh.read()
    tr = Tracer()
    if traced:
        ptrac.core.syllabify = tr.wrap(ptrac.core.syllabify)
    span = tr.span if traced else nullcontext
    with span("inventory.parse"):
        inv = ptrac.parse_inventory(inv_text)
    gc.collect()
    start = time.perf_counter()
    lex, diags, table, excluded, pairs, matrix, output = pipeline(w, text, inv, span)
    wall = time.perf_counter() - start

    result = {"wall_s": wall,
              "excluded": [e.orthography for e in excluded],
              "diagnostics": [d.line for d in diags]}
    if w.fmt:
        result["output"] = output
    else:
        result["output"] = [[r.pair.seq_a, r.pair.seq_b, r.pair.frame, r.pair.feature,
                             r.pair.weight, r.witnesses] for r in output]
    if traced:
        t0 = tr.spans[0][1]
        result["spans"] = [{"name": n, "parent": None, "start_s": s - t0, "end_s": e - t0}
                           for n, s, e in tr.spans]
        result["nested"] = [{"name": "syllabifier.syllabify", "parent": parent,
                             "calls": calls, "busy_s": busy}
                            for parent, (calls, busy) in tr.nested.items()]
        rows = [] if w.fmt else output
        result["counts"] = {
            "lexicon.entries": len(lex),
            "lexicon.diagnostics": len(diags),
            "syllabifier.syllables": tr.syllables,
            "syllabifier.rejected": tr.rejected,
            "core.sequences": len(table.freqs),
            "core.occurrences": sum(table.freqs.values()),
            "core.excluded": len(excluded),
            "core.pairs": len(pairs),
            "core.frames": len(matrix.contexts()),
            "core.list_pairs_rows": len(rows),
            "core.witnesses": sum(len(r.witnesses) for r in rows),
            "report.bytes": len(output.encode("utf-8")) if w.fmt else 0,
        }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
