#!/usr/bin/env python3
"""Self-test of the benchmark's reference and generator.

    PYTHONPATH=src python3 bench/selftest.py

Checks that

* reference.py equals ``ptrac.oracle.oracle_matrix`` cell for cell on
  small seeded lexicons from every workload's generator (within the
  oracle's guard), for both study kinds, both weightings, both
  orientations and every aggregation scheme; the oracle's frame matrix is
  aggregated and rendered by ptrac's own CSV renderer;
* the checks reject outputs with one thing wrong;
* the same seed gives the same lexicon bytes, and another seed other bytes.

Prints one line per failure and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import reference
from workloads import WORKLOADS, generate

from ptrac import StudyConfig, parse_inventory, parse_lexicon
from ptrac.oracle import GUARD, oracle_matrix
from ptrac.report import RenderSpec, render

INVENTORY = Path(__file__).resolve().parent.parent / "src" / "ptrac" / "data" / "persian.inv"
SCHEMES = ("frame", "following-segment", "following-class", "position", "total")
SEEDS = (0, 1, 2)
SIZE = 150  # words per lexicon: keeps the quadratic oracle fast


def oracle_agreement(ref_inv, inv):
    failures = []
    for name, seed in itertools.product(WORKLOADS, SEEDS):
        gen = generate(name, seed, sorted(ref_inv.consonants), sorted(ref_inv.vowels), SIZE)
        lex, _ = parse_lexicon(gen.text, inv)
        for kind, weighting, orientation in itertools.product(
                ("clusters", "positions"), ("type-frequency", "unweighted"),
                ("unordered", "ordered")):
            freq = reference.sequence_counts(gen.words, kind)
            if len(freq) > GUARD:
                failures.append("%s seed %d: %d sequences exceed the oracle guard"
                                % (name, seed, len(freq)))
                continue
            pairs = reference.minimal_pairs(freq, ref_inv, ordered=orientation == "ordered")
            cfg = StudyConfig(kind=kind, weighting=weighting, orientation=orientation)
            matrix = oracle_matrix(lex, inv, cfg)
            for scheme in SCHEMES:
                if scheme == "position" and kind == "clusters":
                    continue
                got = reference.csv_rows(render(matrix, RenderSpec("csv", scheme), inv=inv))
                want = reference.table(pairs, freq, scheme, ref_inv, weighting)
                if got != want:
                    failures.append("%s seed %d %s/%s/%s/%s: reference differs from oracle"
                                    % (name, seed, kind, weighting, orientation, scheme))
    return failures


def checks_reject_errors(ref_inv):
    gen = generate("drilldown-zipf-50k", 0, sorted(ref_inv.consonants),
                   sorted(ref_inv.vowels), SIZE)
    freq = reference.sequence_counts(gen.words, "clusters")
    pairs = [p for p in reference.minimal_pairs(freq, ref_inv) if p[3] == "manner"]
    want = {(a, b): (reference.frame(a, pos), min(freq[a], freq[b])) for a, b, pos, _ in pairs}
    carried = {o: set(reference.study_sequences(s, "clusters")) for o, s in gen.words.items()}
    carrier = {seq: o for o, seqs in carried.items() for seq in seqs}
    rows = [(a, b, fr, "manner", w, [(carrier[a], carrier[b])])
            for (a, b), (fr, w) in sorted(want.items())]
    table = reference.table(pairs, freq, "total", ref_inv)
    off_by_one = [table[0][:2] + (table[0][2] + 1, table[0][3])] + table[1:]
    noisy = generate("clusters-100k", 0, sorted(ref_inv.consonants),
                     sorted(ref_inv.vowels), SIZE)

    def drill(rows):
        return reference.check_drilldown(rows, want, ref_inv, "manner", carried, 5)

    first = rows[0]
    cases = {  # label -> (problems found, whether there should be any)
        "correct rows": (drill(rows), False),
        "a row missing": (drill(rows[1:]), True),
        "a wrong weight": (drill([first[:4] + (first[4] + 1, first[5])] + rows[1:]), True),
        "a witness not carrying its sequence": (
            drill([first[:5] + ([("w999999", carrier[first[1]])],)] + rows[1:]), True),
        "witnesses over the limit": (drill([first[:5] + (first[5] * 6,)] + rows[1:]), True),
        "correct CSV": (reference.check_csv(_csv(table), table), False),
        "a CSV count off by one": (reference.check_csv(_csv(off_by_one), table), True),
        "a missing exclusion warning": (reference.check_exclusions(
            list(noisy.invalid)[1:], noisy.untokenizable, noisy), True),
    }
    return ["check on %s: %s" % (label, "no problem found" if flagged else problems)
            for label, (problems, flagged) in cases.items()
            if bool(problems) != flagged]


def _csv(rows):
    return "".join(line + "\n" for line in [reference.CSV_HEADER]
                   + ["%s,%s,%d,%d" % r for r in rows])


def determinism(ref_inv):
    failures = []
    cons, vowels = sorted(ref_inv.consonants), sorted(ref_inv.vowels)
    for name in WORKLOADS:
        a = generate(name, 7, cons, vowels).text
        if a != generate(name, 7, cons, vowels).text:
            failures.append("%s: seed 7 gave two different lexicons" % name)
        if a == generate(name, 8, cons, vowels).text:
            failures.append("%s: seeds 7 and 8 gave the same lexicon" % name)
    return failures


def main():
    ref_inv = reference.read_inventory(INVENTORY)
    inv = parse_inventory(INVENTORY.read_text(encoding="utf-8"))
    failures = oracle_agreement(ref_inv, inv) + checks_reject_errors(ref_inv) + determinism(ref_inv)
    for f in failures:
        print("FAIL %s" % f)
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
