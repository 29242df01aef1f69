"""Independent reference for the benchmark's output checks.

Shares no code with the ptrac package. Syllables come from the generator's
own construction (see workloads.py), the pair relation from the ``[pairs]``
lines of the inventory file, and minimal pairs from neighbour generation:
for each distinct sequence, each consonant position and each relation
neighbour of that consonant, look the substituted sequence up among the
distinct sequences. Weights are min(type frequency); contexts follow the
documented aggregation schemes.

The check_* functions return a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

FEATURES = ("manner", "place", "voice")
HOLE = "_"
CSV_HEADER = "context,feature,weighted_count,pair_count"
# following-class map for consonants an inventory's [classes] leaves out
DEFAULT_CLASSES = {"m": "nasal", "n": "nasal", "l": "liquid", "r": "liquid",
                   "w": "glide", "y": "glide"}
# consonant slots of a C V C C syllable, named as the position scheme does
SLOT_NAMES = {0: "C1", 2: "C2", 3: "C3"}


@dataclass
class InventoryFile:
    consonants: list
    vowels: list
    relation: dict  # consonant -> {consonant: feature}, symmetric
    classes: dict  # consonant -> following-class label


def read_inventory(path) -> InventoryFile:
    """Read a pair-list inventory file directly, line by line."""
    cons, vowels, relation, classes = [], [], {}, {}
    section = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                section = line.strip("[]").strip().lower()
                continue
            fields = line.split()
            if section == "phonemes":
                (cons if fields[1] == "consonant" else vowels).append(fields[0])
            elif section == "pairs":
                a, b, feature = fields
                relation.setdefault(a, {})[b] = feature
                relation.setdefault(b, {})[a] = feature
            elif section == "classes":
                classes[fields[0]] = fields[1]
            elif section == "features":
                raise ValueError("%s: the reference reads [pairs] inventories only" % path)
    classes = {c: classes.get(c, DEFAULT_CLASSES.get(c, "obstruent")) for c in cons}
    return InventoryFile(cons, vowels, relation, classes)


def study_sequences(syllables, kind):
    """Study sequences of one word given as (onset, vowel, coda) syllables."""
    return [coda if kind == "clusters" else (onset, vowel) + coda
            for onset, vowel, coda in syllables if len(coda) == 2]


def sequence_counts(words, kind) -> Counter:
    freq = Counter()
    for syllables in words.values():
        freq.update(study_sequences(syllables, kind))
    return freq


def minimal_pairs(freq, inv: InventoryFile, ordered=False):
    """(a, b, position, feature) for every minimal pair among freq's keys;
    unordered yields each pair once with a < b."""
    out = []
    for a in freq:
        for pos, sym in enumerate(a):
            for other, feature in inv.relation.get(sym, {}).items():
                b = a[:pos] + (other,) + a[pos + 1:]
                if b in freq and (ordered or a < b):
                    out.append((a, b, pos, feature))
    return out


def frame(seq, pos):
    return "".join(HOLE if i == pos else s for i, s in enumerate(seq))


def context(seq, pos, scheme, inv: InventoryFile):
    """Context key of a pair under a scheme, or None if the scheme drops it."""
    if scheme == "frame":
        return frame(seq, pos)
    if scheme == "total":
        return "total"
    if scheme == "position":
        return SLOT_NAMES[pos]
    if pos + 1 == len(seq):
        return None
    nxt = seq[pos + 1]
    if scheme == "following-segment":
        return HOLE + nxt
    return inv.classes.get(nxt)  # vowels have no class


def table(pairs, freq, scheme, inv: InventoryFile, weighting="type-frequency",
          features=FEATURES):
    """Rendered-table rows (context, feature, weighted, pairs): contexts
    sorted, every feature listed for each context present."""
    cells = {}
    for a, b, pos, feature in pairs:
        ctx = context(a, pos, scheme, inv)
        if ctx is None or feature not in features:
            continue
        cell = cells.setdefault((ctx, feature), [0, 0])
        cell[0] += min(freq[a], freq[b]) if weighting == "type-frequency" else 1
        cell[1] += 1
    return [(ctx, f) + tuple(cells.get((ctx, f), (0, 0)))
            for ctx in sorted({c for c, _ in cells}) for f in features]


def csv_rows(text):
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("bad CSV header or missing final newline")
    out = []
    for line in lines[1:-1]:
        ctx, feature, weighted, pairs = line.split(",")
        out.append((ctx, feature, int(weighted), int(pairs)))
    return out


def _compare_rows(got, want):
    problems = [] if len(got) == len(want) else ["%d rows, expected %d" % (len(got), len(want))]
    return problems + ["row %r, expected %r" % (g, w) for g, w in zip(got, want) if g != w][:5]


def check_csv(text, want):
    try:
        got = csv_rows(text)
    except ValueError as exc:
        return ["CSV: %s" % exc]
    return _compare_rows(got, want)


def check_json(text, want, meta):
    try:
        doc = json.loads(text)
        got = [(r["context"], r["feature"], r["weighted_count"], r["pair_count"])
               for r in doc["records"]]
    except (ValueError, KeyError, TypeError) as exc:
        return ["JSON: %s" % exc]
    problems = ["meta %s = %r, expected %r" % (k, doc["meta"].get(k), v)
                for k, v in meta.items() if doc["meta"].get(k) != v]
    return problems + _compare_rows(got, want)


def pairs_listing(inv: InventoryFile):
    """Expected `ptrac pairs` output: unordered pairs a < b, by feature."""
    lines = []
    for feature in FEATURES:
        pairs = {tuple(sorted((a, b))) for a, nbrs in inv.relation.items()
                 for b, f in nbrs.items() if f == feature}
        lines += ["%s %s %s" % (a, b, feature) for a, b in sorted(pairs)]
    return "".join(line + "\n" for line in lines)


def check_pairs_listing(text, inv: InventoryFile):
    return [] if text == pairs_listing(inv) else ["pairs listing differs from [pairs]"]


_WITNESS = re.compile(r"\(([^,()]+), ([^,()]+)\)")


def parse_drilldown(text):
    """list-pairs lines -> (seq_a, seq_b, frame, feature, weight, witnesses)."""
    rows = []
    for line in text.splitlines():
        a, b, fr, feature, weight, wit = line.split("\t")
        rows.append((tuple(a), tuple(b), fr, feature, int(weight),
                     _WITNESS.findall(wit)))
    return rows


def check_drilldown(rows, want, inv: InventoryFile, feature, carried, limit):
    """rows as parse_drilldown gives them; want maps (seq_a, seq_b) to
    (frame, weight) for each pair of the drilled cell; carried maps each
    valid word's orthography to the set of study sequences it carries."""
    problems = []
    if sorted((r[0], r[1]) for r in rows) != sorted(want):
        problems.append("%d rows, expected the %d pairs of the reference"
                        % (len(rows), len(want)))
    for a, b, fr, feat, weight, witnesses in rows:
        label = "".join(a) + "/" + "".join(b)
        diff = [i for i in range(len(a)) if len(a) == len(b) and a[i] != b[i]]
        if len(diff) != 1 or inv.relation.get(a[diff[0]], {}).get(b[diff[0]]) != feature:
            problems.append("%s is not a minimal pair on %s" % (label, feature))
        elif (a, b) not in want or feat != feature or want[(a, b)] != (fr, weight):
            problems.append("%s: %r not in the reference" % (label, (fr, feat, weight)))
        if not 1 <= len(witnesses) <= limit:
            problems.append("%s: %d witnesses, limit %d" % (label, len(witnesses), limit))
        for oa, ob in witnesses:
            if a not in carried.get(oa, ()) or b not in carried.get(ob, ()):
                problems.append("%s: witness (%s, %s) does not carry the pair" % (label, oa, ob))
    return problems[:10]


def check_exclusions(excluded_orths, diagnostic_lines, generated):
    """Excluded entries and lexicon diagnostics against the generator's
    deliberately invalid words and untokenizable lines."""
    problems = []
    if sorted(excluded_orths) != sorted(generated.invalid):
        problems.append("%d entries excluded, generated %d unsyllabifiable"
                        % (len(excluded_orths), len(generated.invalid)))
    if sorted(diagnostic_lines) != sorted(generated.untokenizable):
        problems.append("%d diagnostics, generated %d untokenizable lines"
                        % (len(diagnostic_lines), len(generated.untokenizable)))
    return problems


_EXCLUDED = re.compile(r"warning: entry \d+ \((.*)\) excluded: ")
_DIAGNOSTIC = re.compile(r"warning: line (\d+): ")


def check_stderr(text, generated):
    """CLI warnings: one per untokenizable line and one per excluded
    entry, nothing else."""
    excluded, lines, other = [], [], []
    for line in text.splitlines():
        m = _EXCLUDED.match(line)
        d = _DIAGNOSTIC.match(line)
        if m:
            excluded.append(m.group(1))
        elif d:
            lines.append(int(d.group(1)))
        else:
            other.append(line)
    problems = ["unexpected stderr line %r" % line for line in other[:3]]
    return problems + check_exclusions(excluded, lines, generated)
