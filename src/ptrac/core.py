"""Contrast-dispersion engine.

Pipeline: extract segment sequences from the syllabified lexicon, find all
minimal sequence pairs among them, designate each pair's context (a frame
with a hole at the differing position) and contrasting feature, and
accumulate a feature-by-context matrix of weighted counts. `run_study`
counts the matrix as it finds the pairs, building no pair object; the pair
list is built only when `StudyReport.pairs` is read.

Two study kinds:

* clusters: sequences are the two-consonant codas of CVCC syllables; the
  classic question is which features contrast in preconsonantal position.
* positions: sequences are whole CVCC syllables (C V C C), letting the
  matrix be broken down by syllable position C1/C2/C3.

Weights are min(type frequency) of the two sequences, where the type
frequency of a sequence counts its occurrences across all syllables of all
word types in the lexicon (duplicate words contribute separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import PtracError, StudyError, SyllabifyError
from .inventory import FEATURES, HOLE, Inventory
from .lexicon import Lexicon
from .syllabifier import syllable_spans, syllabify

KINDS = ("clusters", "positions")
WEIGHTINGS = ("type-frequency", "unweighted")
ORIENTATIONS = ("unordered", "ordered")
SCHEMES = ("frame", "following-segment", "following-class", "position", "total")


@dataclass(frozen=True)
class StudyConfig:
    kind: str = "clusters"
    weighting: str = "type-frequency"
    orientation: str = "unordered"
    feature: str = None  # optional filter

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StudyError("unknown study kind %r" % self.kind)
        if self.weighting not in WEIGHTINGS:
            raise StudyError("unknown weighting %r" % self.weighting)
        if self.orientation not in ORIENTATIONS:
            raise StudyError("unknown orientation %r" % self.orientation)
        if self.feature is not None and self.feature not in FEATURES:
            raise StudyError("unknown feature %r" % self.feature)


@dataclass
class SequenceTable:
    """Map from segment sequence to its type frequency, and, when
    extraction was asked for it, to its carrier entries."""

    freqs: dict = field(default_factory=dict)  # tuple -> occurrence count
    # tuple -> [LexEntry], in lexicon order, one item per occurrence
    carriers: dict = None

    def add(self, seq):
        self.freqs[seq] = self.freqs.get(seq, 0) + 1

    def __len__(self):
        return len(self.freqs)


@dataclass(frozen=True)
class ExcludedEntry:
    index: int
    orthography: str
    reason: str


class MinimalSequencePair(NamedTuple):
    seq_a: tuple
    seq_b: tuple
    position: int
    feature: str
    weight: int  # min(freq(seq_a), freq(seq_b))

    @property
    def frame(self) -> str:
        """The pair's frame as rendered text, e.g. "_and"."""
        return context_text(frame_of(self.seq_a, self.position))


@dataclass
class Cell:
    weighted: int = 0
    pairs: int = 0


@dataclass
class ContrastMatrix:
    """Grid of contrast counts indexed by (context key, feature); the keys
    are those of `context_key`, frame tuples under the frame scheme."""

    cells: dict = field(default_factory=dict)  # (context, feature) -> Cell
    features: tuple = FEATURES
    scheme: str = "frame"
    kind: str = "clusters"

    def contexts(self):
        """Context keys in the order of their rendered text."""
        return sorted({ctx for ctx, _ in self.cells}, key=lambda c: (context_text(c), c))

    def cell(self, context, feature) -> Cell:
        return self.cells.get((context, feature), Cell())

    def add(self, context, feature, weighted, pairs=1):
        cell = self.cells.get((context, feature))
        if cell is None:
            cell = self.cells[context, feature] = Cell()
        cell.weighted += weighted
        cell.pairs += pairs

    def same_cells(self, other) -> bool:
        keys = set(self.cells) | set(other.cells)
        return all(
            self.cell(*k).weighted == other.cell(*k).weighted
            and self.cell(*k).pairs == other.cell(*k).pairs
            for k in keys
        )


def frame_of(seq, position) -> tuple:
    """The sequence with HOLE at `position`."""
    return seq[:position] + (HOLE,) + seq[position + 1:]


def context_key(frame, scheme: str, inv: Inventory = None):
    """Context of a frame under an aggregation scheme, or None if it has
    none: following-segment and following-class (which needs `inv`) key on
    the segment after the hole, position maps C V C C holes to C1/C2/C3."""
    if scheme == "frame":
        return frame
    if scheme == "total":
        return "total"
    pos = frame.index(HOLE)
    if scheme == "position":
        return "C%d" % (1 if pos == 0 else pos)
    if pos + 1 == len(frame):
        return None
    nxt = frame[pos + 1]
    if scheme == "following-segment":
        return HOLE + nxt
    return None if inv.is_vowel(nxt) else inv.class_map[nxt]


def context_text(key) -> str:
    """Text of a context key: a frame's symbols joined; other keys are text."""
    return "".join(key)


def require_distinct_texts(contexts):
    """Raise StudyError when two context keys render alike, as their rows
    could not be told apart; `contexts` is ordered by text, as
    `ContrastMatrix.contexts` orders it. Only frames of multi-character
    symbols can collide, e.g. ("t", "sa", "k", "_") and ("ts", "a", "k", "_")."""
    for a, b in zip(contexts, contexts[1:]):
        if context_text(a) == context_text(b):
            raise StudyError("contexts %r and %r both render as %r"
                             % (a, b, context_text(a)))


def _entry_plans(entries, inv: Inventory, kind: str):
    """Each entry with its plan: the slice bounds ``(start, end)`` of its
    study sequences in word order, the CVCC codas (clusters) or whole CVCC
    syllables (positions), or None when `syllabify` rejects the entry.
    Syllable spans depend only on the consonant/vowel skeleton, so a plan
    is computed once per distinct skeleton. A skeleton is bytes rather
    than a tuple: no tuple free list keeps thousands of them alive after
    the pass."""
    is_vowel = inv.vowel_map.__getitem__
    lead = 1 if kind == "clusters" else -1  # the coda, or the whole syllable
    plans = {}
    for entry in entries:
        skeleton = bytes(map(is_vowel, entry.transcription))
        plan = plans.get(skeleton, False)  # a plan may be None or ()
        if plan is False:
            try:
                plan = tuple((v + lead, end) for v, end in
                             syllable_spans(entry.transcription, inv) if end - v == 3)
            except SyllabifyError:
                plan = None
            plans[skeleton] = plan
        yield entry, plan


def extract_sequences(lex: Lexicon, inv: Inventory, cfg: StudyConfig, carriers: bool = False):
    """Build the sequence-frequency table; returns (table, excluded). With
    `carriers`, the same pass also fills `table.carriers`, the drill-down's
    index from each sequence to the entries that carry it.

    Sequences are cut from each transcription by the plan of its skeleton,
    so no syllables are built; a rejected entry is syllabified once more,
    for the message of its error."""
    if lex.inventory is not inv:
        raise StudyError("lexicon was parsed against a different inventory")
    table = SequenceTable(carriers={} if carriers else None)
    freqs, index = table.freqs, table.carriers
    excluded = []
    for ix, (entry, plan) in enumerate(_entry_plans(lex.entries, inv, cfg.kind)):
        t = entry.transcription
        if plan is None:
            try:
                syllabify(t, inv)  # raises, naming the reason
            except PtracError as exc:
                excluded.append(ExcludedEntry(ix, entry.orthography, str(exc)))
                continue
        for o, e in plan:
            seq = t[o:e]
            freqs[seq] = freqs.get(seq, 0) + 1
            if index is not None:
                index.setdefault(seq, []).append(entry)
    return table, excluded


def _neighbours(inv: Inventory, cfg: StudyConfig):
    """Each consonant's relation neighbours `(y, feature)` that the study
    pairs it with: of `cfg.feature` alone when it filters one, and in an
    unordered study only those with y > x, so that a pair is found once,
    from its smaller member."""
    ordered = cfg.orientation == "ordered"
    return {
        x: [(y, f) for y, f in rel.items()
            if (ordered or y > x) and (cfg.feature is None or f == cfg.feature)]
        for x, rel in inv.relation.items()
    }


def enumerate_minimal_sequence_pairs(table: SequenceTable, inv: Inventory, cfg: StudyConfig):
    """All minimal sequence pairs among the table's sequences, ordered by
    (seq_a, seq_b, position).

    Sequences pair up iff they have equal length and differ at exactly one
    position whose two segments are consonants contrasting in exactly one
    feature. Unordered orientation emits each pair once (lexicographically
    smaller member first); ordered emits both orientations.
    """
    # Neighbour generation: swap each consonant of a sequence for each of
    # its `_neighbours` and look the result up. The lookup goes through
    # `canon` so that pairs hold the table's own keys.
    freqs = table.freqs
    canon = {seq: seq for seq in freqs}
    neighbours = _neighbours(inv, cfg)
    pairs = []
    for a in sorted(freqs):
        hits = []
        for pos, x in enumerate(a):
            head, tail = a[:pos], a[pos + 1:]
            for y, feature in neighbours.get(x, ()):
                b = canon.get(head + (y,) + tail)
                if b is not None:
                    hits.append(MinimalSequencePair(a, b, pos, feature,
                                                    min(freqs[a], freqs[b])))
        hits.sort()  # by seq_b: seq_a is shared, and no seq_b is hit twice
        pairs += hits
    return pairs


def count_contrasts(pairs, cfg: StudyConfig) -> ContrastMatrix:
    """Accumulate pairs into the frame-granularity contrast matrix."""
    features = (cfg.feature,) if cfg.feature else FEATURES
    matrix = ContrastMatrix(features=features, scheme="frame", kind=cfg.kind)
    weighted = cfg.weighting == "type-frequency"
    for a, _, pos, feature, weight in pairs:
        matrix.add(frame_of(a, pos), feature, weight if weighted else 1)
    return matrix


def _count_table(table: SequenceTable, inv: Inventory, cfg: StudyConfig) -> ContrastMatrix:
    """The frame-granularity contrast matrix of the table's minimal pairs,
    counted as `_neighbours` finds them: the same cells as `count_contrasts`
    of `enumerate_minimal_sequence_pairs`, without building a pair, and
    with one frame per sequence and position that has a pair."""
    freqs = table.freqs
    neighbours = _neighbours(inv, cfg)
    weighted = cfg.weighting == "type-frequency"
    acc = {}  # (frame, feature) -> [weighted, pairs]
    for a in sorted(freqs):  # cell order follows the sequences, not the lexicon
        fa = freqs[a]
        for pos, x in enumerate(a):
            head, tail = a[:pos], a[pos + 1:]
            frame = None
            for y, feature in neighbours.get(x, ()):
                fb = freqs.get(head + (y,) + tail)
                if fb is None:
                    continue
                if frame is None:
                    frame = head + (HOLE,) + tail
                rec = acc.get((frame, feature))
                if rec is None:
                    rec = acc[frame, feature] = [0, 0]
                rec[0] += min(fa, fb) if weighted else 1
                rec[1] += 1
    return ContrastMatrix(cells={key: Cell(w, n) for key, (w, n) in acc.items()},
                          features=(cfg.feature,) if cfg.feature else FEATURES,
                          scheme="frame", kind=cfg.kind)


def aggregate(matrix: ContrastMatrix, scheme: str, inv: Inventory = None) -> ContrastMatrix:
    """Merge frame contexts under an aggregation scheme (see `context_key`);
    sum-preserving over the frames the scheme covers."""
    if scheme not in SCHEMES:
        raise StudyError("unknown aggregation scheme %r" % scheme)
    if matrix.scheme != "frame":
        raise StudyError("matrix already aggregated (%s)" % matrix.scheme)
    if scheme == "position" and matrix.kind != "positions":
        raise StudyError("position scheme requires a positions study")
    if scheme == "following-class" and inv is None:
        raise StudyError("following-class aggregation needs the inventory")

    out = ContrastMatrix(features=matrix.features, scheme=scheme, kind=matrix.kind)
    for (frame, feature), cell in matrix.cells.items():
        key = context_key(frame, scheme, inv)
        if key is None:
            continue
        out.add(key, feature, cell.weighted, cell.pairs)
    return out


@dataclass(frozen=True)
class PairReportRow:
    pair: MinimalSequencePair
    witnesses: tuple  # ((orth_a, orth_b), ...)


def list_pairs_for(pairs, feature, context, lex: Lexicon, inv: Inventory,
                   cfg: StudyConfig, scheme: str = "frame", limit: int = 5,
                   carriers: dict = None):
    """Drill-down report: pairs matching a feature and aggregated context,
    each with up to `limit` witness word pairs from the lexicon (see
    `_witnesses`). `carriers` is `table.carriers` of
    `extract_sequences(lex, inv, cfg, carriers=True)`; without it, the
    lexicon is extracted again to build it."""
    if feature not in FEATURES:
        raise StudyError("unknown feature %r" % feature)
    if scheme not in SCHEMES:
        raise StudyError("unknown aggregation scheme %r" % scheme)
    if limit < 1:
        raise StudyError("limit must be at least 1, got %d" % limit)

    matching, keys = [], set()
    for p in pairs:
        key = context_key(frame_of(p.seq_a, p.position), scheme, inv)
        if key is not None and context_text(key) == context:
            keys.add(key)
            if p.feature == feature:
                matching.append(p)
    require_distinct_texts(sorted(keys))

    if carriers is None:
        carriers = extract_sequences(lex, inv, cfg, carriers=True)[0].carriers
    by_text = {}  # filled by `_witnesses`
    return [PairReportRow(p, _witnesses(p, carriers, by_text, limit)) for p in matching]


def _witnesses(pair, carriers, by_text, limit):
    """Witness word pairs: words whose transcriptions differ only at the
    pair's contrasting segment, at most `limit`, ordered by the carrier of
    seq_a, then by the carrier of seq_b; without any, the first carriers of
    each sequence.

    Found by neighbour lookup from the side with fewer carriers: each of
    its carriers, with one contrasting symbol swapped for the other, is
    looked up among the carriers of the other side by transcription. A
    swap is its own inverse, and two swapped positions give different
    transcriptions, so either side finds each aligned pair once. `by_text`
    caches, per sequence, its carriers' indices by transcription."""
    wa = carriers.get(pair.seq_a, [])
    wb = carriers.get(pair.seq_b, [])
    a, b = pair.seq_a[pair.position], pair.seq_b[pair.position]
    swap = {a: b, b: a}
    flip = len(wa) > len(wb)  # scan wb, look up in wa
    scan, seq = (wb, pair.seq_a) if flip else (wa, pair.seq_b)
    lookup = by_text.get(seq)
    if lookup is None:
        lookup = by_text[seq] = {}
        for i, entry in enumerate(carriers.get(seq, ())):
            lookup.setdefault(entry.transcription, []).append(i)
    aligned = []  # (index in wa, index in wb)
    for x, entry in enumerate(scan):
        t = entry.transcription
        for k, sym in enumerate(t):
            if sym in swap:
                for y in lookup.get(t[:k] + (swap[sym],) + t[k + 1:], ()):
                    aligned.append((y, x) if flip else (x, y))
    if aligned:
        aligned.sort()
        return tuple((wa[i].orthography, wb[j].orthography) for i, j in aligned[:limit])
    if wa and wb:
        return ((wa[0].orthography, wb[0].orthography),)
    return ()


@dataclass
class StudyReport:
    config: StudyConfig
    table: SequenceTable
    inventory: Inventory
    matrix: ContrastMatrix  # frame granularity
    excluded: list

    @cached_property
    def pairs(self):
        """The study's minimal sequence pairs, enumerated on first read."""
        return enumerate_minimal_sequence_pairs(self.table, self.inventory, self.config)

    @property
    def counts(self):
        return {
            "sequences": len(self.table),
            "occurrences": sum(self.table.freqs.values()),
            "pairs": sum(c.pairs for c in self.matrix.cells.values()),
            "excluded_entries": len(self.excluded),
        }


def run_study(lex: Lexicon, inv: Inventory, cfg: StudyConfig) -> StudyReport:
    """End-to-end composition: extract, then count the contrasts; the
    pairs themselves are enumerated only if `report.pairs` is read."""
    table, excluded = extract_sequences(lex, inv, cfg)
    return StudyReport(config=cfg, table=table, inventory=inv,
                       matrix=_count_table(table, inv, cfg), excluded=excluded)
