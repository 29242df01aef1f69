"""Contrast-dispersion engine.

Pipeline: extract segment sequences from the syllabified lexicon, find all
minimal sequence pairs among them, designate each pair's context (a frame
with a hole at the differing position) and contrasting feature, and
accumulate a feature-by-context matrix of weighted counts.

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

from .errors import PtracError, StudyError
from .inventory import FEATURES, HOLE, Inventory
from .lexicon import Lexicon
from .syllabifier import syllabify

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
    """Map from segment sequence to its type frequency."""

    freqs: dict = field(default_factory=dict)  # tuple -> occurrence count

    def add(self, seq):
        self.freqs[seq] = self.freqs.get(seq, 0) + 1

    def __len__(self):
        return len(self.freqs)


@dataclass(frozen=True)
class ExcludedEntry:
    index: int
    orthography: str
    reason: str


@dataclass(frozen=True)
class MinimalSequencePair:
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

    def add(self, context, feature, weight):
        cell = self.cells.setdefault((context, feature), Cell())
        cell.weighted += weight
        cell.pairs += 1

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


def entry_sequences(entry, inv: Inventory, kind: str):
    """Study sequences contributed by one lexicon entry (may raise)."""
    out = []
    for syl in syllabify(entry.transcription, inv):
        if syl.shape != "CVCC":
            continue
        out.append(syl.coda if kind == "clusters" else syl.segments)
    return out


def extract_sequences(lex: Lexicon, inv: Inventory, cfg: StudyConfig):
    """Build the sequence-frequency table; returns (table, excluded)."""
    if lex.inventory is not inv:
        raise StudyError("lexicon was parsed against a different inventory")
    table = SequenceTable()
    excluded = []
    for ix, entry in enumerate(lex.entries):
        try:
            seqs = entry_sequences(entry, inv, cfg.kind)
        except PtracError as exc:
            excluded.append(ExcludedEntry(ix, entry.orthography, str(exc)))
            continue
        for seq in seqs:
            table.add(seq)
    return table, excluded


def enumerate_minimal_sequence_pairs(table: SequenceTable, inv: Inventory, cfg: StudyConfig):
    """All minimal sequence pairs among the table's sequences.

    Sequences pair up iff they have equal length and differ at exactly one
    position whose two segments are consonants contrasting in exactly one
    feature. Unordered orientation emits each pair once (lexicographically
    smaller member first); ordered emits both orientations.
    """
    # Bucket by frame: two sequences differ at exactly one position iff
    # they share exactly one frame, so buckets cover every pair once.
    is_vowel = inv.vowel_map
    buckets = {}
    for seq in table.freqs:
        for pos, sym in enumerate(seq):
            if is_vowel[sym]:
                continue
            buckets.setdefault(frame_of(seq, pos), []).append(seq)

    pairs = []
    for frame, seqs in buckets.items():
        pos = frame.index(HOLE)
        seqs.sort()
        for i, a in enumerate(seqs):
            neighbours = inv.relation[a[pos]]
            for b in seqs[i + 1:]:
                feature = neighbours.get(b[pos])
                if feature is None:
                    continue
                if cfg.feature is not None and feature != cfg.feature:
                    continue
                weight = min(table.freqs[a], table.freqs[b])
                pairs.append(MinimalSequencePair(a, b, pos, feature, weight))
                if cfg.orientation == "ordered":
                    pairs.append(MinimalSequencePair(b, a, pos, feature, weight))
    pairs.sort(key=lambda p: (p.seq_a, p.seq_b, p.position))
    return pairs


def count_contrasts(pairs, cfg: StudyConfig) -> ContrastMatrix:
    """Accumulate pairs into the frame-granularity contrast matrix."""
    features = (cfg.feature,) if cfg.feature else FEATURES
    matrix = ContrastMatrix(features=features, scheme="frame", kind=cfg.kind)
    for p in pairs:
        matrix.add(frame_of(p.seq_a, p.position), p.feature,
                   p.weight if cfg.weighting == "type-frequency" else 1)
    return matrix


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
        tgt = out.cells.setdefault((key, feature), Cell())
        tgt.weighted += cell.weighted
        tgt.pairs += cell.pairs
    return out


@dataclass(frozen=True)
class PairReportRow:
    pair: MinimalSequencePair
    witnesses: tuple  # ((orth_a, orth_b), ...)


def list_pairs_for(pairs, feature, context, lex: Lexicon, inv: Inventory,
                   cfg: StudyConfig, scheme: str = "frame", limit: int = 5):
    """Drill-down report: pairs matching a feature and aggregated context,
    each with up to `limit` witness word pairs from the lexicon."""
    if feature not in FEATURES:
        raise StudyError("unknown feature %r" % feature)
    if scheme not in SCHEMES:
        raise StudyError("unknown aggregation scheme %r" % scheme)
    if limit < 1:
        raise StudyError("limit must be at least 1, got %d" % limit)

    words_by_seq = {}
    for entry in lex.entries:
        try:
            seqs = entry_sequences(entry, inv, cfg.kind)
        except PtracError:
            continue
        for seq in seqs:
            words_by_seq.setdefault(seq, []).append(entry)

    rows = []
    for p in pairs:
        if p.feature != feature:
            continue
        key = context_key(frame_of(p.seq_a, p.position), scheme, inv)
        if key is not None and context_text(key) == context:
            rows.append(PairReportRow(p, _witnesses(p, words_by_seq, limit)))
    return rows


def _witnesses(pair, words_by_seq, limit):
    """Witness word pairs: prefer words whose transcriptions themselves
    differ only at the pair's contrasting segment; otherwise fall back to
    the first carriers of each sequence."""
    wa = words_by_seq.get(pair.seq_a, [])
    wb = words_by_seq.get(pair.seq_b, [])
    contrast = {pair.seq_a[pair.position], pair.seq_b[pair.position]}
    aligned = []
    for ea in wa:
        for eb in wb:
            ta, tb = ea.transcription, eb.transcription
            if len(ta) != len(tb):
                continue
            diffs = [i for i in range(len(ta)) if ta[i] != tb[i]]
            if len(diffs) == 1 and {ta[diffs[0]], tb[diffs[0]]} == contrast:
                aligned.append((ea.orthography, eb.orthography))
                if len(aligned) == limit:
                    return tuple(aligned)
    if not aligned and wa and wb:
        aligned = [(wa[0].orthography, wb[0].orthography)]
    return tuple(aligned)


@dataclass
class StudyReport:
    config: StudyConfig
    table: SequenceTable
    pairs: list
    matrix: ContrastMatrix  # frame granularity
    excluded: list

    @property
    def counts(self):
        return {
            "sequences": len(self.table),
            "occurrences": sum(self.table.freqs.values()),
            "pairs": len(self.pairs),
            "excluded_entries": len(self.excluded),
        }


def run_study(lex: Lexicon, inv: Inventory, cfg: StudyConfig) -> StudyReport:
    """End-to-end composition: extract, enumerate, count."""
    table, excluded = extract_sequences(lex, inv, cfg)
    pairs = enumerate_minimal_sequence_pairs(table, inv, cfg)
    matrix = count_contrasts(pairs, cfg)
    return StudyReport(config=cfg, table=table, pairs=pairs, matrix=matrix,
                       excluded=excluded)
