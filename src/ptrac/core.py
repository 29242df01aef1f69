"""Contrast-dispersion engine.

Pipeline: extract segment sequences from the syllabified lexicon, find all
minimal sequence pairs among them, designate each pair's context (a frame
with a hole at the differing position) and contrasting feature, and
accumulate a feature-by-context matrix of weighted counts. `run_study`
counts the matrix under the requested aggregation scheme as it finds the
pairs, building no pair object; the pair list is built only when
`StudyReport.pairs` is read.

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
from .lexicon import LexEntry, Lexicon
from .syllabifier import syllable_spans, syllabify

KINDS = ("clusters", "positions")
WEIGHTINGS = ("type-frequency", "unweighted")
ORIENTATIONS = ("unordered", "ordered")
SCHEMES = ("frame", "following-segment", "following-class", "position", "total")
FORMATS = ("csv", "json", "markdown", "svg")  # the output formats of `report.render`


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
    are those of `scheme_key`, frame tuples under the frame scheme."""

    cells: dict = field(default_factory=dict)  # (context, feature) -> Cell
    features: tuple = FEATURES
    scheme: str = "frame"
    kind: str = "clusters"
    # every pair the count of `run_study` found, also those the scheme gives
    # no cell; None on a matrix from `count_contrasts` or `aggregate`
    pairs_found: int = None

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


def frame_of(seq, position) -> tuple:
    """The sequence with HOLE at `position`."""
    return seq[:position] + (HOLE,) + seq[position + 1:]


def scheme_key(scheme: str, kind: str, inv: Inventory = None):
    """The context function of an aggregation scheme for a study kind:
    ``key(seq, position)`` is the context of a pair whose sequences differ
    at `position`, or None when the scheme leaves the pair out. Frame keys
    are frame tuples (see `frame_of`); following-segment and
    following-class (which needs `inv`) key on the segment after the
    hole; position maps the C V C C holes to C1/C2/C3 and needs a
    positions study. An unknown scheme, or one the study cannot take, is a
    StudyError."""
    if scheme not in SCHEMES:
        raise StudyError("unknown aggregation scheme %r" % scheme)
    if scheme == "position" and kind != "positions":
        raise StudyError("position scheme requires a positions study")
    if scheme == "following-class" and inv is None:
        raise StudyError("following-class aggregation needs the inventory")
    if scheme == "frame":
        return frame_of
    if scheme == "total":
        return lambda seq, pos: "total"
    if scheme == "position":
        return lambda seq, pos: "C%d" % (pos or 1)
    if scheme == "following-segment":
        return lambda seq, pos: HOLE + seq[pos + 1] if pos + 1 < len(seq) else None
    classes = inv.class_map  # consonants only, so a vowel gets None
    return lambda seq, pos: classes.get(seq[pos + 1]) if pos + 1 < len(seq) else None


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


def extract_sequences(entries, inv: Inventory, cfg: StudyConfig, carriers: bool = False):
    """Build the sequence-frequency table; returns (table, excluded). With
    `carriers`, the same pass also fills `table.carriers`, the drill-down's
    index from each sequence to the entries that carry it.

    `entries` is a Lexicon parsed against `inv`, or an iterable of
    ``(orthography, transcription)`` as `read_entries` yields them, read
    once: then no entry is kept, unless as a carrier (a LexEntry is built
    for it). A transcription is a tuple of symbols, or, when every symbol
    of `inv` is one character, also their text. In an iterable, a symbol
    outside `inv` is a StudyError.

    Sequences are cut from each transcription by the plan of its
    consonant/vowel skeleton: the slice bounds ``(start, end)`` of its
    study sequences in word order, the CVCC codas (clusters) or whole CVCC
    syllables (positions), or None when `syllabify` rejects the skeleton.
    Syllable spans depend only on the skeleton, so a plan is computed once
    per distinct skeleton and no syllables are built; a rejected entry is
    syllabified once more, for the message of its error. When every
    symbol is one character, the skeleton is the transcription's text
    through `inv.skeleton_table`. An iterable's transcriptions are then
    read as text: sequences are counted under text slices, and each
    distinct one becomes a tuple once, after the pass; a Lexicon's are
    sliced as the tuples they are. Else the skeleton is bytes of the
    vowel flags (bytes rather than a tuple: no tuple free list keeps
    thousands of them alive after the pass)."""
    as_text = bool(inv.skeleton_table)  # count under text slices
    if isinstance(entries, Lexicon):
        if entries.inventory is not inv:
            raise StudyError("lexicon was parsed against a different inventory")
        entries = entries.entries
        as_text = False
    freqs, index = {}, {} if carriers else None
    excluded = []
    skeleton_table = inv.skeleton_table
    is_vowel = inv.vowel_map.__getitem__
    lead = 1 if cfg.kind == "clusters" else -1  # the coda, or the whole syllable
    plans = {}
    for ix, entry in enumerate(entries):
        t = entry[1]  # no unpacking: a LexEntry would be unpacked through an iterator
        try:
            if as_text:
                if t.__class__ is not str:
                    text = "".join(t)
                    if len(text) != len(t):  # a symbol of more or less than one character
                        raise _unknown_symbol(ix, entry, inv)
                    t = text
                skeleton = t.translate(skeleton_table)
            elif skeleton_table:  # a Lexicon's tuple of known symbols
                skeleton = "".join(t).translate(skeleton_table)
            else:
                t = tuple(t)
                skeleton = bytes(map(is_vowel, t))
            plan = plans.get(skeleton, False)  # a plan may be None or ()
            if plan is False:
                try:
                    plan = tuple((v + lead, end) for v, end in syllable_spans(t, inv)
                                 if end - v == 3)
                except SyllabifyError:
                    plan = None
                plans[skeleton] = plan
        except KeyError:  # only a new skeleton can hold a symbol outside `inv`
            raise _unknown_symbol(ix, entry, inv) from None
        if plan is None:
            try:
                syllabify(t, inv)  # raises, naming the reason
            except PtracError as exc:
                excluded.append(ExcludedEntry(ix, entry[0], str(exc)))
                continue
        if index is not None and plan and entry.__class__ is not LexEntry:
            entry = tuple.__new__(LexEntry, (entry[0], tuple(t)))
        for o, e in plan:
            seq = t[o:e]
            freqs[seq] = freqs.get(seq, 0) + 1
            if index is not None:
                index.setdefault(seq, []).append(entry)
    if as_text:  # text keys to tuple keys; distinct texts stay distinct
        freqs = dict(zip(map(tuple, freqs), freqs.values()))
        if index is not None:
            index = dict(zip(map(tuple, index), index.values()))
    return SequenceTable(freqs, index), excluded


def _unknown_symbol(ix, entry, inv: Inventory) -> StudyError:
    sym = next(s for s in entry[1] if s not in inv.vowel_map)
    return StudyError("entry %d (%s): symbol %r is not in the inventory" % (ix, entry[0], sym))


def _encode(freqs, inv: Inventory):
    """The coded table, integer -> frequency in table order, and the bit
    shift of each position. A sequence's integer holds the codes of its
    symbols (see `Inventory`), first symbol highest, padded on the right
    with code 0 to the longest sequence's length. Symbol codes are ordered
    as the symbols are and no symbol is code 0, so the integers are
    ordered as the tuples are, also across lengths. A symbol outside the
    inventory is a StudyError."""
    bits = inv.code_bits
    shifts = range((max(map(len, freqs), default=0) - 1) * bits, -1, -bits)
    at = [{sym: code << shift for code, sym in enumerate(inv.code_symbols) if code}
          for shift in shifts]
    try:
        return {sum(map(dict.__getitem__, at, seq)): f for seq, f in freqs.items()}, shifts
    except KeyError as exc:
        raise StudyError("sequence symbol %r is not in the inventory" % exc.args[0]) from None


def _passes(inv: Inventory, cfg: StudyConfig, shifts):
    """The walk's passes over positions, as ``(shift, steps)``: ``steps[x]``
    lists ``(delta, feature index)`` for each consonant that code x is
    swapped for, in code order, of `cfg.feature` alone when it filters one.
    Adding delta to a sequence swaps the symbol at that shift. Up passes
    swap for larger codes, from the last position to the first; an ordered
    study first makes down passes, first position to last. A sequence's
    neighbours so come out in tuple order, each pair of an unordered study
    once, from its smaller member."""
    codes = inv.codes
    up = [[] for _ in inv.code_symbols]
    down = [[] for _ in inv.code_symbols]
    for x, rel in inv.relation.items():
        cx = codes[x]
        for y, feature in rel.items():  # in symbol order, so in code order
            if cfg.feature is None or feature == cfg.feature:
                cy = codes[y]
                (up if cy > cx else down)[cx].append((cy - cx, FEATURES.index(feature)))
    passes = [(shift, [[(d << shift, f) for d, f in st] for st in up]) for shift in shifts]
    passes.reverse()
    if cfg.orientation == "ordered":
        passes[:0] = [(shift, [[(d << shift, f) for d, f in st] for st in down])
                      for shift in shifts]
    return passes


def _walk(coded, inv: Inventory, cfg: StudyConfig, shifts):
    """Yield ``(a, b, key, weight)`` for each minimal pair of the coded
    table `coded` (see `_encode`), ordered by a, then
    b. `key` is ``frame << 2 | feature index``, where the frame is a with
    code 0 (HOLE) at the differing position, and `weight` is
    min(freq(a), freq(b)).

    A neighbour of a is a with one consonant swapped for one it contrasts
    with in exactly one feature, ``a + delta``; it pairs with a iff it is
    in the table. The cost grows with the number of sequences and the
    degree of the pair relation."""
    mask = (1 << inv.code_bits) - 1
    passes = _passes(inv, cfg, shifts)
    get = coded.get
    for a in sorted(coded):
        fa = coded[a]
        for shift, steps in passes:
            x = a >> shift & mask
            st = steps[x]
            if st:
                base = (a - (x << shift)) << 2  # the frame, shifted for its key
                for d, f in st:
                    b = a + d
                    fb = get(b)
                    if fb is not None:
                        yield a, b, base | f, fa if fa < fb else fb


def enumerate_minimal_sequence_pairs(table: SequenceTable, inv: Inventory, cfg: StudyConfig):
    """All minimal sequence pairs among the table's sequences, ordered by
    (seq_a, seq_b, position); the pairs hold the table's own key objects.

    Sequences pair up iff they have equal length and differ at exactly one
    position whose two segments are consonants contrasting in exactly one
    feature. Unordered orientation emits each pair once (lexicographically
    smaller member first); ordered emits both orientations.
    """
    coded, shifts = _encode(table.freqs, inv)
    seqs = dict(zip(coded, table.freqs))
    last, bits = len(shifts) - 1, inv.code_bits
    return [MinimalSequencePair(seqs[a], seqs[b], last - ((a ^ b).bit_length() - 1) // bits,
                                FEATURES[key & 3], weight)
            for a, b, key, weight in _walk(coded, inv, cfg, shifts)]


def count_contrasts(pairs, cfg: StudyConfig) -> ContrastMatrix:
    """Accumulate pairs into the frame-granularity contrast matrix."""
    features = (cfg.feature,) if cfg.feature else FEATURES
    matrix = ContrastMatrix(features=features, scheme="frame", kind=cfg.kind)
    weighted = cfg.weighting == "type-frequency"
    for a, _, pos, feature, weight in pairs:
        matrix.add(frame_of(a, pos), feature, weight if weighted else 1)
    return matrix


def _count_table(table: SequenceTable, inv: Inventory, cfg: StudyConfig,
                 scheme: str = "frame") -> ContrastMatrix:
    """The contrast matrix of the table's minimal pairs under `scheme`: the
    cells of `aggregate` of `count_contrasts` of
    `enumerate_minimal_sequence_pairs`, counted straight from the coded
    table, with no pair, frame or cell built per pair.

    Neighbours are found as `_walk` finds them. Each pair adds its weight
    to a row of one ``[weighted, pairs]`` slot per feature, and the row is
    picked once per sequence and pass, at the pass's first pair. Under
    frame, a row is keyed by the coded frame and each frame is decoded once
    after the walk. Any other scheme's context depends only on the hole's
    position and the code after it, padding 0 included (see `scheme_key`).
    So before the walk, each (shift, next code) is mapped to the row of its
    context, shared by the passes at that shift. The row of context None
    holds the pairs the scheme leaves out; they count only towards
    `pairs_found`."""
    key_of = scheme_key(scheme, cfg.kind, inv)
    coded, shifts = _encode(table.freqs, inv)
    bits, symbols = inv.code_bits, inv.code_symbols
    mask = (1 << bits) - 1
    rows = {}  # context, or under frame the coded frame -> row
    keyed = {}  # shift -> (mask of a sequence's row key, row of each key)
    for pos, shift in enumerate(shifts):
        if scheme == "frame":
            keyed[shift] = (~(mask << shift), rows)
            continue
        # A row key is the code after the hole, left in place: 0 for padding,
        # and always 0 after the last position. Its context is that of any
        # sequence with the hole at `pos` and that code after it.
        nxt = shift - bits if shift else 0
        by_key = {}
        for c in range(len(symbols) if shift else 1):
            ctx = key_of((HOLE,) * (pos + 1) + ((symbols[c],) if c else ()), pos)
            by_key[c << nxt] = rows.setdefault(ctx, [[0, 0] for _ in FEATURES])
        keyed[shift] = (mask << nxt if shift else 0, by_key)
    passes = [(shift, steps, *keyed[shift]) for shift, steps in _passes(inv, cfg, shifts)]
    get = coded.get
    for a, fa in coded.items():
        for shift, steps, kmask, by_key in passes:
            st = steps[a >> shift & mask]
            if st:
                row = None
                for d, f in st:
                    fb = get(a + d)
                    if fb is not None:
                        if row is None:
                            row = by_key.get(a & kmask)
                            if row is None:  # a frame's first pair
                                row = by_key[a & kmask] = [[0, 0] for _ in FEATURES]
                        slot = row[f]
                        slot[0] += fa if fa < fb else fb
                        slot[1] += 1
    del coded
    if scheme == "frame":
        rows = {_decode_frame(code, shifts, mask, symbols): row for code, row in rows.items()}
    weighted = cfg.weighting == "type-frequency"
    cells, found = {}, 0
    for ctx, row in rows.items():
        for feature, (w, n) in zip(FEATURES, row):
            if n:
                found += n
                if ctx is not None:
                    cells[ctx, feature] = Cell(w if weighted else n, n)
    return ContrastMatrix(cells=cells, features=(cfg.feature,) if cfg.feature else FEATURES,
                          scheme=scheme, kind=cfg.kind, pairs_found=found)


def _decode_frame(code, shifts, mask, symbols) -> tuple:
    """The frame tuple of a coded frame: its symbols run to the hole (the
    first code 0) or to its last nonzero code, whichever is later; later
    zeros pad a sequence shorter than the table's longest."""
    digits = [code >> shift & mask for shift in shifts]
    if not digits[-1]:
        hole = digits.index(0)
        while len(digits) > hole + 1 and not digits[-1]:
            digits.pop()
    return tuple([symbols[d] for d in digits])


def aggregate(matrix: ContrastMatrix, scheme: str, inv: Inventory = None) -> ContrastMatrix:
    """Merge frame contexts under an aggregation scheme (see `scheme_key`);
    sum-preserving over the frames the scheme covers."""
    key_of = scheme_key(scheme, matrix.kind, inv)
    if matrix.scheme != "frame":
        raise StudyError("matrix already aggregated (%s)" % matrix.scheme)
    out = ContrastMatrix(features=matrix.features, scheme=scheme, kind=matrix.kind)
    for (frame, feature), cell in matrix.cells.items():
        key = key_of(frame, frame.index(HOLE))
        if key is not None:
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
    `_witnesses`). Contexts are those of `scheme_key`, so a scheme
    `aggregate` refuses for the study is refused here too. `carriers` is
    `table.carriers` of `extract_sequences(..., carriers=True)`; `lex` is
    read only when `carriers` is None, and is then extracted again to
    build it."""
    if feature not in FEATURES:
        raise StudyError("unknown feature %r" % feature)
    key_of = scheme_key(scheme, cfg.kind, inv)
    if limit < 1:
        raise StudyError("limit must be at least 1, got %d" % limit)

    matching, keys = [], set()
    for p in pairs:
        key = key_of(p.seq_a, p.position)
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
    matrix: ContrastMatrix  # under the scheme given to `run_study`
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
            "pairs": self.matrix.pairs_found,
            "excluded_entries": len(self.excluded),
        }


def run_study(entries, inv: Inventory, cfg: StudyConfig,
              scheme: str = "frame") -> StudyReport:
    """End-to-end composition: extract from `entries`, a Lexicon or the
    iterator of `read_entries` (see `extract_sequences`), then count the
    contrasts under the aggregation scheme `scheme`, which is checked
    first, before any entry is read (see `scheme_key`); the pairs
    themselves are enumerated only if `report.pairs` is read."""
    scheme_key(scheme, cfg.kind, inv)
    table, excluded = extract_sequences(entries, inv, cfg)
    return StudyReport(config=cfg, table=table, inventory=inv,
                       matrix=_count_table(table, inv, cfg, scheme), excluded=excluded)
