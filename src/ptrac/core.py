"""Contrast-dispersion engine.

Pipeline: extract segment sequences from the syllabified lexicon, find all
minimal sequence pairs among them, designate each pair's context (a frame
with a hole at the differing position) and contrasting feature, and
accumulate a feature-by-context matrix of weighted counts. `run_study`
counts the matrix under the requested aggregation scheme as it finds the
pairs, building no pair object; `enumerate_minimal_sequence_pairs` lists
the pairs of a table, and `drill_down` those of one cell, with witnesses.

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

from collections import namedtuple
from itertools import count, islice
from typing import NamedTuple

from .errors import StudyError, SyllabifyError
from .inventory import (FEATURES, HOLE, KINDS, ORIENTATIONS, SCHEMES, WEIGHTINGS, Inventory,
                        collector_paused)
from .lexicon import Lexicon
from .syllabifier import syllable_spans, syllabify


class StudyConfig(namedtuple("StudyConfig", "kind weighting orientation feature")):
    """A study's settings; `feature`, when given, keeps that feature alone.
    A named tuple whose every field is checked at construction."""

    __slots__ = ()

    def __new__(cls, kind="clusters", weighting="type-frequency",
                orientation="unordered", feature=None):
        if kind not in KINDS:
            raise StudyError("unknown study kind %r" % kind)
        if weighting not in WEIGHTINGS:
            raise StudyError("unknown weighting %r" % weighting)
        if orientation not in ORIENTATIONS:
            raise StudyError("unknown orientation %r" % orientation)
        if feature is not None and feature not in FEATURES:
            raise StudyError("unknown feature %r" % feature)
        return super().__new__(cls, kind, weighting, orientation, feature)

    @classmethod
    def _make(cls, iterable):  # so `_replace` checks its fields too
        return cls(*iterable)


class SequenceTable(namedtuple("SequenceTable", "freqs carriers")):
    """Map from segment sequence, as text (see `extract_sequences`), to its
    type frequency: `freqs`, text -> occurrence count. `carriers`, when
    extraction was asked for it, maps text -> [entry], in lexicon order,
    one per occurrence; else it is None. Left out, `freqs` is a new dict."""

    __slots__ = ()

    def __new__(cls, freqs=None, carriers=None):
        return super().__new__(cls, {} if freqs is None else freqs, carriers)


class ExcludedEntry(NamedTuple):
    """An entry `syllabify` rejects: its message and its reason code (see
    `SyllabifyError`)."""

    index: int
    orthography: str
    reason: str
    code: str


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


class Cell(NamedTuple):
    weighted: int = 0
    pairs: int = 0


class ContrastMatrix(namedtuple("ContrastMatrix", "cells features scheme kind pairs_found")):
    """Grid of contrast counts: `cells` maps (context key, feature) to a
    Cell; the keys are those of `scheme_key`, frame tuples under the frame
    scheme. `pairs_found` counts every pair the count of `run_study`
    found, also those the scheme gives no cell; it is None on a matrix from
    `count_contrasts` or `aggregate`. Left out, `cells` is a new dict."""

    __slots__ = ()

    def __new__(cls, cells=None, features=FEATURES, scheme="frame", kind="clusters",
                pairs_found=None):
        return super().__new__(cls, {} if cells is None else cells, features, scheme, kind,
                               pairs_found)

    def contexts(self):
        """Context keys in the order of their rendered text."""
        return sorted({ctx for ctx, _ in self.cells}, key=lambda c: (context_text(c), c))

    def cell(self, context, feature) -> Cell:
        return self.cells.get((context, feature), Cell())


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
    index from each sequence to the entries that carry it, each the entry
    as it was read.

    `entries` is a Lexicon parsed against `inv` (its stored rows are read),
    or an iterable of ``(orthography, transcription)`` as `read_entries`
    yields them, read once and kept only as carriers. Each row is unpacked
    as a pair: a row of other than two items is a StudyError, and a
    two-character string reads as the pair of its characters. A
    transcription is text of `inv.char_of` characters, as both hold it
    (symbols come in through `Lexicon(entries, inv)`); other
    transcriptions, and symbols outside `inv`, are a StudyError.

    Each transcription is cut into text slices, the table's keys, by the
    plan of its consonant/vowel skeleton (its text through
    `inv.skeleton_table`): the slice bounds ``(start, end)`` of its CVCC
    codas (clusters) or whole CVCC syllables (positions) in word order, or
    None when `syllabify` rejects the skeleton. A plan is computed once per
    distinct skeleton, from the decoded text, and no syllables are built; a
    rejected entry is decoded and syllabified again, for its message.
    Entries are read 256 at a time, their skeletons translated in one call,
    joined by "\n"; a chunk that cannot be (a row that is no text pair, a
    text holding "\n") is translated entry by entry (see `_skeletons`)."""
    if isinstance(entries, Lexicon):
        if entries.inventory is not inv:
            raise StudyError("lexicon was parsed against a different inventory")
        entries = entries._rows
    freqs, index = {}, {} if carriers else None
    excluded = []
    skeleton_table, decode = inv.skeleton_table, inv.decode
    lead = 1 if cfg.kind == "clusters" else -1  # the coda, or the whole syllable
    plans = {}
    rows, start = iter(entries), 0
    while chunk := list(islice(rows, 256)):  # a larger chunk holds more rows of a stream
        try:  # one translate for the chunk's skeletons
            skeletons = "\n".join([t for _, t in chunk]).translate(skeleton_table).split("\n")
        except (TypeError, ValueError):  # a row that is not an (orthography, text) pair
            skeletons = ()
        if len(skeletons) != len(chunk):  # also when a text holds "\n"
            skeletons = _skeletons(chunk, start, skeleton_table)
        for ix, entry, skeleton in zip(count(start), chunk, skeletons):
            t = entry[1]
            plan = plans.get(skeleton, False)  # a plan may be None or ()
            if plan is False:
                try:
                    plan = tuple((v + lead, end) for v, end in syllable_spans(decode(t), inv)
                                 if end - v == 3)
                except SyllabifyError:
                    plan = None
                except KeyError as exc:  # only a new skeleton can hold a symbol outside `inv`
                    raise StudyError("entry %d (%s): symbol %r is not in the inventory"
                                     % (ix, entry[0], exc.args[0])) from None
                plans[skeleton] = plan
            if plan is None:
                try:
                    syllabify(decode(t), inv)  # raises, naming the reason
                except SyllabifyError as exc:
                    excluded.append(ExcludedEntry(ix, entry[0], str(exc), exc.reason))
                    continue
            for o, e in plan:
                seq = t[o:e]
                freqs[seq] = freqs.get(seq, 0) + 1
                if index is not None:
                    index.setdefault(seq, []).append(entry)
        start += len(chunk)
    return SequenceTable(freqs, index), excluded


def _skeletons(chunk, start, skeleton_table):
    """The skeletons of `chunk`, whose first entry is entry `start`, one at
    a time, so that an error names the first entry at fault."""
    for ix, entry in enumerate(chunk, start):
        try:
            _, t = entry
        except (TypeError, ValueError):  # None, a row of other than two items
            raise StudyError("entry %d: %r is not an (orthography, transcription) pair"
                             % (ix, entry)) from None
        try:
            yield t.translate(skeleton_table)
        except (AttributeError, TypeError):  # no str.translate: a tuple, bytes, None
            raise StudyError("entry %d (%s): transcription %r is not text"
                             % (ix, entry[0], t)) from None


def _encode(freqs, inv: Inventory, symbols: bool = False):
    """The coded table, integer -> frequency in table order, and the bit
    shift of each position; with `symbols`, integer -> (frequency, the
    text's symbols, decoded). A text's integer holds the codes of its
    characters' symbols (see `Inventory`), first highest, padded on the
    right with code 0 to the longest text's length. Codes are ordered as
    the symbols are and none is 0, so the integers are ordered as symbol
    tuples, also across lengths (texts are not: a private code sorts
    apart). A character outside the inventory is a StudyError."""
    bits, char_of, decode = inv.code_bits, inv.char_of, inv.decode
    shifts = range((max(map(len, freqs), default=0) - 1) * bits, -1, -bits)
    at = [{char_of[sym]: code << shift for code, sym in enumerate(inv.code_symbols) if code}
          for shift in shifts]
    try:
        if symbols:
            return ({sum(map(dict.__getitem__, at, seq)): (f, decode(seq))
                     for seq, f in freqs.items()}, shifts)
        return {sum(map(dict.__getitem__, at, seq)): f for seq, f in freqs.items()}, shifts
    except KeyError as exc:
        raise StudyError("sequence symbol %r is not in the inventory" % exc.args[0]) from None


def _passes(inv: Inventory, feature, shifts):
    """The walk's passes over positions, last to first, as ``(position,
    shift, steps)``: ``steps[x]`` lists ``(delta, feature index)`` for each
    larger code that code x is swapped for, in code order, of `feature`
    alone when it is not None. Adding delta to a sequence swaps the symbol
    at that shift. A sequence's neighbours so come out in tuple order, and
    a walk over the sequences in order finds each unordered pair once, from
    its smaller member."""
    codes = inv.codes
    up = [[] for _ in inv.code_symbols]
    for x, rel in inv.relation.items():
        cx = codes[x]
        for y, f in rel.items():  # in symbol order, so in code order
            if codes[y] > cx and (feature is None or f == feature):
                up[cx].append((codes[y] - cx, FEATURES.index(f)))
    passes = [(pos, shift, [[(d << shift, f) for d, f in st] for st in up])
              for pos, shift in enumerate(shifts)]
    passes.reverse()
    return passes


@collector_paused  # each pair is a tuple subclass, which the collector never untracks
def enumerate_minimal_sequence_pairs(table: SequenceTable, inv: Inventory, cfg: StudyConfig):
    """All minimal sequence pairs among the table's sequences, ordered by
    (seq_a, seq_b, position); the pairs of a sequence share one tuple,
    its symbols, decoded once. Sequences pair up iff they have equal
    length and differ at exactly one position whose two segments are
    consonants contrasting in exactly one feature. Unordered orientation
    emits each pair once (smaller member first); ordered adds its reverse.

    A neighbour of a coded sequence a (see `_encode`) is ``a + delta`` of
    a pass (see `_passes`); it pairs with a iff it is in the table, whose
    one lookup gives its frequency and symbols. Only smaller sequences look
    a up, so a leaves the table when the walk reaches it. Under ordered, a
    pair's reverse is filed under its larger member and comes out when the
    walk reaches it, before that member's own pairs. The cost grows with
    the number of sequences and the degree of the pair relation."""
    coded, shifts = _encode(table.freqs, inv, symbols=True)
    mask = (1 << inv.code_bits) - 1
    passes = _passes(inv, cfg.feature, shifts)
    get, new = coded.get, tuple.__new__  # `new` skips the pair's __new__
    ordered, reverses, pairs = cfg.orientation == "ordered", {}, []
    for a in sorted(coded):
        fa, seq_a = coded.pop(a)
        if ordered:
            pairs += reverses.pop(a, ())
        for pos, shift, steps in passes:
            for d, f in steps[a >> shift & mask]:
                b = get(a + d)
                if b is not None:
                    fb, seq_b = b
                    feature, w = FEATURES[f], fa if fa < fb else fb
                    pairs.append(new(MinimalSequencePair, (seq_a, seq_b, pos, feature, w)))
                    if ordered:
                        reverses.setdefault(a + d, []).append(
                            new(MinimalSequencePair, (seq_b, seq_a, pos, feature, w)))
    return pairs


@collector_paused  # a frame's two slices per run, which would set the collector off
def count_contrasts(pairs, cfg: StudyConfig) -> ContrastMatrix:
    """Accumulate pairs into the frame-granularity contrast matrix. A pair
    whose feature is not one of FEATURES is a StudyError.

    Pairs are counted by runs: consecutive pairs with the same `seq_a`
    object and the same position share a frame, so a run picks its row
    once, by the sequence's two slices around the hole, which determine
    the frame. A row holds ``weighted, pairs`` per feature; each pair adds
    to its feature's two slots. Frames and cells are made once per row at
    the end. The walk emits its pairs in such runs, but any order gives
    the same matrix."""
    slot_of = {f: 2 * i for i, f in enumerate(FEATURES)}
    rows = {}  # (prefix, suffix) -> row
    last_a = last_pos = row = None
    for a, _, pos, feature, weight in pairs:
        if a is not last_a or pos != last_pos:
            last_a, last_pos = a, pos
            key = a[:pos], a[pos + 1:]
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0, 0] * len(FEATURES)
        try:
            i = slot_of[feature]
        except KeyError:
            raise StudyError("unknown feature %r" % (feature,)) from None
        row[i] += weight
        row[i + 1] += 1
    weighted = cfg.weighting == "type-frequency"
    cells = {}
    for (prefix, suffix), row in rows.items():
        frame = prefix + (HOLE,) + suffix
        for feature, i in slot_of.items():
            n = row[i + 1]
            if n:
                cells[frame, feature] = Cell(row[i] if weighted else n, n)
    return ContrastMatrix(cells=cells, features=(cfg.feature,) if cfg.feature else FEATURES,
                          scheme="frame", kind=cfg.kind)


def _count_table(table: SequenceTable, inv: Inventory, cfg: StudyConfig,
                 scheme: str = "frame") -> ContrastMatrix:
    """The contrast matrix of the table's minimal pairs under `scheme`: the
    cells of `aggregate` of `count_contrasts` of
    `enumerate_minimal_sequence_pairs`, counted straight from the coded
    table, with no pair, frame or cell built per pair.

    Neighbours are found over the same passes as the enumeration finds
    them, in a loop of its own. Each pair adds its weight to a row of one
    ``[weighted, pairs]`` slot per feature, and the row is picked once per
    sequence and pass, at the pass's first pair. Under frame, a row is
    keyed by the coded frame, and a frame's tuple is made with `frame_of`
    from the decoded first pair's sequence and position. Any other scheme's
    context depends only on the hole's position and the code after it,
    padding 0 included (see `scheme_key`). So before the walk, each pass
    maps every next code to the row of its context, shared by the passes
    at that position. The row of context None holds the pairs the scheme
    leaves out; they count only towards `pairs_found`. An ordered study
    counts each pair twice: a pair and its reverse share the frame, the
    code after the hole and the weight."""
    key_of = scheme_key(scheme, cfg.kind, inv)
    coded, shifts = _encode(table.freqs, inv)
    bits, symbols = inv.code_bits, inv.code_symbols
    mask = (1 << bits) - 1
    rows = {}  # context, or under frame the coded frame -> row
    frames = []  # under frame, (coded sequence, shift, row) of each row's first pair
    passes = []  # (shift, steps, mask of a sequence's row key, row of each key)
    for pos, shift, steps in _passes(inv, cfg.feature, shifts):
        if scheme == "frame":
            passes.append((shift, steps, ~(mask << shift), rows))
            continue
        # A row key is the code after the hole, left in place: 0 for padding,
        # and always 0 after the last position. Its context is that of any
        # sequence with the hole at `pos` and that code after it.
        nxt = shift - bits if shift else 0
        by_key = {}
        for c in range(len(symbols) if shift else 1):
            ctx = key_of((HOLE,) * (pos + 1) + ((symbols[c],) if c else ()), pos)
            by_key[c << nxt] = rows.setdefault(ctx, [[0, 0] for _ in FEATURES])
        passes.append((shift, steps, mask << nxt if shift else 0, by_key))
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
                                frames.append((a, shift, row))
                        slot = row[f]
                        slot[0] += fa if fa < fb else fb
                        slot[1] += 1
    if scheme == "frame":  # a shift's index in `shifts` is its position
        seqs = dict(zip(coded, table.freqs))
        rows = {frame_of(inv.decode(seqs[a]), shifts.index(shift)): row for a, shift, row in frames}
    del coded
    weighted = cfg.weighting == "type-frequency"
    times = 2 if cfg.orientation == "ordered" else 1
    cells, found = {}, 0
    for ctx, row in rows.items():
        for feature, (w, n) in zip(FEATURES, row):
            if n:
                w, n = w * times, n * times
                found += n
                if ctx is not None:
                    cells[ctx, feature] = Cell(w if weighted else n, n)
    return ContrastMatrix(cells=cells, features=(cfg.feature,) if cfg.feature else FEATURES,
                          scheme=scheme, kind=cfg.kind, pairs_found=found)


def aggregate(matrix: ContrastMatrix, scheme: str, inv: Inventory = None) -> ContrastMatrix:
    """Merge frame contexts under an aggregation scheme (see `scheme_key`);
    sum-preserving over the frames the scheme covers."""
    key_of = scheme_key(scheme, matrix.kind, inv)
    if matrix.scheme != "frame":
        raise StudyError("matrix already aggregated (%s)" % matrix.scheme)
    index, ws, ns = {}, [], []  # (context, feature) -> its sums' index in ws and ns
    last = ctx = None
    for (frame, feature), (w, n) in matrix.cells.items():
        if frame is not last:  # both counts emit a frame's cells together
            last, ctx = frame, key_of(frame, frame.index(HOLE))
        if ctx is not None:
            key = ctx, feature
            i = index.get(key)
            if i is None:
                index[key] = len(ns)
                ws.append(w)
                ns.append(n)
            else:
                ws[i] += w
                ns[i] += n
    return ContrastMatrix(cells=dict(zip(index, map(Cell, ws, ns))), features=matrix.features,
                          scheme=scheme, kind=matrix.kind)


class PairReportRow(NamedTuple):
    pair: MinimalSequencePair
    witnesses: tuple  # ((orth_a, orth_b), ...)


def list_pairs_for(pairs, feature, context, lex: Lexicon, inv: Inventory,
                   cfg: StudyConfig, scheme: str = "frame", limit: int = 5,
                   carriers: dict = None):
    """Drill-down report: pairs matching a feature and aggregated context,
    each with up to `limit` witness word pairs from the lexicon (see
    `_witnesses`). Contexts are those of `scheme_key`, so a scheme
    `aggregate` refuses for the study is refused here too, and so is a
    `cfg` that keeps another feature than `feature`. `carriers` is
    `table.carriers` of `extract_sequences(..., carriers=True)`; `lex` is
    read only when `carriers` is None, and is then extracted again to
    build it."""
    if feature not in FEATURES:
        raise StudyError("unknown feature %r" % feature)
    if cfg.feature not in (None, feature):  # its walk found no pair of `feature`
        raise StudyError("cfg keeps feature %r alone, not %r" % (cfg.feature, feature))
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
    # The pairs as texts, by the text each looks up in (see `_witnesses`);
    # each group is served from one lookup, dropped before the next is built.
    char_of, groups = inv.char_of.__getitem__, {}
    for i, p in enumerate(matching):
        a, b = "".join(map(char_of, p.seq_a)), "".join(map(char_of, p.seq_b))
        flip = len(carriers.get(a, ())) > len(carriers.get(b, ()))
        groups.setdefault(a if flip else b, []).append((i, a, b))
    witnesses = [None] * len(matching)
    for seq, members in groups.items():
        lookup = {}
        for i, entry in enumerate(carriers.get(seq, ())):
            lookup.setdefault(entry[1], []).append(i)
        for i, a, b in members:
            witnesses[i] = _witnesses(a, b, matching[i].position, carriers, lookup, limit)
    return [PairReportRow(p, w) for p, w in zip(matching, witnesses)]


def _witnesses(seq_a, seq_b, position, carriers, lookup, limit):
    """Witness word pairs of texts `seq_a` and `seq_b`, which differ at
    `position`: words whose transcriptions differ only there, at most
    `limit`, ordered by the carrier of seq_a, then by the carrier of seq_b;
    without any, the first carriers of each sequence.

    Found by neighbour lookup from the side with fewer carriers: each of
    its carriers, with one contrasting character swapped for the other, is
    looked up in `lookup`, which maps each transcription of the other
    side's carriers (seq_a's if it has more, else seq_b's) to their
    indices. A swap is its own inverse, and two swapped positions give
    different transcriptions, so either side finds each aligned pair once.
    A carrier with one of the two characters, its own, once has one swap,
    made by `str.replace`; any other is swapped at each in turn."""
    wa, wb = carriers.get(seq_a, []), carriers.get(seq_b, [])
    a, b = seq_a[position], seq_b[position]
    swap = {a: b, b: a}
    flip = len(wa) > len(wb)  # scan wb, look up in wa
    scan = wb if flip else wa
    own, other = (b, a) if flip else (a, b)  # the scanned side's character, the other's
    aligned = []  # (index in wa, index in wb)
    for x, (_, t) in enumerate(scan):
        if other not in t and t.count(own) == 1:
            for y in lookup.get(t.replace(own, other), ()):
                aligned.append((y, x) if flip else (x, y))
            continue
        for k, sym in enumerate(t):
            if sym in swap:
                for y in lookup.get(t[:k] + swap[sym] + t[k + 1:], ()):
                    aligned.append((y, x) if flip else (x, y))
    if aligned:
        aligned.sort()
        return tuple((wa[i][0], wb[j][0]) for i, j in aligned[:limit])
    if wa and wb:
        return ((wa[0][0], wb[0][0]),)
    return ()


def drill_down(entries, inv: Inventory, cfg: StudyConfig, context,
               scheme: str = "frame", limit: int = 5):
    """The drill-down into one cell, feature `cfg.feature` in the context
    whose text is `context` under `scheme`: returns (rows, excluded), the
    rows of `list_pairs_for` with witnesses from `entries` (a Lexicon or
    the iterator of `read_entries`, read once) and the exclusions of
    `extract_sequences`. The scheme, the feature (a cfg without one is a
    StudyError) and `limit` are checked before any entry is read."""
    scheme_key(scheme, cfg.kind, inv)
    if cfg.feature is None:
        raise StudyError("a drill-down needs the cell's feature in cfg.feature")
    if limit < 1:
        raise StudyError("limit must be at least 1, got %d" % limit)
    # Only frames of multi-character symbols can render alike, also across
    # features, and `list_pairs_for` must see every frame of the context's
    # text to refuse such a collision; any other walk needs the feature alone.
    walk = cfg._replace(feature=None) if scheme == "frame" and inv.decode is not tuple else cfg
    table, excluded = extract_sequences(entries, inv, walk, carriers=True)
    pairs = enumerate_minimal_sequence_pairs(table, inv, walk)
    return list_pairs_for(pairs, cfg.feature, context, None, inv, walk, scheme=scheme,
                          limit=limit, carriers=table.carriers), excluded


class StudyReport(NamedTuple):
    table: SequenceTable
    matrix: ContrastMatrix  # under the scheme given to `run_study`
    excluded: list

    @property
    def counts(self):
        return {
            "sequences": len(self.table.freqs),
            "occurrences": sum(self.table.freqs.values()),
            "pairs": self.matrix.pairs_found,
            "excluded_entries": len(self.excluded),
        }


def run_study(entries, inv: Inventory, cfg: StudyConfig,
              scheme: str = "frame") -> StudyReport:
    """End-to-end composition: extract from `entries`, a Lexicon or the
    iterator of `read_entries` (see `extract_sequences`), then count the
    contrasts under the aggregation scheme `scheme`, which is checked
    first, before any entry is read (see `scheme_key`). No pair is kept:
    `enumerate_minimal_sequence_pairs(report.table, inv, cfg)` lists them."""
    scheme_key(scheme, cfg.kind, inv)
    table, excluded = extract_sequences(entries, inv, cfg)
    return StudyReport(table=table, matrix=_count_table(table, inv, cfg, scheme),
                       excluded=excluded)
