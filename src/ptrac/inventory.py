"""Phoneme inventory and the feature system it carries.

An inventory is a set of phoneme symbols split into consonants and vowels,
plus one of two feature-system representations for the consonants:

* pair-list mode: an explicit map from unordered consonant pairs to the
  single feature (manner, place or voice) on which they contrast;
* vector mode: a (manner, place, voice) bundle per consonant, from which
  the pair relation is derived (two consonants contrast minimally iff
  their bundles differ in exactly one dimension).

Vowels never carry features and never participate in the pair relation.
"""

from __future__ import annotations

import gc
import re
from collections import namedtuple
from functools import wraps
from itertools import chain
from typing import NamedTuple

from .errors import InventoryError

FEATURES = ("manner", "place", "voice")
# The settings a study and its output take (see `core.StudyConfig` and
# `report.RenderSpec`), here so the CLI can offer them without loading the engine.
KINDS = ("clusters", "positions")
WEIGHTINGS = ("type-frequency", "unweighted")
ORIENTATIONS = ("unordered", "ordered")
SCHEMES = ("frame", "following-segment", "following-class", "position", "total")
FORMATS = ("csv", "json", "markdown", "svg")  # the output formats of `report.render`
SEGMENT_CLASSES = ("nasal", "liquid", "glide", "obstruent")

# Default map used by the following-class aggregation scheme; consonants
# not listed count as obstruents. Overridable via a [classes] section.
DEFAULT_CLASS_MAP = {
    "m": "nasal",
    "n": "nasal",
    "l": "liquid",
    "r": "liquid",
    "w": "glide",
    "y": "glide",
}

HOLE = "_"  # marks the differing position of a frame; no symbol contains it

# "?" is accepted as an alias for the glottal stop and normalized away.
GLOTTAL = "'"
GLOTTAL_ALIAS = "?"


def collector_paused(fn):
    """`fn`, run with Python's cyclic garbage collector paused; it is turned
    back on after the call, also one that raises, only if it was on before.
    For calls that build many long-lived containers and no reference cycle,
    which the collector would only walk again and again. The state is the
    process's: other threads see it paused too. (It is defined here because
    every command loads this module.)"""
    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def normalize_symbol(symbol: str) -> str:
    return GLOTTAL if symbol == GLOTTAL_ALIAS else symbol


# Unicode category Cc (control) is exactly these two ranges. SVG output
# could not carry such a symbol: XML 1.0 forbids most of them even as
# character references.
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")


class Phoneme(NamedTuple):
    symbol: str
    is_vowel: bool


class FeatureSystem(namedtuple("FeatureSystem", "mode pair_relation bundles")):
    """A consonant feature system: `mode` is "pair-list" or "vector";
    `pair_relation` (pair-list mode) maps frozenset({a, b}) -> feature name,
    `bundles` (vector mode) symbol -> (manner, place, voice) labels. A map
    left out is a new dict."""

    __slots__ = ()

    def __new__(cls, mode, pair_relation=None, bundles=None):
        return super().__new__(cls, mode, {} if pair_relation is None else pair_relation,
                               {} if bundles is None else bundles)


class Inventory:
    """Immutable after construction; safe for concurrent reads.

    The constructor is where an inventory's symbols and entries are
    checked, also for `parse_inventory`, which passes `lines`: a map from
    ``("phonemes", index)``, ``("pairs", pair)``, ``("features", symbol)``
    and ``("classes", symbol)`` to the line the entry was read from, for
    the line numbers of errors. Construction also builds the lookup tables
    the hot paths read:

    * ``token_re``: an alternation of the symbols, longest first, plus the
      glottal alias when the inventory has a glottal stop; a match at an
      offset is the greedy longest-match token there;
    * ``char_of``: symbol -> its character in transcription text, itself
      if one character long, else a private code: the first characters
      from U+D800 on that are in no symbol, in definition order (lone
      surrogates come first, and no UTF-8 file holds one);
    * ``decode``: such a text, or a tuple of symbols, -> the tuple of its
      symbols; `tuple` when every symbol is one character;
    * ``char_symbols``: the one-character symbols, other than ``?``, that
      begin no longer symbol; a text made only of them tokenizes to its
      characters;
    * ``skeleton_table``: a `str.translate` table from each symbol's
      character to ``"V"`` (vowel) or ``"C"``, and from ``"C"`` and
      ``"V"``, unless they are symbols, to ``"-"``: a text's consonant/vowel
      skeleton, of only ``"C"`` and ``"V"`` just for a text of symbols;
    * ``vowel_map``: the symbol table, each symbol in definition order
      -> whether it is a vowel;
    * ``relation``: consonant -> {consonant: feature}, the pair relation
      (symmetric, no entry for non-contrasting pairs, each consonant's
      entries in symbol order), read from the pair list or from the
      bundles that differ in exactly one dimension;
    * ``code_symbols``, ``codes`` and ``code_bits``: the integer codes of
      the sequence walk in `core`. ``HOLE`` is code 0 and the symbols are
      codes 1..n in sorted order, so ``code_symbols[code]`` is a code's
      symbol; ``code_bits`` is the width of n in bits.
    """

    def __init__(self, phonemes, feature_system, class_map=None, lines=None):
        at = (lines or {}).get
        self.vowel_map = vm = {}
        first = {}  # symbol -> index of the phoneme that defined it
        for ix, p in enumerate(phonemes):
            sym, line = p.symbol, at(("phonemes", ix))
            if not sym or HOLE in sym:
                raise InventoryError("symbol %r is empty or contains %r" % (sym, HOLE), line=line)
            if _CONTROL.search(sym):
                raise InventoryError("symbol %r contains a control character" % sym, line=line)
            if sym in first:
                where = at(("phonemes", first[sym]))
                raise InventoryError("duplicate symbol %r%s" % (
                    sym, "" if where is None else " (first defined on line %d)" % where), line=line)
            first[sym] = ix
            vm[sym] = p.is_vowel
        self.feature_system = fs = feature_system
        self.consonants = sorted(s for s, v in vm.items() if not v)
        self.vowels = sorted(s for s, v in vm.items() if v)
        cmap = dict(class_map) if class_map is not None else {}
        for sym, cls in cmap.items():
            line = at(("classes", sym))
            self._require_consonant(sym, "class entry for", line)
            if cls not in SEGMENT_CLASSES:
                raise InventoryError("class entry for %r has unknown class %r" % (sym, cls),
                                     line=line)
        if fs.mode == "pair-list":
            for pair, feature in fs.pair_relation.items():
                line = at(("pairs", pair))
                if feature not in FEATURES:
                    raise InventoryError("pair %s has unknown feature %r"
                                         % ("(%s)" % ", ".join(sorted(pair)), feature), line=line)
                if len(pair) == 1:
                    raise InventoryError("pair maps phoneme %r to itself" % min(pair), line=line)
                if not isinstance(pair, frozenset) or len(pair) != 2:
                    raise InventoryError("pair %s is not a frozenset of two phonemes"
                                         % sorted(pair), line=line)
                for sym in sorted(pair):
                    self._require_consonant(sym, "pair references", line)
        elif fs.mode == "vector":
            for sym, bundle in fs.bundles.items():
                line = at(("features", sym))
                if vm.get(sym, True):  # unknown or a vowel
                    raise InventoryError("feature bundle for unknown or vowel phoneme %r" % sym,
                                         line=line)
                if len(bundle) != len(FEATURES):
                    raise InventoryError("feature bundle for %r has %d values, not %d"
                                         % (sym, len(bundle), len(FEATURES)), line=line)
        else:
            raise InventoryError("unknown feature-system mode %r" % fs.mode)
        if not self.consonants or not self.vowels:
            raise InventoryError("inventory needs at least one consonant and one vowel")
        missing = fs.mode == "vector" and [c for c in self.consonants if c not in fs.bundles]
        if missing:
            raise InventoryError("consonants missing feature bundles: %s" % ", ".join(missing))
        self.class_map = {
            c: cmap.get(c, DEFAULT_CLASS_MAP.get(c, "obstruent"))
            for c in self.consonants
        }

        # "?" in a transcription always spells the glottal stop, so a
        # literal "?" symbol (possible only via the constructor) never matches.
        symbols = sorted((s for s in vm if s != GLOTTAL_ALIAS), key=len, reverse=True)
        if GLOTTAL in vm:
            symbols.append(GLOTTAL_ALIAS)
        self.token_re = re.compile("|".join(map(re.escape, symbols)))
        used = set().union(*vm)
        free = (c for c in map(chr, range(0xD800, 0x110000)) if c not in used)
        self.char_of = {s: s if len(s) == 1 else next(free) for s in vm}
        symbol_of = {c: s for s, c in self.char_of.items() if c != s}
        self.decode = (lambda text: tuple(map(symbol_of.get, text, text))) if symbol_of else tuple
        heads = {s[0] for s in symbol_of.values()} | {GLOTTAL_ALIAS}
        self.char_symbols = frozenset(s for s in vm if len(s) == 1 and s not in heads)
        skeletons = {c: "-" for c in "CV" if c not in vm}
        skeletons.update((self.char_of[s], "V" if v else "C") for s, v in vm.items())
        self.skeleton_table = str.maketrans(skeletons)
        self.relation = {c: {} for c in self.consonants}
        for i, a in enumerate(self.consonants):
            for b in self.consonants[i + 1:]:
                if fs.mode == "pair-list":
                    feature = fs.pair_relation.get(frozenset((a, b)))
                else:
                    diffs = [f for f, va, vb in zip(FEATURES, fs.bundles[a], fs.bundles[b])
                             if va != vb]
                    feature = diffs[0] if len(diffs) == 1 else None
                if feature is not None:
                    self.relation[a][b] = self.relation[b][a] = feature
        self.code_symbols = (HOLE, *sorted(vm))
        self.codes = {s: c for c, s in enumerate(self.code_symbols)}
        self.code_bits = len(vm).bit_length()

    def __reduce__(self):  # pickled and copied as the constructor's arguments, less `lines`
        return Inventory, (list(map(Phoneme._make, self.vowel_map.items())),
                           self.feature_system, self.class_map)

    def _require_consonant(self, sym, entry, line):
        """Raise unless `sym` is a consonant; `entry` begins the message."""
        if sym not in self.vowel_map:
            raise InventoryError("%s unknown phoneme %r" % (entry, sym), line=line)
        if self.vowel_map[sym]:
            raise InventoryError("%s vowel %r" % (entry, sym), line=line)


def contrasting_feature(inv: Inventory, a: str, b: str):
    """Feature on which consonants a and b minimally contrast, or None.

    Symmetric in its arguments; None when a == b or when the pair differs
    in more than one feature.
    """
    for sym in (a, b):
        if sym not in inv.vowel_map:
            raise InventoryError("unknown phoneme %r" % sym)
        if inv.vowel_map[sym]:
            raise InventoryError("vowel %r has no features" % sym)
    return inv.relation[a].get(b)


def featural_pairs(inv: Inventory, feature: str, orientation: str = "unordered"):
    """All consonant pairs contrasting exactly on `feature`, sorted."""
    if feature not in FEATURES:
        raise InventoryError("unknown feature %r" % feature)
    if orientation not in ORIENTATIONS:
        raise InventoryError("unknown orientation %r" % orientation)
    return sorted(
        (a, b)
        for a, neighbours in inv.relation.items()
        for b, f in neighbours.items()
        if f == feature and (orientation == "ordered" or a < b)
    )


_SLICE = 1 << 16  # `split_lines` splits this many characters at a time, up to a break
_BREAK = re.compile("\r\n?|\n")


def split_lines(text):
    """An iterator over the lines of `text`, ended only by "\n", "\r\n" or
    a lone "\r", as universal newlines read a file; unlike
    `str.splitlines`, U+2028, U+0085, form feeds and the like stay inside
    their line. A final line break leaves an empty last line.

    The text is split one slice of about 64 KiB at a time, each ending at a
    line break, so no list of every line is built, and line ends are made
    "\n" one slice at a time, so no copy of the whole text either."""
    return chain.from_iterable(line_slices(text))


def line_slices(text):
    """The lines of `split_lines`, in one list per slice of the text."""
    return map(_lines, _slices(text))


def _lines(text):
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _slices(text):
    """The slices of `text`, cut at line breaks: each runs from the end of
    the last cut to the first "\n", "\r\n" or lone "\r" at least `_SLICE`
    characters on, the last to the end of `text`. Joined with the breaks
    they were cut at, they are `text`; no cut falls inside a "\r\n"."""
    start = 0
    while (m := _BREAK.search(text, start + _SLICE)) is not None:
        end, after = m.span()
        if text[end] == "\n" and text[end - 1] == "\r":  # the cut fell inside a "\r\n"
            end -= 1
        yield text[start:end]
        start = after
    yield text[start:]


def _split_sections(text):
    """Yield (line_no, section, fields) for non-blank non-comment lines."""
    section = None
    for no, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            yield no, section, None
            continue
        yield no, section, line.split()


def parse_inventory(text: str) -> Inventory:
    """Parse the line-oriented inventory file format.

    Sections: [phonemes] (required), exactly one of [features] / [pairs],
    and optionally [classes]. Errors carry the offending line number. The
    parser checks the shape of lines and sections and the conflicts its
    dicts would swallow; the `Inventory` constructor checks the entries.
    """
    phonemes = []
    pair_relation = {}
    bundles = {}
    class_map = {}
    lines = {}  # the constructor's `lines`
    sections_seen = set()

    for no, section, fields in _split_sections(text):
        if fields is None:
            if section not in ("phonemes", "features", "pairs", "classes"):
                raise InventoryError("unknown section [%s]" % section, line=no)
            sections_seen.add(section)
            continue
        if section is None:
            raise InventoryError("content before any section header", line=no)
        if section == "phonemes":
            if len(fields) != 2 or fields[1] not in ("consonant", "vowel"):
                raise InventoryError("expected '<symbol> <consonant|vowel>'", line=no)
            lines["phonemes", len(phonemes)] = no
            phonemes.append(Phoneme(normalize_symbol(fields[0]), is_vowel=fields[1] == "vowel"))
        elif section == "pairs":
            if len(fields) != 3:
                raise InventoryError("expected '<symbolA> <symbolB> <manner|place|voice>'", line=no)
            a, b = normalize_symbol(fields[0]), normalize_symbol(fields[1])
            key = frozenset((a, b))
            if pair_relation.get(key, fields[2]) != fields[2]:
                raise InventoryError(
                    "pair (%s, %s) already listed with feature %s on line %d"
                    % (a, b, pair_relation[key], lines["pairs", key]),
                    line=no,
                )
            pair_relation[key] = fields[2]
            lines["pairs", key] = no
        elif section == "features":
            if len(fields) != 4 or fields[3] not in ("voiced", "voiceless"):
                raise InventoryError(
                    "expected '<symbol> <manner> <place> <voiced|voiceless>'", line=no
                )
            sym = normalize_symbol(fields[0])
            if sym in bundles:
                raise InventoryError("duplicate feature bundle for %r" % sym, line=no)
            bundles[sym] = tuple(fields[1:])
            lines["features", sym] = no
        else:  # classes: an unknown section raised at its header
            if len(fields) != 2 or fields[1] not in SEGMENT_CLASSES:
                raise InventoryError(
                    "expected '<symbol> <%s>'" % "|".join(SEGMENT_CLASSES), line=no
                )
            sym = normalize_symbol(fields[0])
            if class_map.get(sym, fields[1]) != fields[1]:
                raise InventoryError(
                    "symbol %r already listed with class %s on line %d"
                    % (sym, class_map[sym], lines["classes", sym]),
                    line=no,
                )
            class_map[sym] = fields[1]
            lines["classes", sym] = no

    if "phonemes" not in sections_seen:
        raise InventoryError("missing [phonemes] section")
    has_pairs = "pairs" in sections_seen
    if has_pairs == ("features" in sections_seen):
        raise InventoryError("exactly one of [features] / [pairs] must be present")
    if has_pairs:
        fs = FeatureSystem(mode="pair-list", pair_relation=pair_relation)
    else:
        fs = FeatureSystem(mode="vector", bundles=bundles)
    return Inventory(phonemes, fs, class_map=class_map, lines=lines)
