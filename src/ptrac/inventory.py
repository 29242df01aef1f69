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

import re
from dataclasses import dataclass, field

from .errors import InventoryError

FEATURES = ("manner", "place", "voice")
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


def normalize_symbol(symbol: str) -> str:
    return GLOTTAL if symbol == GLOTTAL_ALIAS else symbol


@dataclass(frozen=True)
class Phoneme:
    symbol: str
    is_vowel: bool


@dataclass(frozen=True)
class FeatureSystem:
    mode: str  # "pair-list" | "vector"
    # pair-list mode: frozenset({a, b}) -> feature name
    pair_relation: dict = field(default_factory=dict)
    # vector mode: symbol -> (manner, place, voice) labels
    bundles: dict = field(default_factory=dict)


class Inventory:
    """Immutable after construction; safe for concurrent reads.

    Construction also builds the lookup tables the hot paths read:

    * ``token_re``: an alternation of the symbols, longest first, plus the
      glottal alias when the inventory has a glottal stop; a match at an
      offset is the greedy longest-match token there;
    * ``vowel_map``: symbol -> is_vowel;
    * ``relation``: consonant -> {consonant: feature}, the pair relation
      of ``contrasting_feature`` (symmetric, no entry for non-contrasting
      pairs).
    """

    def __init__(self, phonemes, feature_system, class_map=None):
        self.phonemes = {p.symbol: p for p in phonemes}
        self.feature_system = feature_system
        self.consonants = sorted(s for s, p in self.phonemes.items() if not p.is_vowel)
        self.vowels = sorted(s for s, p in self.phonemes.items() if p.is_vowel)
        cmap = dict(class_map) if class_map is not None else {}
        self.class_map = {
            c: cmap.get(c, DEFAULT_CLASS_MAP.get(c, "obstruent"))
            for c in self.consonants
        }
        self._validate()

        # "?" in a transcription always spells the glottal stop, so a
        # literal "?" symbol (possible only via the constructor) never matches.
        symbols = sorted((s for s in self.phonemes if s != GLOTTAL_ALIAS), key=len, reverse=True)
        if GLOTTAL in self.phonemes:
            symbols.append(GLOTTAL_ALIAS)
        self.token_re = re.compile("|".join(map(re.escape, symbols)))
        self.vowel_map = {s: p.is_vowel for s, p in self.phonemes.items()}
        self.relation = {c: {} for c in self.consonants}
        for i, a in enumerate(self.consonants):
            for b in self.consonants[i + 1:]:
                feature = contrasting_feature(self, a, b)
                if feature is not None:
                    self.relation[a][b] = self.relation[b][a] = feature

    def _validate(self):
        if not self.consonants or not self.vowels:
            raise InventoryError("inventory needs at least one consonant and one vowel")
        for sym in self.phonemes:
            if not sym or HOLE in sym:
                raise InventoryError("symbol %r is empty or contains %r" % (sym, HOLE))
        fs = self.feature_system
        if fs.mode == "pair-list":
            for pair in fs.pair_relation:
                for sym in pair:
                    if sym not in self.phonemes:
                        raise InventoryError("pair references unknown phoneme %r" % sym)
                    if self.phonemes[sym].is_vowel:
                        raise InventoryError("pair references vowel %r" % sym)
        else:
            for sym in fs.bundles:
                if sym not in self.phonemes or self.phonemes[sym].is_vowel:
                    raise InventoryError("feature bundle for unknown or vowel phoneme %r" % sym)
            missing = [c for c in self.consonants if c not in fs.bundles]
            if missing:
                raise InventoryError("consonants missing feature bundles: %s" % ", ".join(missing))

    def is_vowel(self, symbol: str) -> bool:
        return self.vowel_map[symbol]


def contrasting_feature(inv: Inventory, a: str, b: str):
    """Feature on which consonants a and b minimally contrast, or None.

    Symmetric in its arguments; None when a == b or when the pair differs
    in more than one feature.
    """
    for sym in (a, b):
        if sym not in inv.phonemes:
            raise InventoryError("unknown phoneme %r" % sym)
        if inv.phonemes[sym].is_vowel:
            raise InventoryError("vowel %r has no features" % sym)
    if a == b:
        return None
    fs = inv.feature_system
    if fs.mode == "pair-list":
        return fs.pair_relation.get(frozenset((a, b)))
    diffs = [f for f, va, vb in zip(FEATURES, fs.bundles[a], fs.bundles[b]) if va != vb]
    return diffs[0] if len(diffs) == 1 else None


def featural_pairs(inv: Inventory, feature: str, orientation: str = "unordered"):
    """All consonant pairs contrasting exactly on `feature`, sorted."""
    if feature not in FEATURES:
        raise InventoryError("unknown feature %r" % feature)
    if orientation not in ("ordered", "unordered"):
        raise InventoryError("unknown orientation %r" % orientation)
    return sorted(
        (a, b)
        for a, neighbours in inv.relation.items()
        for b, f in neighbours.items()
        if f == feature and (orientation == "ordered" or a < b)
    )


def _split_sections(text):
    """Yield (line_no, section, fields) for non-blank non-comment lines."""
    section = None
    for no, raw in enumerate(text.splitlines(), start=1):
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
    and optionally [classes]. Errors carry the offending line number.
    """
    phonemes = []
    seen = {}
    pair_relation = {}
    pair_lines = {}
    bundles = {}
    class_map = {}
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
            sym = normalize_symbol(fields[0])
            if HOLE in sym:
                raise InventoryError("illegal symbol %r" % fields[0], line=no)
            if sym in seen:
                raise InventoryError(
                    "duplicate symbol %r (first defined on line %d)" % (sym, seen[sym]),
                    line=no,
                )
            seen[sym] = no
            phonemes.append(Phoneme(sym, is_vowel=fields[1] == "vowel"))
        elif section == "pairs":
            if len(fields) != 3 or fields[2] not in FEATURES:
                raise InventoryError("expected '<symbolA> <symbolB> <manner|place|voice>'", line=no)
            a, b = normalize_symbol(fields[0]), normalize_symbol(fields[1])
            if a == b:
                raise InventoryError("pair maps phoneme %r to itself" % a, line=no)
            key = frozenset((a, b))
            if key in pair_relation and pair_relation[key] != fields[2]:
                raise InventoryError(
                    "pair (%s, %s) already listed with feature %s on line %d"
                    % (a, b, pair_relation[key], pair_lines[key]),
                    line=no,
                )
            pair_relation[key] = fields[2]
            pair_lines[key] = no
        elif section == "features":
            if len(fields) != 4 or fields[3] not in ("voiced", "voiceless"):
                raise InventoryError(
                    "expected '<symbol> <manner> <place> <voiced|voiceless>'", line=no
                )
            sym = normalize_symbol(fields[0])
            if sym in bundles:
                raise InventoryError("duplicate feature bundle for %r" % sym, line=no)
            bundles[sym] = (fields[1], fields[2], fields[3])
        elif section == "classes":
            if len(fields) != 2 or fields[1] not in SEGMENT_CLASSES:
                raise InventoryError(
                    "expected '<symbol> <%s>'" % "|".join(SEGMENT_CLASSES), line=no
                )
            class_map[normalize_symbol(fields[0])] = fields[1]
        else:
            raise InventoryError("content in unknown section", line=no)

    if "phonemes" not in sections_seen:
        raise InventoryError("missing [phonemes] section")
    has_pairs = "pairs" in sections_seen
    has_features = "features" in sections_seen
    if has_pairs == has_features:
        raise InventoryError("exactly one of [features] / [pairs] must be present")

    if has_pairs:
        fs = FeatureSystem(mode="pair-list", pair_relation=pair_relation)
    else:
        fs = FeatureSystem(mode="vector", bundles=bundles)
    for sym in class_map:
        if sym not in seen:
            raise InventoryError("class entry for unknown phoneme %r" % sym)
    return Inventory(phonemes, fs, class_map=class_map)
