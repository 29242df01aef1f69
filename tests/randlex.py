"""Seeded random inventories and lexicons, and a Hypothesis strategy of
arbitrary-alphabet ones, for engine/oracle comparison; and the writers of
lexicon files, `joined_lines` and the checked `serialize_lexicon`."""

import random
import re

from hypothesis import strategies as st

from ptrac import (Inventory, Lexicon, LexEntry, LexiconError, TokenizeError,
                   tokenize_transcription)
from ptrac.inventory import FEATURES, HOLE, FeatureSystem, Phoneme

CONSONANT_POOL = list("bcdfghjklmnpqrstvwxyz")
VOWEL_POOL = list("aeiou")

# Multi-character symbols whose concatenations collide ("t"+"sa" and
# "ts"+"a" both read "tsa"), so frames that differ as symbol sequences can
# join to the same text.
MULTI_CONSONANT_POOL = ["t", "ts", "s", "k", "kh", "h", "p", "ph", "n", "ng", "g"]
MULTI_VOWEL_POOL = ["a", "sa", "ha", "e", "ge", "i", "ai"]


def random_inventory(rng, n_cons=8, n_vowels=3, pair_density=0.4,
                     cons_pool=CONSONANT_POOL, vowel_pool=VOWEL_POOL):
    cons = rng.sample(cons_pool, n_cons)
    vowels = rng.sample(vowel_pool, n_vowels)
    relation = {}
    for i, a in enumerate(cons):
        for b in cons[i + 1:]:
            if rng.random() < pair_density:
                relation[frozenset((a, b))] = rng.choice(FEATURES)
    phonemes = [Phoneme(c, False) for c in cons] + [Phoneme(v, True) for v in vowels]
    return Inventory(phonemes, FeatureSystem(mode="pair-list", pair_relation=relation))


# Few labels per dimension, so random bundles often differ in exactly one.
VECTOR_LABELS = (
    ("stop", "fricative", "nasal"),
    ("labial", "coronal", "dorsal"),
    ("voiced", "voiceless"),
)


def random_vector_inventory(rng, n_cons=8, n_vowels=3):
    """Vector-mode inventory: a random (manner, place, voice) bundle per
    consonant; equal bundles are allowed and never contrast."""
    cons = rng.sample(CONSONANT_POOL, n_cons)
    vowels = rng.sample(VOWEL_POOL, n_vowels)
    bundles = {c: tuple(rng.choice(labels) for labels in VECTOR_LABELS) for c in cons}
    phonemes = [Phoneme(c, False) for c in cons] + [Phoneme(v, True) for v in vowels]
    return Inventory(phonemes, FeatureSystem(mode="vector", bundles=bundles))


def random_word(rng, inv, max_syllables=3, invalid_rate=0.1):
    if rng.random() < invalid_rate:
        # deliberately broken: vowel-initial, hiatus, overlong cluster, or no vowel
        kind = rng.randrange(5)
        if kind == 0:
            return tuple(rng.choice(inv.vowels) for _ in range(2))
        if kind == 4:
            return tuple(rng.choice(inv.consonants) for _ in range(2)) + (
                rng.choice(inv.vowels),
            )
        if kind == 1:
            return (rng.choice(inv.consonants),) + tuple(
                rng.choice(inv.vowels) for _ in range(2)
            )
        if kind == 2:
            return (rng.choice(inv.consonants), rng.choice(inv.vowels)) + tuple(
                rng.choice(inv.consonants) for _ in range(3)
            )
        return tuple(rng.choice(inv.consonants) for _ in range(3))
    seq = []
    for _ in range(rng.randint(1, max_syllables)):
        seq.append(rng.choice(inv.consonants))
        seq.append(rng.choice(inv.vowels))
        for _ in range(rng.randrange(3)):
            seq.append(rng.choice(inv.consonants))
    # trailing coda of >2 would be invalid only word-finally; trim to 2
    tail = 0
    for s in reversed(seq):
        if s in inv.vowels:
            break
        tail += 1
    if tail > 2:
        seq = seq[: len(seq) - (tail - 2)]
    return tuple(seq)


def joined_lines(lex):
    """The lexicon file of `lex`, each entry's symbols joined, as
    `serialize_lexicon` writes it, but also where greedy longest match
    reads a line back as other symbols, or none, which `serialize_lexicon`
    refuses: the files that exercise such readings."""
    return "".join("%s\t%s\n" % (e.orthography, "".join(e.transcription)) for e in lex.entries)


def serialize_lexicon(lex: Lexicon) -> str:
    """Inverse of parse_lexicon, written in symbols. An entry the file would
    read back otherwise is a LexiconError naming it: an orthography a line
    cannot hold (empty, with a tab, "\n" or "\r", or a comment: "#" after
    leading whitespace), or symbols that tokenize otherwise (`t`+`s`+`a`).
    Once every entry passes, the file is `joined_lines(lex)`."""
    inv, unwritable = lex.inventory, re.compile(r"\A\Z|[\t\n\r]|\A\s*#").search
    rows = [(o, inv.decode(t)) for o, t in lex._rows]
    for ix, (o, symbols) in enumerate(rows):
        if unwritable(o):
            raise LexiconError("entry %d: orthography %r cannot be written to a lexicon line"
                               % (ix, o))
        try:
            read = tokenize_transcription("".join(symbols), inv)
        except TokenizeError:  # empty, or a literal "?" symbol
            read = None
        if read != symbols:
            raise LexiconError("entry %d: transcription %r would not read back as %r"
                               % (ix, "".join(symbols), symbols))
    return joined_lines(lex)


def random_lexicon(rng, inv, max_words=200):
    entries = [
        LexEntry("w%d" % i, random_word(rng, inv))
        for i in range(rng.randint(1, max_words))
    ]
    return Lexicon(entries, inv)


def make_case(seed, max_words=200, mode="pair-list"):
    """mode: "pair-list" or "vector" inventories of one-letter symbols, or
    "multichar", a pair-list inventory over the multi-character pools."""
    rng = random.Random(seed)
    if mode == "pair-list":
        inv = random_inventory(rng)
    elif mode == "vector":
        inv = random_vector_inventory(rng)
    else:
        inv = random_inventory(rng, n_cons=6, n_vowels=3, pair_density=0.6,
                               cons_pool=MULTI_CONSONANT_POOL, vowel_pool=MULTI_VOWEL_POOL)
    return inv, random_lexicon(rng, inv, max_words=max_words)


# Any text but the frame hole and control characters (Cc), which the
# inventory rejects; surrogates (Cs) are not text a file could hold.
CHARS = st.characters(exclude_categories=("Cc", "Cs"), exclude_characters=HOLE)


@st.composite
def hostile_case(draw):
    """A pair-list inventory over arbitrary symbols and a small lexicon of
    syllabifiable words over it (mostly CVCC syllables, so that pairs
    occur), plus some arbitrary symbol strings. Symbols are joins of one or
    two pieces of a few, so that different symbol sequences often join to
    the same text ("t" + "sa" and "ts" + "a")."""
    pieces = draw(st.lists(st.text(CHARS, min_size=1, max_size=2), min_size=2, max_size=4,
                           unique=True))
    symbol = st.lists(st.sampled_from(pieces), min_size=1, max_size=2).map("".join)
    symbols = draw(st.lists(symbol, min_size=3, max_size=8, unique=True))
    n_vowels = draw(st.integers(1, min(3, len(symbols) - 2)))
    vowels, cons = symbols[:n_vowels], symbols[n_vowels:]
    relation = {}
    for i, a in enumerate(cons):
        for b in cons[i + 1:]:
            feature = draw(st.sampled_from(FEATURES + (None,)))
            if feature is not None:
                relation[frozenset((a, b))] = feature
    inv = Inventory([Phoneme(s, False) for s in cons] + [Phoneme(s, True) for s in vowels],
                    FeatureSystem(mode="pair-list", pair_relation=relation))
    consonant = st.sampled_from(cons)
    coda = st.one_of(st.tuples(consonant, consonant), st.lists(consonant, max_size=1))
    syllable = st.tuples(consonant, st.sampled_from(vowels), coda)
    word = st.lists(syllable, min_size=1, max_size=3).map(
        lambda syls: tuple(s for o, n, c in syls for s in (o, n, *c)))
    any_string = st.lists(st.sampled_from(symbols), min_size=1, max_size=6).map(tuple)
    words = draw(st.lists(st.one_of(word, word, any_string), min_size=1, max_size=25))
    return inv, Lexicon([LexEntry("w%d" % i, w) for i, w in enumerate(words)], inv)
