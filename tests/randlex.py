"""Seeded random inventories and lexicons for engine/oracle comparison."""

import random

from ptrac import Inventory, Lexicon, LexEntry
from ptrac.inventory import FEATURES, FeatureSystem, Phoneme

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
