"""Skeleton plans: extraction cuts study sequences by the plan of each
word's consonant/vowel skeleton instead of syllabifying it. Held here to a
reference that syllabifies every entry, as extraction used to."""

import pytest
from hypothesis import example, given, settings, strategies as st

import ptrac.core
from ptrac import Inventory, Lexicon, LexEntry, PtracError, StudyConfig, syllabify
from ptrac.core import KINDS, ExcludedEntry, extract_sequences
from ptrac.inventory import FeatureSystem, Phoneme
from randlex import make_case


def reference_entry_sequences(entry, inv, kind):
    out = []
    for syl in syllabify(entry.transcription, inv):
        if len(syl.coda) != 2:  # not CVCC
            continue
        out.append(syl.coda if kind == "clusters" else syl.segments)
    return out


def reference_extract(lex, inv, kind):
    """(freqs, excluded, carriers): the carriers of each sequence, in
    lexicon order, one item per occurrence."""
    freqs = {}
    excluded = []
    carriers = {}
    for ix, entry in enumerate(lex.entries):
        try:
            seqs = reference_entry_sequences(entry, inv, kind)
        except PtracError as exc:
            excluded.append(ExcludedEntry(ix, entry.orthography, str(exc), exc.reason))
            continue
        for seq in seqs:
            freqs[seq] = freqs.get(seq, 0) + 1
            carriers.setdefault(seq, []).append(entry)
    return freqs, excluded, carriers


def assert_plans_match(lex, inv):
    for kind in KINDS:
        want_freqs, want_excluded, want_carriers = reference_extract(lex, inv, kind)
        for carriers in (False, True):
            table, excluded = extract_sequences(lex, inv, StudyConfig(kind=kind),
                                                carriers=carriers)
            assert list(table.freqs.items()) == list(want_freqs.items())  # insertion order too
            assert excluded == want_excluded  # exclusion messages too
            if not carriers:
                assert table.carriers is None
                continue
            assert list(table.carriers) == list(want_carriers)
            for seq, entries in want_carriers.items():
                got = table.carriers[seq]
                assert len(got) == len(entries)
                assert all(g is e for g, e in zip(got, entries))  # the lexicon's own entries


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
@pytest.mark.parametrize("seed", range(15))
def test_plans_match_syllabify_randlex(seed, mode):
    inv, lex = make_case(seed, mode=mode)
    assert_plans_match(lex, inv)


def test_randlex_cases_reach_every_outcome():
    reasons, kinds_of_seqs = set(), set()
    for mode in ("pair-list", "vector", "multichar"):
        for seed in range(15):
            inv, lex = make_case(seed, mode=mode)
            for entry in lex.entries:
                try:
                    syls = syllabify(entry.transcription, inv)
                except PtracError as exc:
                    reasons.add(exc.reason)
                    continue
                kinds_of_seqs.update(s.shape for s in syls)
    assert reasons == {"no-nucleus", "initial-vowel", "onset-cluster", "vowel-hiatus",
                       "coda-too-long"}
    assert kinds_of_seqs == {"CV", "CVC", "CVCC"}


# Multi-character symbols, so that slice bounds count symbols, not text.
CONSONANTS = ("t", "ts", "k", "kh")
VOWELS = ("a", "ai")
PLAN_INV = Inventory(
    [Phoneme(c, False) for c in CONSONANTS] + [Phoneme(v, True) for v in VOWELS],
    FeatureSystem(mode="pair-list"),
)


# One-character symbols, each its own character of text (see `char_of`);
# "?" (a symbol only through the constructor), "#" and "." among them.
CHAR_INV = Inventory([Phoneme(c, False) for c in "?#t."] + [Phoneme(v, True) for v in "a'"],
                     FeatureSystem(mode="pair-list"))


@st.composite
def word_of(draw, skeleton, inv):
    return tuple(draw(st.sampled_from(inv.vowels if v == "V" else inv.consonants))
                 for v in skeleton)


SKELETON = st.text("CV", max_size=12)
# skeleton -> the reason syllabify rejects it for, None if it accepts it
NAMED_SKELETONS = {
    "empty": ("", "no-nucleus"),
    "all-consonant": ("CCC", "no-nucleus"),
    "initial-vowel": ("VCVC", "initial-vowel"),
    "onset-cluster": ("CCVCC", "onset-cluster"),
    "hiatus": ("CVVC", "vowel-hiatus"),
    "medial 3-consonant coda": ("CVCCCCV", "coda-too-long"),
    "final 3-consonant coda": ("CVCVCCC", "coda-too-long"),
    "medial and final CVCC": ("CVCCCVCC", None),
}


@settings(deadline=None)
@given(st.sampled_from([PLAN_INV, CHAR_INV]).flatmap(lambda inv: st.tuples(
    st.just(inv), st.lists(SKELETON.flatmap(lambda s: word_of(s, inv)), max_size=12))))
@example((PLAN_INV, [("ts", "a", "k", "kh", "t", "ai", "t", "k"), ("t", "a", "kh", "k")]))
@example((CHAR_INV, [("?", "a", "#", ".", "t", "'", "?"), ("t", "a", "?", "#")]))
def test_plans_match_syllabify_skeletons(case):
    inv, words = case
    lex = Lexicon([LexEntry("w%d" % i, w) for i, w in enumerate(words)], inv)
    assert_plans_match(lex, inv)


def test_skeleton_table_only_for_one_character_inventories():
    # A multi-character inventory's table maps each symbol's code character.
    assert "".join(("?", "a", "#", ".", "t", "'")).translate(CHAR_INV.skeleton_table) == "CVCCCV"
    word = ("ts", "ai", "k", "kh", "t", "a")
    text = "".join(map(PLAN_INV.char_of.__getitem__, word))
    assert len(text) == len(word) and PLAN_INV.decode(text) == word
    assert text.translate(PLAN_INV.skeleton_table) == "CVCCCV"
    assert {PLAN_INV.char_of[s] for s in ("ts", "kh", "ai")}.isdisjoint("".join(PLAN_INV.vowel_map))


@pytest.mark.parametrize("skeleton, reason", NAMED_SKELETONS.values(), ids=NAMED_SKELETONS)
def test_plans_match_syllabify_named_skeletons(skeleton, reason):
    # spelled with two-character symbols, so text offsets and symbol
    # offsets differ
    word = tuple("kh" if v == "C" else "ai" for v in skeleton)
    try:
        syllabify(word, PLAN_INV)
    except PtracError as exc:
        assert exc.reason == reason
    else:
        assert reason is None
    lex = Lexicon([LexEntry("w", word)], PLAN_INV)
    assert_plans_match(lex, PLAN_INV)


def test_extraction_syllabifies_only_rejected_entries(monkeypatch):
    inv, lex = make_case(3, mode="multichar")
    calls = []

    def counting(seq, inv):
        calls.append(seq)
        return syllabify(seq, inv)

    monkeypatch.setattr(ptrac.core, "syllabify", counting)
    for kind in KINDS:
        calls.clear()
        _, excluded = extract_sequences(lex, inv, StudyConfig(kind=kind))
        assert excluded
        assert calls == [lex.entries[ex.index].transcription for ex in excluded]
