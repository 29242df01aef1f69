"""Skeleton plans: extraction cuts study sequences by the plan of each
word's consonant/vowel skeleton instead of syllabifying it. Held here to a
reference that syllabifies every entry, as extraction used to."""

import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ptrac.core
from ptrac import Inventory, Lexicon, LexEntry, PtracError, StudyConfig, data, parse_inventory
from ptrac import run_study, syllabify
from ptrac.core import KINDS, ExcludedEntry, extract_sequences
from ptrac.inventory import FeatureSystem, Phoneme
from ptrac.lexicon import read_entries
from randlex import make_case

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import generate  # noqa: E402


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
    """The table's text keys, read through `inv.decode`, and its carriers
    equal the reference's."""
    decode, char_of = inv.decode, inv.char_of.__getitem__
    for kind in KINDS:
        want_freqs, want_excluded, want_carriers = reference_extract(lex, inv, kind)
        for carriers in (False, True):
            table, excluded = extract_sequences(lex, inv, StudyConfig(kind=kind),
                                                carriers=carriers)
            # insertion order too
            assert [(decode(k), f) for k, f in table.freqs.items()] == list(want_freqs.items())
            assert excluded == want_excluded  # exclusion messages too
            if not carriers:
                assert table.carriers is None
                continue
            assert list(map(decode, table.carriers)) == list(want_carriers)
            for seq, entries in want_carriers.items():
                got = table.carriers["".join(map(char_of, seq))]
                assert len(got) == len(entries)
                # the lexicon's own entries, their transcriptions as text
                assert all(type(g) is tuple
                           and g == (e.orthography, "".join(map(char_of, e.transcription)))
                           for g, e in zip(got, entries))


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
    entries = lex.entries
    for kind in KINDS:
        calls.clear()
        _, excluded = extract_sequences(lex, inv, StudyConfig(kind=kind))
        assert excluded
        assert calls == [entries[ex.index].transcription for ex in excluded]


@pytest.mark.parametrize("case", ["positions-cvcc-20k", "multichar"])
def test_run_study_decodes_no_sequence(monkeypatch, case):
    # Sequences stay text from extraction through a count under a scheme
    # other than frame: `inv.decode` reads only what `syllable_spans` reads,
    # once per distinct skeleton, and what `syllabify` reads, once per
    # excluded entry.
    if case == "multichar":
        inv, lex = make_case(1, mode="multichar")
        texts = ["".join(map(inv.char_of.__getitem__, e.transcription)) for e in lex.entries]
    else:
        inv = parse_inventory(data.persian_inventory_text())
        text = generate(case, 11, sorted(inv.consonants), sorted(inv.vowels)).text
        texts = [t for _, t in read_entries(text, inv, [])]
    skeletons = len({t.translate(inv.skeleton_table) for t in texts})
    calls = []
    decode = inv.decode
    monkeypatch.setattr(inv, "decode", lambda t: calls.append(t) or decode(t))
    for kind, scheme in (("clusters", "following-segment"), ("positions", "total")):
        calls.clear()
        entries = lex if case == "multichar" else read_entries(text, inv, [])
        report = run_study(entries, inv, StudyConfig(kind=kind), scheme=scheme)
        assert report.counts["pairs"] and calls
        assert len(calls) <= skeletons + len(report.excluded)
    if case != "multichar":  # 110 skeletons, 31,558 distinct syllables
        assert len(calls) * 100 < len(report.table.freqs)
