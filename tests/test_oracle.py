"""Engine vs. brute-force reference agreement."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ptrac import Inventory, Lexicon, LexEntry, StudyConfig, StudyError, run_study
from ptrac.inventory import FEATURES, HOLE, FeatureSystem, Phoneme
from ptrac.oracle import oracle_matrix
from randlex import make_case

COMBOS = list(
    itertools.product(
        ("clusters", "positions"),
        ("type-frequency", "unweighted"),
        ("unordered", "ordered"),
    )
)


def assert_matrices_equal(a, b, label=""):
    keys = set(a.cells) | set(b.cells)
    for k in keys:
        assert a.cell(*k).weighted == b.cell(*k).weighted, (label, k)
        assert a.cell(*k).pairs == b.cell(*k).pairs, (label, k)


def test_oracle_matches_on_fixture(fixture_lexicon, persian):
    for kind, weighting, orientation in COMBOS:
        cfg = StudyConfig(kind=kind, weighting=weighting, orientation=orientation)
        assert_matrices_equal(
            run_study(fixture_lexicon, persian, cfg).matrix,
            oracle_matrix(fixture_lexicon, persian, cfg),
            label=(kind, weighting, orientation),
        )


def test_oracle_fixture_voice_row(fixture_lexicon, persian):
    m = oracle_matrix(fixture_lexicon, persian, StudyConfig())
    by_frame = {tuple("_l"): 2, tuple("_m"): 1, tuple("_r"): 5, tuple("_n"): 1}
    got = {}
    for (frame, feat), cell in m.cells.items():
        if feat == "voice":
            got[frame] = got.get(frame, 0) + cell.weighted
    assert got == by_frame


def test_oracle_empty_lexicon(persian):
    m = oracle_matrix(Lexicon([], persian), persian, StudyConfig())
    assert not m.cells


def test_oracle_guard(persian, monkeypatch):
    monkeypatch.setattr("ptrac.oracle.GUARD", 1)
    lex = Lexicon(
        [LexEntry("band", tuple("band")), LexEntry("bard", tuple("bard"))], persian
    )
    with pytest.raises(StudyError, match="guard"):
        oracle_matrix(lex, persian, StudyConfig())


def assert_engine_matches_oracle(inv, lex, seed):
    for kind, weighting, orientation in COMBOS:
        cfg = StudyConfig(kind=kind, weighting=weighting, orientation=orientation)
        assert_matrices_equal(
            run_study(lex, inv, cfg).matrix,
            oracle_matrix(lex, inv, cfg),
            label=(seed, kind, weighting, orientation),
        )


@pytest.mark.parametrize("seed", range(20))
def test_oracle_agreement_randomized(seed):
    inv, lex = make_case(seed)
    assert_engine_matches_oracle(inv, lex, seed)


@pytest.mark.parametrize("seed", range(20))
def test_oracle_agreement_randomized_vector(seed):
    inv, lex = make_case(seed, mode="vector")
    assert inv.feature_system.mode == "vector"
    assert_engine_matches_oracle(inv, lex, seed)


@pytest.mark.parametrize("seed", range(100))
def test_oracle_agreement_randomized_multichar(seed):
    inv, lex = make_case(seed, mode="multichar")
    assert any(len(s) > 1 for s in inv.phonemes)
    assert_engine_matches_oracle(inv, lex, seed)


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


@settings(deadline=None)
@given(hostile_case())
def test_oracle_agreement_arbitrary_symbols(case):
    inv, lex = case
    for kind, weighting, orientation in COMBOS:
        cfg = StudyConfig(kind=kind, weighting=weighting, orientation=orientation)
        assert run_study(lex, inv, cfg).matrix.same_cells(oracle_matrix(lex, inv, cfg))


def test_multichar_frames_that_join_alike_stay_apart():
    # "t"+"sa" and "ts"+"a" both read "tsa": the frames (t, sa, k, _) and
    # (ts, a, k, _) render alike but are different contexts.
    inv = Inventory(
        [Phoneme(c, False) for c in ("t", "ts", "k", "g")]
        + [Phoneme(v, True) for v in ("a", "sa")],
        FeatureSystem(mode="pair-list", pair_relation={frozenset(("k", "g")): "voice"}),
    )
    words = [("t", "sa", "k", "g"), ("ts", "a", "k", "k"),
             ("t", "sa", "k", "k"), ("ts", "a", "k", "g")]
    lex = Lexicon([LexEntry("w%d" % i, w) for i, w in enumerate(words)], inv)
    cfg = StudyConfig(kind="positions")
    report = run_study(lex, inv, cfg)
    assert {(p.seq_a, p.seq_b) for p in report.pairs} == {
        (("t", "sa", "k", "g"), ("t", "sa", "k", "k")),
        (("ts", "a", "k", "g"), ("ts", "a", "k", "k")),
    }
    assert report.matrix.same_cells(oracle_matrix(lex, inv, cfg))
    assert sorted(report.matrix.cells) == [
        (("t", "sa", "k", "_"), "voice"), (("ts", "a", "k", "_"), "voice"),
    ]
