"""Engine vs. brute-force reference agreement."""

import itertools

import pytest
from hypothesis import given, settings

from ptrac import (Inventory, Lexicon, LexEntry, StudyConfig, StudyError,
                   enumerate_minimal_sequence_pairs, run_study)
from ptrac.inventory import FeatureSystem, Phoneme
from ptrac.oracle import oracle_matrix
from randlex import hostile_case, make_case

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


def test_syllables_that_differ_in_their_vowel_are_no_pair(persian):
    # band/bond differ in the vowel, bond/pand in two segments: b/p is the one pair
    lex = Lexicon([("band", "band"), ("bond", "bond"), ("pand", "pand")], persian)
    cfg = StudyConfig(kind="positions")
    want = {(tuple("_and"), "voice"): (1, 1)}
    for m in (run_study(lex, persian, cfg).matrix, oracle_matrix(lex, persian, cfg)):
        assert {k: tuple(c) for k, c in m.cells.items()} == want


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
    assert any(len(s) > 1 for s in inv.vowel_map)
    assert_engine_matches_oracle(inv, lex, seed)


@settings(deadline=None)
@given(hostile_case())
def test_oracle_agreement_arbitrary_symbols(case):
    inv, lex = case
    for kind, weighting, orientation in COMBOS:
        cfg = StudyConfig(kind=kind, weighting=weighting, orientation=orientation)
        assert run_study(lex, inv, cfg).matrix.cells == oracle_matrix(lex, inv, cfg).cells


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
    pairs = enumerate_minimal_sequence_pairs(report.table, inv, cfg)
    assert {(p.seq_a, p.seq_b) for p in pairs} == {
        (("t", "sa", "k", "g"), ("t", "sa", "k", "k")),
        (("ts", "a", "k", "g"), ("ts", "a", "k", "k")),
    }
    assert report.matrix.cells == oracle_matrix(lex, inv, cfg).cells
    assert sorted(report.matrix.cells) == [
        (("t", "sa", "k", "_"), "voice"), (("ts", "a", "k", "_"), "voice"),
    ]
