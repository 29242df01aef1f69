"""The integer-coded neighbour lookups, where the random cases of
`test_count.py` and `test_enumerate.py` do not reach them: inventories
with more symbols than six bits can code, and hand-built tables whose
sequences differ in length, so that codes are padded on the right.
`enumerate_minimal_sequence_pairs` lists the pairs in one loop; `run_study`
counts in `_count_table`, whose own loop makes the same lookups over the
same passes (`_encode`, `_passes`).

Pairs are held to `bucket_pairs`, the frame-bucket reference, in order,
and each sequence to one tuple, that of its decoded text key; the cells of
`_count_table` to `count_contrasts` of those pairs. Hand-built tables are
keyed by text, as extraction keys them."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ptrac import Inventory, LexEntry, Lexicon, StudyConfig, StudyError, count_contrasts
from ptrac import enumerate_minimal_sequence_pairs, extract_sequences, run_study
from ptrac.core import MinimalSequencePair, SequenceTable, _count_table
from ptrac.inventory import FeatureSystem, Phoneme
from test_enumerate import bucket_pairs

CONFIGS = [
    StudyConfig(kind=kind, weighting=weighting, orientation=orientation, feature=feature)
    for kind, weighting, orientation, feature in itertools.product(
        ("clusters", "positions"),
        ("type-frequency", "unweighted"),
        ("unordered", "ordered"),
        (None, "manner", "place", "voice"),
    )
]


def check_pairs(table, inv, cfg):
    """The walk's pairs equal `bucket_pairs`, hold one tuple per sequence,
    the decoded text key, and count to the same cells as `count_contrasts`
    of the reference."""
    want = bucket_pairs(table, inv, cfg)
    got = enumerate_minimal_sequence_pairs(table, inv, cfg)
    assert [tuple(p) for p in got] == [tuple(p) for p in want], cfg
    char_of = inv.char_of.__getitem__
    shared = {}  # sequence -> the one tuple its pairs hold
    for p in got:
        assert type(p) is MinimalSequencePair
        for seq in (p.seq_a, p.seq_b):
            assert shared.setdefault(seq, seq) is seq
            key = "".join(map(char_of, seq))
            assert key in table.freqs and seq == inv.decode(key)
    matrix = _count_table(table, inv, cfg)
    assert matrix.cells == count_contrasts(want, cfg).cells, cfg
    return len(got)


def wide_case(n_cons, seed):
    """A vector-mode inventory of `n_cons` multi-character consonants and
    five vowels, and a lexicon of CVCC words, each with variants that swap
    one consonant for one it contrasts with, so that pairs occur in both
    study kinds."""
    rng = random.Random(seed)
    cons = ["c%03d" % i for i in range(n_cons)]
    vowels = ["v%d" % i for i in range(5)]
    labels = (["m%d" % i for i in range(5)], ["p%d" % i for i in range(6)],
              ["voiced", "voiceless"])
    bundles = {c: tuple(rng.choice(dim) for dim in labels) for c in cons}
    inv = Inventory([Phoneme(c, False) for c in cons] + [Phoneme(v, True) for v in vowels],
                    FeatureSystem(mode="vector", bundles=bundles))
    words = []
    for _ in range(150):
        word = [rng.choice(cons), rng.choice(vowels), rng.choice(cons), rng.choice(cons)]
        words.append(tuple(word))
        for _ in range(3):
            pos = rng.choice((0, 2, 3))
            if inv.relation[word[pos]]:
                word[pos] = rng.choice(sorted(inv.relation[word[pos]]))
                words.append(tuple(word))
    return inv, Lexicon([LexEntry("w%d" % i, w) for i, w in enumerate(words)], inv)


@pytest.mark.parametrize("n_cons", [70, 260])
def test_walk_codes_wider_than_six_bits(n_cons):
    inv, lex = wide_case(n_cons, seed=n_cons)
    assert inv.code_bits == (n_cons + 5).bit_length() > 6
    assert inv.codes[inv.code_symbols[-1]] == n_cons + 5
    seen = 0
    for cfg in CONFIGS:
        table, _ = extract_sequences(lex, inv, cfg)
        seen += check_pairs(table, inv, cfg)
        want = count_contrasts(enumerate_minimal_sequence_pairs(table, inv, cfg), cfg)
        assert run_study(lex, inv, cfg).matrix.cells == want.cells, cfg
    assert seen > 1000


# Symbols of the `mini` inventory (conftest.py): b-p and d-t contrast in
# voice, b-d and p-t in place; n contrasts with nothing, a is a vowel.
MIXED = ["b", "p", "d", "t", "n", "a"]
MIXED_CONFIGS = [StudyConfig(orientation=o, feature=f) for o in ("unordered", "ordered")
                 for f in (None, "place", "voice")]


def test_walk_mixed_lengths_by_hand(mini):
    seqs = [(), ("b",), ("p",), ("n",), ("b", "a"), ("p", "a"), ("b", "a", "d"),
            ("b", "a", "t"), ("p", "a", "d"), ("b", "a", "d", "a"), ("d", "a", "d", "a"),
            ("b", "a", "b", "a", "p"), ("b", "a", "b", "a", "b")]
    table = SequenceTable(freqs={"".join(s): len(s) + 1 for s in reversed(seqs)})
    for cfg in MIXED_CONFIGS:
        check_pairs(table, mini, cfg)
    pairs = enumerate_minimal_sequence_pairs(table, mini, StudyConfig())
    assert [("".join(p.seq_a), "".join(p.seq_b), p.frame) for p in pairs] == [
        ("b", "p", "_"), ("ba", "pa", "_a"), ("babab", "babap", "baba_"),
        ("bad", "bat", "ba_"), ("bad", "pad", "_ad"), ("bada", "dada", "_ada"),
    ]
    cells = _count_table(table, mini, StudyConfig()).cells
    assert {(frame, feature) for frame, feature in cells} == {
        (("_",), "voice"), (("_", "a"), "voice"), (("b", "a", "b", "a", "_"), "voice"),
        (("b", "a", "_"), "voice"), (("_", "a", "d"), "voice"), (("_", "a", "d", "a"), "place")}


@settings(deadline=None)
@given(st.dictionaries(st.lists(st.sampled_from(MIXED), max_size=5).map("".join),
                       st.integers(1, 4), max_size=40))
def test_walk_mixed_lengths(mini, freqs):
    table = SequenceTable(freqs=freqs)
    for cfg in MIXED_CONFIGS:
        check_pairs(table, mini, cfg)


@pytest.mark.parametrize("seq", [("b", "Q"), ("b", "_")])
def test_walk_rejects_symbols_outside_the_inventory(mini, seq):
    """A hand-built table may hold any text; the hole would code as the
    padding of "b"."""
    table = SequenceTable(freqs={"b": 1, "".join(seq): 1})
    for study in (enumerate_minimal_sequence_pairs, _count_table):
        with pytest.raises(StudyError, match="sequence symbol %r is not in the inventory"
                           % seq[1]):
            study(table, mini, StudyConfig())
