"""Minimal sequence pairs by neighbour lookup, held to the frame buckets
they replace.

`bucket_pairs` is the former `core.enumerate_minimal_sequence_pairs`, kept
verbatim as the reference: it buckets the sequences by frame, compares the
members of each bucket pairwise and sorts the result by (seq_a, seq_b,
position). The engine must return the same list, in the same order, and
all pairs of one sequence must share one tuple, the symbols that
`inv.decode` gives for the sequence's text key. The reference reads the
table's text keys through `inv.decode`.
"""

import sys
from pathlib import Path

import pytest

from randlex import make_case
from ptrac import StudyConfig, data, enumerate_minimal_sequence_pairs, extract_sequences
from ptrac import parse_lexicon
from ptrac.core import MinimalSequencePair, SequenceTable, frame_of
from ptrac.inventory import HOLE, Inventory

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import generate  # noqa: E402


def bucket_pairs(table: SequenceTable, inv: Inventory, cfg: StudyConfig):
    # Bucket by frame: two sequences differ at exactly one position iff
    # they share exactly one frame, so buckets cover every pair once.
    is_vowel = inv.vowel_map
    freqs = {inv.decode(key): f for key, f in table.freqs.items()}
    buckets = {}
    for seq in freqs:
        for pos, sym in enumerate(seq):
            if is_vowel[sym]:
                continue
            buckets.setdefault(frame_of(seq, pos), []).append(seq)

    pairs = []
    for frame, seqs in buckets.items():
        pos = frame.index(HOLE)
        seqs.sort()
        for i, a in enumerate(seqs):
            neighbours = inv.relation[a[pos]]
            for b in seqs[i + 1:]:
                feature = neighbours.get(b[pos])
                if feature is None:
                    continue
                if cfg.feature is not None and feature != cfg.feature:
                    continue
                weight = min(freqs[a], freqs[b])
                pairs.append(MinimalSequencePair(a, b, pos, feature, weight))
                if cfg.orientation == "ordered":
                    pairs.append(MinimalSequencePair(b, a, pos, feature, weight))
    pairs.sort(key=lambda p: (p.seq_a, p.seq_b, p.position))
    return pairs


def check_case(inv, lex):
    """Compare every kind x orientation x feature filter; return the
    number of pairs seen."""
    seen = 0
    for kind in ("clusters", "positions"):
        table, _ = extract_sequences(lex, inv, StudyConfig(kind=kind))
        char_of = inv.char_of.__getitem__
        for orientation in ("unordered", "ordered"):
            for feature in (None, "manner", "place", "voice"):
                cfg = StudyConfig(kind=kind, orientation=orientation, feature=feature)
                got = enumerate_minimal_sequence_pairs(table, inv, cfg)
                want = bucket_pairs(table, inv, cfg)
                assert [tuple(p) for p in got] == [tuple(p) for p in want], cfg
                shared = {}  # sequence -> the one tuple its pairs hold
                for p in got:
                    assert type(p) is MinimalSequencePair
                    for seq in (p.seq_a, p.seq_b):
                        assert shared.setdefault(seq, seq) is seq
                        key = "".join(map(char_of, seq))
                        assert key in table.freqs and seq == inv.decode(key)
                seen += len(got)
    return seen


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
def test_matches_frame_buckets_on_random_lexicons(mode):
    seen = sum(check_case(*make_case(seed, mode=mode)) for seed in range(15))
    assert seen > 1000  # the cases reach pairs


def test_matches_frame_buckets_on_benchmark_lexicon():
    inv = data.persian_inventory()
    text = generate("positions-cvcc-20k", 11, sorted(inv.consonants),
                    sorted(inv.vowels), size=1500).text
    lex, _ = parse_lexicon(text, inv)
    assert check_case(inv, lex) > 1000


def test_pairs_are_minimal_sequence_pairs():
    inv = data.persian_inventory()
    lex, _ = parse_lexicon(data.voicing_fixture_text(), inv)
    cfg = StudyConfig(orientation="ordered")
    pairs = enumerate_minimal_sequence_pairs(extract_sequences(lex, inv, cfg)[0], inv, cfg)
    assert pairs and all(type(p) is MinimalSequencePair for p in pairs)
    p = pairs[0]
    assert p == MinimalSequencePair(p.seq_a, p.seq_b, p.position, p.feature, p.weight)
    assert p._fields == ("seq_a", "seq_b", "position", "feature", "weight")
    assert p.frame == "".join(frame_of(p.seq_a, p.position))
