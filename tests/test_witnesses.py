"""Drill-down witnesses held to the carriers x carriers scan they replace.

`scan_witnesses` is the former `core._witnesses`, kept verbatim as the
reference: it compares every carrier word of seq_a with every carrier word
of seq_b, in that order. `list_pairs_for` must return the same rows, with
the same witnesses in the same order, for every limit.
"""

import random

import pytest

from randlex import make_case
from test_plans import reference_entry_sequences
from ptrac import (Lexicon, LexEntry, PtracError, StudyConfig, enumerate_minimal_sequence_pairs,
                   extract_sequences, list_pairs_for, run_study)
from ptrac.inventory import FEATURES


def scan_witnesses(pair, words_by_seq, limit):
    wa = words_by_seq.get(pair.seq_a, [])
    wb = words_by_seq.get(pair.seq_b, [])
    contrast = {pair.seq_a[pair.position], pair.seq_b[pair.position]}
    aligned = []
    for ea in wa:
        for eb in wb:
            ta, tb = ea.transcription, eb.transcription
            if len(ta) != len(tb):
                continue
            diffs = [i for i in range(len(ta)) if ta[i] != tb[i]]
            if len(diffs) == 1 and {ta[diffs[0]], tb[diffs[0]]} == contrast:
                aligned.append((ea.orthography, eb.orthography))
                if len(aligned) == limit:
                    return tuple(aligned)
    if not aligned and wa and wb:
        aligned = [(wa[0].orthography, wb[0].orthography)]
    return tuple(aligned)


def carriers(lex, inv, kind):
    words_by_seq = {}
    for entry in lex.entries:
        try:
            seqs = reference_entry_sequences(entry, inv, kind)
        except PtracError:
            continue
        for seq in seqs:
            words_by_seq.setdefault(seq, []).append(entry)
    return words_by_seq


def check_all_pairs(lex, inv, cfg, limits):
    """Compare every pair's row, under the total scheme, for each feature
    and limit, with and without the carrier index of `extract_sequences`;
    return the reference rows."""
    pairs = enumerate_minimal_sequence_pairs(run_study(lex, inv, cfg).table, inv, cfg)
    words_by_seq = carriers(lex, inv, cfg.kind)
    index = extract_sequences(lex, inv, cfg, carriers=True)[0].carriers
    checked = []
    for feature in FEATURES:
        for limit in limits:
            rows = list_pairs_for(pairs, feature, "total", lex, inv, cfg,
                                  scheme="total", limit=limit)
            expected = [(p, scan_witnesses(p, words_by_seq, limit))
                        for p in pairs if p.feature == feature]
            assert [(r.pair, r.witnesses) for r in rows] == expected
            rows = list_pairs_for(pairs, feature, "total", lex, inv, cfg,
                                  scheme="total", limit=limit, carriers=index)
            assert [(r.pair, r.witnesses) for r in rows] == expected
            checked.extend((p, w, limit) for p, w in expected)
    return checked


def with_repeats(lex, inv, rng):
    """The lexicon plus, for some entries, a homophone spelled differently
    and the word said twice (which carries each of its sequences twice);
    then, for some of all these, a neighbour with one consonant swapped for
    a contrasting one. Shuffled."""
    entries = list(lex.entries)
    for e in lex.entries:
        if rng.random() < 0.2:
            entries.append(LexEntry(e.orthography + "'", e.transcription))
        if rng.random() < 0.2:
            entries.append(LexEntry(e.orthography * 2, e.transcription * 2))
    for e in list(entries):
        t = e.transcription
        swappable = [i for i, s in enumerate(t) if inv.relation.get(s)]
        if swappable and rng.random() < 0.4:
            i = rng.choice(swappable)
            other = rng.choice(sorted(inv.relation[t[i]]))
            entries.append(LexEntry(e.orthography + "~", t[:i] + (other,) + t[i + 1:]))
    rng.shuffle(entries)
    return Lexicon(entries, inv)


def is_aligned(witness, transcription_of):
    ta, tb = (transcription_of[o] for o in witness)
    return len(ta) == len(tb) and sum(x != y for x, y in zip(ta, tb)) == 1


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
def test_witnesses_equal_scan_on_random_lexicons(mode):
    seen = {"aligned": 0, "at_limit": 0, "repeated": 0, "fallback": 0}
    for seed in range(12):
        inv, lex = make_case(seed, max_words=120, mode=mode)
        lex = with_repeats(lex, inv, random.Random(seed))
        transcription_of = {e.orthography: e.transcription for e in lex.entries}
        for kind in ("clusters", "positions"):
            cfg = StudyConfig(kind=kind,
                              orientation="ordered" if seed % 2 else "unordered")
            for _, wit, limit in check_all_pairs(lex, inv, cfg, range(1, 7)):
                if not is_aligned(wit[0], transcription_of):
                    seen["fallback"] += 1
                    continue
                seen["aligned"] += 1
                seen["at_limit"] += len(wit) == limit > 1
                seen["repeated"] += len(set(wit)) < len(wit)
    # the cases reach what the test is for
    assert all(seen.values()), seen


# seq_a = (s, n) and seq_b = (z, n) contrast in voice; "sasnsasn" carries
# (s, n) twice, "saznsasn" has a homophone spelled "homophone".
DRILL = [
    ("twice", "sasnsasn"),
    ("mixed_ab", "sasnsazn"),
    ("mixed_ba", "saznsasn"),
    ("homophone", "saznsasn"),
    ("zfirst", "saznzasn"),
]
# carriers of seq_a, each against carriers of seq_b in lexicon order:
# "twice" reaches "mixed_ab" by swapping its last s, but "mixed_ba" by
# swapping its first; "zfirst" reaches "mixed_ba" by swapping z -> s.
DRILL_WITNESSES = (
    ("twice", "mixed_ab"), ("twice", "mixed_ba"), ("twice", "homophone"),
    ("twice", "mixed_ab"), ("twice", "mixed_ba"), ("twice", "homophone"),
    ("mixed_ba", "zfirst"), ("homophone", "zfirst"),
    ("zfirst", "mixed_ba"), ("zfirst", "homophone"),
)


def drill_lexicon(persian, words):
    return Lexicon([LexEntry(o, tuple(t)) for o, t in words], persian)


@pytest.mark.parametrize("limit", range(1, 12))
def test_witness_order_duplicates_and_both_swap_directions(persian, limit):
    lex = drill_lexicon(persian, DRILL)
    cfg = StudyConfig()
    pairs = enumerate_minimal_sequence_pairs(run_study(lex, persian, cfg).table, persian, cfg)
    rows = list_pairs_for(pairs, "voice", "_n", lex, persian, cfg, limit=limit)
    assert [("".join(r.pair.seq_a), "".join(r.pair.seq_b)) for r in rows] == [("sn", "zn")]
    assert rows[0].witnesses == DRILL_WITNESSES[:limit]
    check_all_pairs(lex, persian, cfg, [limit])


# three more carriers of (z, n), none aligned with a carrier of (s, n)
UNALIGNED_ZN = [("tazn", "tazn"), ("dazn", "dazn"), ("kazn", "kazn")]


@pytest.mark.parametrize("words, more_a", [(DRILL, True), (DRILL + UNALIGNED_ZN, False)],
                         ids=["seq_a-more-carriers", "seq_a-fewer-carriers"])
@pytest.mark.parametrize("limit", range(1, 12))
def test_witnesses_alike_whichever_side_is_scanned(persian, words, more_a, limit):
    lex = drill_lexicon(persian, words)
    cfg = StudyConfig()
    table, _ = extract_sequences(lex, persian, cfg, carriers=True)
    wa, wb = table.carriers["sn"], table.carriers["zn"]
    assert (len(wa) > len(wb)) == more_a
    pairs = enumerate_minimal_sequence_pairs(table, persian, cfg)
    rows = list_pairs_for(pairs, "voice", "_n", lex, persian, cfg, limit=limit,
                          carriers=table.carriers)
    assert [r.witnesses for r in rows] == [DRILL_WITNESSES[:limit]]
    check_all_pairs(lex, persian, cfg, [limit])


@pytest.mark.parametrize("limit", range(1, 7))
def test_witness_fallback_without_aligned_pair(persian, limit):
    # every (s, n) carrier differs from every (z, n) carrier in two places
    lex = drill_lexicon(persian, [("basn", "basn"), ("tazn", "tazn"),
                                  ("kasn", "kasn"), ("dazn", "dazn")])
    cfg = StudyConfig()
    pairs = enumerate_minimal_sequence_pairs(run_study(lex, persian, cfg).table, persian, cfg)
    rows = list_pairs_for(pairs, "voice", "_n", lex, persian, cfg, limit=limit)
    assert [r.witnesses for r in rows] == [(("basn", "tazn"),)]
    check_all_pairs(lex, persian, cfg, [limit])
