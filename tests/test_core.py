"""Engine tests: extraction, pair enumeration, counting, aggregation."""

import pytest

from ptrac import (
    Lexicon,
    LexEntry,
    StudyConfig,
    StudyError,
    SyllabifyError,
    aggregate,
    count_contrasts,
    enumerate_minimal_sequence_pairs,
    extract_sequences,
    list_pairs_for,
    run_study,
    syllabify,
)
from ptrac.core import MinimalSequencePair, SequenceTable, scheme_key


def table_of(freqs):
    return SequenceTable(freqs=dict(freqs))


def joined(table):
    return {"".join(k): v for k, v in table.freqs.items()}


def test_fixture_cluster_table(fixture_lexicon, persian):
    table, excluded = extract_sequences(fixture_lexicon, persian, StudyConfig())
    assert not excluded
    assert joined(table) == {
        "sl": 2, "zl": 2, "sm": 1, "zm": 1, "sr": 2, "zr": 2,
        "Sr": 2, "tr": 1, "dr": 1, "sn": 1, "zn": 1,
    }


def test_cv_word_contributes_nothing(persian):
    lex = Lexicon([LexEntry("ba", ("b", "a"))], persian)
    table, _ = extract_sequences(lex, persian, StudyConfig())
    assert len(table.freqs) == 0


def test_position_study_sequences(persian):
    lex = Lexicon(
        [LexEntry("band", tuple("band")), LexEntry("pand", tuple("pand"))], persian
    )
    table, _ = extract_sequences(lex, persian, StudyConfig(kind="positions"))
    assert joined(table) == {"band": 1, "pand": 1}


def test_unsyllabifiable_entry_excluded(persian):
    lex = Lexicon(
        [LexEntry("ab", ("a", "b")), LexEntry("band", tuple("band"))], persian
    )
    table, excluded = extract_sequences(lex, persian, StudyConfig())
    assert len(excluded) == 1 and excluded[0].orthography == "ab"
    assert joined(table) == {"nd": 1}


# One word of each shape `syllabify` rejects, and the reason code it gives.
REJECTED = {"bd": "no-nucleus", "ab": "initial-vowel", "bda": "onset-cluster",
            "baa": "vowel-hiatus", "bandt": "coda-too-long"}


@pytest.mark.parametrize("streamed", [False, True], ids=["lexicon", "read_entries"])
def test_each_rejected_shape_keeps_its_reason_code(persian, streamed):
    from ptrac.lexicon import read_entries

    text = "".join("%s\t%s\n" % (w, w) for w in ["band", *REJECTED])
    entries = (read_entries(text, persian, []) if streamed
               else Lexicon([LexEntry(w, tuple(w)) for w in ["band", *REJECTED]], persian))
    _, excluded = extract_sequences(entries, persian, StudyConfig())
    assert [(ex.index, ex.orthography, ex.code) for ex in excluded] == [
        (i, w, code) for i, (w, code) in enumerate(REJECTED.items(), start=1)]
    for ex in excluded:
        with pytest.raises(SyllabifyError) as info:
            syllabify(tuple(ex.orthography), persian)
        assert ex.reason == str(info.value)  # the message, as stderr shows it


def test_single_difference_pair(persian):
    t = table_of({"band": 1, "dand": 1})
    pairs = enumerate_minimal_sequence_pairs(t, persian, StudyConfig(kind="positions"))
    assert len(pairs) == 1
    p = pairs[0]
    assert p.position == 0 and p.frame == "_and" and p.feature == "place"


def test_minimal_sequence_pair_is_a_named_tuple(fixture_lexicon, persian):
    assert MinimalSequencePair._fields == ("seq_a", "seq_b", "position", "feature", "weight")
    p = MinimalSequencePair(tuple("band"), tuple("pand"), 0, "voice", 2)
    assert p == (tuple("band"), tuple("pand"), 0, "voice", 2)
    assert hash(p) == hash((tuple("band"), tuple("pand"), 0, "voice", 2))
    assert p.frame == "_and"
    assert MinimalSequencePair(tuple("sd"), tuple("st"), 1, "voice", 1).frame == "s_"
    cfg = StudyConfig(orientation="ordered")
    report = run_study(fixture_lexicon, persian, cfg)
    pairs = enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    by_key = sorted(pairs, key=lambda q: (q.seq_a, q.seq_b, q.position))
    assert sorted(pairs) == by_key == pairs


def test_non_minimal_segments_no_pair(persian):
    t = table_of({"band": 1, "tand": 1})  # b/t differ in two features
    assert enumerate_minimal_sequence_pairs(t, persian, StudyConfig(kind="positions")) == []


def test_fixture_voice_pairs(fixture_lexicon, persian):
    cfg = StudyConfig()
    report = run_study(fixture_lexicon, persian, cfg)
    pairs = enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    voice = {
        ("".join(p.seq_a), "".join(p.seq_b), p.frame)
        for p in pairs
        if p.feature == "voice"
    }
    assert voice == {
        ("sl", "zl", "_l"), ("sm", "zm", "_m"), ("sr", "zr", "_r"),
        ("Sr", "zr", "_r"), ("dr", "tr", "_r"), ("sn", "zn", "_n"),
    }
    manner_r = {
        ("".join(p.seq_a), "".join(p.seq_b))
        for p in pairs
        if p.feature == "manner" and p.frame == "_r"
    }
    assert manner_r == {("sr", "tr"), ("Sr", "tr"), ("dr", "zr")}


def test_min_frequency_weighting(persian):
    t = table_of({"band": 200, "pand": 300})
    cfg = StudyConfig(kind="positions")
    pairs = enumerate_minimal_sequence_pairs(t, persian, cfg)
    assert len(pairs) == 1 and pairs[0].weight == 200
    matrix = count_contrasts(pairs, cfg)
    assert matrix.cell(tuple("_and"), "voice").weighted == 200
    assert matrix.cell(tuple("_and"), "voice").pairs == 1


def test_unweighted_counts(persian):
    t = table_of({"band": 200, "pand": 300})
    cfg = StudyConfig(kind="positions", weighting="unweighted")
    matrix = count_contrasts(enumerate_minimal_sequence_pairs(t, persian, cfg), cfg)
    assert matrix.cell(tuple("_and"), "voice").weighted == 1


def test_ordered_doubles_cells(fixture_lexicon, persian):
    uno = run_study(fixture_lexicon, persian, StudyConfig()).matrix
    ordd = run_study(
        fixture_lexicon, persian, StudyConfig(orientation="ordered")
    ).matrix
    keys = set(uno.cells) | set(ordd.cells)
    assert keys == set(uno.cells)
    for k in keys:
        assert ordd.cell(*k).weighted == 2 * uno.cell(*k).weighted
        assert ordd.cell(*k).pairs == 2 * uno.cell(*k).pairs


def test_following_segment_aggregation(fixture_lexicon, persian):
    report = run_study(fixture_lexicon, persian, StudyConfig())
    agg = aggregate(report.matrix, "following-segment", inv=persian)
    voice = {c: agg.cell(c, "voice").weighted for c in agg.contexts()}
    assert voice == {"_l": 2, "_m": 1, "_r": 5, "_n": 1}


def test_following_class_aggregation(fixture_lexicon, persian):
    report = run_study(fixture_lexicon, persian, StudyConfig())
    agg = aggregate(report.matrix, "following-class", inv=persian)
    voice = {
        c: agg.cell(c, "voice").weighted
        for c in agg.contexts()
        if agg.cell(c, "voice").weighted
    }
    assert voice == {"liquid": 7, "nasal": 2}


def test_total_preserves_sums(fixture_lexicon, persian):
    report = run_study(fixture_lexicon, persian, StudyConfig())
    total = aggregate(report.matrix, "total", inv=persian)
    for feat in report.matrix.features:
        row_sum = sum(
            c.weighted for (ctx, f), c in report.matrix.cells.items() if f == feat
        )
        assert total.cell("total", feat).weighted == row_sum


def test_position_aggregation(persian):
    lex = Lexicon(
        [LexEntry("band", tuple("band")), LexEntry("pand", tuple("pand"))], persian
    )
    report = run_study(lex, persian, StudyConfig(kind="positions"))
    agg = aggregate(report.matrix, "position")
    assert agg.contexts() == ["C1"]
    assert agg.cell("C1", "voice").weighted == 1


def test_position_scheme_requires_positions_study(fixture_lexicon, persian):
    report = run_study(fixture_lexicon, persian, StudyConfig())
    with pytest.raises(StudyError):
        aggregate(report.matrix, "position")


def test_following_class_needs_the_inventory():
    with pytest.raises(StudyError, match="following-class aggregation needs the inventory"):
        scheme_key("following-class", "clusters")


def test_aggregated_matrix_is_not_aggregated_again(fixture_lexicon, persian):
    agg = aggregate(run_study(fixture_lexicon, persian, StudyConfig()).matrix, "total")
    with pytest.raises(StudyError, match=r"matrix already aggregated \(total\)"):
        aggregate(agg, "total")


def test_list_pairs_rejects_an_unknown_feature(fixture_lexicon, persian):
    cfg = StudyConfig()
    pairs = enumerate_minimal_sequence_pairs(
        run_study(fixture_lexicon, persian, cfg).table, persian, cfg)
    with pytest.raises(StudyError, match="unknown feature 'tone'"):
        list_pairs_for(pairs, "tone", "_n", fixture_lexicon, persian, cfg)


def test_vowel_never_a_differing_position(persian):
    t = table_of({"band": 1, "bend": 1})
    assert enumerate_minimal_sequence_pairs(t, persian, StudyConfig(kind="positions")) == []


def test_three_word_position_study(persian):
    lex = Lexicon(
        [
            LexEntry("band", tuple("band")),
            LexEntry("pand", tuple("pand")),
            LexEntry("dand", tuple("dand")),
        ],
        persian,
    )
    cfg = StudyConfig(kind="positions")
    report = run_study(lex, persian, cfg)
    got = {
        ("".join(p.seq_a), "".join(p.seq_b)): p.feature
        for p in enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    }
    # d/p differ in place and voice, so (dand, pand) is absent
    assert got == {("band", "pand"): "voice", ("band", "dand"): "place"}
    assert report.matrix.cell(tuple("_and"), "voice").pairs == 1
    assert report.matrix.cell(tuple("_and"), "place").pairs == 1


def test_frame_consistency(fixture_lexicon, persian):
    cfg = StudyConfig()
    report = run_study(fixture_lexicon, persian, cfg)
    for p in enumerate_minimal_sequence_pairs(report.table, persian, cfg):
        assert p.frame == "".join(
            "_" if i == p.position else s for i, s in enumerate(p.seq_a)
        )
        rebuilt_a = p.frame.replace("_", p.seq_a[p.position])
        rebuilt_b = p.frame.replace("_", p.seq_b[p.position])
        assert rebuilt_a == "".join(p.seq_a) and rebuilt_b == "".join(p.seq_b)


def test_empty_lexicon_gives_empty_report(persian):
    cfg = StudyConfig()
    report = run_study(Lexicon([], persian), persian, cfg)
    pairs = enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    assert len(report.table.freqs) == 0 and pairs == [] and not report.matrix.cells


def test_feature_filter(fixture_lexicon, persian):
    cfg = StudyConfig(feature="voice")
    report = run_study(fixture_lexicon, persian, cfg)
    pairs = enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    assert all(p.feature == "voice" for p in pairs)
    assert report.matrix.features == ("voice",)


def test_monotone_under_growth(persian):
    words = [LexEntry("satr", tuple("satr")), LexEntry("sadr", tuple("sadr"))]
    small = run_study(Lexicon(words, persian), persian, StudyConfig()).matrix
    grown = run_study(
        Lexicon(words + [LexEntry("satr2", tuple("satr"))], persian),
        persian,
        StudyConfig(),
    ).matrix
    for k, cell in small.cells.items():
        assert grown.cell(*k).weighted >= cell.weighted


def test_list_pairs_drilldown(fixture_lexicon, persian):
    cfg = StudyConfig()
    report = run_study(fixture_lexicon, persian, cfg)
    pairs = enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    rows = list_pairs_for(pairs, "voice", "_n", fixture_lexicon, persian, cfg)
    assert len(rows) == 1
    row = rows[0]
    assert "".join(row.pair.seq_a) == "sn" and "".join(row.pair.seq_b) == "zn"
    assert row.pair.weight == 1
    assert row.witnesses == (("hosn", "hozn"),)

    rows_r = list_pairs_for(pairs, "voice", "_r", fixture_lexicon, persian, cfg)
    assert len(rows_r) == 3
    all_wit = {w for r in rows_r for w in r.witnesses}
    assert ("satr", "sadr") in all_wit or ("sadr", "satr") in all_wit

    assert list_pairs_for(pairs, "voice", "_b", fixture_lexicon, persian, cfg) == []


def test_list_pairs_rejects_lexicon_of_another_inventory(fixture_lexicon, persian, mini):
    cfg = StudyConfig()
    report = run_study(fixture_lexicon, persian, cfg)
    pairs = enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    with pytest.raises(StudyError, match="different inventory"):
        list_pairs_for(pairs, "voice", "_n", fixture_lexicon, mini, cfg)


@pytest.mark.parametrize("limit", [0, -1])
def test_list_pairs_rejects_limit_below_one(fixture_lexicon, persian, limit):
    cfg = StudyConfig()
    report = run_study(fixture_lexicon, persian, cfg)
    pairs = enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    with pytest.raises(StudyError, match="limit"):
        list_pairs_for(pairs, "voice", "_n", fixture_lexicon, persian, cfg,
                       limit=limit)


def test_list_pairs_rejects_context_text_of_two_frames(join_alike):
    inv, lex = join_alike
    cfg = StudyConfig(kind="positions")
    report = run_study(lex, inv, cfg)
    pairs = enumerate_minimal_sequence_pairs(report.table, inv, cfg)
    with pytest.raises(StudyError, match=r"both render as 'tsak_'"):
        list_pairs_for(pairs, "voice", "tsak_", lex, inv, cfg)
    # the frames collide even for a feature none of their pairs has
    with pytest.raises(StudyError, match=r"both render as 'tsak_'"):
        list_pairs_for(pairs, "manner", "tsak_", lex, inv, cfg)
    rows = list_pairs_for(pairs, "voice", "C3", lex, inv, cfg, scheme="position")
    assert [(r.pair.seq_a, r.witnesses) for r in rows] == [
        (("t", "sa", "k", "g"), (("w0", "w2"),)),
        (("ts", "a", "k", "g"), (("w3", "w1"),)),
    ]
