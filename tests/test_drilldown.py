"""`drill_down` and `ptrac list-pairs` held to the library's full drill-down path.

Both enumerate the requested feature alone (every feature under frame when
a symbol has more than one character) and serve witnesses one lookup at a
time. Their rows must equal those of `list_pairs_for` over
`enumerate_minimal_sequence_pairs` of every feature, and where that path
refuses the context, they refuse it with the same message (the command
exits 2).
"""

import random
import re
import types

import pytest
from hypothesis import given, settings

from randlex import hostile_case, make_case, random_word, serialize_lexicon
from ptrac import (LexEntry, Lexicon, StudyConfig, StudyError, data, drill_down,
                   enumerate_minimal_sequence_pairs, extract_sequences, list_pairs_for,
                   parse_inventory, parse_lexicon, run_study)
from ptrac.cli import cli_main
from ptrac.core import KINDS, SCHEMES, context_text
from ptrac.inventory import FEATURES

PERSIAN = data.persian_inventory_text()
INVENTORIES = {
    "one-char": PERSIAN,
    # a two-character vowel turns off the one-character paths
    "multichar": PERSIAN.replace("[phonemes]\n", "[phonemes]\nŋŋ vowel\n", 1),
}
ABSENT = "absent"  # a context no scheme gives


def sample_contexts(lex, inv, cfg, scheme, n=4):
    """The context texts of the study's matrix under `scheme` that two
    keys share (a drill-down refuses them), up to `n` more spread over its
    rows, as `analyze` prints them, and ABSENT."""
    texts = [context_text(c) for c in run_study(lex, inv, cfg, scheme).matrix.contexts()]
    shared = sorted({a for a, b in zip(texts, texts[1:]) if a == b})
    return shared + texts[::max(1, len(texts) // n)][:n] + [ABSENT]


def expected(pairs, lex, inv, cfg, scheme, feature, context):
    """(exit code, stdout, stderr) of the full path."""
    try:
        rows = list_pairs_for(pairs, feature, context, lex, inv, cfg, scheme=scheme)
    except StudyError as exc:
        return 2, "", "error: %s\n" % exc
    return 0, "".join(
        "%s\t%s\t%s\t%s\t%d\t%s\n" % ("".join(r.pair.seq_a), "".join(r.pair.seq_b), r.pair.frame,
                                      r.pair.feature, r.pair.weight,
                                      " ".join("(%s, %s)" % w for w in r.witnesses))
        for r in rows), ""


def check_every_drilldown(capsys, lex, inv, kind, argv):
    """Compare the command with the full path for every scheme the study
    takes, every feature and the sampled contexts; returns the numbers of
    rows printed and of drill-downs refused."""
    cfg = StudyConfig(kind)
    pairs = enumerate_minimal_sequence_pairs(extract_sequences(lex, inv, cfg)[0], inv, cfg)
    printed = refused = 0
    for scheme in SCHEMES:
        if scheme == "position" and kind != "positions":
            continue
        for context in sample_contexts(lex, inv, cfg, scheme):
            for feature in FEATURES:
                want = expected(pairs, lex, inv, cfg, scheme, feature, context)
                code = cli_main(["list-pairs"] + argv + [
                    "--study", kind, "--scheme", scheme, "--feature", feature,
                    "--context", context])
                captured = capsys.readouterr()
                assert (code, captured.out, captured.err) == want, (scheme, feature, context)
                printed += want[1].count("\n")
                refused += want[0] == 2
    return printed, refused


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(INVENTORIES))
@pytest.mark.parametrize("seed", range(2))
def test_list_pairs_equals_the_full_path(capsys, tmp_path, seed, name, kind):
    inv_text = INVENTORIES[name]
    inv = parse_inventory(inv_text)
    rng = random.Random(seed)
    # dense enough for pairs of every feature, also of whole syllables
    text = serialize_lexicon(Lexicon(
        [LexEntry("w%d" % i, random_word(rng, inv, invalid_rate=0)) for i in range(1200)], inv))
    inv_path, lex_path = tmp_path / "inv.inv", tmp_path / "lex.tsv"
    inv_path.write_text(inv_text, encoding="utf-8")
    lex_path.write_text(text, encoding="utf-8")
    lex, diags = parse_lexicon(text, inv)
    assert not diags
    printed, refused = check_every_drilldown(
        capsys, lex, inv, kind, ["--inventory", str(inv_path), "--lexicon", str(lex_path)])
    assert printed and not refused


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_list_pairs_equals_the_full_path_when_frames_collide(capsys, monkeypatch, tmp_path,
                                                              seed, kind):
    # Multi-character symbols whose joins collide, so that frame
    # drill-downs may be refused: under seed 3, the positions frame texts
    # "nge_ph" (voice frames) and "ngen_" (a manner frame and a voice and
    # manner one) are. The lexicon is handed in through the library, as
    # greedy tokenizing would read equal text alike.
    import ptrac.cli

    inv, lex = make_case(seed, mode="multichar")
    monkeypatch.setattr(ptrac.cli, "_load_inventory", lambda path: inv)
    monkeypatch.setattr("ptrac.lexicon.read_entries",
                        lambda text, inv, diagnostics: iter(lex._rows))  # text rows
    lex_path = tmp_path / "lex.tsv"
    lex_path.write_text("", encoding="utf-8")
    _, refused = check_every_drilldown(capsys, lex, inv, kind,
                                       ["--inventory", "unused", "--lexicon", str(lex_path)])
    assert bool(refused) == (seed == 3 and kind == "positions")


def scan_witnesses(seq_a, seq_b, position, carriers, lookup, limit):
    # The former `core._witnesses`, kept verbatim as the reference: every
    # carrier is swapped at each character of the two, one at a time.
    wa, wb = carriers.get(seq_a, []), carriers.get(seq_b, [])
    a, b = seq_a[position], seq_b[position]
    swap = {a: b, b: a}
    flip = len(wa) > len(wb)  # scan wb, look up in wa
    scan = wb if flip else wa
    aligned = []  # (index in wa, index in wb)
    for x, (_, t) in enumerate(scan):
        for k, sym in enumerate(t):
            if sym in swap:
                for y in lookup.get(t[:k] + swap[sym] + t[k + 1:], ()):
                    aligned.append((y, x) if flip else (x, y))
    if aligned:
        aligned.sort()
        return tuple((wa[i][0], wb[j][0]) for i, j in aligned[:limit])
    if wa and wb:
        return ((wa[0][0], wb[0][0]),)
    return ()


# Consonants with pairs of every feature, few enough that a word often
# holds both of a pair's consonants, or one of them more than once.
FEW = ("b", "p", "d", "t", "s", "z", "n", "r")


@pytest.mark.parametrize("name", sorted(INVENTORIES))
@pytest.mark.parametrize("seed", range(3))
def test_witnesses_equal_the_per_character_scan(monkeypatch, seed, name):
    # `_witnesses` swaps a carrier that holds its sequence's character once,
    # and the other's not at all, by `str.replace`; every row, and with no
    # limit every aligned pair, equals that of the scan. The carriers hold
    # the swapped characters once, twice and three times.
    import ptrac.core

    inv = parse_inventory(INVENTORIES[name])
    rng = random.Random(seed)
    words = types.SimpleNamespace(consonants=FEW, vowels=inv.vowels)  # "ŋŋ" too, if a vowel
    lex = Lexicon([LexEntry("w%d" % i, random_word(rng, words)) for i in range(800)], inv)
    char_of, held = inv.char_of.__getitem__, set()
    for kind in KINDS:
        cfg = StudyConfig(kind)
        table, _ = extract_sequences(lex, inv, cfg, carriers=True)
        pairs = enumerate_minimal_sequence_pairs(table, inv, cfg)
        for p in pairs:
            a, b = char_of(p.seq_a[p.position]), char_of(p.seq_b[p.position])
            key = "".join(map(char_of, p.seq_a))
            held.update(t.count(a) + t.count(b) for _, t in table.carriers[key])
        for feature in FEATURES:
            for limit in (1, 5, 10 ** 6):
                def rows():
                    return list_pairs_for(pairs, feature, "total", None, inv, cfg,
                                          scheme="total", limit=limit, carriers=table.carriers)
                got = rows()
                with monkeypatch.context() as m:
                    m.setattr(ptrac.core, "_witnesses", scan_witnesses)
                    assert got == rows()
                assert got
    assert {1, 2, 3} <= held


@pytest.mark.parametrize("kind", KINDS)
def test_pairs_without_carriers_have_no_witnesses(kind):
    # A pair neither of whose sequences has a carrier gets no witness: not
    # even the first-carriers fallback, which needs a carrier of each.
    inv = parse_inventory(PERSIAN)
    lex, _ = parse_lexicon(data.voicing_fixture_text(), inv)
    cfg = StudyConfig(kind)
    pairs = enumerate_minimal_sequence_pairs(extract_sequences(lex, inv, cfg)[0], inv, cfg)
    rows = [r for feature in FEATURES
            for r in list_pairs_for(pairs, feature, "total", lex, inv, cfg, scheme="total",
                                    carriers={})]
    assert pairs and [r.pair for r in rows] == sorted(pairs, key=lambda p: p.feature)
    assert all(r.witnesses == () for r in rows)


def check_drill_down(inv, lex, n=4):
    """Compare `drill_down`, fed the rows of `lex` as `read_entries` yields
    them, with the composed calls over every feature, for both kinds, every
    scheme the kind takes, every feature and the sampled contexts (see
    `sample_contexts`); returns the numbers of rows, of exclusions and of
    drill-downs refused."""
    rows = excluded = refused = 0
    for kind in KINDS:
        walk = StudyConfig(kind)
        table, dropped = extract_sequences(lex, inv, walk, carriers=True)
        pairs = enumerate_minimal_sequence_pairs(table, inv, walk)
        for scheme in SCHEMES:
            if scheme == "position" and kind != "positions":
                continue
            for context in sample_contexts(lex, inv, walk, scheme, n):
                for feature in FEATURES:
                    try:
                        want = (list_pairs_for(pairs, feature, context, None, inv, walk,
                                               scheme=scheme, carriers=table.carriers), dropped)
                    except StudyError as exc:
                        want = str(exc)
                    try:
                        got = drill_down(iter(lex._rows), inv, walk._replace(feature=feature),
                                         context, scheme=scheme)
                    except StudyError as exc:
                        got = str(exc)
                    assert got == want, (kind, scheme, context, feature)
                    if isinstance(want, str):
                        refused += 1
                    else:
                        rows += len(want[0])
                        excluded += len(want[1])
    return rows, excluded, refused


def test_drill_down_equals_the_composed_calls_on_fixture(persian, fixture_lexicon):
    rows, _, refused = check_drill_down(persian, fixture_lexicon, n=10 ** 6)  # every context
    assert rows and not refused


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
def test_drill_down_equals_the_composed_calls_on_random_lexicons(mode):
    totals = [check_drill_down(*make_case(seed, mode=mode)) for seed in range(4)]
    rows, excluded, _ = map(sum, zip(*totals))
    assert rows and excluded


@settings(deadline=None)
@given(hostile_case())
def test_drill_down_equals_the_composed_calls_arbitrary_symbols(case):
    check_drill_down(*case)


def unread():
    """Entries that fail the test when one is pulled."""
    pytest.fail("an entry was read")
    yield


@pytest.mark.parametrize("kind, scheme, feature, limit, message", [
    ("clusters", "nope", "voice", 5, "unknown aggregation scheme 'nope'"),
    ("clusters", "position", "voice", 5, "position scheme requires a positions study"),
    ("positions", "frame", None, 5, "a drill-down needs the cell's feature in cfg.feature"),
    ("clusters", "total", "voice", 0, "limit must be at least 1, got 0"),
], ids=["unknown scheme", "position on clusters", "no feature", "limit 0"])
def test_drill_down_refuses_before_reading_an_entry(persian, kind, scheme, feature, limit,
                                                    message):
    with pytest.raises(StudyError, match=re.escape(message)):
        drill_down(unread(), persian, StudyConfig(kind, feature=feature), "total",
                   scheme=scheme, limit=limit)


def test_drill_down_sees_frames_of_every_feature(join_alike_across_features):
    # The library twin of the command's test: the voice drill-down walks
    # the manner pairs too under frame, where a manner frame renders as the
    # voice frame's text; under position no context can collide.
    inv, lex = join_alike_across_features
    cfg = StudyConfig("positions", feature="voice")
    with pytest.raises(StudyError, match=re.escape(
            "contexts ('t', 'sa', 'k', '_') and ('ts', 'a', 'k', '_') both render as 'tsak_'")):
        drill_down(lex, inv, cfg, "tsak_")
    rows, excluded = drill_down(lex, inv, cfg, "C3", scheme="position")
    assert [(r.pair, r.witnesses) for r in rows] == [
        ((("t", "sa", "k", "g"), ("t", "sa", "k", "k"), 3, "voice", 1), (("w0", "w1"),))]
    assert excluded == []


@pytest.mark.parametrize("route", ["lex", "carriers"])
def test_list_pairs_refuses_pairs_walked_for_another_feature(persian, fixture_lexicon, route):
    # Pairs walked for voice alone hold no manner pair, though the lexicon
    # has 9: a manner drill-down over them would list none without a word.
    cfg = StudyConfig(feature="voice")
    table, _ = extract_sequences(fixture_lexicon, persian, cfg, carriers=True)
    every = StudyConfig()
    assert len(list_pairs_for(enumerate_minimal_sequence_pairs(table, persian, every), "manner",
                              "total", fixture_lexicon, persian, every, scheme="total")) == 9
    pairs = enumerate_minimal_sequence_pairs(table, persian, cfg)
    lex, carriers = (fixture_lexicon, None) if route == "lex" else (None, table.carriers)
    with pytest.raises(StudyError, match="cfg keeps feature 'voice' alone, not 'manner'"):
        list_pairs_for(pairs, "manner", "total", lex, persian, cfg, scheme="total",
                       carriers=carriers)
