"""`read_entries` streams a lexicon file into extraction: the sequence
table, carriers, exclusions and diagnostics equal those of extracting the
parsed Lexicon, and both equal the syllabifying reference of
`test_plans.py`. No entry is kept unless as a carrier."""

import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from ptrac import (
    LexEntry,
    StudyConfig,
    StudyError,
    data,
    extract_sequences,
    parse_inventory,
    parse_lexicon,
    run_study,
    serialize_lexicon,
)
from ptrac.core import KINDS
from ptrac.lexicon import read_entries
from randlex import hostile_case, make_case, random_word
from test_lexicon import lexicon_text
from test_plans import reference_extract
from test_walk import wide_case

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import generate  # noqa: E402

# A "?"-aliased line, CRLF and CR line ends, comments, a blank line, a
# third column, a malformed line, an untokenizable line and two
# unsyllabifiable words, among plain lines with coda clusters.
MIXED = ("# header\r\nband\tband\r\n?asl\t?asl\r\n'asl\t'asl\nbad line\npand\tpand\n"
         "w5\tba5d\nakt\takt\n\nsard\tsard\rno trans\t\nsart\tsa?rt\nbrak\tbrak\n"
         "  # indented\ntand\ttand\textra\nsab?\tsa?b\nsapt\tsapt\r\n")


def multichar(inv_text):
    """The inventory with an unused two-character vowel, so that every
    path for multi-character symbols is taken."""
    return parse_inventory(inv_text.replace("[phonemes]\n", "[phonemes]\nŋŋ vowel\n", 1))


PERSIAN = data.persian_inventory()
PERSIAN_MULTI = multichar(data.persian_inventory_text())


def assert_streams_like_parse(text, inv):
    """Both study kinds, with and without carriers: extraction from
    `read_entries` equals extraction from `parse_lexicon` and the
    reference; `read_entries` yields text exactly for one-character
    inventories."""
    lex, want_diags = parse_lexicon(text, inv)
    diags = []
    kinds = {type(t) for _, t in read_entries(text, inv, diags)}
    assert diags == want_diags
    assert kinds <= ({str} if inv.skeleton_table else {tuple})
    for kind in KINDS:
        cfg = StudyConfig(kind=kind)
        want_freqs, want_excluded, want_carriers = reference_extract(lex, inv, kind)
        for carriers in (False, True):
            diags = []
            got, excluded = extract_sequences(read_entries(text, inv, diags), inv, cfg,
                                              carriers=carriers)
            want, want_ex = extract_sequences(lex, inv, cfg, carriers=carriers)
            assert diags == want_diags
            assert list(got.freqs.items()) == list(want.freqs.items())  # key order too
            assert list(got.freqs.items()) == list(want_freqs.items())
            assert all(type(seq) is tuple for seq in got.freqs)
            assert excluded == want_ex == want_excluded
            if not carriers:
                assert got.carriers is None
                continue
            assert list(got.carriers.items()) == list(want.carriers.items())
            assert list(got.carriers.items()) == list(want_carriers.items())
            assert all(type(e) is LexEntry for es in got.carriers.values() for e in es)


@pytest.mark.parametrize("inv", [PERSIAN, PERSIAN_MULTI], ids=["one-char", "multichar"])
def test_mixed_lexicon(inv):
    assert_streams_like_parse(MIXED, inv)
    diags = []
    entries = list(read_entries(MIXED, inv, diags))
    assert [d.line for d in diags] == [5, 7, 11]
    aliased = [t for o, t in entries if "?" in o]
    if inv.skeleton_table:
        assert aliased == ["'asl", "sa'b"]
    else:
        assert aliased == [("'", "a", "s", "l"), ("s", "a", "'", "b")]
    table, excluded = extract_sequences(read_entries(MIXED, inv, []), inv,
                                        StudyConfig(kind="clusters"))
    assert [e.orthography for e in excluded] == ["akt", "sart", "brak"]
    assert table.freqs[("'", "b")] == 1 and table.freqs[("n", "d")] == 3


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
@pytest.mark.parametrize("seed", range(10))
def test_randlex(seed, mode):
    inv, lex = make_case(seed, mode=mode)
    assert_streams_like_parse(serialize_lexicon(lex), inv)


@settings(deadline=None, max_examples=60)
@given(hostile_case())
def test_hostile(case):
    inv, lex = case
    assert_streams_like_parse(serialize_lexicon(lex), inv)


@settings(deadline=None, max_examples=150)
@given(lexicon_text())
def test_hostile_files(case):
    inv, text = case
    assert_streams_like_parse(text, inv)


@pytest.mark.parametrize("n_cons", [70, 260])
def test_wide_inventories(n_cons):
    inv, lex = wide_case(n_cons, seed=n_cons)
    assert_streams_like_parse(serialize_lexicon(lex), inv)


def test_run_study_takes_the_stream():
    text = data.voicing_fixture_text()
    lex, _ = parse_lexicon(text, PERSIAN)
    for scheme in ("frame", "following-segment", "total"):
        cfg = StudyConfig(orientation="ordered")
        got = run_study(read_entries(text, PERSIAN, []), PERSIAN, cfg, scheme=scheme)
        want = run_study(lex, PERSIAN, cfg, scheme=scheme)
        assert got.matrix == want.matrix and got.pairs == want.pairs


@pytest.mark.parametrize("inv, transcription", [
    (PERSIAN, "ba5d"),
    (PERSIAN, ("b", "a", "5", "d")),
    (PERSIAN, "bVnd"),  # "V" is no symbol, though a skeleton letter
    (PERSIAN, "Vand"),
    (PERSIAN, ("b", "an", "d")),  # a symbol of two characters
    (PERSIAN_MULTI, ("b", "a", "X", "d")),
    (PERSIAN_MULTI, "ba5d"),
])
@pytest.mark.parametrize("seen_first", [(), ("band", "bbnd")], ids=["alone", "after"])
def test_a_symbol_outside_the_inventory_is_a_study_error(inv, transcription, seen_first):
    # The words read first have skeletons CVCC and CCCC, which "bVnd" and
    # "Vand" would copy if an unknown "V" were left untranslated.
    entries = [("w%d" % i, t if inv.skeleton_table else tuple(t))
               for i, t in enumerate(seen_first)]
    entries.append(("odd", transcription))
    for kind in KINDS:
        with pytest.raises(StudyError, match=r"entry %d \(odd\).*not in the inventory"
                           % len(seen_first)):
            extract_sequences(iter(entries), inv, StudyConfig(kind=kind), carriers=True)
    with pytest.raises(StudyError, match="not in the inventory"):
        run_study(iter(entries), inv, StudyConfig())


def test_a_lexicon_of_another_inventory_is_refused():
    other = data.persian_inventory()
    lex, _ = parse_lexicon("band\tband\n", other)
    with pytest.raises(StudyError, match="lexicon was parsed against a different inventory"):
        extract_sequences(lex, PERSIAN, StudyConfig())
    with pytest.raises(StudyError, match="lexicon was parsed against a different inventory"):
        run_study(lex, PERSIAN, StudyConfig())


def test_tuple_transcriptions_of_one_character_symbols():
    # an iterable may hold tuples for a one-character inventory, as a Lexicon does
    lex, _ = parse_lexicon(data.voicing_fixture_text(), PERSIAN)
    as_tuples = [(e.orthography, e.transcription) for e in lex]
    for carriers in (False, True):
        got = extract_sequences(iter(as_tuples), PERSIAN, StudyConfig(), carriers=carriers)
        assert got == extract_sequences(lex, PERSIAN, StudyConfig(), carriers=carriers)


def _peak(work):
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_stream_keeps_no_entry_per_word():
    rng = random.Random(20)
    text = "".join("w%d\t%s\n" % (i, "".join(random_word(rng, PERSIAN)))
                   for i in range(20_000))
    cfg = StudyConfig(kind="clusters")

    def streamed():
        extract_sequences(read_entries(text, PERSIAN, []), PERSIAN, cfg)

    def parsed():
        extract_sequences(parse_lexicon(text, PERSIAN)[0], PERSIAN, cfg)

    assert _peak(streamed) < _peak(parsed) / 2


def test_the_stream_holds_one_slice_of_lines():
    # The benchmark's clusters-100k lexicon: 100,002 lines in 1.5 MB of
    # text. A list of every line alone would take about 7 MB; the stream
    # holds the lines of one slice, and the whole pass peaks near 1 MB.
    text = generate("clusters-100k", 11, sorted(PERSIAN.consonants),
                    sorted(PERSIAN.vowels)).text
    cfg = StudyConfig(kind="clusters")

    def study():
        run_study(read_entries(text, PERSIAN, []), PERSIAN, cfg, scheme="following-segment")

    assert _peak(study) < 2_500_000
