"""`read_entries` streams a lexicon file into extraction: the sequence
table, carriers, exclusions and diagnostics equal those of extracting the
parsed Lexicon, and both equal the syllabifying reference of
`test_plans.py`. No entry is kept unless as a carrier."""

import operator
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from ptrac import (
    LexEntry,
    Lexicon,
    StudyConfig,
    StudyError,
    data,
    enumerate_minimal_sequence_pairs,
    extract_sequences,
    parse_inventory,
    parse_lexicon,
    run_study,
)
from ptrac.core import KINDS
from ptrac.lexicon import read_entries
from randlex import hostile_case, joined_lines, make_case, random_word, serialize_lexicon
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
    reference, whose keys and carriers are read through `inv.decode`;
    `read_entries` yields text for every inventory. The parsed Lexicon is
    extracted both before its `entries` are read (`fresh`) and after
    (`lex`, whose entries the reference reads): reading them changes
    nothing, and both carry their own rows."""
    decode = inv.decode
    lex, want_diags = parse_lexicon(text, inv)
    fresh, _ = parse_lexicon(text, inv)
    diags = []
    kinds = {type(t) for _, t in read_entries(text, inv, diags)}
    assert diags == want_diags
    assert kinds <= {str}
    for kind in KINDS:
        cfg = StudyConfig(kind=kind)
        want_freqs, want_excluded, want_carriers = reference_extract(lex, inv, kind)
        for carriers in (False, True):
            diags = []
            got, excluded = extract_sequences(read_entries(text, inv, diags), inv, cfg,
                                              carriers=carriers)
            want, want_ex = extract_sequences(lex, inv, cfg, carriers=carriers)
            as_read, as_read_ex = extract_sequences(fresh, inv, cfg, carriers=carriers)
            assert diags == want_diags
            assert list(got.freqs.items()) == list(want.freqs.items())  # key order too
            assert list(got.freqs.items()) == list(as_read.freqs.items())
            assert [(decode(k), f) for k, f in got.freqs.items()] == list(want_freqs.items())
            assert all(type(seq) is str for seq in got.freqs)
            assert all(type(seq) is str for seq in as_read.freqs)
            assert excluded == want_ex == as_read_ex == want_excluded  # codes too
            if not carriers:
                assert got.carriers is None and as_read.carriers is None
                continue
            assert list(got.carriers.items()) == list(want.carriers.items())
            assert list(got.carriers.items()) == list(as_read.carriers.items())
            assert [(decode(k), [(o, decode(t)) for o, t in es])
                    for k, es in got.carriers.items()] == list(want_carriers.items())
            assert all(type(e) is tuple and type(e[1]) is str
                       for es in got.carriers.values() for e in es)
            assert all(type(e) is tuple and type(e[1]) is str
                       for es in as_read.carriers.values() for e in es)
            for parsed, table in ((fresh, as_read), (lex, want)):
                rows = set(map(id, parsed._rows))  # the carriers are the rows as read
                assert all(id(e) in rows for es in table.carriers.values() for e in es)
    assert fresh.entries == lex.entries


@pytest.mark.parametrize("inv", [PERSIAN, PERSIAN_MULTI], ids=["one-char", "multichar"])
def test_mixed_lexicon(inv):
    assert_streams_like_parse(MIXED, inv)
    diags = []
    entries = list(read_entries(MIXED, inv, diags))
    assert [d.line for d in diags] == [5, 7, 11]
    aliased = [t for o, t in entries if "?" in o]
    assert aliased == ["'asl", "sa'b"]
    table, excluded = extract_sequences(read_entries(MIXED, inv, []), inv,
                                        StudyConfig(kind="clusters"))
    assert [e.orthography for e in excluded] == ["akt", "sart", "brak"]
    assert table.freqs["'b"] == 1 and table.freqs["nd"] == 3


@pytest.mark.parametrize("inv", [PERSIAN, PERSIAN_MULTI], ids=["one-char", "multichar"])
def test_fixture(inv):
    assert_streams_like_parse(data.voicing_fixture_text(), inv)


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
@pytest.mark.parametrize("seed", range(10))
def test_randlex(seed, mode):
    inv, lex = make_case(seed, mode=mode)
    assert_streams_like_parse(joined_lines(lex), inv)


@settings(deadline=None, max_examples=60)
@given(hostile_case())
def test_hostile(case):
    inv, lex = case
    assert_streams_like_parse(joined_lines(lex), inv)


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
        assert got.matrix == want.matrix
        assert (enumerate_minimal_sequence_pairs(got.table, PERSIAN, cfg)
                == enumerate_minimal_sequence_pairs(want.table, PERSIAN, cfg))


@pytest.mark.parametrize("inv, transcription", [
    (PERSIAN, "ba5d"),
    (PERSIAN, ("b", "a", "5", "d")),
    (PERSIAN, "bVnd"),  # "V" is no symbol, though a skeleton letter
    (PERSIAN, "Vand"),
    (PERSIAN, ("b", "an", "d")),  # a symbol of two characters
    (PERSIAN_MULTI, ("b", "a", "X", "d")),
    (PERSIAN_MULTI, "ba5d"),
    (PERSIAN, b"band"),
])
@pytest.mark.parametrize("seen_first", [(), ("band", "bbnd")], ids=["alone", "after"])
def test_a_symbol_outside_the_inventory_is_a_study_error(inv, transcription, seen_first):
    # The words read first have skeletons CVCC and CCCC, which "bVnd" and
    # "Vand" would copy if an unknown "V" were left untranslated.
    # Symbols come in through a Lexicon; an iterable's tuple is not text.
    entries = [("w%d" % i, t) for i, t in enumerate(seen_first)]
    entries.append(("odd", transcription))
    why = "not in the inventory" if isinstance(transcription, str) else "is not text"
    for kind in KINDS:
        with pytest.raises(StudyError, match=r"entry %d \(odd\).*%s" % (len(seen_first), why)):
            extract_sequences(iter(entries), inv, StudyConfig(kind=kind), carriers=True)
    with pytest.raises(StudyError, match=why):
        run_study(iter(entries), inv, StudyConfig())


def test_a_lexicon_of_another_inventory_is_refused():
    other = data.persian_inventory()
    lex, _ = parse_lexicon("band\tband\n", other)
    with pytest.raises(StudyError, match="lexicon was parsed against a different inventory"):
        extract_sequences(lex, PERSIAN, StudyConfig())
    with pytest.raises(StudyError, match="lexicon was parsed against a different inventory"):
        run_study(lex, PERSIAN, StudyConfig())


def test_tuple_transcriptions_of_one_character_symbols():
    # Tuples of symbols come in through a Lexicon, which keeps them as text;
    # an iterable holds text, as `read_entries` yields it.
    lex, _ = parse_lexicon(data.voicing_fixture_text(), PERSIAN)
    as_tuples = [(e.orthography, e.transcription) for e in lex.entries]
    for carriers in (False, True):
        got = extract_sequences(Lexicon(as_tuples, PERSIAN), PERSIAN, StudyConfig(),
                                carriers=carriers)
        assert got == extract_sequences(lex, PERSIAN, StudyConfig(), carriers=carriers)
    with pytest.raises(StudyError) as exc:
        extract_sequences(iter(as_tuples), PERSIAN, StudyConfig())
    assert str(exc.value) == "entry 0 (%s): transcription %r is not text" % as_tuples[0]


@pytest.mark.parametrize("inv", [PERSIAN, PERSIAN_MULTI], ids=["one-char", "multichar"])
def test_a_lexicon_has_one_entry_form(inv):
    # Its rows are the text pairs `read_entries` yields, whatever reads the
    # lexicon or however it is built: reading `entries` changes no row and
    # no study, each carrier is a row, and a Lexicon of the entries holds
    # the same rows. The "ŋŋ" words take a private code under PERSIAN_MULTI.
    from ptrac.report import RenderSpec, render

    text = MIXED + "bŋŋnd\tbŋŋnd\nsŋŋrd\tsŋŋrd\n" + data.voicing_fixture_text()
    lex, _ = parse_lexicon(text, inv)
    rows = list(lex._rows)
    assert rows == list(read_entries(text, inv, []))

    def studies():
        reports = [run_study(lex, inv, StudyConfig(kind=kind)) for kind in KINDS]
        return [(list(r.table.freqs.items()), r.excluded,
                 render(r.matrix, RenderSpec("json"), inv=inv)) for r in reports]

    before = studies()
    entries = lex.entries
    assert lex._rows == rows and all(map(operator.is_, lex._rows, rows))
    assert studies() == before
    for kind in KINDS:
        table, _ = extract_sequences(lex, inv, StudyConfig(kind=kind), carriers=True)
        ids = set(map(id, lex._rows))
        assert table.carriers and all(id(e) in ids for es in table.carriers.values() for e in es)
    assert Lexicon(entries, inv)._rows == lex._rows


@pytest.mark.parametrize("inv", [PERSIAN, PERSIAN_MULTI], ids=["one-char", "multichar"])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513])
def test_chunk_boundaries(n, inv):
    # Extraction reads 256 entries at a time: lexicons on either side of
    # a chunk's end give the reference's table (key order too), exclusions
    # (indices too) and carriers, each carrier the row object as read.
    rng = random.Random(n)
    lex = Lexicon([LexEntry("w%d" % i, random_word(rng, inv)) for i in range(n)], inv)
    row_of = {row[0]: row for row in lex._rows}
    decode = inv.decode
    for kind in KINDS:
        want_freqs, want_excluded, want_carriers = reference_extract(lex, inv, kind)
        assert n < 513 or want_excluded[-1].index >= 256  # exclusions past a chunk too
        for entries in (lex, iter(lex._rows)):
            table, excluded = extract_sequences(entries, inv, StudyConfig(kind=kind),
                                                carriers=True)
            assert [(decode(k), f) for k, f in table.freqs.items()] == list(want_freqs.items())
            assert excluded == want_excluded
            assert list(map(decode, table.carriers)) == list(want_carriers)
            for key, got in table.carriers.items():
                want = [row_of[e.orthography] for e in want_carriers[decode(key)]]
                assert len(got) == len(want) and all(map(operator.is_, got, want))


def _rows_with(bad):
    """600 well-formed rows, with each ``(index, row)`` of `bad` put in."""
    rng = random.Random(3)
    rows = [("w%d" % i, "".join(random_word(rng, PERSIAN, invalid_rate=0)))
            for i in range(600)]
    for ix, row in bad:
        rows[ix] = row
    return rows


NEWLINE = ("odd", "ba\nnd")
TUPLE = ("odd", ("b", "a", "n", "d"))
UNKNOWN = ("odd", "ba5d")
ERRORS = {  # each bad row's message, entry index left out
    NEWLINE: " (odd): symbol '\\n' is not in the inventory",
    TUPLE: " (odd): transcription ('b', 'a', 'n', 'd') is not text",
    UNKNOWN: " (odd): symbol '5' is not in the inventory",
    None: ": None is not an (orthography, transcription) pair",
    ("w",): ": ('w',) is not an (orthography, transcription) pair",
    "band": ": 'band' is not an (orthography, transcription) pair",
    ("band", "band", "x"): ": ('band', 'band', 'x') is not an (orthography, transcription) pair",
}


@pytest.mark.parametrize("row", [NEWLINE, TUPLE, None, ("w",)], ids=repr)
@pytest.mark.parametrize("earlier", [[], [(100, UNKNOWN)], [(290, UNKNOWN)], [(290, TUPLE)]],
                         ids=["alone", "100-unknown", "290-unknown", "290-tuple"])
def test_a_bad_entry_past_the_first_chunk_is_named(row, earlier):
    # Entry 300, in the second chunk, cannot be translated with its chunk;
    # its error names it, or the earlier bad entry when there is one: in
    # the first chunk, or in the same chunk, found with it or by the
    # translation of one entry at a time.
    rows = _rows_with([(300, row)] + earlier)
    first = earlier[0][0] if earlier else 300
    message = "entry %d%s" % (first, ERRORS[rows[first]])
    for kind in KINDS:
        with pytest.raises(StudyError) as exc:
            extract_sequences(iter(rows), PERSIAN, StudyConfig(kind=kind), carriers=True)
        assert str(exc.value) == message


@pytest.mark.parametrize("row", [None, ("w",), "band", ("band", "band", "x")], ids=repr)
def test_a_row_that_is_no_pair_is_a_study_error(row):
    for kind in KINDS:
        with pytest.raises(StudyError) as exc:
            extract_sequences(iter([row]), PERSIAN, StudyConfig(kind=kind))
        assert str(exc.value) == "entry 0%s" % ERRORS[row]
    with pytest.raises(StudyError, match="is not an"):
        run_study(iter([("band", "band"), row]), PERSIAN, StudyConfig())


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
