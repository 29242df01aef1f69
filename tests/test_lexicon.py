"""Lexicon parsing, tokenization and round-tripping."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ptrac import (
    LexiconError,
    TokenizeError,
    parse_lexicon,
    serialize_lexicon,
    tokenize_transcription,
)


def test_tokenize_simple(persian):
    assert tokenize_transcription("band", persian) == ("b", "a", "n", "d")


def test_tokenize_glottal_alias(persian):
    assert tokenize_transcription("?asl", persian) == ("'", "a", "s", "l")
    assert tokenize_transcription("'asl", persian) == ("'", "a", "s", "l")


def test_tokenize_empty(persian):
    with pytest.raises(TokenizeError):
        tokenize_transcription("", persian)


def test_tokenize_reports_offset(persian):
    with pytest.raises(TokenizeError) as exc:
        tokenize_transcription("ba5d", persian)
    assert exc.value.offset == 2
    assert exc.value.fragment == "5"


def test_tokenize_longest_match():
    from ptrac import parse_inventory

    inv = parse_inventory(
        "[phonemes]\nt consonant\nts consonant\ns consonant\na vowel\n[pairs]\n"
    )
    assert tokenize_transcription("tsa", inv) == ("ts", "a")
    assert tokenize_transcription("tas", inv) == ("t", "a", "s")


def test_parse_fixture(persian):
    from ptrac import data

    lex, diags = parse_lexicon(data.voicing_fixture_text(), persian)
    assert len(lex) == 16
    assert diags == []


def test_parse_empty(persian):
    lex, diags = parse_lexicon("", persian)
    assert len(lex) == 0 and diags == []


def test_malformed_line_becomes_diagnostic(persian):
    lex, diags = parse_lexicon("xyz\tba5d\nok\tband\n", persian)
    assert len(lex) == 1
    assert len(diags) == 1
    assert diags[0].line == 1 and "offset 2" in diags[0].reason


def test_strict_mode_promotes_diagnostics(persian):
    with pytest.raises(LexiconError):
        parse_lexicon("xyz\tba5d\n", persian, strict=True)


def test_third_column_ignored(persian):
    lex, diags = parse_lexicon("w\tband\t42\n", persian)
    assert len(lex) == 1 and not diags
    assert lex.entries[0].transcription == ("b", "a", "n", "d")


def test_comments_and_blanks(persian):
    lex, diags = parse_lexicon("# header\n\nw\tband\n", persian)
    assert len(lex) == 1 and not diags


def test_duplicate_transcriptions_kept(persian):
    lex, _ = parse_lexicon("one\tband\ntwo\tband\n", persian)
    assert len(lex) == 2


def test_entry_plus_diagnostic_count(persian):
    text = "# c\n\nw1\tband\nbad line\nw2\tba5d\nw3\tsatr\n"
    lex, diags = parse_lexicon(text, persian)
    content_lines = 4
    assert len(lex) + len(diags) == content_lines


def test_round_trip(persian):
    from ptrac import data

    lex, _ = parse_lexicon(data.voicing_fixture_text(), persian)
    lex2, diags = parse_lexicon(serialize_lexicon(lex), persian)
    assert not diags
    assert [(e.orthography, e.transcription) for e in lex.entries] == [
        (e.orthography, e.transcription) for e in lex2.entries
    ]


@given(st.lists(st.sampled_from("bdstnrzlao"), min_size=1, max_size=8))
def test_tokenize_inverts_join(persian, symbols):
    text = "".join(symbols)
    assert tokenize_transcription(text, persian) == tuple(symbols)


def _reference_tokenize(text, inv):
    """Naive greedy longest match: at each offset, try every symbol
    longest first, reading a "?" slice as the glottal stop."""
    from ptrac.inventory import normalize_symbol

    if not text:
        raise TokenizeError("empty transcription", offset=0, fragment="")
    symbols = sorted(inv.vowel_map, key=len, reverse=True)
    out = []
    i = 0
    while i < len(text):
        for sym in symbols:
            cand = normalize_symbol(text[i:i + len(sym)])
            if cand == sym:
                out.append(sym)
                i += len(sym)
                break
        else:
            frag = text[i]
            raise TokenizeError(
                "no inventory symbol matches %r at offset %d" % (frag, i),
                offset=i,
                fragment=frag,
            )
    return tuple(out)


# Regex metacharacters, the glottal stop and its "?" alias, and letters.
HOSTILE = "ab.*(\\|['?"


@st.composite
def alphabet_and_text(draw, max_symbol_size=3):
    from ptrac import Inventory
    from ptrac.inventory import FeatureSystem, Phoneme

    symbols = draw(st.lists(st.text(HOSTILE, min_size=1, max_size=max_symbol_size),
                            min_size=2, max_size=8, unique=True))
    n_cons = draw(st.integers(1, len(symbols) - 1))
    inv = Inventory(
        [Phoneme(s, i >= n_cons) for i, s in enumerate(symbols)],
        FeatureSystem(mode="pair-list"),
    )
    text = draw(st.one_of(
        st.lists(st.sampled_from(symbols + ["?"]), min_size=1, max_size=8).map("".join),
        st.text(HOSTILE + "x", max_size=10),
    ))
    return inv, text


def _outcome(tokenize, text, inv):
    try:
        return tokenize(text, inv)
    except TokenizeError as exc:
        return ("error", str(exc), exc.offset, exc.fragment)


@given(alphabet_and_text())
def test_tokenize_matches_reference(case):
    inv, text = case
    assert _outcome(tokenize_transcription, text, inv) == _outcome(_reference_tokenize, text, inv)


class _CountingPattern:
    """Stands in for an inventory's `token_re`, counting `findall` calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.findall_calls = 0

    def findall(self, text):
        self.findall_calls += 1
        return self.pattern.findall(text)

    def match(self, text, pos):
        return self.pattern.match(text, pos)


def test_tokenize_one_character_symbols_matches_reference():
    # One-character alphabets take the tuple(text) fast path unless the text
    # has a "?" or a character that is no symbol; "?" may be the glottal
    # alias (the alphabet has "'") or a literal constructor symbol.
    paths = {"fast": 0, "regex": 0}

    @settings(max_examples=300)
    @given(alphabet_and_text(max_symbol_size=1))
    def check(case):
        inv, text = case
        assert _outcome(tokenize_transcription, text, inv) == _outcome(
            _reference_tokenize, text, inv)
        inv.token_re = _CountingPattern(inv.token_re)
        _outcome(tokenize_transcription, text, inv)
        if text:
            paths["regex" if inv.token_re.findall_calls else "fast"] += 1

    check()
    assert paths["fast"] and paths["regex"]


@pytest.mark.parametrize("symbols, text, tokens", [
    ("'ab", "?ab'", ("'", "a", "b", "'")),  # "?" as the glottal alias
    ("?ab", "ab", ("a", "b")),
    ("?ab", "a?b", "error"),  # a literal "?" symbol never matches
    ("'?ab", "?a", ("'", "a")),
])
def test_tokenize_question_mark_with_one_character_symbols(symbols, text, tokens):
    from ptrac import Inventory
    from ptrac.inventory import FeatureSystem, Phoneme

    inv = Inventory([Phoneme(s, s == "a") for s in symbols], FeatureSystem(mode="pair-list"))
    assert inv.char_symbols == set(symbols) - {"?"}
    got = _outcome(tokenize_transcription, text, inv)
    assert got == _outcome(_reference_tokenize, text, inv)
    assert got[0] == "error" if tokens == "error" else got == tokens


def test_char_symbols_empty_with_a_multi_character_symbol():
    from ptrac import parse_inventory

    inv = parse_inventory("[phonemes]\nt consonant\nts consonant\na vowel\n[pairs]\n")
    assert inv.char_symbols == frozenset()
    assert tokenize_transcription("tsa", inv) == ("ts", "a")


def test_lexicon_rejects_unknown_symbol(persian):
    from ptrac import LexEntry, Lexicon, PtracError

    with pytest.raises(PtracError, match=r"'5', 'X'.*'w2'"):
        Lexicon([LexEntry("w1", ("b", "a", "n", "d")), LexEntry("w2", ("b", "a", "5")),
                 LexEntry("w3", ("X", "a"))], persian)
    with pytest.raises(LexiconError):
        Lexicon([LexEntry("w", ("b", "a", "nd"))], persian)


def test_lex_entry_named_tuple(persian):
    from ptrac import LexEntry

    entry = LexEntry("band", ("b", "a", "n", "d"))
    assert entry.orthography == "band" and entry.transcription == ("b", "a", "n", "d")
    assert entry == ("band", ("b", "a", "n", "d"))
    assert hash(entry) == hash(("band", ("b", "a", "n", "d")))
    with pytest.raises(AttributeError):
        entry.orthography = "pand"
    lex, _ = parse_lexicon("band\tband\n", persian)
    assert lex.entries == [entry] and type(lex.entries[0]) is LexEntry


@settings(max_examples=300)
@given(st.one_of(alphabet_and_text(), alphabet_and_text(max_symbol_size=1)))
def test_tokens_are_inventory_symbols(case):
    # parse_lexicon builds its Lexicon without the constructor's symbol
    # check, as every token it stores comes from tokenize_transcription.
    from ptrac import Lexicon

    inv, text = case
    try:
        tokens = tokenize_transcription(text, inv)
    except TokenizeError:
        return
    assert all(token in inv.vowel_map for token in tokens)
    lex, diags = parse_lexicon("w\t%s\n" % text, inv)
    assert not diags and lex.entries[0].transcription == tokens
    assert Lexicon(lex.entries, inv).entries == lex.entries


ODD_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("odd", ODD_BREAKS)
def test_odd_line_boundary_stays_inside_its_line(persian, odd):
    # str.splitlines ends a line at these; universal newlines do not.
    lex, diags = parse_lexicon("a%sb\tsak\nw\tsaXk\n" % odd, persian)
    assert lex.entries == [("a%sb" % odd, ("s", "a", "k"))]
    assert [str(d) for d in diags] == ["line 2: no inventory symbol matches 'X' at offset 2"]
    _, diags = parse_lexicon("bad%sline\nw\tband\nw\tba5d\n" % odd, persian)
    assert [d.line for d in diags] == [1, 3]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_endings(persian, newline):
    text = "w1\tband\t3\nbad line\n\n# c\nw2\tba5d\nw3\tsatr\n".replace("\n", newline)
    lex, diags = parse_lexicon(text, persian)
    assert lex.entries == [("w1", ("b", "a", "n", "d")), ("w3", ("s", "a", "t", "r"))]
    assert [d.line for d in diags] == [2, 5]


@given(st.text(st.sampled_from("a\t\n\r\u2028\x85\x0c")))
def test_split_lines_matches_universal_newlines(text):
    import io

    from ptrac.inventory import split_lines

    read = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8").read()
    assert list(split_lines(text)) == read.split("\n")


def _plain_parse_lexicon(text, inv):
    """The lexicon format stated plainly, one step per rule: skip blank
    and comment lines, split on tabs, require two non-empty fields,
    tokenize the second; (entries, diagnostics)."""
    from ptrac.inventory import split_lines
    from ptrac.lexicon import Diagnostic, LexEntry

    entries = []
    diagnostics = []
    for no, line in enumerate(split_lines(text), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            diagnostics.append(Diagnostic(no, "expected 'orthography<TAB>transcription'"))
            continue
        try:
            trans = tokenize_transcription(parts[1], inv)
        except TokenizeError as exc:
            diagnostics.append(Diagnostic(no, str(exc)))
            continue
        entries.append(LexEntry(parts[0], trans))
    return entries, diagnostics


# Short lines for the windows around slice boundaries: blank and comment
# lines, " ", U+0085 and form feeds (which universal newlines do not
# break at), entries, and malformed and untokenizable lines.
WINDOW_LINES = ["", " ", "\x85", "\x0c", "#c", "w\tba", "a\x85b\tsak", "\x0c\tband",
                "w\tba5d", "bad line", "x \tsa?b", "w\t\x85", "w\tsa\x0cb"]
ENDINGS = ["\n", "\r\n", "\r"]


def _slice_boundary_text(rng):
    """A lexicon text longer than three slices of `split_lines`: five
    windows of short lines, each line ended by a random one of ENDINGS,
    between four filler lines about a slice long. A filler holds no break,
    so every slice ends at a break inside a window, with window lines and
    breaks of every kind on both sides of it."""
    from ptrac.inventory import _SLICE

    lines = []
    for window in range(5):
        if window:
            trans = "".join(rng.choices("band", k=_SLICE - rng.randrange(200)))
            if rng.random() < 0.3:
                trans += "5"  # untokenizable
            lines.append("w\x85 \x0c\u2028%d\t%s" % (window, trans))
        lines += rng.choices(WINDOW_LINES, k=rng.randrange(1, 25))
    text = "".join(line + rng.choice(ENDINGS) for line in lines)
    # with or without a final break (a last "\r\n" cut to "\r" is still one)
    return text if rng.random() < 0.5 else text[:-1]


@pytest.mark.parametrize("multichar", [False, True], ids=["one-char", "multichar"])
@pytest.mark.parametrize("seed", range(6))
def test_slice_boundaries(persian, seed, multichar):
    import io
    import random

    from ptrac import data, parse_inventory
    from ptrac.inventory import _SLICE, split_lines
    from ptrac.lexicon import read_entries

    inv = persian
    if multichar:
        inv = parse_inventory(data.persian_inventory_text().replace(
            "[phonemes]\n", "[phonemes]\nŋŋ vowel\n", 1))
    text = _slice_boundary_text(random.Random(seed))
    read = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8").read()
    assert len(read) > 3 * _SLICE
    assert list(split_lines(text)) == read.split("\n")
    entries, diagnostics = _plain_parse_lexicon(text, inv)
    diags = []
    assert [(o, tuple(t)) for o, t in read_entries(text, inv, diags)] == entries
    assert diags == diagnostics
    assert diagnostics  # the windows hold malformed lines


def _hash_symbol_inventory():
    """A constructor-built inventory with a literal one-character "#"
    symbol, which a file cannot declare ("#" starts a comment there)."""
    from ptrac import Inventory
    from ptrac.inventory import FeatureSystem, Phoneme

    return Inventory([Phoneme(s, s == "a") for s in "#t'a"], FeatureSystem(mode="pair-list"))


WHITESPACE = ["", " ", "\t", " \t", "\u3000", "\u00a0"]


@st.composite
def lexicon_text(draw):
    inv = draw(st.one_of(alphabet_and_text(max_symbol_size=1).map(lambda case: case[0]),
                         alphabet_and_text().map(lambda case: case[0]),
                         st.just(_hash_symbol_inventory())))
    # symbols, "?" (glottal alias, or no symbol), foreign characters and "#"
    pieces = sorted(inv.vowel_map) + ["?", "x", "é", "#", " "]
    transcription = st.lists(st.sampled_from(pieces), max_size=5).map("".join)
    orthography = st.one_of(st.sampled_from(WHITESPACE[1:] + [""]), st.text("wé#?", max_size=3))
    line = st.one_of(
        st.sampled_from(WHITESPACE),  # blank
        st.tuples(st.sampled_from(WHITESPACE), st.sampled_from(["", "#"]), orthography,
                  st.lists(transcription, max_size=3))
        .map(lambda t: t[0] + t[1] + "\t".join([t[2], *t[3]])),
    )
    lines = draw(st.lists(line, max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return inv, newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300)
@given(lexicon_text(), st.booleans())
@example((_hash_symbol_inventory(),
          " #\tta\n \tta\n\u00a0\tta\tx\n#w\tta\nw\t#a\nw\t?a\nw\t\nw\ttaé\n\t\n"), False)
def test_parse_lexicon_matches_the_plain_loop(case, strict):
    from ptrac.lexicon import LexEntry

    inv, text = case
    entries, diagnostics = _plain_parse_lexicon(text, inv)
    if strict and diagnostics:
        with pytest.raises(LexiconError) as exc:
            parse_lexicon(text, inv, strict=True)
        assert str(exc.value) == "%d malformed line(s): %s" % (
            len(diagnostics), "; ".join(map(str, diagnostics)))
        return
    lex, diags = parse_lexicon(text, inv, strict=strict)
    assert lex.entries == entries
    assert all(type(e) is LexEntry for e in lex.entries)
    assert [str(d) for d in diags] == [str(d) for d in diagnostics]
    assert diags == diagnostics
