"""Inventory parsing and the featural minimal-pair relation."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from ptrac import (
    FEATURES,
    Inventory,
    InventoryError,
    contrasting_feature,
    data,
    featural_pairs,
    parse_inventory,
)
from ptrac.inventory import FeatureSystem, Phoneme


def test_shipped_inventory_shape(persian):
    assert len(persian.consonants) == 24
    assert len(persian.vowels) == 6
    assert len(featural_pairs(persian, "manner")) == 35
    assert len(featural_pairs(persian, "place")) == 25
    assert len(featural_pairs(persian, "voice")) == 10


def test_known_contrasts(persian):
    assert contrasting_feature(persian, "b", "p") == "voice"
    assert contrasting_feature(persian, "b", "d") == "place"
    assert contrasting_feature(persian, "b", "m") == "manner"
    assert contrasting_feature(persian, "b", "t") is None
    assert contrasting_feature(persian, "b", "b") is None


def test_symmetry_and_irreflexivity(persian):
    for a, b in itertools.combinations(persian.consonants, 2):
        assert contrasting_feature(persian, a, b) == contrasting_feature(persian, b, a)
    for a in persian.consonants:
        assert contrasting_feature(persian, a, a) is None


def test_feature_partition(persian):
    """The three per-feature pair sets are disjoint and cover the relation."""
    sets = {f: set(featural_pairs(persian, f)) for f in FEATURES}
    for f, g in itertools.combinations(FEATURES, 2):
        assert not (sets[f] & sets[g])
    union = set().union(*sets.values())
    relation = {
        tuple(sorted((a, b)))
        for a, b in itertools.combinations(persian.consonants, 2)
        if contrasting_feature(persian, a, b) is not None
    }
    assert union == relation


def test_ordered_is_twice_unordered(persian):
    for f in FEATURES:
        uno = featural_pairs(persian, f, "unordered")
        ordd = featural_pairs(persian, f, "ordered")
        assert len(ordd) == 2 * len(uno)
        assert set(ordd) == {p for a, b in uno for p in ((a, b), (b, a))}


def test_unknown_inputs(persian):
    with pytest.raises(InventoryError):
        contrasting_feature(persian, "b", "5")
    with pytest.raises(InventoryError):
        contrasting_feature(persian, "a", "b")  # vowel argument
    with pytest.raises(InventoryError):
        featural_pairs(persian, "nasality")


def test_minimal_pairlist_inventory():
    inv = parse_inventory("[phonemes]\nb consonant\na vowel\n[pairs]\n")
    assert featural_pairs(inv, "voice") == []


def test_duplicate_symbol_rejected():
    with pytest.raises(InventoryError, match="line 3.*duplicate"):
        parse_inventory("[phonemes]\nb consonant\nb vowel\n[pairs]\n")
    # b is named in [pairs] and [classes] too; each section keeps its lines
    with pytest.raises(InventoryError) as exc:
        parse_inventory("[phonemes]\nb consonant\nb vowel\np consonant\n[pairs]\nb p voice\n"
                        "[classes]\nb nasal\n")
    assert str(exc.value) == "line 3: duplicate symbol 'b' (first defined on line 2)"


def test_symbol_error_names_the_phonemes_line():
    # the symbol is named in [pairs] and [classes] too
    text = ("[phonemes]\nb\x01 consonant\nb consonant\na vowel\n[pairs]\nb b\x01 voice\n"
            "[classes]\nb\x01 nasal\n")
    with pytest.raises(InventoryError) as exc:
        parse_inventory(text)
    assert str(exc.value) == "line 2: symbol 'b\\x01' contains a control character"


def test_pair_with_two_features_names_both_lines():
    text = "[phonemes]\nb consonant\np consonant\na vowel\n[pairs]\nb p voice\np b place\n"
    with pytest.raises(InventoryError) as exc:
        parse_inventory(text)
    msg = str(exc.value)
    assert "line 7" in msg and "line 6" in msg and "(p, b)" in msg


def test_pair_referencing_vowel_or_unknown():
    base = "[phonemes]\nb consonant\na vowel\n[pairs]\n"
    with pytest.raises(InventoryError, match="vowel"):
        parse_inventory(base + "b a voice\n")
    with pytest.raises(InventoryError, match="unknown"):
        parse_inventory(base + "b q voice\n")


ENTRY_BASE = "[phonemes]\nb consonant\np consonant\na vowel\n"


@pytest.mark.parametrize("body, line, message", [
    ("[pairs]\nb p voice\nb q voice\n", 7, "pair references unknown phoneme 'q'"),
    ("[pairs]\nb p voice\na b manner\n", 7, "pair references vowel 'a'"),
    ("[features]\nb stop labial voiced\np stop labial voiceless\n"
     "q stop labial voiced\n", 8, "feature bundle for unknown or vowel phoneme 'q'"),
    ("[features]\na stop labial voiced\nb stop labial voiced\n"
     "p stop labial voiceless\n", 6, "feature bundle for unknown or vowel phoneme 'a'"),
    ("[pairs]\nb p voice\n[classes]\nb nasal\nq liquid\n", 9,
     "class entry for unknown phoneme 'q'"),
    ("[pairs]\nb p voice\n[classes]\nb nasal\na liquid\n", 9,
     "class entry for vowel 'a'"),
], ids=["pairs-unknown", "pairs-vowel", "features-unknown", "features-vowel",
        "classes-unknown", "classes-vowel"])
def test_unknown_symbol_in_entry_carries_its_line(body, line, message):
    with pytest.raises(InventoryError) as exc:
        parse_inventory(ENTRY_BASE + body)
    assert exc.value.line == line
    assert str(exc.value) == "line %d: %s" % (line, message)


def test_conflicting_class_lines_name_the_first_line():
    text = ENTRY_BASE + "[pairs]\nb p voice\n[classes]\nb nasal\np liquid\nb liquid\n"
    with pytest.raises(InventoryError) as exc:
        parse_inventory(text)
    assert exc.value.line == 10
    assert str(exc.value) == "line 10: symbol 'b' already listed with class nasal on line 8"
    # the same class again is no conflict, as with [pairs]
    inv = parse_inventory(text.replace("b liquid", "b nasal"))
    assert inv.class_map["b"] == "nasal" and inv.class_map["p"] == "liquid"


def test_entries_may_precede_their_phonemes():
    inv = parse_inventory("[classes]\nb nasal\n[pairs]\nb p voice\n" + ENTRY_BASE)
    assert inv.relation["b"] == {"p": "voice"} and inv.class_map["b"] == "nasal"


def test_malformed_line_carries_number():
    with pytest.raises(InventoryError, match="line 2"):
        parse_inventory("[phonemes]\nb consonant extra\n")


def test_exactly_one_feature_section():
    with pytest.raises(InventoryError, match="exactly one"):
        parse_inventory("[phonemes]\nb consonant\na vowel\n")
    with pytest.raises(InventoryError, match="exactly one"):
        parse_inventory(
            "[phonemes]\nb consonant\na vowel\n[pairs]\n[features]\n"
            "b stop labial voiced\n"
        )


def test_glottal_alias_normalized():
    inv = parse_inventory("[phonemes]\n? consonant\nb consonant\na vowel\n[pairs]\n? b place\n")
    assert "'" in inv.vowel_map and "?" not in inv.vowel_map
    assert contrasting_feature(inv, "'", "b") == "place"


VECTOR_INV = """
[phonemes]
b consonant
p consonant
d consonant
t consonant
m consonant
a vowel
[features]
b stop labial voiced
p stop labial voiceless
d stop coronal voiced
t stop coronal voiceless
m nasal labial voiced
"""


def test_vector_mode_relation():
    inv = parse_inventory(VECTOR_INV)
    assert contrasting_feature(inv, "b", "p") == "voice"
    assert contrasting_feature(inv, "b", "d") == "place"
    assert contrasting_feature(inv, "b", "m") == "manner"
    assert contrasting_feature(inv, "b", "t") is None  # place and voice differ
    assert contrasting_feature(inv, "p", "m") is None  # manner and voice differ


def test_vector_mode_brute_force_consistency():
    """Pair relation matches differ-in-exactly-one over the bundles."""
    inv = parse_inventory(VECTOR_INV)
    bundles = inv.feature_system.bundles
    for a, b in itertools.combinations(inv.consonants, 2):
        diffs = sum(x != y for x, y in zip(bundles[a], bundles[b]))
        got = contrasting_feature(inv, a, b)
        assert (got is not None) == (diffs == 1)


def test_vector_mode_missing_bundle():
    with pytest.raises(InventoryError, match="missing feature bundle"):
        parse_inventory("[phonemes]\nb consonant\na vowel\n[features]\n")


def test_class_map_defaults_and_override(persian):
    assert persian.class_map["m"] == "nasal"
    assert persian.class_map["r"] == "liquid"
    assert persian.class_map["w"] == "glide"
    assert persian.class_map["s"] == "obstruent"
    inv = parse_inventory(
        "[phonemes]\nm consonant\na vowel\n[pairs]\n[classes]\nm obstruent\n"
    )
    assert inv.class_map["m"] == "obstruent"


B, P, A = Phoneme("b", False), Phoneme("p", False), Phoneme("a", True)
NO_PAIRS = FeatureSystem(mode="pair-list")


def _pairs(key, feature="voice"):
    return FeatureSystem(mode="pair-list", pair_relation={frozenset(key): feature})


def _bundles(b, p=("stop", "labial", "voiceless")):
    return FeatureSystem(mode="vector", bundles={"b": b, "p": p})


INVALID_INPUTS = {
    "class-unknown": ([B, A], NO_PAIRS, {"b": "nasal", "q": "liquid"},
                      "class entry for unknown phoneme 'q'"),
    "class-vowel": ([B, A], NO_PAIRS, {"a": "liquid"}, "class entry for vowel 'a'"),
    "class-value": ([B, A], NO_PAIRS, {"b": "vowel"},
                    "class entry for 'b' has unknown class 'vowel'"),
    "duplicate-symbol": ([B, P, A, Phoneme("b", True)], NO_PAIRS, None,
                         "duplicate symbol 'b'"),
    "self-pair": ([B, P, A], _pairs("b"), None, "pair maps phoneme 'b' to itself"),
    "three-member-pair": ([B, P, Phoneme("d", False), A], _pairs("bpd"), None,
                          "pair ['b', 'd', 'p'] is not a frozenset of two phonemes"),
    "pair-feature": ([B, P, A], _pairs("bp", "nasality"), None,
                     "pair (b, p) has unknown feature 'nasality'"),
    "short-bundle": ([B, P, A], _bundles(("stop", "labial")), None,
                     "feature bundle for 'b' has 2 values, not 3"),
    "long-bundle": ([B, P, A], _bundles(("stop", "labial", "voiced", "tense")), None,
                    "feature bundle for 'b' has 4 values, not 3"),
    "mode": ([B, A], FeatureSystem(mode="matrix"), None,
             "unknown feature-system mode 'matrix'"),
}


@pytest.mark.parametrize("phonemes, feature_system, class_map, message",
                         INVALID_INPUTS.values(), ids=INVALID_INPUTS)
def test_invalid_input_rejected_by_constructor(phonemes, feature_system, class_map, message):
    with pytest.raises(InventoryError) as exc:
        Inventory(phonemes, feature_system, class_map=class_map)
    assert str(exc.value) == message and exc.value.line is None


def test_unknown_class_value_carries_its_line():
    with pytest.raises(InventoryError) as exc:
        Inventory([B, P, A], NO_PAIRS, class_map={"b": "nasal", "p": "vowel"},
                  lines={("classes", "b"): 3, ("classes", "p"): 4})
    assert exc.value.line == 4
    assert str(exc.value) == "line 4: class entry for 'p' has unknown class 'vowel'"


def _assert_relation_table(inv):
    """`relation` holds what the feature system says: the listed pairs, or
    the bundle pairs that differ in exactly one dimension, each
    consonant's in symbol order."""
    fs = inv.feature_system
    for a in inv.consonants:
        for b in inv.consonants:
            if fs.mode == "pair-list":
                want = fs.pair_relation.get(frozenset((a, b)))
            else:
                diffs = [FEATURES[i] for i in range(3) if fs.bundles[a][i] != fs.bundles[b][i]]
                want = diffs[0] if len(diffs) == 1 else None
            assert inv.relation[a].get(b) == want == contrasting_feature(inv, a, b), (a, b)
        assert list(inv.relation[a]) == sorted(inv.relation[a])
    assert set(inv.relation) == set(inv.consonants)


def test_relation_table_pair_list(persian):
    _assert_relation_table(persian)


def test_relation_table_vector():
    _assert_relation_table(parse_inventory(VECTOR_INV))


@pytest.mark.parametrize("mode", ["pair-list", "vector"])
@pytest.mark.parametrize("seed", range(10))
def test_relation_table_random(seed, mode):
    from randlex import make_case

    inv, _ = make_case(seed, max_words=1, mode=mode)
    _assert_relation_table(inv)


def test_vowel_map(persian):
    # The symbol table: the [phonemes] lines' symbols in file order, each
    # with its vowel flag.
    text = data.persian_inventory_text()
    body = text.split("[phonemes]", 1)[1].split("[", 1)[0]
    listed = [line.split() for line in body.splitlines() if line and not line.startswith("#")]
    assert list(persian.vowel_map.items()) == [(sym, kind == "vowel") for sym, kind in listed]
    assert sorted(s for s, v in persian.vowel_map.items() if v) == persian.vowels
    assert sorted(s for s, v in persian.vowel_map.items() if not v) == persian.consonants
    # definition order, not sorted order
    inv = Inventory([Phoneme("p", False), Phoneme("a", True), Phoneme("b", False)],
                    FeatureSystem(mode="pair-list"))
    assert list(inv.vowel_map.items()) == [("p", False), ("a", True), ("b", False)]


def test_empty_symbol_rejected_by_constructor():
    with pytest.raises(InventoryError, match="empty"):
        Inventory([Phoneme("", False), Phoneme("b", False), Phoneme("a", True)],
                  FeatureSystem(mode="pair-list"))


@pytest.mark.parametrize("symbol", ["_", "t_h"])
def test_hole_symbol_rejected_by_constructor(symbol):
    with pytest.raises(InventoryError, match="contains"):
        Inventory([Phoneme(symbol, False), Phoneme("b", False), Phoneme("a", True)],
                  FeatureSystem(mode="pair-list"))


CONTROL_SYMBOLS = ["b\x01", "\x7fb", "\x00", "t\x9f"]


@pytest.mark.parametrize("symbol", CONTROL_SYMBOLS)
def test_control_character_symbol_rejected_by_constructor(symbol):
    with pytest.raises(InventoryError, match="control character") as exc:
        Inventory([Phoneme(symbol, False), Phoneme("b", False), Phoneme("a", True)],
                  FeatureSystem(mode="pair-list"))
    assert exc.value.line is None


@pytest.mark.parametrize("symbol", CONTROL_SYMBOLS)
def test_control_character_symbol_rejected_from_file(symbol):
    text = "[phonemes]\nb consonant\n%s consonant\na vowel\n[pairs]\n" % symbol
    with pytest.raises(InventoryError, match="control character") as exc:
        parse_inventory(text)
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: ")


# Line boundaries to str.splitlines that universal newlines do not end a
# line at.
ODD_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("odd", ODD_BREAKS)
def test_odd_line_boundary_stays_inside_its_line(odd):
    # The comment keeps its "b"; the malformed line is the file's 4th.
    text = "[phonemes]\nb consonant # labial%sb\na vowel\nbogus\n[pairs]\n" % odd
    with pytest.raises(InventoryError, match="expected") as exc:
        parse_inventory(text)
    assert exc.value.line == 4 and str(exc.value).startswith("line 4: ")
    inv = parse_inventory(text.replace("bogus\n", ""))
    assert sorted(inv.vowel_map) == ["a", "b"]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_endings(newline):
    text = "[phonemes]\nb consonant\np consonant\na vowel\n[pairs]\nb p voice\nb x voice\n"
    with pytest.raises(InventoryError, match="unknown") as exc:
        parse_inventory(text.replace("\n", newline))
    assert exc.value.line == 7


# Inventory text drawn from a token grammar: the sections an inventory
# needs, in any order and now and then with one too many or an unknown
# one; most of each section's valid lines and a few invalid or repeated
# ones, in any order; and now and then a line of loose words. Tokens
# include "?", "_", multi-character symbols and control characters.
SECTION_LINES = {  # section -> (valid lines, invalid or repeated lines)
    "phonemes": (["b consonant", "p consonant", "a vowel", "ts consonant", "ai vowel",
                  "? consonant"],
                 ["' consonant", "b vowel", "_ vowel", "t_h consonant", "b\x01 consonant",
                  "\x7f vowel"]),
    "pairs": (["b p voice", "ts p place", "? b manner", "p b voice"],
              ["b b voice", "b a voice", "b q voice", "b p nasality", "p b place"]),
    "features": (["b stop labial voiced", "p stop labial voiceless",
                  "ts affricate coronal voiceless", "? stop glottal voiceless"],
                 ["a stop labial voiced", "b nasal labial voiced", "q stop labial voiced"]),
    "classes": (["b nasal", "ts obstruent"], ["a glide", "q liquid", "b liquid"]),
}
LOOSE_LINES = st.lists(st.sampled_from([
    "b", "p", "ts", "a", "?", "_", "t_h", "b\x01", "\x00", "#", "[", "[]", "[tones]",
    "consonant", "vowel", "manner", "place", "voice", "nasality", "stop", "labial", "voiced",
    "nasal",
]), max_size=5).map(" ".join)


def _rarely(draw):
    return not draw(st.integers(0, 19))


@st.composite
def inventory_texts(draw):
    sections = ["phonemes", draw(st.sampled_from(["pairs", "features"]))]
    if draw(st.booleans()):
        sections.append("classes")
    if _rarely(draw):
        sections.append(draw(st.sampled_from(["pairs", "features", "tones"])))
    if _rarely(draw):
        sections.remove("phonemes")
    lines = ["b consonant"] if _rarely(draw) else []
    for section in draw(st.permutations(sections)):
        lines.append(("# %s" if _rarely(draw) else draw(st.sampled_from(["[%s]", "[ %s ]"])))
                     % section)
        valid, invalid = SECTION_LINES.get(section, ([], []))
        body = ([line for line in valid if draw(st.integers(0, 3))]
                + [line for line in invalid if _rarely(draw)])
        if _rarely(draw):
            body.append(draw(LOOSE_LINES))
        for line in draw(st.permutations(body)):
            lines.append(line + draw(st.sampled_from(["", " # x"])))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


@settings(max_examples=300, deadline=None)
@given(inventory_texts())
@example("[phonemes]\nb consonant\np consonant\na vowel\n[pairs]\nb p voice\n")
@example("[features]\nb stop labial voiced\n[phonemes]\nb consonant\na vowel\n")
def test_every_inventory_text_parses_or_raises_inventory_error(text):
    try:
        inv = parse_inventory(text)
    except InventoryError as exc:
        assert str(exc)
        return
    assert isinstance(inv, Inventory)
    _assert_relation_table(inv)
