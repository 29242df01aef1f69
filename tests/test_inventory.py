"""Inventory parsing and the featural minimal-pair relation."""

import itertools

import pytest

from ptrac import (
    FEATURES,
    InventoryError,
    contrasting_feature,
    featural_pairs,
    parse_inventory,
)


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
    assert "'" in inv.phonemes and "?" not in inv.phonemes
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


def _assert_relation_table(inv):
    for a in inv.consonants:
        for b in inv.consonants:
            assert inv.relation[a].get(b) == contrasting_feature(inv, a, b), (a, b)
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
    assert persian.vowel_map == {s: p.is_vowel for s, p in persian.phonemes.items()}
    assert sorted(s for s, v in persian.vowel_map.items() if v) == persian.vowels


def test_empty_symbol_rejected_by_constructor():
    from ptrac import Inventory
    from ptrac.inventory import FeatureSystem, Phoneme

    with pytest.raises(InventoryError, match="empty"):
        Inventory([Phoneme("", False), Phoneme("b", False), Phoneme("a", True)],
                  FeatureSystem(mode="pair-list"))


@pytest.mark.parametrize("symbol", ["_", "t_h"])
def test_hole_symbol_rejected_by_constructor(symbol):
    from ptrac import Inventory
    from ptrac.inventory import FeatureSystem, Phoneme

    with pytest.raises(InventoryError, match="contains"):
        Inventory([Phoneme(symbol, False), Phoneme("b", False), Phoneme("a", True)],
                  FeatureSystem(mode="pair-list"))
