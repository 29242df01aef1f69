import os

import pytest
from hypothesis import settings

from ptrac import data, parse_lexicon

# GitHub Actions sets CI: properties then draw the same examples on every
# run, so a failure there reproduces locally with CI=1.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def persian():
    return data.persian_inventory()


@pytest.fixture(scope="session")
def fixture_lexicon(persian):
    lex, diags = parse_lexicon(data.voicing_fixture_text(), persian)
    assert not diags
    return lex


MINI_INV = """
[phonemes]
b consonant
p consonant
d consonant
t consonant
n consonant
a vowel
[pairs]
b p voice
d t voice
b d place
p t place
"""


@pytest.fixture(scope="session")
def mini():
    from ptrac import parse_inventory

    return parse_inventory(MINI_INV)


@pytest.fixture(scope="session")
def join_alike():
    """Inventory and lexicon whose positions-study frames ("t", "sa", "k",
    "_") and ("ts", "a", "k", "_") both render as "tsak_"."""
    from ptrac import Inventory, Lexicon, LexEntry
    from ptrac.inventory import FeatureSystem, Phoneme

    inv = Inventory(
        [Phoneme(c, False) for c in ("t", "ts", "k", "g")]
        + [Phoneme(v, True) for v in ("a", "sa")],
        FeatureSystem(mode="pair-list", pair_relation={frozenset(("k", "g")): "voice"}),
    )
    words = [("t", "sa", "k", "g"), ("ts", "a", "k", "k"),
             ("t", "sa", "k", "k"), ("ts", "a", "k", "g")]
    return inv, Lexicon([LexEntry("w%d" % i, w) for i, w in enumerate(words)], inv)


@pytest.fixture(scope="session")
def join_alike_across_features():
    """The positions study of `join_alike` with one more consonant, "n",
    and a manner relation: the voice frame ("t", "sa", "k", "_") and the
    manner frame ("ts", "a", "k", "_") both render as "tsak_"."""
    from ptrac import Inventory, Lexicon, LexEntry
    from ptrac.inventory import FeatureSystem, Phoneme

    inv = Inventory(
        [Phoneme(c, False) for c in ("t", "ts", "k", "g", "n")]
        + [Phoneme(v, True) for v in ("a", "sa")],
        FeatureSystem(mode="pair-list", pair_relation={frozenset(("k", "g")): "voice",
                                                       frozenset(("k", "n")): "manner"}),
    )
    words = [("t", "sa", "k", "g"), ("t", "sa", "k", "k"),
             ("ts", "a", "k", "k"), ("ts", "a", "k", "n")]
    return inv, Lexicon([LexEntry("w%d" % i, w) for i, w in enumerate(words)], inv)
