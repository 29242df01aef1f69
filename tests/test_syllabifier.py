"""Syllabifier unit tests and the exhaustive pattern check.

The reference predicate `expected_rejection_reasons` restates the error
conditions directly on the C/V pattern, independently of the syllabifier's
control flow, so accept/reject behavior can be checked one-to-one over all
patterns.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from ptrac import SyllabifyError, syllabify
from ptrac.syllabifier import format_syllables


def shapes(syls):
    return [s.shape for s in syls]


def flatten(syls):
    return tuple(seg for s in syls for seg in s.segments)


def test_single_cvcc_word(persian):
    syls = syllabify(("b", "a", "n", "d"), persian)
    assert shapes(syls) == ["CVCC"]
    s = syls[0]
    assert (s.onset, s.nucleus, s.coda) == ("b", "a", ("n", "d"))


def test_cvcv_splits_cv_cv(persian):
    syls = syllabify(("b", "a", "r", "a"), persian)
    assert shapes(syls) == ["CV", "CV"]
    assert format_syllables(syls) == "ba.ra"


def test_cvcccv_splits_cvcc_cv(persian):
    syls = syllabify(("s", "a", "t", "r", "h", "a"), persian)
    assert format_syllables(syls) == "satr.ha"
    assert shapes(syls) == ["CVCC", "CV"]


def test_initial_vowel_rejected(persian):
    with pytest.raises(SyllabifyError) as exc:
        syllabify(("a", "b"), persian)
    assert exc.value.reason == "initial-vowel"


def test_vowel_hiatus_rejected(persian):
    with pytest.raises(SyllabifyError) as exc:
        syllabify(("b", "a", "a"), persian)
    assert exc.value.reason == "vowel-hiatus"


def test_all_consonants_rejected(persian):
    with pytest.raises(SyllabifyError) as exc:
        syllabify(("b", "d"), persian)
    assert exc.value.reason == "no-nucleus"


def test_initial_cluster_rejected(persian):
    with pytest.raises(SyllabifyError) as exc:
        syllabify(("s", "t", "a", "b"), persian)
    assert exc.value.reason == "onset-cluster"


def test_overlong_coda_rejected(persian):
    with pytest.raises(SyllabifyError) as exc:
        syllabify(("b", "a", "n", "d", "s"), persian)
    assert exc.value.reason == "coda-too-long"


def expected_rejection_reasons(pattern):
    """Reasons the pattern violates, from the rule statement itself."""
    reasons = set()
    if "V" not in pattern:
        reasons.add("no-nucleus")
    if pattern.startswith("V"):
        reasons.add("initial-vowel")
    if "VV" in pattern:
        reasons.add("vowel-hiatus")
    runs = pattern.split("V")
    if len(runs) > 1 and len(runs[0]) > 1:
        reasons.add("onset-cluster")
    # intervocalic consonant run of n leaves a coda of n-1; final run is all coda
    if len(runs) > 1:
        inner, final = runs[1:-1], runs[-1]
        if any(len(r) > 3 for r in inner) or len(final) > 2:
            reasons.add("coda-too-long")
    return reasons


def instantiate(pattern, c="b", v="a"):
    return tuple(c if ch == "C" else v for ch in pattern)


def test_exhaustive_patterns_up_to_8(persian):
    for n in range(1, 9):
        for bits in itertools.product("CV", repeat=n):
            pattern = "".join(bits)
            expected = expected_rejection_reasons(pattern)
            seq = instantiate(pattern)
            if expected:
                with pytest.raises(SyllabifyError) as exc:
                    syllabify(seq, persian)
                assert exc.value.reason in expected, pattern
            else:
                syls = syllabify(seq, persian)
                assert flatten(syls) == seq, pattern
                assert all(s.shape in ("CV", "CVC", "CVCC") for s in syls)
                assert len(syls) == pattern.count("V")


@given(
    st.lists(st.sampled_from("bdstnrz"), min_size=1, max_size=2),
    st.sampled_from("aeo"),
    st.lists(st.sampled_from("bdstnrz"), min_size=0, max_size=2),
)
def test_reconstruction_random_syllables(persian, onset_pad, vowel, coda):
    # build a valid word from whole syllables, then round-trip
    seq = tuple(["b", vowel] + coda + [onset_pad[0], "a"])
    syls = syllabify(seq, persian)
    assert flatten(syls) == seq


def test_determinism(persian):
    seq = ("s", "a", "t", "r", "h", "a")
    assert syllabify(seq, persian) == syllabify(seq, persian)


def test_syllable_is_a_named_tuple(persian):
    from ptrac import Syllable

    assert Syllable._fields == ("onset", "nucleus", "coda")
    syls = syllabify(tuple("satrha"), persian)
    assert syls == [Syllable("s", "a", ("t", "r")), Syllable("h", "a", ())]
    s, h = syls
    assert (s.shape, h.shape) == ("CVCC", "CV")
    assert s.segments == ("s", "a", "t", "r") and h.segments == ("h", "a")
    assert (str(s), str(h)) == ("satr", "ha")
    assert format_syllables(syls) == "satr.ha"
    assert Syllable("b", "a", ("n",)).shape == "CVC"
    # a named tuple equals (and hashes as) the plain tuple of its fields
    assert s == ("s", "a", ("t", "r")) and hash(s) == hash(("s", "a", ("t", "r")))
