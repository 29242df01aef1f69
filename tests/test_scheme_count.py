"""`run_study` under an aggregation scheme counts straight into that
scheme's cells. They equal `aggregate` of the frame matrix for both study
kinds, every scheme the kind accepts, orientation, weighting and feature
filter, and `counts["pairs"]` still counts every pair found, also those
the scheme gives no cell."""

import itertools

import pytest
from hypothesis import given, settings

import ptrac.core
from randlex import hostile_case, make_case
from test_walk import wide_case
from ptrac import (StudyConfig, StudyError, aggregate, enumerate_minimal_sequence_pairs,
                   run_study)
from ptrac.core import (KINDS, ORIENTATIONS, SCHEMES, WEIGHTINGS, Cell, SequenceTable,
                        _count_table)
from ptrac.inventory import FEATURES

CONFIGS = [
    StudyConfig(kind=kind, weighting=weighting, orientation=orientation, feature=feature)
    for kind, weighting, orientation, feature in itertools.product(
        KINDS, WEIGHTINGS, ORIENTATIONS, (None,) + FEATURES)
]


def schemes_of(kind):
    return [s for s in SCHEMES if s != "position" or kind == "positions"]


def check_counts(count, inv):
    """`count(cfg, scheme)` is the matrix counted under `scheme`; for every
    config and scheme its cells equal `aggregate` of the frame matrix, and
    it found as many pairs. Returns the number of pairs found."""
    seen = 0
    for cfg in CONFIGS:
        frame = count(cfg, "frame")
        assert frame.pairs_found == sum(c.pairs for c in frame.cells.values())
        for scheme in schemes_of(cfg.kind):
            got, want = count(cfg, scheme), aggregate(frame, scheme, inv)
            assert got.cells == want.cells, (cfg, scheme)
            assert (got.features, got.scheme, got.kind) == (want.features, scheme, cfg.kind)
            assert got.pairs_found == frame.pairs_found, (cfg, scheme)
        seen += frame.pairs_found
    return seen


def check_case(inv, lex):
    return check_counts(lambda cfg, scheme: run_study(lex, inv, cfg, scheme=scheme).matrix, inv)


def test_scheme_count_on_fixture(persian, fixture_lexicon):
    assert check_case(persian, fixture_lexicon) > 0


def test_scheme_count_where_frames_render_alike(join_alike):
    assert check_case(*join_alike) > 0


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
def test_scheme_count_on_random_lexicons(mode):
    assert sum(check_case(*make_case(seed, mode=mode)) for seed in range(4)) > 100


@settings(deadline=None)
@given(hostile_case())
def test_scheme_count_arbitrary_symbols(case):
    check_case(*case)


@pytest.mark.parametrize("n_cons", [70, 260])
def test_scheme_count_codes_wider_than_six_bits(n_cons):
    inv, lex = wide_case(n_cons, seed=n_cons)
    assert inv.code_bits > 6
    assert check_case(inv, lex) > 1000


# A hand-built table of the `mini` inventory (conftest.py), padded to five
# symbols. Its unordered pairs, with weight and feature: b/p 2 voice and
# bad/bat 4 voice, whose next code is padding; ba/pa 3 voice, bad/pad 4
# voice and bada/dada 5 place, followed by the vowel a; babab/babap 6
# voice at the last position.
SEQS = [(), ("b",), ("p",), ("n",), ("b", "a"), ("p", "a"), ("b", "a", "d"),
        ("b", "a", "t"), ("p", "a", "d"), ("b", "a", "d", "a"), ("d", "a", "d", "a"),
        ("b", "a", "b", "a", "p"), ("b", "a", "b", "a", "b")]
TABLE = SequenceTable(freqs={"".join(s): len(s) + 1 for s in reversed(SEQS)})


def test_scheme_count_mixed_lengths(mini):
    assert check_counts(lambda cfg, scheme: _count_table(TABLE, mini, cfg, scheme), mini) > 0


@pytest.mark.parametrize("scheme, cells", [
    # the pairs before padding or at the last position have no following segment
    ("following-segment", {("_a", "voice"): Cell(7, 2), ("_a", "place"): Cell(5, 1)}),
    # a vowel has no class
    ("following-class", {}),
    # positions are counted from the first symbol, shorter sequences alike
    ("position", {("C1", "voice"): Cell(9, 3), ("C1", "place"): Cell(5, 1),
                  ("C2", "voice"): Cell(4, 1), ("C4", "voice"): Cell(6, 1)}),
    ("total", {("total", "voice"): Cell(19, 5), ("total", "place"): Cell(5, 1)}),
])
@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_scheme_count_mixed_lengths_by_hand(mini, scheme, cells, orientation):
    times = 2 if orientation == "ordered" else 1
    cfg = StudyConfig(kind="positions", orientation=orientation)
    matrix = _count_table(TABLE, mini, cfg, scheme)
    assert matrix.cells == {key: Cell(c.weighted * times, c.pairs * times)
                            for key, c in cells.items()}
    assert matrix.pairs_found == 6 * times


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_counts_pairs_include_pairs_without_a_cell(persian, fixture_lexicon, orientation):
    cfg = StudyConfig(kind="clusters", orientation=orientation)
    report = run_study(fixture_lexicon, persian, cfg, scheme="following-segment")
    in_cells = sum(c.pairs for c in report.matrix.cells.values())
    pairs = enumerate_minimal_sequence_pairs(report.table, persian, cfg)
    assert in_cells < report.counts["pairs"] == len(pairs)


@pytest.mark.parametrize("kind, scheme, message", [
    ("clusters", "nope", "unknown aggregation scheme 'nope'"),
    ("clusters", "position", "position scheme requires a positions study"),
])
def test_run_study_refuses_the_scheme_before_extraction(monkeypatch, persian, fixture_lexicon,
                                                        kind, scheme, message):
    def extract(*args, **kwargs):
        raise AssertionError("extracted")

    monkeypatch.setattr(ptrac.core, "extract_sequences", extract)
    with pytest.raises(StudyError, match=message):
        run_study(fixture_lexicon, persian, StudyConfig(kind=kind), scheme=scheme)
