"""The matrix `run_study` counts straight from the sequence table, held to
`count_contrasts` of `enumerate_minimal_sequence_pairs`; `analyze` lists
no pair, and `list-pairs` lists them once."""

import itertools

import pytest
from hypothesis import given, settings

import ptrac.core
from ptrac import (
    Lexicon,
    StudyConfig,
    count_contrasts,
    data,
    enumerate_minimal_sequence_pairs,
    extract_sequences,
    run_study,
)
from ptrac.cli import cli_main
from randlex import hostile_case, make_case

CONFIGS = [
    StudyConfig(kind=kind, weighting=weighting, orientation=orientation, feature=feature)
    for kind, weighting, orientation, feature in itertools.product(
        ("clusters", "positions"),
        ("type-frequency", "unweighted"),
        ("unordered", "ordered"),
        (None, "manner", "place", "voice"),
    )
]


def check_case(inv, lex):
    """Compare every config; return the number of pairs counted."""
    seen = 0
    for cfg in CONFIGS:
        got = run_study(lex, inv, cfg).matrix
        table, _ = extract_sequences(lex, inv, cfg)
        want = count_contrasts(enumerate_minimal_sequence_pairs(table, inv, cfg), cfg)
        assert got.cells == want.cells, cfg
        assert (got.features, got.scheme, got.kind) == (want.features, want.scheme, want.kind)
        seen += sum(c.pairs for c in got.cells.values())
    return seen


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
def test_fused_count_matches_pairs_on_random_lexicons(mode):
    assert sum(check_case(*make_case(seed, mode=mode)) for seed in range(10)) > 1000


@settings(deadline=None)
@given(hostile_case())
def test_fused_count_matches_pairs_arbitrary_symbols(case):
    check_case(*case)


def test_fused_count_matches_pairs_on_fixture(persian, fixture_lexicon):
    assert check_case(persian, fixture_lexicon) > 0


def test_fused_count_empty_lexicon(persian):
    assert check_case(persian, Lexicon([], persian)) == 0
    assert not run_study(Lexicon([], persian), persian, StudyConfig()).matrix.cells


@pytest.fixture
def enumerate_calls(monkeypatch):
    """Count calls of `enumerate_minimal_sequence_pairs`, wherever the
    package calls it from."""
    calls = []
    real = ptrac.core.enumerate_minimal_sequence_pairs

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ptrac.core, "enumerate_minimal_sequence_pairs", counting)
    return calls


@pytest.mark.parametrize("feature", [None, "manner", "place", "voice"])
@pytest.mark.parametrize("kind", ["clusters", "positions"])
def test_counts_pairs_equals_pair_list(persian, fixture_lexicon, kind, feature):
    for orientation in ("unordered", "ordered"):
        cfg = StudyConfig(kind=kind, feature=feature, orientation=orientation)
        report = run_study(fixture_lexicon, persian, cfg)
        assert report.counts["pairs"] == len(enumerate_minimal_sequence_pairs(report.table,
                                                                              persian, cfg))


def test_analyze_enumerates_no_pairs(capsys, enumerate_calls):
    inv, lex = str(data.data_path("persian.inv")), str(data.data_path("voicing_fixture.tsv"))
    for study in ("clusters", "positions"):
        assert cli_main(["analyze", "--inventory", inv, "--lexicon", lex, "--study", study]) == 0
    assert capsys.readouterr().out and enumerate_calls == []


def test_list_pairs_enumerates_once(capsys, enumerate_calls):
    inv, lex = str(data.data_path("persian.inv")), str(data.data_path("voicing_fixture.tsv"))
    assert cli_main(["list-pairs", "--inventory", inv, "--lexicon", lex, "--study", "clusters",
                     "--feature", "voice", "--context", "_r", "--scheme",
                     "following-segment"]) == 0
    assert capsys.readouterr().out and len(enumerate_calls) == 1
