"""The scheme-to-key mapping: `aggregate` and `list_pairs_for` take it from
one function, `core.scheme_key`, so they refuse the same schemes and agree
on every context. A drill-down lists exactly the pairs its matrix cell
counts."""

import itertools

import pytest

from randlex import make_case
from ptrac import StudyConfig, StudyError, aggregate, extract_sequences, list_pairs_for, run_study
from ptrac.core import KINDS, ORIENTATIONS, SCHEMES, context_text
from ptrac.inventory import FEATURES


@pytest.mark.parametrize("kind, scheme, message", [
    ("clusters", "nope", "unknown aggregation scheme 'nope'"),
    ("positions", "nope", "unknown aggregation scheme 'nope'"),
    ("clusters", "position", "position scheme requires a positions study"),
])
def test_aggregate_and_drilldown_refuse_alike(fixture_lexicon, persian, kind, scheme, message):
    cfg = StudyConfig(kind=kind)
    report = run_study(fixture_lexicon, persian, cfg)
    with pytest.raises(StudyError) as agg:
        aggregate(report.matrix, scheme, inv=persian)
    with pytest.raises(StudyError) as drill:
        list_pairs_for(report.pairs, "voice", "C1", fixture_lexicon, persian, cfg,
                       scheme=scheme)
    assert str(agg.value) == str(drill.value) == message


def assert_drilldown_equals_matrix(lex, inv):
    """For every cell of every valid aggregation, the drill-down lists
    `pairs` rows whose weights sum to `weighted`; a context text that two
    keys share is refused. Returns the numbers of cells checked and of
    drill-downs refused."""
    checked = refused = 0
    for kind, orientation in itertools.product(KINDS, ORIENTATIONS):
        cfg = StudyConfig(kind=kind, orientation=orientation)
        report = run_study(lex, inv, cfg)
        index = extract_sequences(lex, inv, cfg, carriers=True)[0].carriers
        for scheme in SCHEMES:
            if scheme == "position" and kind != "positions":
                continue
            matrix = aggregate(report.matrix, scheme, inv=inv)
            by_text = {}
            for ctx in matrix.contexts():
                by_text.setdefault(context_text(ctx), []).append(ctx)
            for text, keys in by_text.items():
                for feature in FEATURES:
                    args = (report.pairs, feature, text, lex, inv, cfg)
                    kwargs = {"scheme": scheme, "limit": 1, "carriers": index}
                    if len(keys) > 1:
                        with pytest.raises(StudyError, match="both render as"):
                            list_pairs_for(*args, **kwargs)
                        refused += 1
                        continue
                    cell = matrix.cell(keys[0], feature)
                    rows = list_pairs_for(*args, **kwargs)
                    assert len(rows) == cell.pairs, (kind, orientation, scheme, text, feature)
                    assert sum(r.pair.weight for r in rows) == cell.weighted
                    checked += 1
    return checked, refused


def test_drilldown_equals_matrix_on_fixture(fixture_lexicon, persian):
    checked, _ = assert_drilldown_equals_matrix(fixture_lexicon, persian)
    assert checked > 100


def test_drilldown_equals_matrix_where_contexts_render_alike(join_alike):
    inv, lex = join_alike
    checked, refused = assert_drilldown_equals_matrix(lex, inv)
    assert checked and refused


@pytest.mark.parametrize("mode", ["pair-list", "vector", "multichar"])
@pytest.mark.parametrize("seed", range(4))
def test_drilldown_equals_matrix_on_random_lexicons(mode, seed):
    inv, lex = make_case(seed, max_words=80, mode=mode)
    checked, _ = assert_drilldown_equals_matrix(lex, inv)
    assert checked
